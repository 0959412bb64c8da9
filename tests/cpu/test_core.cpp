#include "cpu/core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "common/snapshot_io.hpp"
#include "mem/controller.hpp"

namespace bwpart::cpu {
namespace {

constexpr Frequency kCpu = Frequency::from_ghz(5.0);

dram::DramConfig quiet_dram() {
  dram::DramConfig cfg = dram::DramConfig::ddr2_400();
  cfg.enable_refresh = false;
  return cfg;
}

/// Scripted trace: replays a fixed pattern, then repeats it.
class ScriptedTrace final : public TraceSource {
 public:
  explicit ScriptedTrace(std::vector<TraceOp> ops) : ops_(std::move(ops)) {}
  TraceOp next() override {
    const TraceOp op = ops_[pos_ % ops_.size()];
    ++pos_;
    return op;
  }

 private:
  std::vector<TraceOp> ops_;
  std::size_t pos_ = 0;
};

/// Pure-compute trace: memory ops infinitely far apart.
class ComputeTrace final : public TraceSource {
 public:
  TraceOp next() override {
    return TraceOp{1'000'000'000'000ull, 0, AccessType::Read, false};
  }
};

struct Rig {
  std::unique_ptr<mem::MemoryController> mc;
  std::unique_ptr<OoOCore> core;

  void run(Cycle cycles, Cycle start = 0) {
    for (Cycle t = start; t < start + cycles; ++t) {
      core->tick(t);
      mc->tick(t);
    }
  }
};

Rig make_rig(const CoreConfig& cfg, TraceSource& trace) {
  Rig rig;
  rig.mc = std::make_unique<mem::MemoryController>(
      quiet_dram(), kCpu, 1, std::make_unique<mem::FcfsScheduler>());
  rig.core = std::make_unique<OoOCore>(0, cfg, trace, *rig.mc);
  auto* core = rig.core.get();
  rig.mc->set_completion_callback(
      [core](const mem::MemRequest& r, Cycle done) {
        core->on_mem_complete(r, done);
      });
  return rig;
}

/// The core's snapshot record.
std::vector<std::uint8_t> record(OoOCore& core) {
  snap::Writer w;
  snap::Io io(w);
  core.transfer(io);
  return w.take();
}

void restore(OoOCore& core, const std::vector<std::uint8_t>& rec) {
  snap::Reader r(rec);
  snap::Io io(r);
  core.transfer(io);
}

TEST(OoOCore, RatesConvertExactlyOnTheGrid) {
  EXPECT_EQ(ipc_x100(0.01), 1u);
  EXPECT_EQ(ipc_x100(0.72), 72u);
  EXPECT_EQ(ipc_x100(2.4), 240u);
  EXPECT_EQ(ipc_x100(8.0), 800u);
}

TEST(OoOCoreDeathTest, OffGridRateFailsLoudly) {
  EXPECT_DEATH((void)ipc_x100(0.333), "multiple of 0.01");
  EXPECT_DEATH((void)ipc_x100(0.0), "multiple of 0.01");
  EXPECT_DEATH((void)ipc_x100(-0.5), "multiple of 0.01");
}

/// What a stall replay must reproduce: the cycle count, the three stall
/// counters and the fetch budget.
auto stall_state(const OoOCore& core) {
  const CoreStats& s = core.stats();
  return std::make_tuple(s.cycles, s.mem_stall_cycles, s.rob_stall_cycles,
                         s.queue_stall_cycles, core.fetch_budget());
}

// fast_forward_stall(n) replays n blocked cycles in closed form. For every
// rate on the 0.01 grid up to the width, every start budget, and every n up
// to three flag periods past the first flag, it must leave the stall state
// n tick() calls leave. Both stall kinds sit behind a pending load (memory
// stalls): a read blocked on the one MSHR (queue stalls) and a full window
// (ROB stalls).
TEST(OoOCore, StallReplayMatchesTicksAtEveryRateAndBudget) {
  struct Blocked {
    const char* name;
    std::uint32_t rob;
    std::vector<TraceOp> ops;
  };
  const Blocked kinds[] = {
      {"MSHR", 192, {TraceOp{0, 0x0, AccessType::Read, false}}},
      {"window",
       4,
       {TraceOp{0, 0x0, AccessType::Read, false},
        TraceOp{1'000'000, 0x40, AccessType::Read, false}}},
  };
  for (const Blocked& kind : kinds) {
    for (std::uint32_t r = 1; r <= 8 * kBudgetUnit; ++r) {
      CoreConfig cfg;
      cfg.rob_size = kind.rob;
      cfg.mshrs = 1;
      cfg.nonmem_ipc_x100 = r;
      ScriptedTrace trace(kind.ops);
      // The controller never ticks, so the first read never completes.
      Rig rig = make_rig(cfg, trace);
      OoOCore& ref = *rig.core;
      Cycle t = 0;
      do {
        ref.tick(++t);
      } while (ref.next_wake(t) != kNoCycle);
      std::vector<std::uint8_t> rec = record(ref);
      for (std::uint32_t b = 0; b < kBudgetUnit; ++b) {
        // The record opens with its tag and the fetch and retire sequence
        // numbers (4 + 8 + 8 bytes); the budget follows as a u32.
        for (std::size_t i = 0; i < 4; ++i) {
          rec[20 + i] = static_cast<std::uint8_t>(b >> (8 * i));
        }
        restore(ref, rec);
        ASSERT_EQ(ref.fetch_budget(), b);
        const OoOCore start = ref;
        const Cycle first = (kBudgetUnit - b + r - 1) / r;
        const Cycle period = (kBudgetUnit + r - 1) / r;
        for (Cycle n = 0; n <= first + 3 * period; ++n) {
          if (n > 0) ref.tick(t + n);
          OoOCore ff = start;
          ff.fast_forward_stall(n);
          ASSERT_EQ(stall_state(ff), stall_state(ref))
              << kind.name << " rate " << r << " budget " << b << " cycles "
              << n;
        }
      }
    }
  }
}

TEST(OoOCore, ComputeOnlyRunsAtNonmemIpc) {
  ComputeTrace trace;
  CoreConfig cfg;
  cfg.nonmem_ipc_x100 = 200;
  Rig rig = make_rig(cfg, trace);
  rig.run(10'000);
  EXPECT_NEAR(rig.core->stats().ipc(), 2.0, 0.01);
  EXPECT_EQ(rig.core->stats().offchip_accesses(), 0u);
}

TEST(OoOCore, FractionalIssueRateAccumulates) {
  ComputeTrace trace;
  CoreConfig cfg;
  cfg.nonmem_ipc_x100 = 150;
  Rig rig = make_rig(cfg, trace);
  rig.run(10'000);
  EXPECT_NEAR(rig.core->stats().ipc(), 1.5, 0.01);
}

TEST(OoOCore, SingleMissStallsRoughlyMemoryLatency) {
  // One miss every 10,000 instructions, far beyond the ROB: the miss is
  // fully exposed, so cycles/period = instrs/ipc + latency.
  ScriptedTrace trace({TraceOp{10'000, 0x0, AccessType::Read, false}});
  CoreConfig cfg;
  cfg.nonmem_ipc_x100 = 800;
  Rig rig = make_rig(cfg, trace);
  rig.run(200'000);
  const auto& s = rig.core->stats();
  ASSERT_GT(s.offchip_reads, 5u);
  const double cycles_per_period =
      static_cast<double>(s.cycles) / static_cast<double>(s.offchip_reads);
  const double compute = 10'001 / 8.0;
  const double exposed = cycles_per_period - compute;
  EXPECT_GT(exposed, 150.0);  // a DDR2 round trip at 5 GHz
  EXPECT_LT(exposed, 450.0);
}

TEST(OoOCore, ApiIsPreservedByTheCore) {
  // API is a program property; the core must reproduce the trace's rate.
  ScriptedTrace trace({TraceOp{99, 0x0, AccessType::Read, false},
                       TraceOp{99, 0x4000, AccessType::Write, false}});
  CoreConfig cfg;
  Rig rig = make_rig(cfg, trace);
  rig.run(300'000);
  EXPECT_NEAR(rig.core->stats().api(), 2.0 / 200.0, 0.0005);
}

TEST(OoOCore, IndependentMissesOverlapWithinRob) {
  // Misses 30 instructions apart: the 192-entry ROB holds ~6, so they
  // overlap and the per-miss cost is far below the full latency.
  std::vector<TraceOp> ops;
  for (int i = 0; i < 8; ++i) {
    ops.push_back(TraceOp{30, static_cast<Addr>(i) * 64, AccessType::Read,
                          false});
  }
  ScriptedTrace trace(ops);
  CoreConfig cfg;
  cfg.nonmem_ipc_x100 = 800;
  Rig rig = make_rig(cfg, trace);
  rig.run(300'000);
  const auto& s = rig.core->stats();
  const double cycles_per_miss =
      static_cast<double>(s.cycles) / static_cast<double>(s.offchip_reads);
  EXPECT_LT(cycles_per_miss, 150.0);  // well under one full round trip
}

TEST(OoOCore, DependentMissesSerialize) {
  std::vector<TraceOp> ops;
  for (int i = 0; i < 8; ++i) {
    ops.push_back(TraceOp{30, static_cast<Addr>(i) * 64, AccessType::Read,
                          /*dependent=*/true});
  }
  ScriptedTrace trace(ops);
  CoreConfig cfg;
  cfg.nonmem_ipc_x100 = 800;
  Rig rig = make_rig(cfg, trace);
  rig.run(300'000);
  const double cycles_per_miss =
      static_cast<double>(rig.core->stats().cycles) /
      static_cast<double>(rig.core->stats().offchip_reads);
  EXPECT_GT(cycles_per_miss, 200.0);  // each miss pays the round trip
}

TEST(OoOCore, RobLimitsMemoryLevelParallelism) {
  // Misses 100 instructions apart: a 64-entry ROB exposes every miss while
  // a 512-entry ROB overlaps ~5 of them.
  std::vector<TraceOp> ops;
  for (int i = 0; i < 8; ++i) {
    ops.push_back(TraceOp{100, static_cast<Addr>(i) * 64, AccessType::Read,
                          false});
  }
  auto run_with_rob = [&](std::uint32_t rob) {
    ScriptedTrace trace(ops);
    CoreConfig cfg;
    cfg.rob_size = rob;
    Rig rig = make_rig(cfg, trace);
    rig.run(300'000);
    return static_cast<double>(rig.core->stats().cycles) /
           static_cast<double>(rig.core->stats().offchip_reads);
  };
  EXPECT_GT(run_with_rob(64), 1.5 * run_with_rob(512));
}

TEST(OoOCore, WritesArePostedNotBlocking) {
  // A sparse write stream (demand well under bus capacity) should run at
  // full compute speed: stores retire without waiting for memory. The same
  // rate of *dependent reads* would stall on every access.
  ScriptedTrace trace({TraceOp{2000, 0x0, AccessType::Write, false}});
  CoreConfig cfg;
  cfg.nonmem_ipc_x100 = 400;
  Rig rig = make_rig(cfg, trace);
  rig.run(100'000);
  EXPECT_GT(rig.core->stats().ipc(), 3.5);
  EXPECT_GT(rig.core->stats().offchip_writes, 100u);
}

TEST(OoOCore, MshrLimitThrottlesMlp) {
  std::vector<TraceOp> ops;
  for (int i = 0; i < 16; ++i) {
    ops.push_back(TraceOp{10, static_cast<Addr>(i) * 64, AccessType::Read,
                          false});
  }
  auto apc_with_mshrs = [&](std::uint32_t mshrs) {
    ScriptedTrace trace(ops);
    CoreConfig cfg;
    cfg.mshrs = mshrs;
    Rig rig = make_rig(cfg, trace);
    rig.run(300'000);
    return rig.core->stats().apc();
  };
  EXPECT_GT(apc_with_mshrs(8), 1.5 * apc_with_mshrs(1));
}

TEST(OoOCore, CacheModeFiltersHits) {
  // A tiny working set fits in L1: after warm-up nothing goes off-chip.
  std::vector<TraceOp> ops;
  for (int i = 0; i < 16; ++i) {
    ops.push_back(TraceOp{10, static_cast<Addr>(i) * 64, AccessType::Read,
                          false});
  }
  ScriptedTrace trace(ops);
  CoreConfig cfg;
  cfg.model_caches = true;
  Rig rig = make_rig(cfg, trace);
  rig.run(20'000);
  rig.core->reset_stats();
  rig.run(100'000, 20'000);
  EXPECT_EQ(rig.core->stats().offchip_reads, 0u);
  EXPECT_GT(rig.core->l1().hit_rate(), 0.99);
}

TEST(OoOCore, CacheModeStreamingMissesGoOffChip) {
  // A strided stream over 32 MiB misses both caches every time.
  class StreamTrace final : public TraceSource {
   public:
    TraceOp next() override {
      line_ = (line_ + 1) % (1ull << 19);
      return TraceOp{50, line_ * 64, AccessType::Read, false};
    }

   private:
    std::uint64_t line_ = 0;
  };
  StreamTrace trace;
  CoreConfig cfg;
  cfg.model_caches = true;
  Rig rig = make_rig(cfg, trace);
  rig.run(100'000);
  EXPECT_GT(rig.core->stats().offchip_reads, 100u);
  EXPECT_LT(rig.core->l2().hit_rate(), 0.01);
}

TEST(OoOCore, DirtyL2EvictionsProduceWritebacks) {
  // Stream writes over a footprint larger than L2: dirty lines must be
  // written back off-chip.
  class WriteStream final : public TraceSource {
   public:
    TraceOp next() override {
      line_ = (line_ + 1) % (1ull << 16);  // 4 MiB
      return TraceOp{50, line_ * 64, AccessType::Write, false};
    }

   private:
    std::uint64_t line_ = 0;
  };
  WriteStream trace;
  CoreConfig cfg;
  cfg.model_caches = true;
  Rig rig = make_rig(cfg, trace);
  rig.run(400'000);
  // Each streamed line eventually evicts a dirty victim: writes ~2x reads
  // (demand write-allocates count as writes too through the store path).
  EXPECT_GT(rig.core->stats().offchip_writes, 1000u);
}

TEST(OoOCore, CacheModeKeepsStoresWithinTheStoreBuffer) {
  // Writes cycling over more lines than tiny caches hold: a demand miss can
  // also write back a dirty L2 victim, so the stall rule reserves both
  // store-buffer slots before the cache lookups change any state.
  std::vector<TraceOp> ops;
  for (int i = 0; i < 256; ++i) {
    ops.push_back(TraceOp{10, static_cast<Addr>(i) * 64, AccessType::Write,
                          false});
  }
  ScriptedTrace trace(ops);
  CoreConfig cfg;
  cfg.model_caches = true;
  cfg.store_buffer = 4;
  cfg.l1 = {1024, 64, 2};
  cfg.l2 = {4096, 64, 2};
  Rig rig = make_rig(cfg, trace);
  std::uint64_t most_in_flight = 0;
  for (Cycle t = 0; t < 200'000; ++t) {
    rig.run(1, t);
    const mem::AppMemStats& s = rig.mc->app_stats(0);
    most_in_flight = std::max(most_in_flight, s.enqueued - s.served_writes);
  }
  EXPECT_EQ(most_in_flight, cfg.store_buffer);
}

TEST(OoOCore, ResetStatsKeepsArchitecturalState) {
  ScriptedTrace trace({TraceOp{100, 0x0, AccessType::Read, false}});
  CoreConfig cfg;
  Rig rig = make_rig(cfg, trace);
  rig.run(50'000);
  rig.core->reset_stats();
  EXPECT_EQ(rig.core->stats().cycles, 0u);
  EXPECT_EQ(rig.core->stats().instructions, 0u);
  rig.run(50'000, 50'000);
  EXPECT_GT(rig.core->stats().instructions, 0u);
}

/// Two applications on one controller with two-entry queues, nothing
/// ticked yet. Core 0 issues back-to-back reads; app 1 is driven directly.
struct TwoAppRig {
  ScriptedTrace trace{{TraceOp{0, 0x0, AccessType::Read, false}}};
  mem::MemoryController mc;
  OoOCore core;

  explicit TwoAppRig(mem::AdmissionMode admission)
      : mc(quiet_dram(), kCpu, 2, std::make_unique<mem::FcfsScheduler>(),
           /*per_app_queue_capacity=*/2, dram::MapScheme::ChanRowColBankRank,
           /*shared_queue_capacity=*/2, admission),
        core(0, CoreConfig{}, trace, mc) {}
};

// Only a core's own completions end its sleep. A shared transaction queue
// filled by another application clears on that application's completions,
// so a core blocked there proves no sleep and ticks on.
TEST(OoOCore, SharedQueueBlockProvesNoSleep) {
  TwoAppRig rig(mem::AdmissionMode::Shared);
  rig.mc.enqueue(1, 0x1000, AccessType::Read, 0);
  rig.mc.enqueue(1, 0x2000, AccessType::Read, 0);
  rig.core.tick(0);
  ASSERT_EQ(rig.core.stats().offchip_reads, 0u);
  ASSERT_EQ(rig.core.stats().queue_stall_cycles, 1u);
  EXPECT_EQ(rig.core.prove_sleep(0).wake, 1u);
}

// The same block on the core's own full queue slice clears only on its own
// completions, so it still sleeps as a stall until one arrives.
TEST(OoOCore, OwnQueueSliceBlockSleepsAsStall) {
  TwoAppRig rig(mem::AdmissionMode::PerApp);
  rig.core.tick(0);
  ASSERT_EQ(rig.core.stats().offchip_reads, 2u);
  ASSERT_EQ(rig.core.stats().queue_stall_cycles, 1u);
  ASSERT_TRUE(rig.mc.can_accept(1));
  const WakeProof p = rig.core.prove_sleep(0);
  EXPECT_EQ(p.flavor, SleepFlavor::kStall);
  EXPECT_EQ(p.wake, kNoCycle);
}

}  // namespace
}  // namespace bwpart::cpu
