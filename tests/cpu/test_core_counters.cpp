// Stall-attribution counters of the core model.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cpu/core.hpp"
#include "mem/controller.hpp"

namespace bwpart::cpu {
namespace {

constexpr Frequency kCpu = Frequency::from_ghz(5.0);

class RepeatTrace final : public TraceSource {
 public:
  explicit RepeatTrace(TraceOp op) : op_(op) {}
  TraceOp next() override {
    TraceOp op = op_;
    op.addr = next_line_ * 64;
    next_line_ = (next_line_ + 1) % (1u << 20);
    return op;
  }

 private:
  TraceOp op_;
  std::uint64_t next_line_ = 0;
};

struct Rig {
  std::unique_ptr<mem::MemoryController> mc;
  std::unique_ptr<OoOCore> core;
  void run(Cycle n) {
    for (Cycle t = 0; t < n; ++t) {
      core->tick(t);
      mc->tick(t);
    }
  }
};

Rig make_rig(const CoreConfig& cfg, TraceSource& trace,
             std::size_t queue_cap = 32) {
  dram::DramConfig dcfg = dram::DramConfig::ddr2_400();
  dcfg.enable_refresh = false;
  Rig rig;
  rig.mc = std::make_unique<mem::MemoryController>(
      dcfg, kCpu, 1, std::make_unique<mem::FcfsScheduler>(), queue_cap,
      dram::MapScheme::ChanRowColBankRank, queue_cap,
      mem::AdmissionMode::PerApp);
  rig.core = std::make_unique<OoOCore>(0, cfg, trace, *rig.mc);
  auto* core = rig.core.get();
  rig.mc->set_completion_callback(
      [core](const mem::MemRequest& r, Cycle d) { core->on_mem_complete(r, d); });
  return rig;
}

TEST(CoreCounters, MemStallDominatesForDependentStream) {
  RepeatTrace trace(TraceOp{20, 0, AccessType::Read, /*dependent=*/true});
  CoreConfig cfg;
  Rig rig = make_rig(cfg, trace);
  rig.run(100'000);
  const auto& s = rig.core->stats();
  // Serialized misses: most cycles are retirement stalls on the head load.
  EXPECT_GT(s.mem_stall_cycles, s.cycles / 2);
}

TEST(CoreCounters, RobStallAppearsWhenWindowFills) {
  // Independent misses close together: fetch runs to the ROB limit and
  // waits there while the oldest miss is outstanding.
  RepeatTrace trace(TraceOp{4, 0, AccessType::Read, false});
  CoreConfig cfg;
  cfg.rob_size = 32;
  cfg.mshrs = 32;
  Rig rig = make_rig(cfg, trace);
  rig.run(100'000);
  EXPECT_GT(rig.core->stats().rob_stall_cycles, 0u);
}

TEST(CoreCounters, QueueStallAppearsUnderBackpressure) {
  // Tiny controller queue: the core must report stalls on MSHR/queue space.
  RepeatTrace trace(TraceOp{2, 0, AccessType::Read, false});
  CoreConfig cfg;
  cfg.mshrs = 32;
  Rig rig = make_rig(cfg, trace, /*queue_cap=*/2);
  rig.run(100'000);
  EXPECT_GT(rig.core->stats().queue_stall_cycles, 0u);
}

TEST(CoreCounters, ComputeOnlyStreamHasNoStalls) {
  RepeatTrace trace(TraceOp{1'000'000'000, 0, AccessType::Read, false});
  CoreConfig cfg;
  cfg.nonmem_ipc_x100 = 400;
  Rig rig = make_rig(cfg, trace);
  rig.run(50'000);
  const auto& s = rig.core->stats();
  EXPECT_EQ(s.mem_stall_cycles, 0u);
  EXPECT_EQ(s.queue_stall_cycles, 0u);
  EXPECT_EQ(s.offchip_accesses(), 0u);
}

TEST(CoreCounters, ApcApiIpcIdentity) {
  // Eq. 1 holds on the measured counters: IPC = APC / API.
  RepeatTrace trace(TraceOp{50, 0, AccessType::Read, false});
  CoreConfig cfg;
  Rig rig = make_rig(cfg, trace);
  rig.run(200'000);
  const auto& s = rig.core->stats();
  ASSERT_GT(s.api(), 0.0);
  EXPECT_NEAR(s.ipc(), s.apc() / s.api(), s.ipc() * 0.01);
}

}  // namespace
}  // namespace bwpart::cpu
