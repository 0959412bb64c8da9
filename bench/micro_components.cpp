// Google-benchmark microbenchmarks of the simulator's building blocks:
// DRAM engine tick rate, controller scheduling cost vs queue depth, cache
// access throughput, trace generation, and whole-system simulation speed.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "cpu/cache.hpp"
#include "dram/config.hpp"
#include "harness/experiment.hpp"
#include "harness/system.hpp"
#include "mem/controller.hpp"
#include "workload/mixes.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace bwpart;

void BM_DramTickIdle(benchmark::State& state) {
  dram::DramConfig cfg = dram::DramConfig::ddr2_400();
  dram::DramSystem d(cfg);
  dram::Tick now = 0;
  for (auto _ : state) {
    d.tick(now);
    ++now;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DramTickIdle);

void BM_CacheAccess(benchmark::State& state) {
  cpu::Cache cache(cpu::CacheGeometry::l2_default());
  const std::uint64_t footprint_lines =
      static_cast<std::uint64_t>(state.range(0));
  Addr line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.access((line % footprint_lines) * 64, AccessType::Read));
    ++line;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess)->Arg(1024)->Arg(16384)->Arg(1 << 20);

void BM_TraceGeneration(benchmark::State& state) {
  auto gen = workload::SyntheticTraceGenerator::from_benchmark(
      workload::find_benchmark("lbm"), 0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceGeneration);

void BM_DramTickActive(benchmark::State& state) {
  // DramSystem::tick with refresh housekeeping live and commands in
  // flight — the per-tick cost the SoA rewrite's O(1) fast-out targets
  // (BM_DramTickIdle measures the no-work floor).
  dram::DramConfig cfg = dram::DramConfig::ddr2_400();
  dram::DramSystem d(cfg);
  dram::Tick now = 0;
  std::uint64_t row = 1;
  for (auto _ : state) {
    d.tick(now);
    const dram::Location loc{0, 0, 0, row, 0};
    const dram::Command cmd{d.required_command(loc, AccessType::Read), loc, 0,
                            0};
    if (d.can_issue(cmd, now)) {
      d.issue(cmd, now);
      if (dram::is_read_command(cmd.type)) ++row;
    }
    ++now;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DramTickActive);

void BM_DramCanIssueIssue(benchmark::State& state) {
  // The command-legality triple in isolation: required_command ->
  // can_issue -> issue, rotating over banks with a fresh row per read so
  // ACT, RD and PRE all exercise their timing-table rows. Items processed
  // counts legality checks, not issued commands.
  dram::DramConfig cfg = dram::DramConfig::ddr2_400();
  cfg.enable_refresh = false;
  dram::DramSystem d(cfg);
  dram::Tick now = 0;
  std::uint64_t row = 1;
  std::uint32_t bank = 0;
  for (auto _ : state) {
    const dram::Location loc{0, 0, bank, row, 0};
    const dram::Command cmd{d.required_command(loc, AccessType::Read), loc, 0,
                            0};
    if (d.can_issue(cmd, now)) {
      benchmark::DoNotOptimize(d.issue(cmd, now));
      if (dram::is_read_command(cmd.type)) {
        bank = (bank + 1) % cfg.banks_per_rank;
        ++row;
      }
    }
    ++now;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DramCanIssueIssue);

void BM_DramNextEventTick(benchmark::State& state) {
  // The DRAM half of an idle controller's skip horizon: the min over cached
  // next-refresh / power-down deadlines.
  dram::DramSystem d(dram::DramConfig::ddr2_400());
  dram::Tick from = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.next_event_tick(from));
    ++from;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DramNextEventTick);

void BM_ControllerSchedulerScan(benchmark::State& state) {
  // Isolates the pending-queue scan: every queued read gets a distinct row
  // (large stride) on one of the first `banks` of DDR2-400's 32 banks
  // (rank and bank are the low line-address bits). With one bank, behind
  // the head each entry needs the open row closed first, so nearly every
  // tick walks the full queue through the veto chain, but all of it is one
  // (bank, command) pair. Spread over all 32 banks, the queue holds many
  // pairs, as portfolio64's do (~18 in ~22 requests), which resolves the
  // per-request cost of the scan.
  const auto depth = static_cast<std::size_t>(state.range(0));
  const auto banks = static_cast<std::uint64_t>(state.range(1));
  dram::DramConfig cfg = dram::DramConfig::ddr2_400();
  cfg.enable_refresh = false;
  mem::MemoryController mc(cfg, Frequency::from_ghz(5.0), 1,
                           std::make_unique<mem::FcfsScheduler>(), depth,
                           dram::MapScheme::ChanRowColBankRank, depth,
                           mem::AdmissionMode::PerApp);
  mc.set_completion_callback([](const mem::MemRequest&, Cycle) {});
  std::uint64_t n = 0;
  Cycle t = 0;
  for (auto _ : state) {
    while (mc.can_accept(0)) {
      mc.enqueue(0, (n << 24) | ((n % banks) << 6), AccessType::Read, t);
      ++n;
    }
    mc.tick(t);
    ++t;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ControllerSchedulerScan)
    ->ArgsProduct({{8, 32, 128}, {1, 32}})
    ->ArgNames({"depth", "banks"});

/// Sums the attributed cycles. Attached to a controller, it makes every bus
/// tick run the interference-attribution pass, as in a CmpSystem profile
/// window; detached, the controller ticks as in a fixed-share measure phase.
class SumObserver final : public mem::InterferenceObserver {
 public:
  void on_interference(AppId, Cycle cpu_cycles) override {
    total += cpu_cycles;
  }
  Cycle total = 0;
};

/// Ticks one controller every CPU cycle while every `stride`-th of its
/// `num_apps` app ids keeps its queue slice topped up with reads from
/// `next_addr(line)`. The benchmark's arguments are the per-app queue depth
/// and whether an interference observer is attached. Items processed
/// counts CPU cycles.
template <typename AddrFn>
void tick_controller_under_load(benchmark::State& state,
                                const dram::DramConfig& cfg,
                                std::uint32_t num_apps, std::uint32_t stride,
                                AddrFn next_addr) {
  const auto queue_depth = static_cast<std::size_t>(state.range(0));
  mem::MemoryController mc(cfg, Frequency::from_ghz(5.0), num_apps,
                           std::make_unique<mem::FcfsScheduler>(),
                           queue_depth, dram::MapScheme::ChanRowColBankRank,
                           queue_depth * (num_apps / stride),
                           mem::AdmissionMode::PerApp);
  mc.set_completion_callback([](const mem::MemRequest&, Cycle) {});
  SumObserver observer;
  if (state.range(1) != 0) mc.set_interference_observer(&observer);
  std::uint64_t line = 0;
  Cycle t = 0;
  for (auto _ : state) {
    for (AppId app = 0; app < num_apps; app += stride) {
      if (mc.can_accept(app)) {
        mc.enqueue(app, next_addr(line++), AccessType::Read, t);
      }
    }
    mc.tick(t);
    ++t;
  }
  benchmark::DoNotOptimize(observer.total);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ControllerTickUnderLoad(benchmark::State& state) {
  // Four apps streaming sequential lines through DDR2-400.
  tick_controller_under_load(
      state, dram::DramConfig::ddr2_400(), 4, 1,
      [](std::uint64_t line) { return (line * 64) % (1ull << 30); });
}
BENCHMARK(BM_ControllerTickUnderLoad)
    ->ArgsProduct({{8, 32, 128}, {1, 0}})
    ->ArgNames({"depth", "observer"});

void BM_ControllerTickPortfolio64(benchmark::State& state) {
  // One controller of the portfolio64 machine: DDR2-1600, built over all 64
  // global app ids of which only its 16 round-robin apps (every 4th id)
  // enqueue, with per-app slices of the given depth (32 is the default).
  // Scattered lines spread the reads over banks and rows, so attribution
  // sees both bus and bank conflicts.
  tick_controller_under_load(
      state, dram::dram_config_for_generation("ddr2_1600"), 64, 4,
      [](std::uint64_t line) {
        return ((line * 0x9E3779B97F4A7C15ull) >> 34) << 6;
      });
}
BENCHMARK(BM_ControllerTickPortfolio64)
    ->ArgsProduct({{4, 32}, {1, 0}})
    ->ArgNames({"depth", "observer"});

void BM_FullSystemCycle(benchmark::State& state) {
  // A steady-state window per iteration, so the figure is the engine's cost
  // per simulated cycle rather than run()'s call overhead. Items processed
  // counts simulated cycles; s_per_cycle is its inverse rate.
  constexpr Cycle kWindow = 10'000;
  const auto copies = static_cast<std::uint32_t>(state.range(0));
  harness::SystemConfig cfg;
  cfg.num_controllers = static_cast<std::size_t>(state.range(1));
  const auto apps = workload::resolve_mix(workload::fig1_mix(), copies);
  harness::CmpSystem sys(cfg, apps, 1);
  sys.run(50'000);  // warm
  for (auto _ : state) {
    sys.run(kWindow);
  }
  const auto cycles = static_cast<double>(state.iterations()) *
                      static_cast<double>(kWindow);
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
  state.counters["cores"] = static_cast<double>(apps.size());
  state.counters["s_per_cycle"] = benchmark::Counter(
      cycles, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FullSystemCycle)
    ->ArgNames({"copies", "controllers"})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({4, 4});

/// One post-profile snapshot at sharded-sweep scale (the quick-portfolio
/// phases), captured once and reused by both snapshot benchmarks so the
/// profile simulation cost stays out of the measured loop.
const harness::ProfileSnapshot& sweep_snapshot() {
  static const harness::ProfileSnapshot snap = [] {
    harness::SystemConfig cfg;
    harness::PhaseConfig phases;
    phases.warmup_cycles = 20'000;
    phases.profile_cycles = 100'000;
    phases.measure_cycles = 100'000;
    const auto apps = workload::resolve_mix(workload::fig1_mix());
    return harness::Experiment(cfg, apps, phases).capture_profile();
  }();
  return snap;
}

void BM_SnapshotSave(benchmark::State& state) {
  // Cost of spooling one BWPS snapshot to disk (encode + checksum + write)
  // — the per-config spool-phase overhead of a sharded sweep.
  const harness::ProfileSnapshot& snap = sweep_snapshot();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bwpart_bm_snapshot_" + std::to_string(::getpid()) + ".bwps"))
          .string();
  for (auto _ : state) {
    harness::write_profile_snapshot(path, snap);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(snap.state.size()));
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotSave);

void BM_SnapshotRestore(benchmark::State& state) {
  // Read + checksum + decode of a spooled snapshot, then restoring the
  // system-state blob into a fresh CmpSystem — what every shard worker
  // pays per unit before its measure phase starts.
  const harness::ProfileSnapshot& snap = sweep_snapshot();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bwpart_bm_snapshot_" + std::to_string(::getpid()) + ".bwps"))
          .string();
  harness::write_profile_snapshot(path, snap);
  const harness::SystemConfig cfg;
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  for (auto _ : state) {
    const harness::ProfileSnapshot loaded =
        harness::read_profile_snapshot(path);
    harness::CmpSystem sys(cfg, apps, 42);
    snap::Reader r(loaded.state);
    sys.restore_state(r);
    benchmark::DoNotOptimize(sys.now());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(snap.state.size()));
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotRestore);

void BM_SchedulerOrderingCost(benchmark::State& state) {
  // Cost of the policy comparator itself on a synthetic queue.
  dram::DramConfig cfg = dram::DramConfig::ddr2_400();
  cfg.enable_refresh = false;
  dram::DramSystem d(cfg);
  mem::StartTimeFairScheduler sched(4);
  std::vector<mem::MemRequest> reqs(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = i;
    reqs[i].app = static_cast<AppId>(i % 4);
    reqs[i].start_tag = static_cast<double>((i * 7919) % 1000);
  }
  std::size_t a = 0, b = reqs.size() / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.before(reqs[a], reqs[b], d));
    a = (a + 1) % reqs.size();
    b = (b + 3) % reqs.size();
  }
}
BENCHMARK(BM_SchedulerOrderingCost)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
