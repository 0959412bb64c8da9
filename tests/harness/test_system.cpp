#include "harness/system.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "workload/mixes.hpp"

namespace bwpart::harness {
namespace {

SystemConfig small_cfg() { return SystemConfig{}; }

TEST(SystemConfig, PeakApcMatchesPaperUnits) {
  // DDR2-400 at a 5 GHz core: 3.2 GB/s == 0.01 APC (Section III-A).
  EXPECT_NEAR(SystemConfig{}.peak_apc(), 0.01, 1e-9);
}

TEST(CmpSystem, ConstructsOneCorePerApp) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  EXPECT_EQ(sys.num_apps(), 4u);
  EXPECT_EQ(sys.benchmark(0).name, "libquantum");
}

TEST(CmpSystem, RunAdvancesTimeAndRetiresInstructions) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  sys.run(100'000);
  EXPECT_EQ(sys.now(), 100'000u);
  for (AppId a = 0; a < sys.num_apps(); ++a) {
    EXPECT_GT(sys.core(a).stats().instructions, 0u) << "app " << a;
  }
}

TEST(CmpSystem, MeasuredApcSumsToTotal) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  sys.run(50'000);
  sys.reset_measurement();
  sys.run(200'000);
  const auto apcs = sys.measured_apc();
  double sum = 0.0;
  for (double x : apcs) sum += x;
  EXPECT_NEAR(sum, sys.measured_total_apc(), 1e-12);
  EXPECT_GT(sum, 0.0);
  // Cannot exceed the physical peak.
  EXPECT_LE(sum, small_cfg().peak_apc() * 1.001);
}

TEST(CmpSystem, ResetMeasurementZeroesWindow) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  sys.run(50'000);
  sys.reset_measurement();
  for (AppId a = 0; a < sys.num_apps(); ++a) {
    EXPECT_EQ(sys.core(a).stats().instructions, 0u);
  }
  EXPECT_EQ(sys.controller().app_stats(0).served(), 0u);
}

TEST(CmpSystem, ProfilerCountersAreMonotone) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  sys.run(50'000);
  sys.reset_measurement();
  sys.run(100'000);
  const auto c1 = sys.profiler_counters();
  sys.run(100'000);
  const auto c2 = sys.profiler_counters();
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_GE(c2[i].accesses, c1[i].accesses);
    EXPECT_GE(c2[i].instructions, c1[i].instructions);
    EXPECT_GE(c2[i].interference_cycles, c1[i].interference_cycles);
  }
}

TEST(CmpSystem, SameSeedIsDeterministic) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem a(small_cfg(), apps, 99);
  CmpSystem b(small_cfg(), apps, 99);
  a.run(150'000);
  b.run(150'000);
  for (AppId i = 0; i < a.num_apps(); ++i) {
    EXPECT_EQ(a.core(i).stats().instructions, b.core(i).stats().instructions);
    EXPECT_EQ(a.controller().app_stats(i).served(),
              b.controller().app_stats(i).served());
  }
}

TEST(CmpSystem, DifferentSeedsDiverge) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem a(small_cfg(), apps, 1);
  CmpSystem b(small_cfg(), apps, 2);
  a.run(150'000);
  b.run(150'000);
  bool any_diff = false;
  for (AppId i = 0; i < a.num_apps(); ++i) {
    any_diff |= a.core(i).stats().instructions !=
                b.core(i).stats().instructions;
  }
  EXPECT_TRUE(any_diff);
}

TEST(MakeScheduler, SchemesMapToExpectedPolicies) {
  const std::vector<core::AppParams> params{{0.005, 0.01}, {0.003, 0.02}};
  EXPECT_EQ(make_scheduler(core::Scheme::NoPartitioning, 2, params, 0.0)
                ->name(),
            "FCFS");
  EXPECT_EQ(make_scheduler(core::Scheme::Equal, 2, params, 0.0)->name(),
            "StartTimeFair");
  EXPECT_EQ(make_scheduler(core::Scheme::SquareRoot, 2, params, 0.0)->name(),
            "StartTimeFair");
  EXPECT_EQ(
      make_scheduler(core::Scheme::PriorityApc, 2, params, 0.0)->name(),
      "StrictPriority");
  EXPECT_EQ(
      make_scheduler(core::Scheme::PriorityApi, 2, params, 0.0)->name(),
      "StrictPriority");
}

// --- Multi-controller scale-out topology ---

std::vector<workload::BenchmarkSpec> eight_apps() {
  return workload::resolve_mix(workload::fig1_mix(), 2);
}

TEST(MultiController, PeakApcScalesWithControllers) {
  SystemConfig cfg;
  cfg.num_controllers = 4;
  EXPECT_NEAR(cfg.peak_apc(), 4 * SystemConfig{}.peak_apc(), 1e-12);
}

TEST(MultiController, AppsAssignRoundRobin) {
  SystemConfig cfg;
  cfg.num_controllers = 2;
  CmpSystem sys(cfg, eight_apps(), 1);
  EXPECT_EQ(sys.num_controllers(), 2u);
  for (AppId a = 0; a < sys.num_apps(); ++a) {
    EXPECT_EQ(sys.controller_of(a), a % 2);
  }
}

TEST(MultiController, TrafficLandsOnlyOnTheOwningController) {
  SystemConfig cfg;
  cfg.num_controllers = 2;
  CmpSystem sys(cfg, eight_apps(), 1);
  sys.run(200'000);
  for (AppId a = 0; a < sys.num_apps(); ++a) {
    EXPECT_GT(sys.controller_for(a).app_stats(a).served(), 0u) << "app " << a;
    EXPECT_EQ(sys.controller(1 - sys.controller_of(a)).app_stats(a).served(),
              0u)
        << "app " << a;
  }
}

TEST(MultiController, FastForwardBitIdenticalToReference) {
  for (const std::size_t controllers : {2u, 4u}) {
    SystemConfig fast_cfg;
    fast_cfg.num_controllers = controllers;
    SystemConfig ref_cfg = fast_cfg;
    ref_cfg.fast_forward = false;
    CmpSystem fast(fast_cfg, eight_apps(), 7);
    CmpSystem ref(ref_cfg, eight_apps(), 7);
    fast.run(250'000);
    ref.run(250'000);
    ASSERT_EQ(fast.now(), ref.now());
    for (AppId a = 0; a < fast.num_apps(); ++a) {
      EXPECT_EQ(fast.core(a).stats().instructions,
                ref.core(a).stats().instructions)
          << controllers << " controllers, app " << a;
      EXPECT_EQ(fast.controller_for(a).app_stats(a).served(),
                ref.controller_for(a).app_stats(a).served())
          << controllers << " controllers, app " << a;
    }
    for (std::size_t c = 0; c < controllers; ++c) {
      EXPECT_EQ(fast.controller(c).dram().stats().column_accesses(),
                ref.controller(c).dram().stats().column_accesses());
    }
  }
}

/// Every field either engine measures, compared one by one.
void expect_same_measurements(const CmpSystem& fast, const CmpSystem& ref,
                              std::size_t controllers) {
  ASSERT_EQ(fast.now(), ref.now());
  for (AppId a = 0; a < fast.num_apps(); ++a) {
    const mem::AppMemStats& fm = fast.controller_for(a).app_stats(a);
    const mem::AppMemStats& rm = ref.controller_for(a).app_stats(a);
    EXPECT_EQ(fm.enqueued, rm.enqueued) << controllers << "/app " << a;
    EXPECT_EQ(fm.served_reads, rm.served_reads) << controllers << "/app " << a;
    EXPECT_EQ(fm.served_writes, rm.served_writes)
        << controllers << "/app " << a;
    EXPECT_EQ(fm.sum_queue_cycles, rm.sum_queue_cycles)
        << controllers << "/app " << a;
    const cpu::CoreStats& fc = fast.core(a).stats();
    const cpu::CoreStats& rc = ref.core(a).stats();
    EXPECT_EQ(fc.cycles, rc.cycles) << controllers << "/app " << a;
    EXPECT_EQ(fc.instructions, rc.instructions) << controllers << "/app " << a;
    EXPECT_EQ(fc.offchip_reads, rc.offchip_reads)
        << controllers << "/app " << a;
    EXPECT_EQ(fc.offchip_writes, rc.offchip_writes)
        << controllers << "/app " << a;
    EXPECT_EQ(fc.rob_stall_cycles, rc.rob_stall_cycles)
        << controllers << "/app " << a;
    EXPECT_EQ(fc.mem_stall_cycles, rc.mem_stall_cycles)
        << controllers << "/app " << a;
    EXPECT_EQ(fc.queue_stall_cycles, rc.queue_stall_cycles)
        << controllers << "/app " << a;
    EXPECT_EQ(fast.interference().interference_cycles(a),
              ref.interference().interference_cycles(a))
        << controllers << "/app " << a;
  }
  for (std::size_t c = 0; c < controllers; ++c) {
    const dram::DramStats& fd = fast.controller(c).dram().stats();
    const dram::DramStats& rd = ref.controller(c).dram().stats();
    EXPECT_EQ(fd.activates, rd.activates) << controllers << "/ctrl " << c;
    EXPECT_EQ(fd.reads, rd.reads) << controllers << "/ctrl " << c;
    EXPECT_EQ(fd.writes, rd.writes) << controllers << "/ctrl " << c;
    EXPECT_EQ(fd.precharges, rd.precharges) << controllers << "/ctrl " << c;
    EXPECT_EQ(fd.refreshes, rd.refreshes) << controllers << "/ctrl " << c;
    EXPECT_EQ(fd.data_bus_busy_ticks, rd.data_bus_busy_ticks)
        << controllers << "/ctrl " << c;
    EXPECT_EQ(fd.ticks, rd.ticks) << controllers << "/ctrl " << c;
    EXPECT_EQ(fd.powerdown_rank_ticks, rd.powerdown_rank_ticks)
        << controllers << "/ctrl " << c;
    EXPECT_EQ(fd.channel_busy_ticks, rd.channel_busy_ticks)
        << controllers << "/ctrl " << c;
  }
}

// The fast engine runs each controller's partition on its own event loop.
// Here every app of the last partition departs with requests still in
// flight (on one controller that is every app): the partition's controller
// drains them with no live core to tick, then the partition jumps to the
// end of each run on its own. Both engines must agree field by field,
// that partition's DRAM included, and the skipped-cycle mean stays within
// the simulated time.
TEST(MultiController, DormantPartitionDrainsIdenticallyInBothEngines) {
  for (const std::size_t controllers : {1u, 2u, 4u}) {
    SystemConfig fast_cfg;
    fast_cfg.num_controllers = controllers;
    fast_cfg.dram.ranks = 2;
    fast_cfg.dram.enable_powerdown = true;
    SystemConfig ref_cfg = fast_cfg;
    ref_cfg.fast_forward = false;
    CmpSystem fast(fast_cfg, eight_apps(), 5);
    CmpSystem ref(ref_cfg, eight_apps(), 5);
    const std::size_t last = controllers - 1;
    for (CmpSystem* sys : {&fast, &ref}) {
      sys->run(30'000);
      ASSERT_GT(sys->controller(last).pending_requests_total(), 0u)
          << controllers << " controllers: nothing in flight at departure";
      for (AppId a = static_cast<AppId>(last); a < sys->num_apps();
           a += static_cast<AppId>(controllers)) {
        sys->set_app_live(a, false);
      }
      sys->run(20'000);
      sys->run(20'000);
    }
    EXPECT_EQ(fast.controller(last).pending_requests_total(), 0u);
    expect_same_measurements(fast, ref, controllers);
    EXPECT_GT(fast.skipped_cycles(), 0u) << controllers << " controllers";
    EXPECT_LE(fast.skipped_cycles(), fast.now()) << controllers;
    EXPECT_EQ(ref.skipped_cycles(), 0u) << controllers << " controllers";
  }
}

TEST(MultiController, SnapshotRoundTripContinuesBitIdentically) {
  SystemConfig cfg;
  cfg.num_controllers = 2;
  CmpSystem straight(cfg, eight_apps(), 11);
  CmpSystem cut(cfg, eight_apps(), 11);
  straight.run(120'000);
  cut.run(60'000);
  snap::Writer w;
  cut.save_state(w);
  ASSERT_GT(cut.skipped_cycles(), 0u);
  CmpSystem resumed(cfg, eight_apps(), 11);
  snap::Reader r(w.bytes());
  resumed.restore_state(r);
  EXPECT_TRUE(r.at_end());
  // The engine's skip counter is not state: it counts from the restore.
  EXPECT_EQ(resumed.skipped_cycles(), 0u);
  resumed.run(60'000);
  ASSERT_EQ(resumed.now(), straight.now());
  EXPECT_GT(resumed.skipped_cycles(), 0u);
  EXPECT_LE(resumed.skipped_cycles(), 60'000u);
  EXPECT_LE(resumed.skipped_cycles(), resumed.now());
  for (AppId a = 0; a < straight.num_apps(); ++a) {
    EXPECT_EQ(resumed.core(a).stats().instructions,
              straight.core(a).stats().instructions);
    EXPECT_EQ(resumed.controller_for(a).app_stats(a).served(),
              straight.controller_for(a).app_stats(a).served());
  }
}

// Fetch budgets count hundredths of an instruction, so a benchmark rate
// off the 0.01 grid stops the system's construction instead of rounding.
TEST(CmpSystemDeathTest, OffGridRateFailsAtConstruction) {
  std::vector<workload::BenchmarkSpec> apps = {
      workload::find_benchmark("gobmk")};
  apps[0].nonmem_ipc = 0.333;
  EXPECT_DEATH({ CmpSystem sys(small_cfg(), apps, 1); }, "multiple of 0.01");
}

TEST(MultiController, ControllerCountMismatchIsRejectedOnRestore) {
  SystemConfig two;
  two.num_controllers = 2;
  CmpSystem src(two, eight_apps(), 3);
  src.run(10'000);
  snap::Writer w;
  src.save_state(w);
  SystemConfig four = two;
  four.num_controllers = 4;
  CmpSystem dst(four, eight_apps(), 3);
  snap::Reader r(w.bytes());
  EXPECT_THROW(dst.restore_state(r), snap::SnapshotError);
}

TEST(CmpSystem, InterferenceObservedUnderContention) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  sys.run(300'000);
  std::uint64_t total = 0;
  for (AppId a = 0; a < sys.num_apps(); ++a) {
    total += sys.interference().interference_cycles(a);
  }
  EXPECT_GT(total, 0u);
}

std::vector<Cycle> interference_of(const CmpSystem& sys) {
  std::vector<Cycle> out;
  for (AppId a = 0; a < sys.num_apps(); ++a) {
    out.push_back(sys.interference().interference_cycles(a));
  }
  return out;
}

TEST(CmpSystem, AttributionOffFreezesInterferenceCounters) {
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem sys(small_cfg(), apps, 1);
  sys.run(150'000);
  const auto before = sys.profiler_counters();
  sys.set_interference_attribution(false);
  sys.run(150'000);
  const auto after = sys.profiler_counters();
  Cycle total = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    total += before[i].interference_cycles;
    EXPECT_EQ(after[i].interference_cycles, before[i].interference_cycles);
    EXPECT_GT(after[i].accesses, before[i].accesses);
  }
  EXPECT_GT(total, 0u);
}

TEST(CmpSystem, AttributionBackOnResumesExactly) {
  // A system that pauses attribution for a window attributes the next one
  // exactly as a system that never paused: attribution only reads state.
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem always(small_cfg(), apps, 1);
  CmpSystem paused(small_cfg(), apps, 1);
  always.run(100'000);
  paused.run(100'000);
  paused.set_interference_attribution(false);
  always.run(100'000);
  paused.run(100'000);
  const auto always_mid = interference_of(always);
  const auto paused_mid = interference_of(paused);
  paused.set_interference_attribution(true);
  always.run(100'000);
  paused.run(100'000);
  const auto always_end = interference_of(always);
  const auto paused_end = interference_of(paused);
  Cycle resumed = 0;
  for (AppId a = 0; a < always.num_apps(); ++a) {
    EXPECT_EQ(paused_end[a] - paused_mid[a], always_end[a] - always_mid[a])
        << "app " << a;
    EXPECT_EQ(paused.core(a).stats().instructions,
              always.core(a).stats().instructions);
    resumed += paused_end[a] - paused_mid[a];
  }
  EXPECT_GT(resumed, 0u);
}

TEST(CmpSystem, RestoredSystemAttributes) {
  // The switch is wiring, not state: a snapshot taken with attribution off
  // restores into a fresh system that attributes.
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  CmpSystem original(small_cfg(), apps, 1);
  original.set_interference_attribution(false);
  original.run(100'000);
  snap::Writer w;
  original.save_state(w);
  CmpSystem restored(small_cfg(), apps, 1);
  snap::Reader r(w.bytes());
  restored.restore_state(r);
  original.set_interference_attribution(true);
  original.run(150'000);
  restored.run(150'000);
  const auto expected = interference_of(original);
  EXPECT_EQ(interference_of(restored), expected);
  Cycle total = 0;
  for (const Cycle c : expected) total += c;
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace bwpart::harness
