// Zero-overhead guarantee for the observability subsystem: attaching the
// hub (with epoch sampling chunking the run loop), attaching it disabled,
// or never attaching it must leave every simulation result bit-identical —
// per-app controller stats, core stats, interference attribution, DRAM
// stats (including the per-channel busy split), simulated time and derived
// IPC/APC. Randomized end-to-end configurations in the style of
// test_fast_forward_differential, across both engines and the full
// Experiment pipeline (whose re-profiling path is also instrumented).
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/pbt.hpp"
#include "harness/differential.hpp"
#include "harness/experiment.hpp"
#include "harness/generators.hpp"
#include "harness/system.hpp"
#include "mem/controller.hpp"
#include "obs/hub.hpp"

namespace bwpart::harness {
namespace {

struct ObsCase {
  SystemConfig cfg;
  std::vector<workload::BenchmarkSpec> mix;
  std::vector<core::AppParams> params;
  PhaseConfig phases;
  core::Scheme scheme = core::Scheme::NoPartitioning;
  Cycle epoch = 1'000;
};

pbt::GenFn<ObsCase> obs_case_gen() {
  return [](Rng& rng) {
    ObsCase c;
    c.cfg = gen::system_config(rng);
    // Chunking interacts with the sleep proofs, so cover both engines.
    c.cfg.fast_forward = rng.next_bool(0.7);
    c.mix = gen::mix(rng, 2, 4);
    c.params = gen::workload(rng, c.mix.size(), c.mix.size());
    c.phases = gen::phase_config(rng);
    // Sometimes exercise the instrumented re-profiling path.
    if (rng.next_bool(0.3)) {
      c.phases.reprofile_period = pbt::gen_uint(rng, 10'000, 50'000);
    }
    c.scheme = gen::scheme(rng);
    // Epochs from pathological (every few hundred cycles) to coarser than
    // the run, so boundary chunking hits every alignment.
    c.epoch = pbt::gen_uint(rng, 200, 100'000);
    return c;
  };
}

std::string print_obs_case(const ObsCase& c) {
  std::ostringstream os;
  os << "scheme=" << core::to_string(c.scheme) << " seed=" << c.phases.seed
     << " epoch=" << c.epoch << " ff=" << c.cfg.fast_forward
     << " measure=" << c.phases.measure_cycles
     << " reprofile=" << c.phases.reprofile_period << " mix={";
  for (const workload::BenchmarkSpec& b : c.mix) os << b.name << " ";
  os << "}";
  return os.str();
}

/// Scheduler install + warmup + reset + measure, same shape for every leg.
void run_system(const ObsCase& c, CmpSystem& sys) {
  sys.controller().replace_scheduler(make_scheduler(
      c.scheme, c.mix.size(), c.params, c.cfg.dstf_row_hit_window));
  sys.run(c.phases.warmup_cycles);
  sys.reset_measurement();
  sys.run(c.phases.measure_cycles);
}

/// Field-by-field bit comparison; empty string when identical. This is the
/// fingerprint the scheduler's decisions leave behind — any divergence in
/// decision order shows up in served counts, queue cycles or bus ticks.
std::string compare_systems(const CmpSystem& a, const CmpSystem& b,
                            const char* label) {
  std::ostringstream os;
  if (a.now() != b.now()) {
    os << label << ": simulated time diverged " << a.now() << "/" << b.now();
    return os.str();
  }
  for (AppId app = 0; app < a.num_apps(); ++app) {
    const mem::AppMemStats& fa = a.controller().app_stats(app);
    const mem::AppMemStats& fb = b.controller().app_stats(app);
    if (fa.enqueued != fb.enqueued || fa.served_reads != fb.served_reads ||
        fa.served_writes != fb.served_writes ||
        fa.sum_queue_cycles != fb.sum_queue_cycles) {
      os << label << ": AppMemStats diverge for app " << app;
      return os.str();
    }
    const cpu::CoreStats& ca = a.core(app).stats();
    const cpu::CoreStats& cb = b.core(app).stats();
    if (ca.cycles != cb.cycles || ca.instructions != cb.instructions ||
        ca.offchip_reads != cb.offchip_reads ||
        ca.offchip_writes != cb.offchip_writes ||
        ca.rob_stall_cycles != cb.rob_stall_cycles ||
        ca.mem_stall_cycles != cb.mem_stall_cycles ||
        ca.queue_stall_cycles != cb.queue_stall_cycles) {
      os << label << ": CoreStats diverge for app " << app;
      return os.str();
    }
    if (a.interference().interference_cycles(app) !=
        b.interference().interference_cycles(app)) {
      os << label << ": interference cycles diverge for app " << app;
      return os.str();
    }
  }
  const dram::DramStats& da = a.controller().dram().stats();
  const dram::DramStats& db = b.controller().dram().stats();
  if (da.activates != db.activates || da.reads != db.reads ||
      da.writes != db.writes || da.precharges != db.precharges ||
      da.refreshes != db.refreshes ||
      da.data_bus_busy_ticks != db.data_bus_busy_ticks ||
      da.ticks != db.ticks || da.channel_busy_ticks != db.channel_busy_ticks) {
    os << label << ": DramStats diverge";
    return os.str();
  }
  const std::vector<double> ia = a.measured_ipc();
  const std::vector<double> ib = b.measured_ipc();
  if (hash_doubles(ia) != hash_doubles(ib)) {
    os << label << ": measured IPC diverges";
    return os.str();
  }
  const std::vector<double> pa = a.measured_apc();
  const std::vector<double> pb = b.measured_apc();
  if (hash_doubles(pa) != hash_doubles(pb)) {
    os << label << ": measured APC diverges";
    return os.str();
  }
  return {};
}

// System-level: plain vs hub-on (epoch sampling active) vs hub-disabled.
TEST(ObsDifferential, SystemResultsIdenticalWithObsOnOffDetached) {
  const pbt::Result r = pbt::for_all<ObsCase>(
      "obs-zero-overhead-system", obs_case_gen(),
      [](const ObsCase& c) -> std::string {
        CmpSystem plain(c.cfg, c.mix, c.phases.seed);
        run_system(c, plain);

        obs::Hub hub_on;
        hub_on.set_epoch_cycles(c.epoch);
        CmpSystem on(c.cfg, c.mix, c.phases.seed);
        on.set_observability(&hub_on);
        on.set_obs_track("diff");
        run_system(c, on);

        obs::Hub hub_off;
        hub_off.set_epoch_cycles(c.epoch);
        hub_off.set_enabled(false);
        CmpSystem off(c.cfg, c.mix, c.phases.seed);
        off.set_observability(&hub_off);
        run_system(c, off);

        if (std::string d = compare_systems(plain, on, "obs-on");
            !d.empty()) {
          return d;
        }
        if (std::string d = compare_systems(plain, off, "obs-disabled");
            !d.empty()) {
          return d;
        }
        // The instrumented run must actually have sampled (it would be easy
        // to be "zero overhead" by never doing anything).
        const Cycle total = c.phases.warmup_cycles + c.phases.measure_cycles;
        if (total >= c.epoch && hub_on.series().size() == 0) {
          return "obs-on run sampled nothing";
        }
        if (hub_off.series().size() != 0) {
          return "disabled hub recorded epoch rows";
        }
        return {};
      },
      {}, nullptr, print_obs_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

// Experiment-level: the full profile -> partition -> measure pipeline with
// scheduler swaps, phase spans, wall timers and (sometimes) the
// instrumented rolling re-profiler, fingerprinted against a hub-free run.
TEST(ObsDifferential, ExperimentFingerprintIdenticalWithHubAttached) {
  const pbt::Result r = pbt::for_all<ObsCase>(
      "obs-zero-overhead-experiment", obs_case_gen(),
      [](const ObsCase& c) -> std::string {
        const Experiment plain_exp(c.cfg, c.mix, c.phases);
        const RunResult plain = plain_exp.run(c.scheme);

        obs::Hub hub;
        hub.set_epoch_cycles(c.epoch);
        Experiment obs_exp(c.cfg, c.mix, c.phases);
        obs_exp.set_observability(&hub);
        const RunResult instrumented = obs_exp.run(c.scheme);

        if (fingerprint(plain) != fingerprint(instrumented)) {
          return "instrumented Experiment diverged from plain run";
        }
        return {};
      },
      pbt::Config{.seed = pbt::base_seed(), .cases = 60, .max_shrink_steps = 0},
      nullptr, print_obs_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 60);
}

}  // namespace
}  // namespace bwpart::harness
