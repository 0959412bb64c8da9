// Performance regression harness for the event-driven fast-forward engine
// and the snapshot/fork sweep engine.
//
// Runs a Fig. 2-shaped sweep (paper mixes x partitioning schemes, serial so
// wall-clock is comparable) twice — once with SystemConfig::fast_forward on
// (the default engine) and once with the reference cycle-by-cycle loop —
// then checks the two sweeps are bit-identical via RunResult fingerprints
// and reports the speedup. A third sweep runs Experiment::run_all (profile
// once, fork every scheme's measure phase from the snapshot, schemes in
// parallel) and must reproduce the per-scheme fingerprints exactly; its
// wall time against the serial per-scheme sweep is the sweep speedup.
//
//   perf_regression [--quick] [--seed N] [--out FILE]
//
// Emits a JSON report (default BENCH_perf.json) with wall-clock seconds,
// simulated CPU cycles per second for both engines, the speedups, and the
// divergence flag. The exit code is nonzero ONLY if an optimized path's
// results diverge from the reference — a slow machine never fails the run,
// so CI can gate on correctness while archiving the perf numbers.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/differential.hpp"
#include "harness/shard.hpp"
#include "obs/hub.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace bwpart;
using Clock = std::chrono::steady_clock;

struct SweepResult {
  double seconds = 0.0;  ///< total wall time, warm-up included
  /// Wall time attributed to each experiment phase (via the observability
  /// hub's harness.wall_ns.* counters). warmup_seconds is cache/queue
  /// warm-up that the old schema silently folded into `seconds`;
  /// measure_seconds is the part a speedup claim should be based on. All
  /// zero when observability is compiled out (BWPART_OBS=OFF).
  double warmup_seconds = 0.0;
  double profile_seconds = 0.0;
  double measure_seconds = 0.0;
  std::uint64_t simulated_cycles = 0;
  /// Wall time of each mix's scheme loop, in sweep order (schema 4's
  /// per-mix speedup breakdown divides the reference entry by this).
  std::vector<double> mix_seconds;
  std::vector<std::uint64_t> fingerprints;
};

SweepResult run_sweep(bool fast_forward,
                      std::span<const workload::MixSpec> mixes,
                      const harness::PhaseConfig& phases) {
  harness::SystemConfig machine;
  machine.fast_forward = fast_forward;
  const Cycle cycles_per_run =
      phases.warmup_cycles + phases.profile_cycles + phases.measure_cycles;
  SweepResult out;
  // Epoch sampling stays off (epoch_cycles == 0): the hub is only here to
  // collect per-phase wall-clock counters, with both engines paying the
  // same (tiny) instrumentation cost so the speedup stays a fair ratio.
  obs::Hub hub;
  const auto start = Clock::now();
  for (const workload::MixSpec& mix : mixes) {
    const auto mix_start = Clock::now();
    const auto apps = workload::resolve_mix(mix);
    harness::Experiment experiment(machine, apps, phases);
    experiment.set_observability(&hub);
    for (const core::Scheme s : core::kAllSchemes) {
      out.fingerprints.push_back(harness::fingerprint(experiment.run(s)));
      out.simulated_cycles += cycles_per_run;
    }
    out.mix_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - mix_start).count());
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  const auto ns_to_s = [&](const char* key) {
    return static_cast<double>(hub.metrics().counter(key).value()) / 1e9;
  };
  out.warmup_seconds = ns_to_s("harness.wall_ns.warmup");
  out.profile_seconds = ns_to_s("harness.wall_ns.profile");
  out.measure_seconds = ns_to_s("harness.wall_ns.measure");
  return out;
}

/// The same sweep through Experiment::run_all: one profile per mix, every
/// scheme's measure phase forked from the snapshot, schemes in parallel
/// (default thread count). Must be bit-identical to the per-scheme sweep.
SweepResult run_sweep_run_all(std::span<const workload::MixSpec> mixes,
                              const harness::PhaseConfig& phases) {
  const harness::SystemConfig machine;
  const Cycle cycles_per_run =
      phases.warmup_cycles + phases.profile_cycles + phases.measure_cycles;
  SweepResult out;
  const auto start = Clock::now();
  for (const workload::MixSpec& mix : mixes) {
    const auto apps = workload::resolve_mix(mix);
    const harness::Experiment experiment(machine, apps, phases);
    const std::vector<harness::RunResult> results =
        experiment.run_all(core::kAllSchemes);
    for (const harness::RunResult& r : results) {
      out.fingerprints.push_back(harness::fingerprint(r));
      out.simulated_cycles += cycles_per_run;
    }
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

struct ShardSweepResult {
  double seconds = 0.0;
  double spool_seconds = 0.0;    ///< snapshot capture + write, unit publish
  double measure_seconds = 0.0;  ///< worker loop (claim, restore, measure)
  double merge_seconds = 0.0;    ///< result-shard merge + fingerprint chain
  std::vector<std::uint64_t> fingerprints;
};

/// The same sweep through the sharded pipeline, in-process but on disk: one
/// spool per invocation, every unit claimed/measured/shipped through the
/// work-stealing queue by a single worker loop, then merged. Enumerates
/// configs x schemes in the same order as the other sweeps, so the
/// fingerprint sequences are directly comparable. This is where the
/// per-phase wall time of a sharded sweep (spool write, worker measure,
/// merge) comes from.
ShardSweepResult run_sweep_sharded(std::span<const workload::MixSpec> mixes,
                                   const harness::PhaseConfig& phases) {
  namespace shard = harness::shard;
  shard::Portfolio portfolio;
  portfolio.name = "bench";
  portfolio.schemes.assign(std::begin(core::kAllSchemes),
                           std::end(core::kAllSchemes));
  for (const workload::MixSpec& mix : mixes) {
    shard::ShardConfig cfg;
    cfg.mix = mix.name;
    cfg.warmup_cycles = phases.warmup_cycles;
    cfg.profile_cycles = phases.profile_cycles;
    cfg.measure_cycles = phases.measure_cycles;
    cfg.seed = phases.seed;
    portfolio.configs.push_back(std::move(cfg));
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bwpart_perf_spool_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const shard::Spool spool(dir);
  spool.init();

  ShardSweepResult out;
  const auto t0 = Clock::now();
  const std::vector<shard::ShardUnit> units =
      shard::enumerate_units(portfolio);
  for (const shard::ShardConfig& cfg : portfolio.configs) {
    const harness::Experiment experiment = shard::make_experiment(cfg);
    spool.put_snapshot(experiment.config_fingerprint(),
                       experiment.capture_profile());
  }
  for (const shard::ShardUnit& u : units) spool.publish(u);
  const auto t1 = Clock::now();
  shard::run_worker(dir);
  const auto t2 = Clock::now();
  const shard::MergedPortfolio merged = shard::merge(spool, portfolio);
  const auto t3 = Clock::now();

  out.spool_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.measure_seconds = std::chrono::duration<double>(t2 - t1).count();
  out.merge_seconds = std::chrono::duration<double>(t3 - t2).count();
  out.seconds = std::chrono::duration<double>(t3 - t0).count();
  for (const shard::MergeRow& row : merged.rows) {
    out.fingerprints.push_back(row.present ? row.result.fingerprint : 0);
  }
  std::filesystem::remove_all(dir);
  return out;
}

/// First index where the two fingerprint sequences differ, or npos.
std::size_t first_divergence(const std::vector<std::uint64_t>& a,
                             const std::vector<std::uint64_t>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return i;
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_perf.json";
  const bench::Options opt =
      bench::parse_options(argc, argv, 400'000, &out_path);

  // --quick (CI smoke): two mixes, quarter windows. Full: the complete
  // Table IV portfolio (7 homogeneous + 7 heterogeneous mixes) — the same
  // sweep the Fig. 2 evaluation runs, so the reported speedup is the one a
  // real experiment sees.
  std::vector<workload::MixSpec> mixes;
  if (opt.quick) {
    mixes = {workload::hetero_mixes()[0], workload::homo_mixes()[0]};
  } else {
    const auto all = workload::paper_mixes();
    mixes.assign(all.begin(), all.end());
  }

  std::fprintf(stderr, "sweep: %zu mixes x %zu schemes, %llu cycles each\n",
               mixes.size(), std::size(core::kAllSchemes),
               static_cast<unsigned long long>(opt.phases.warmup_cycles +
                                               opt.phases.profile_cycles +
                                               opt.phases.measure_cycles));
  std::fprintf(stderr, "running fast-forward engine...\n");
  const SweepResult fast = run_sweep(true, mixes, opt.phases);
  // BWPART_ONLY_FAST=1 stops after the fast-forward sweep: a quick timing
  // loop for engine work (no reference pass, no report file written).
  if (std::getenv("BWPART_ONLY_FAST") != nullptr) {
    std::fprintf(stderr, "  %.3f s (fast only)\n", fast.seconds);
    return 0;
  }
  std::fprintf(stderr, "  %.3f s\nrunning reference engine...\n",
               fast.seconds);
  const SweepResult ref = run_sweep(false, mixes, opt.phases);
  std::fprintf(stderr, "  %.3f s\nrunning snapshot/fork sweep (run_all)...\n",
               ref.seconds);
  const SweepResult sweep = run_sweep_run_all(mixes, opt.phases);
  std::fprintf(stderr, "  %.3f s\nrunning sharded sweep (spool pipeline)...\n",
               sweep.seconds);
  const ShardSweepResult sharded = run_sweep_sharded(mixes, opt.phases);
  std::fprintf(stderr, "  %.3f s\n", sharded.seconds);

  const std::size_t npos = static_cast<std::size_t>(-1);
  const std::size_t first_mismatch =
      first_divergence(fast.fingerprints, ref.fingerprints);
  const std::size_t sweep_mismatch =
      first_divergence(sweep.fingerprints, fast.fingerprints);
  const std::size_t sharded_mismatch =
      first_divergence(sharded.fingerprints, fast.fingerprints);
  const bool identical = first_mismatch == npos && sweep_mismatch == npos &&
                         sharded_mismatch == npos;

  const double speedup =
      fast.seconds > 0.0 ? ref.seconds / fast.seconds : 0.0;
  // Warm-up and profile run under FCFS before the scheme under test is even
  // installed; the measure-phase ratio is the engine comparison that
  // matches what an experiment's reported numbers cost to produce.
  const double measure_speedup = fast.measure_seconds > 0.0
                                     ? ref.measure_seconds /
                                           fast.measure_seconds
                                     : 0.0;
  const double fast_cps =
      fast.seconds > 0.0
          ? static_cast<double>(fast.simulated_cycles) / fast.seconds
          : 0.0;
  const double ref_cps =
      ref.seconds > 0.0
          ? static_cast<double>(ref.simulated_cycles) / ref.seconds
          : 0.0;
  // Sweep speedup: the run_all fork engine against the serial per-scheme
  // sweep on the same (fast-forward) engine — profile reuse + parallel
  // measure phases, results proven identical above.
  const double sweep_speedup =
      sweep.seconds > 0.0 ? fast.seconds / sweep.seconds : 0.0;

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 2;
    }
    // Schema 5: the sweep section gains "sharded" — per-phase wall time of
    // the same sweep through the on-disk shard pipeline (snapshot spool
    // write, worker measure loop, result-shard merge), proven bit-identical
    // alongside the other engines. Schema 4 added the per-mix breakdown
    // ("mixes" array with each mix's fast/reference wall time and speedup);
    // schema 3 added the snapshot/fork sweep-engine numbers inside "sweep";
    // schema 2 added per-phase wall-clock attribution (schema 1 folded
    // warm-up into "seconds"). All older keys keep their old meaning so
    // existing consumers read the file unchanged.
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": 5,\n"
                 "  \"sweep\": {\"mixes\": %zu, \"schemes\": %zu, "
                 "\"runs\": %zu, \"simulated_cycles\": %llu,\n"
                 "    \"run_all_seconds\": %.6f, \"per_scheme_seconds\": %.6f, "
                 "\"speedup\": %.3f, \"snapshot_reuse\": %s,\n"
                 "    \"sharded\": {\"seconds\": %.6f, "
                 "\"spool_seconds\": %.6f, \"measure_seconds\": %.6f, "
                 "\"merge_seconds\": %.6f}},\n"
                 "  \"fast_forward\": {\"seconds\": %.6f, "
                 "\"cycles_per_second\": %.0f,\n"
                 "    \"warmup_seconds\": %.6f, \"profile_seconds\": %.6f, "
                 "\"measure_seconds\": %.6f},\n"
                 "  \"reference\": {\"seconds\": %.6f, "
                 "\"cycles_per_second\": %.0f,\n"
                 "    \"warmup_seconds\": %.6f, \"profile_seconds\": %.6f, "
                 "\"measure_seconds\": %.6f},\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"measure_speedup\": %.3f,\n"
                 "  \"mixes\": [\n",
                 mixes.size(), std::size(core::kAllSchemes),
                 fast.fingerprints.size(),
                 static_cast<unsigned long long>(fast.simulated_cycles),
                 sweep.seconds, fast.seconds, sweep_speedup,
                 harness::kSnapshotEnabled ? "true" : "false",
                 sharded.seconds, sharded.spool_seconds,
                 sharded.measure_seconds, sharded.merge_seconds,
                 fast.seconds, fast_cps, fast.warmup_seconds,
                 fast.profile_seconds, fast.measure_seconds, ref.seconds,
                 ref_cps, ref.warmup_seconds, ref.profile_seconds,
                 ref.measure_seconds, speedup, measure_speedup);
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      const double mix_speedup = fast.mix_seconds[i] > 0.0
                                     ? ref.mix_seconds[i] / fast.mix_seconds[i]
                                     : 0.0;
      std::fprintf(f,
                   "    {\"name\": \"%.*s\", \"fast_seconds\": %.6f, "
                   "\"ref_seconds\": %.6f, \"speedup\": %.3f}%s\n",
                   static_cast<int>(mixes[i].name.size()), mixes[i].name.data(),
                   fast.mix_seconds[i], ref.mix_seconds[i], mix_speedup,
                   i + 1 < mixes.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"identical\": %s\n"
                 "}\n",
                 identical ? "true" : "false");
    std::fclose(f);
  }

  std::printf("fast-forward: %8.3f s  (%.2fM simulated cycles/s)\n",
              fast.seconds, fast_cps / 1e6);
  std::printf("reference:    %8.3f s  (%.2fM simulated cycles/s)\n",
              ref.seconds, ref_cps / 1e6);
  std::printf("speedup:      %8.2fx", speedup);
  if (measure_speedup > 0.0) {
    std::printf("  (measure phase only: %.2fx)", measure_speedup);
  }
  std::printf("\n");
  std::printf("run_all:      %8.3f s  (sweep speedup %.2fx, snapshot reuse %s)\n",
              sweep.seconds, sweep_speedup,
              harness::kSnapshotEnabled ? "on" : "off");
  std::printf("sharded:      %8.3f s  (spool %.3f s, measure %.3f s, "
              "merge %.3f s)\n",
              sharded.seconds, sharded.spool_seconds,
              sharded.measure_seconds, sharded.merge_seconds);
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const double mix_speedup = fast.mix_seconds[i] > 0.0
                                   ? ref.mix_seconds[i] / fast.mix_seconds[i]
                                   : 0.0;
    std::printf("  %-10.*s %6.3f s -> %6.3f s  (%.2fx)\n",
                static_cast<int>(mixes[i].name.size()), mixes[i].name.data(),
                ref.mix_seconds[i], fast.mix_seconds[i], mix_speedup);
  }
  if (first_mismatch != npos) {
    std::fprintf(stderr,
                 "DIVERGENCE: fast-forward results differ from the "
                 "reference loop (first mismatch at run %zu)\n",
                 first_mismatch);
    return 1;
  }
  if (sweep_mismatch != npos) {
    std::fprintf(stderr,
                 "DIVERGENCE: run_all sweep results differ from the "
                 "per-scheme runs (first mismatch at run %zu)\n",
                 sweep_mismatch);
    return 1;
  }
  if (sharded_mismatch != npos) {
    std::fprintf(stderr,
                 "DIVERGENCE: sharded spool-pipeline results differ from "
                 "the per-scheme runs (first mismatch at run %zu)\n",
                 sharded_mismatch);
    return 1;
  }
  std::printf("results bit-identical across %zu runs\n",
              fast.fingerprints.size());
  return 0;
}
