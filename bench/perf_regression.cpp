// Performance regression harness for the event-driven fast-forward engine
// and the snapshot/fork sweep engine.
//
// Runs a Fig. 2-shaped sweep (paper mixes x partitioning schemes, serial so
// wall-clock is comparable) with SystemConfig::fast_forward on (the default
// engine) and with the reference cycle-by-cycle loop, checks the two sweeps
// are bit-identical via RunResult fingerprints and reports the speedup. A
// third sweep runs Experiment::run_all (profile once, fork every scheme's
// measure phase from the snapshot, schemes in parallel) and must reproduce
// the per-scheme fingerprints exactly; its wall time against the serial
// per-scheme sweep is the sweep speedup. A fourth runs the on-disk shard
// pipeline. Every sweep runs kRounds times, the two engines alternating
// which goes first, and every run must reproduce the first one's results.
//
//   perf_regression [--quick] [--seed N] [--out FILE]
//
// Emits a JSON report (default BENCH_perf.json) with the median, minimum
// and maximum over the rounds of each wall-clock time and speedup, the
// simulated CPU cycles per second of both engines and the divergence flag.
// The exit code is nonzero ONLY if an optimized path's results diverge
// from the reference — a slow machine never fails the run, so CI can gate
// on correctness while archiving the perf numbers.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
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

/// Every sweep runs this many times, so each timing in the report is a
/// median with its spread rather than one draw of a noisy host.
constexpr std::size_t kRounds = 5;

struct SweepResult {
  double seconds = 0.0;  ///< total wall time, warm-up included
  /// Wall time attributed to each experiment phase (via the observability
  /// hub's harness.wall_ns.* counters). warmup_seconds is cache/queue
  /// warm-up that the old schema silently folded into `seconds`;
  /// measure_seconds is the part a speedup claim should be based on.
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

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// First index where the two fingerprint sequences differ, or kNpos.
std::size_t first_divergence(const std::vector<std::uint64_t>& a,
                             const std::vector<std::uint64_t>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return i;
  }
  return kNpos;
}

/// The first divergence of any of `runs` from `want`, or kNpos.
template <typename R>
std::size_t first_divergence(const std::vector<R>& runs,
                             const std::vector<std::uint64_t>& want) {
  for (const R& r : runs) {
    const std::size_t i = first_divergence(r.fingerprints, want);
    if (i != kNpos) return i;
  }
  return kNpos;
}

/// Median, minimum and maximum of one timing over the rounds.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// The spread of `value(round)` over rounds 0..kRounds-1.
template <typename F>
Spread spread(F value) {
  std::vector<double> v;
  for (std::size_t round = 0; round < kRounds; ++round) {
    v.push_back(value(round));
  }
  std::sort(v.begin(), v.end());
  return {v[v.size() / 2], v.front(), v.back()};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json(const Spread& s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"median\": %.6f, \"min\": %.6f, \"max\": %.6f}", s.median,
                s.min, s.max);
  return buf;
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

  std::fprintf(stderr,
               "sweep: %zu mixes x %zu schemes, %llu cycles each, %zu rounds\n",
               mixes.size(), std::size(core::kAllSchemes),
               static_cast<unsigned long long>(opt.phases.warmup_cycles +
                                               opt.phases.profile_cycles +
                                               opt.phases.measure_cycles),
               kRounds);
  std::vector<SweepResult> fast;
  std::vector<SweepResult> ref;
  std::vector<SweepResult> sweep;
  std::vector<ShardSweepResult> sharded;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Alternate which engine runs first, so a drift in the host's speed
    // does not always favour the same one.
    for (const bool fast_forward : {round % 2 == 0, round % 2 != 0}) {
      std::fprintf(stderr, "round %zu: %s engine...\n", round + 1,
                   fast_forward ? "fast-forward" : "reference");
      (fast_forward ? fast : ref)
          .push_back(run_sweep(fast_forward, mixes, opt.phases));
    }
    std::fprintf(stderr, "round %zu: snapshot/fork sweep (run_all)...\n",
                 round + 1);
    sweep.push_back(run_sweep_run_all(mixes, opt.phases));
    std::fprintf(stderr, "round %zu: sharded sweep (spool pipeline)...\n",
                 round + 1);
    sharded.push_back(run_sweep_sharded(mixes, opt.phases));
  }

  // Every run of every engine must reproduce the first fast-forward run.
  const std::vector<std::uint64_t>& want = fast[0].fingerprints;
  const std::size_t engine_mismatch =
      std::min(first_divergence(fast, want), first_divergence(ref, want));
  const std::size_t sweep_mismatch = first_divergence(sweep, want);
  const std::size_t sharded_mismatch = first_divergence(sharded, want);
  const bool identical = engine_mismatch == kNpos &&
                         sweep_mismatch == kNpos && sharded_mismatch == kNpos;

  const auto of = [](const std::vector<SweepResult>& runs, auto field) {
    return spread([&](std::size_t r) { return runs[r].*field; });
  };
  const Spread fast_s = of(fast, &SweepResult::seconds);
  const Spread ref_s = of(ref, &SweepResult::seconds);
  const Spread run_all_s = of(sweep, &SweepResult::seconds);
  // Ratios pair the runs of one round.
  const Spread speedup = spread(
      [&](std::size_t r) { return ratio(ref[r].seconds, fast[r].seconds); });
  // Warm-up and profile run under FCFS before the scheme under test is even
  // installed; the measure-phase ratio is the engine comparison that
  // matches what an experiment's reported numbers cost to produce.
  const Spread measure_speedup = spread([&](std::size_t r) {
    return ratio(ref[r].measure_seconds, fast[r].measure_seconds);
  });
  // Sweep speedup: the run_all fork engine against the serial per-scheme
  // sweep on the same (fast-forward) engine — profile reuse + parallel
  // measure phases, results proven identical above.
  const Spread sweep_speedup = spread(
      [&](std::size_t r) { return ratio(fast[r].seconds, sweep[r].seconds); });
  const std::uint64_t simulated_cycles = fast[0].simulated_cycles;
  const double fast_cps =
      ratio(static_cast<double>(simulated_cycles), fast_s.median);
  const double ref_cps =
      ratio(static_cast<double>(simulated_cycles), ref_s.median);
  const auto mix_spread = [&](std::size_t i, const std::vector<SweepResult>&
                                                 runs) {
    return spread([&](std::size_t r) { return runs[r].mix_seconds[i]; });
  };
  const auto mix_speedup = [&](std::size_t i) {
    return spread([&](std::size_t r) {
      return ratio(ref[r].mix_seconds[i], fast[r].mix_seconds[i]);
    });
  };
  const auto engine_json = [&](const std::vector<SweepResult>& runs,
                               double cps) {
    return "{\"seconds\": " + json(of(runs, &SweepResult::seconds)) +
           ", \"cycles_per_second\": " + std::to_string(std::llround(cps)) +
           ",\n    \"warmup_seconds\": " +
           json(of(runs, &SweepResult::warmup_seconds)) +
           ",\n    \"profile_seconds\": " +
           json(of(runs, &SweepResult::profile_seconds)) +
           ",\n    \"measure_seconds\": " +
           json(of(runs, &SweepResult::measure_seconds)) + "}";
  };
  const auto shard_json = [&](auto field) {
    return json(spread([&](std::size_t r) { return sharded[r].*field; }));
  };

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 2;
    }
    // Schema 6: every sweep runs `rounds` times (the two engines
    // alternating which goes first) and every timing and speedup is an
    // object {"median", "min", "max"} over the rounds; cycles_per_second
    // uses the median. Schema 5 added "sweep.sharded" (spool write, worker
    // measure loop, result-shard merge); schema 4 the per-mix "mixes"
    // array; schema 3 the snapshot/fork numbers inside "sweep"; schema 2
    // the per-phase wall-clock attribution.
    std::fprintf(
        f,
        "{\n"
        "  \"schema\": 6,\n"
        "  \"rounds\": %zu,\n"
        "  \"sweep\": {\"mixes\": %zu, \"schemes\": %zu, \"runs\": %zu, "
        "\"simulated_cycles\": %llu, \"snapshot_reuse\": %s,\n"
        "    \"run_all_seconds\": %s,\n"
        "    \"per_scheme_seconds\": %s,\n"
        "    \"speedup\": %s,\n"
        "    \"sharded\": {\"seconds\": %s,\n"
        "      \"spool_seconds\": %s,\n"
        "      \"measure_seconds\": %s,\n"
        "      \"merge_seconds\": %s}},\n"
        "  \"fast_forward\": %s,\n"
        "  \"reference\": %s,\n"
        "  \"speedup\": %s,\n"
        "  \"measure_speedup\": %s,\n"
        "  \"mixes\": [\n",
        kRounds, mixes.size(), std::size(core::kAllSchemes), want.size(),
        static_cast<unsigned long long>(simulated_cycles),
        harness::kSnapshotEnabled ? "true" : "false",
        json(run_all_s).c_str(), json(fast_s).c_str(),
        json(sweep_speedup).c_str(),
        shard_json(&ShardSweepResult::seconds).c_str(),
        shard_json(&ShardSweepResult::spool_seconds).c_str(),
        shard_json(&ShardSweepResult::measure_seconds).c_str(),
        shard_json(&ShardSweepResult::merge_seconds).c_str(),
        engine_json(fast, fast_cps).c_str(), engine_json(ref, ref_cps).c_str(),
        json(speedup).c_str(), json(measure_speedup).c_str());
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%.*s\",\n"
                   "      \"fast_seconds\": %s,\n"
                   "      \"ref_seconds\": %s,\n"
                   "      \"speedup\": %s}%s\n",
                   static_cast<int>(mixes[i].name.size()), mixes[i].name.data(),
                   json(mix_spread(i, fast)).c_str(),
                   json(mix_spread(i, ref)).c_str(),
                   json(mix_speedup(i)).c_str(),
                   i + 1 < mixes.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"identical\": %s\n"
                 "}\n",
                 identical ? "true" : "false");
    std::fclose(f);
  }

  // Medians, with the [min, max] over the rounds.
  const auto print = [](const char* label, const Spread& s, const char* unit) {
    std::printf("%-14s %8.3f%s [%.3f, %.3f]\n", label, s.median, unit, s.min,
                s.max);
  };
  std::printf("%zu rounds; medians [min, max]\n", kRounds);
  print("fast-forward:", fast_s, " s");
  print("reference:", ref_s, " s");
  std::printf("  (%.2fM vs %.2fM simulated cycles/s)\n", fast_cps / 1e6,
              ref_cps / 1e6);
  print("speedup:", speedup, "x");
  print("measure phase:", measure_speedup, "x");
  print("run_all:", run_all_s, " s");
  print("sweep speedup:", sweep_speedup, "x");
  print("sharded:",
        spread([&](std::size_t r) { return sharded[r].seconds; }), " s");
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const std::string label(mixes[i].name);
    print(("  " + label).c_str(), mix_speedup(i), "x");
  }
  if (engine_mismatch != kNpos) {
    std::fprintf(stderr,
                 "DIVERGENCE: the fast-forward and reference runs differ "
                 "(first mismatch at run %zu)\n",
                 engine_mismatch);
    return 1;
  }
  if (sweep_mismatch != kNpos) {
    std::fprintf(stderr,
                 "DIVERGENCE: run_all sweep results differ from the "
                 "per-scheme runs (first mismatch at run %zu)\n",
                 sweep_mismatch);
    return 1;
  }
  if (sharded_mismatch != kNpos) {
    std::fprintf(stderr,
                 "DIVERGENCE: sharded spool-pipeline results differ from "
                 "the per-scheme runs (first mismatch at run %zu)\n",
                 sharded_mismatch);
    return 1;
  }
  std::printf("results bit-identical across %zu runs in each of %zu rounds\n",
              want.size(), kRounds);
  return 0;
}
