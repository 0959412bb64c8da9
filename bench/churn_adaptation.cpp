// Churn adaptation bench: static-once partitioning vs re-solve-on-churn.
//
// Replays deterministic churn schedules (departures, arrivals, phase
// changes) over the QoS mix under each objective twice — once with the
// shares frozen at the initial install (static-once, the deployment that
// profiles a tenant mix at admission time and never looks back) and once
// with the churn engine's online re-profile + re-solve — and reports how
// long each run spent violating its objective.
//
// The headline scenario is the canonical non-stationarity failure: the
// guaranteed app's phase changes to a much higher access intensity, so the
// Eq. 11 reservation computed from its admission-time profile
// under-provisions it from that point on. A work-conserving scheduler
// cannot self-heal this (the best-effort apps are consuming their shares),
// so static-once violates QoS for the rest of the run while the re-solver
// recovers within one reprofile window plus a few evaluation epochs.
//
//   churn_adaptation [--quick] [--seed N] [--out FILE]
//
// Emits BENCH_churn.json (schema 1) with per-scenario static/re-solve
// violation cycles, re-solve counts, mean adaptation lag, and Hsp/Wsp.
// Exit code is nonzero ONLY if re-solve-on-churn fails to strictly
// dominate static-once on QoS violation time in the headline scenario —
// wall-clock never fails the run, so CI gates on the adaptation claim
// while archiving the numbers.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/churn.hpp"
#include "harness/experiment.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace bwpart;

struct Side {
  Cycle qos_violation = 0;
  Cycle objective_violation = 0;
  std::uint64_t resolves = 0;
  double mean_lag = -1.0;  ///< -1 when no event's objective was ever re-met
  std::size_t unmet = 0;   ///< events whose objective was never re-met
  double hsp = 0.0;
  double wsp = 0.0;
};

Side summarize(const harness::ChurnRunResult& r) {
  Side s;
  s.qos_violation = r.qos_violation_cycles;
  s.objective_violation = r.objective_violation_cycles;
  s.resolves = r.resolves;
  s.hsp = r.base.hsp;
  s.wsp = r.base.wsp;
  double lag_sum = 0.0;
  std::size_t met = 0;
  for (const harness::ChurnEventOutcome& o : r.outcomes) {
    if (o.adaptation_lag == kNoCycle) {
      ++s.unmet;
    } else {
      lag_sum += static_cast<double>(o.adaptation_lag);
      ++met;
    }
  }
  if (met > 0) s.mean_lag = lag_sum / static_cast<double>(met);
  return s;
}

struct Scenario {
  std::string name;
  core::Scheme scheme;
  std::vector<core::QosRequirement> qos;
  harness::ChurnSchedule schedule;
  Side fixed;    ///< static-once
  Side resolve;  ///< re-solve-on-churn
};

/// Runs one scenario's static and re-solve sides from a shared profile
/// snapshot (identical admission-time estimates, so the comparison isolates
/// the re-solve policy).
void run_scenario(const harness::Experiment& exp,
                  const harness::ProfileSnapshot& snap, Scenario& sc) {
  harness::ChurnRunConfig cfg;
  cfg.scheme = sc.scheme;
  cfg.qos = sc.qos;
  cfg.reprofile_window = 30'000;
  cfg.eval_epoch = 25'000;
  cfg.resolve_on_churn = false;
  sc.fixed = summarize(exp.measure_churn_from(snap, sc.schedule, cfg));
  cfg.resolve_on_churn = true;
  sc.resolve = summarize(exp.measure_churn_from(snap, sc.schedule, cfg));
}

void print_side(std::FILE* f, const char* key, const Side& s,
                const char* trailer) {
  std::fprintf(f,
               "      \"%s\": {\"qos_violation_cycles\": %llu, "
               "\"objective_violation_cycles\": %llu, \"resolves\": %llu,\n"
               "        \"mean_adaptation_lag\": %.1f, \"events_unmet\": %zu, "
               "\"hsp\": %.6f, \"wsp\": %.6f}%s\n",
               key, static_cast<unsigned long long>(s.qos_violation),
               static_cast<unsigned long long>(s.objective_violation),
               static_cast<unsigned long long>(s.resolves), s.mean_lag,
               s.unmet, s.hsp, s.wsp, trailer);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_churn.json";
  bench::Options opt = bench::parse_options(argc, argv, 600'000, &out_path);
  // The churn engine needs a measure window long enough for the static
  // side's violation tail to be unambiguous; --quick halves it instead of
  // the usual quartering (parse_options already divided by 4).
  opt.phases.warmup_cycles = 10'000;
  opt.phases.profile_cycles = opt.quick ? 100'000 : 150'000;
  opt.phases.measure_cycles = opt.quick ? 300'000 : 600'000;
  const Cycle m = opt.phases.measure_cycles;

  // hmmer (index 3 in the QoS mix) is the guaranteed app throughout.
  const core::QosRequirement guaranteed{3, 0.6};
  std::vector<Scenario> scenarios;
  {
    // Headline: the guaranteed app's phase shifts to ~1.7x its profiled
    // access intensity, stranding the admission-time reservation.
    Scenario sc;
    sc.name = "qos-phase-shift";
    sc.scheme = core::Scheme::SquareRoot;
    sc.qos = {guaranteed};
    harness::PhaseKnobs hungrier;
    hungrier.api = 0.008;
    sc.schedule.phase(m / 4, 3, hungrier);
    scenarios.push_back(std::move(sc));
  }
  {
    // Tenancy churn around the guaranteed app: the best-effort population
    // shrinks and regrows while Eq. 11 must keep holding.
    Scenario sc;
    sc.name = "qos-tenancy-churn";
    sc.scheme = core::Scheme::SquareRoot;
    sc.qos = {guaranteed};
    sc.schedule.depart(m / 4, 1).arrive(m * 11 / 20, 1).depart(m * 29 / 40, 0);
    scenarios.push_back(std::move(sc));
  }
  {
    // Best-effort objective (weighted speedup, no reservations): a
    // departure plus a phase shift; the violation clock is the Eq. 2
    // allocation check over the live set.
    Scenario sc;
    sc.name = "wsp-tenancy-churn";
    sc.scheme = core::Scheme::Proportional;
    harness::PhaseKnobs hungrier;
    hungrier.api = 0.008;
    sc.schedule.depart(m / 4, 1).phase(m / 2, 3, hungrier).arrive(
        m * 3 / 4, 1);
    scenarios.push_back(std::move(sc));
  }

  const auto apps = workload::resolve_mix(workload::qos_mix1());
  const harness::Experiment exp(harness::SystemConfig{}, apps, opt.phases);
  std::fprintf(stderr, "profiling %s once (%llu cycles)...\n",
               std::string(workload::qos_mix1().name).c_str(),
               static_cast<unsigned long long>(opt.phases.profile_cycles));
  const harness::ProfileSnapshot snap = exp.capture_profile();
  for (Scenario& sc : scenarios) {
    std::fprintf(stderr, "scenario %s (%zu events, static + re-solve)...\n",
                 sc.name.c_str(), sc.schedule.events.size());
    run_scenario(exp, snap, sc);
  }

  // The acceptance gate: re-solve strictly dominates static-once on QoS
  // violation time in the headline scenario, and never does worse in any
  // QoS scenario.
  bool dominates = true;
  for (const Scenario& sc : scenarios) {
    if (sc.qos.empty()) continue;
    if (sc.resolve.qos_violation > sc.fixed.qos_violation) dominates = false;
  }
  if (scenarios[0].resolve.qos_violation >= scenarios[0].fixed.qos_violation) {
    dominates = false;
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": 1,\n"
                 "  \"mix\": \"%s\",\n"
                 "  \"measure_cycles\": %llu,\n"
                 "  \"reprofile_window\": 30000,\n"
                 "  \"eval_epoch\": 25000,\n"
                 "  \"scenarios\": [\n",
                 std::string(workload::qos_mix1().name).c_str(),
                 static_cast<unsigned long long>(m));
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const Scenario& sc = scenarios[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"scheme\": \"%s\", \"qos\": %s, "
                   "\"events\": %zu, \"schedule_fp\": \"%016llx\",\n",
                   sc.name.c_str(), core::to_string(sc.scheme).c_str(),
                   sc.qos.empty() ? "false" : "true", sc.schedule.events.size(),
                   static_cast<unsigned long long>(sc.schedule.fingerprint()));
      print_side(f, "static", sc.fixed, ",");
      print_side(f, "resolve", sc.resolve, "");
      std::fprintf(f, "    }%s\n", i + 1 < scenarios.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"resolve_dominates\": %s\n"
                 "}\n",
                 dominates ? "true" : "false");
    std::fclose(f);
  }

  std::printf("%-18s %10s %12s %12s %9s %10s\n", "scenario", "side",
              "qos_viol", "obj_viol", "resolves", "mean_lag");
  for (const Scenario& sc : scenarios) {
    const auto row = [&](const char* side, const Side& s) {
      std::printf("%-18s %10s %12llu %12llu %9llu %10.0f\n", sc.name.c_str(),
                  side, static_cast<unsigned long long>(s.qos_violation),
                  static_cast<unsigned long long>(s.objective_violation),
                  static_cast<unsigned long long>(s.resolves), s.mean_lag);
    };
    row("static", sc.fixed);
    row("re-solve", sc.resolve);
  }
  if (!dominates) {
    std::fprintf(stderr,
                 "FAIL: re-solve-on-churn does not dominate static-once on "
                 "QoS violation time\n");
    return 1;
  }
  std::printf("re-solve dominates static-once on QoS violation time\n");
  return 0;
}
