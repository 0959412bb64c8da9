// Churn-engine property battery: random churn schedules are exactly as
// deterministic as fixed runs (bit-identical fingerprints across reruns,
// fast-forward on/off, and parallel sweeps), an empty schedule reproduces
// the fixed-mix measure phase bit for bit, schedules round-trip through the
// text grammar, and a mid-churn snapshot resumes field-by-field equal to an
// uninterrupted run.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/pbt.hpp"
#include "harness/churn.hpp"
#include "harness/differential.hpp"
#include "harness/experiment.hpp"
#include "harness/generators.hpp"
#include "profile/alone_profiler.hpp"
#include "workload/mixes.hpp"

namespace bwpart::harness {
namespace {

struct ChurnCase {
  SystemConfig cfg;
  std::vector<workload::BenchmarkSpec> mix;
  PhaseConfig phases;
  ChurnSchedule schedule;
  ChurnRunConfig churn;
};

/// A structurally valid random schedule over `n` apps and a measure window
/// of `measure` cycles: random initial dormancy (at least one app live),
/// then a legal random walk of arrivals/departures/phase changes.
ChurnSchedule random_schedule(Rng& rng, std::size_t n, Cycle measure) {
  ChurnSchedule s;
  std::vector<bool> live(n, true);
  std::size_t num_live = n;
  for (AppId a = 0; a < n; ++a) {
    if (num_live > 1 && pbt::gen_uint(rng, 0, 9) < 3) {
      s.dormant(a);
      live[a] = false;
      --num_live;
    }
  }
  const std::size_t num_events = static_cast<std::size_t>(
      pbt::gen_uint(rng, 1, 6));
  std::vector<Cycle> cycles;
  for (std::size_t i = 0; i < num_events; ++i) {
    cycles.push_back(pbt::gen_uint(rng, 1, measure - 1));
  }
  std::sort(cycles.begin(), cycles.end());
  for (const Cycle at : cycles) {
    const AppId app = static_cast<AppId>(pbt::gen_uint(rng, 0, n - 1));
    if (!live[app]) {
      s.arrive(at, app);
      live[app] = true;
      ++num_live;
    } else if (num_live > 1 && pbt::gen_uint(rng, 0, 2) == 0) {
      s.depart(at, app);
      live[app] = false;
      --num_live;
    } else {
      PhaseKnobs k;
      k.api = pbt::gen_double(rng, 0.002, 0.08);
      if (pbt::gen_uint(rng, 0, 1) == 0) {
        k.mean_cluster = pbt::gen_double(rng, 1.0, 8.0);
      }
      if (pbt::gen_uint(rng, 0, 1) == 0) {
        k.write_fraction = pbt::gen_double(rng, 0.0, 0.5);
      }
      s.phase(at, app, k);
    }
  }
  return s;
}

pbt::GenFn<ChurnCase> churn_case_gen() {
  return [](Rng& rng) {
    ChurnCase c;
    c.cfg = gen::system_config(rng);
    c.mix = gen::mix(rng, 2, 4);
    c.phases = gen::phase_config(rng);
    c.phases.reprofile_period = 0;
    c.schedule = random_schedule(rng, c.mix.size(),
                                 c.phases.measure_cycles);
    c.churn.scheme = gen::scheme(rng);
    c.churn.resolve_on_churn = pbt::gen_uint(rng, 0, 3) != 0;
    c.churn.reprofile_window = pbt::gen_uint(rng, 2'000, 12'000);
    c.churn.eval_epoch = pbt::gen_uint(rng, 3'000, 10'000);
    return c;
  };
}

std::string print_churn_case(const ChurnCase& c) {
  std::ostringstream os;
  os << "scheme=" << core::to_string(c.churn.scheme)
     << " seed=" << c.phases.seed << " measure=" << c.phases.measure_cycles
     << " resolve=" << c.churn.resolve_on_churn << " mix={";
  for (const workload::BenchmarkSpec& b : c.mix) os << b.name << " ";
  os << "} schedule{" << c.schedule.to_compact() << "}";
  return os.str();
}

/// Same degeneracy guard as the fixed-run e2e properties: a tiny random
/// profile window can leave an app with zero estimated APC/API, which the
/// partitioning layer rejects by design.
bool profile_is_degenerate(const ChurnCase& c) {
  CmpSystem sys(c.cfg, c.mix, c.phases.seed);
  sys.run(c.phases.warmup_cycles);
  sys.reset_measurement();
  sys.run(c.phases.profile_cycles);
  for (const profile::AppCounters& counters : sys.profiler_counters()) {
    const core::AppParams p =
        profile::estimate_alone(counters, c.phases.profile_cycles);
    if (p.apc_alone <= 0.0 || p.api <= 0.0) return true;
  }
  return false;
}

/// Dormancy and every event field equal, doubles compared bit for bit.
bool same_schedule(const ChurnSchedule& a, const ChurnSchedule& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto same_knobs = [&](const PhaseKnobs& x, const PhaseKnobs& y) {
    return bits(x.api) == bits(y.api) &&
           bits(x.mean_cluster) == bits(y.mean_cluster) &&
           bits(x.write_fraction) == bits(y.write_fraction) &&
           bits(x.dependent_fraction) == bits(y.dependent_fraction) &&
           x.seq_run_lines == y.seq_run_lines &&
           x.intra_cluster_gap == y.intra_cluster_gap;
  };
  return a.initially_dormant == b.initially_dormant &&
         std::equal(a.events.begin(), a.events.end(), b.events.begin(),
                    b.events.end(),
                    [&](const ChurnEvent& x, const ChurnEvent& y) {
                      return x.at == y.at && x.kind == y.kind &&
                             x.app == y.app && same_knobs(x.knobs, y.knobs);
                    });
}

// ---------------------------------------------------------------------------
// Determinism: rerun, fast-forward on/off, grammar round-trip.

TEST(ChurnProperties, RandomSchedulesDeterministicAcrossEnginesAndReruns) {
  check::Recorder rec;
  int skipped = 0;
  const pbt::Result r = pbt::for_all<ChurnCase>(
      "churn-determinism", churn_case_gen(),
      [&rec, &skipped](const ChurnCase& c) -> std::string {
        if (profile_is_degenerate(c)) {
          ++skipped;
          return {};
        }
        rec.clear();
        const Experiment exp(c.cfg, c.mix, c.phases);
        const ChurnRunResult a = exp.run_churn(c.schedule, c.churn);
        if (rec.count() != 0) {
          return "invariant violation: " + rec.violations().front().what;
        }
        const ChurnRunResult b = exp.run_churn(c.schedule, c.churn);
        if (fingerprint(a) != fingerprint(b)) {
          return "same-seed churn rerun is not bit-identical";
        }
        SystemConfig noff = c.cfg;
        noff.fast_forward = !c.cfg.fast_forward;
        const Experiment exp2(noff, c.mix, c.phases);
        const ChurnRunResult d = exp2.run_churn(c.schedule, c.churn);
        if (fingerprint(a) != fingerprint(d)) {
          return "fast-forward on/off diverge under churn";
        }
        // The text grammar is a faithful codec: parsing the canonical text
        // reproduces the schedule and therefore the run bit for bit.
        const ChurnSchedule reparsed = ChurnSchedule::parse(
            c.schedule.to_text());
        if (reparsed.fingerprint() != c.schedule.fingerprint()) {
          return "schedule does not round-trip through its grammar";
        }
        // The fingerprint hashes the same text, so it cannot see a knob the
        // text rounded: compare every event field bit for bit.
        if (!same_schedule(reparsed, c.schedule)) {
          return "reparsed schedule differs from the original field by field";
        }
        const ChurnRunResult e = exp.run_churn(reparsed, c.churn);
        if (fingerprint(a) != fingerprint(e)) {
          return "reparsed schedule diverges from the original";
        }
        // Tenancy accounting: live cycles never exceed the window, and an
        // app that was live throughout has rates equal to the plain form.
        for (std::size_t i = 0; i < c.mix.size(); ++i) {
          if (a.live_cycles[i] > c.phases.measure_cycles) {
            return "live_window exceeds the measure window";
          }
          if (a.live_cycles[i] == c.phases.measure_cycles &&
              a.ipc_live[i] != a.base.ipc_shared[i]) {
            return "always-live app's tenancy rate differs from plain IPC";
          }
        }
        return {};
      },
      {}, nullptr, print_churn_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
  EXPECT_LT(skipped, r.cases_run / 4) << "too many degenerate profiles";
}

TEST(ChurnProperties, ParallelChurnSweepBitIdenticalToSerial) {
  Rng rng(pbt::case_seed(pbt::base_seed(), 77));
  const auto apps = workload::resolve_mix(workload::fig1_mix());
  PhaseConfig phases;
  phases.warmup_cycles = 2'000;
  phases.profile_cycles = 15'000;
  phases.measure_cycles = 30'000;
  std::vector<ChurnSchedule> schedules;
  for (int i = 0; i < 10; ++i) {
    schedules.push_back(random_schedule(rng, apps.size(),
                                        phases.measure_cycles));
  }
  const SweepDifference d = diff_parallel_sweep(
      schedules.size(),
      [&](std::size_t i) {
        PhaseConfig p = phases;
        p.seed = 4000 + i;
        const Experiment exp(SystemConfig{}, apps, p);
        ChurnRunConfig cc;
        cc.scheme = core::kAllSchemes[i % std::size(core::kAllSchemes)];
        cc.reprofile_window = 4'000;
        cc.eval_epoch = 5'000;
        return fingerprint(exp.run_churn(schedules[i], cc));
      },
      4);
  EXPECT_TRUE(d.identical)
      << "job " << d.first_mismatch << " diverged: serial fp " << d.serial_fp
      << " vs parallel fp " << d.parallel_fp;
}

// ---------------------------------------------------------------------------
// Empty schedule == today's fixed-mix path, bit for bit.

TEST(ChurnProperties, EmptyScheduleBitIdenticalToFixedMixPath) {
  int skipped = 0;
  const pbt::Result r = pbt::for_all<ChurnCase>(
      "churn-empty-identity", churn_case_gen(),
      [&skipped](const ChurnCase& c) -> std::string {
        if (profile_is_degenerate(c)) {
          ++skipped;
          return {};
        }
        const Experiment exp(c.cfg, c.mix, c.phases);
        const RunResult fixed = exp.run(c.churn.scheme);
        ChurnRunConfig cc = c.churn;
        cc.qos.clear();
        const ChurnRunResult churn = exp.run_churn(ChurnSchedule{}, cc);
        if (fingerprint(churn.base) != fingerprint(fixed)) {
          return "empty-schedule churn run diverges from run()";
        }
        if (churn.resolves != 1 || !churn.outcomes.empty() ||
            churn.qos_violation_cycles != 0) {
          return "empty schedule produced churn artifacts";
        }
        return {};
      },
      {}, nullptr, print_churn_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
  EXPECT_LT(skipped, r.cases_run / 4) << "too many degenerate profiles";
}

TEST(ChurnProperties, EmptyScheduleQosBitIdenticalToRunQos) {
  const auto apps = workload::resolve_mix(workload::qos_mix1());
  PhaseConfig phases;
  phases.warmup_cycles = 10'000;
  phases.profile_cycles = 120'000;
  phases.measure_cycles = 120'000;
  const Experiment exp(SystemConfig{}, apps, phases);
  const core::QosRequirement req{3, 0.6};
  for (const core::Scheme be :
       {core::Scheme::SquareRoot, core::Scheme::PriorityApc}) {
    const RunResult fixed = exp.run_qos(std::span(&req, 1), be);
    ChurnRunConfig cc;
    cc.scheme = be;
    cc.qos = {req};
    const ChurnRunResult churn = exp.run_churn(ChurnSchedule{}, cc);
    EXPECT_EQ(fingerprint(churn.base), fingerprint(fixed))
        << core::to_string(be);
  }
}

// ---------------------------------------------------------------------------
// Mid-churn snapshot save/restore resumes bit-identically.

struct SnapshotCase {
  ChurnCase base;
  std::size_t stop_after_steps = 1;
};

TEST(ChurnProperties, MidChurnSnapshotResumesBitIdentically) {
  int skipped = 0;
  const pbt::Result r = pbt::for_all<SnapshotCase>(
      "churn-snapshot-resume",
      [](Rng& rng) {
        SnapshotCase c;
        c.base = churn_case_gen()(rng);
        c.stop_after_steps =
            static_cast<std::size_t>(pbt::gen_uint(rng, 1, 8));
        return c;
      },
      [&skipped](const SnapshotCase& sc) -> std::string {
        const ChurnCase& c = sc.base;
        if (profile_is_degenerate(c)) {
          ++skipped;
          return {};
        }
        // Profile once; both runs fork from the identical byte state.
        const Experiment exp(c.cfg, c.mix, c.phases);
        const ProfileSnapshot profile = exp.capture_profile();
        const ChurnRunResult whole =
            exp.measure_churn_from(profile, c.schedule, c.churn);

        // Interrupted run: step a few boundaries, snapshot system + engine
        // cursor, then resume both into fresh objects and run to the end.
        CmpSystem sys(c.cfg, c.mix, c.phases.seed);
        {
          snap::Reader pr(profile.state);
          sys.restore_state(pr);
        }
        ChurnEngine engine(sys, c.schedule, c.churn,
                           c.phases.measure_cycles, profile.params,
                           profile.profiled_b, c.cfg.dstf_row_hit_window);
        engine.start();
        bool more = true;
        for (std::size_t i = 0; i < sc.stop_after_steps && more; ++i) {
          more = engine.step();
        }
        snap::Writer w;
        sys.save_state(w);
        engine.save_state(w);
        const std::vector<std::uint8_t> blob = w.take();

        CmpSystem sys2(c.cfg, c.mix, c.phases.seed);
        snap::Reader rr(blob);
        sys2.restore_state(rr);
        ChurnEngine engine2(sys2, c.schedule, c.churn,
                            c.phases.measure_cycles, profile.params,
                            profile.profiled_b, c.cfg.dstf_row_hit_window);
        engine2.restore_state(rr);
        if (!rr.at_end()) return "trailing bytes after the engine cursor";
        while (engine2.step()) {
        }
        const ChurnRunResult resumed = engine2.finish();

        if (fingerprint(resumed) != fingerprint(whole)) {
          return "resumed churn run diverges from the uninterrupted run";
        }
        // Field-by-field spot checks (the fingerprint covers all of these;
        // explicit comparisons make a failure legible).
        if (resumed.resolves != whole.resolves) return "resolves differ";
        if (resumed.outcomes.size() != whole.outcomes.size()) {
          return "outcome counts differ";
        }
        for (std::size_t i = 0; i < whole.outcomes.size(); ++i) {
          if (resumed.outcomes[i].applied_at != whole.outcomes[i].applied_at ||
              resumed.outcomes[i].resolved_at !=
                  whole.outcomes[i].resolved_at ||
              resumed.outcomes[i].adaptation_lag !=
                  whole.outcomes[i].adaptation_lag) {
            return "outcome " + std::to_string(i) + " differs";
          }
        }
        for (std::size_t i = 0; i < c.mix.size(); ++i) {
          if (resumed.live_cycles[i] != whole.live_cycles[i]) {
            return "live_cycles differ";
          }
          if (resumed.base.ipc_shared[i] != whole.base.ipc_shared[i]) {
            return "ipc_shared differs";
          }
        }
        return {};
      },
      {}, nullptr,
      [](const SnapshotCase& sc) {
        return print_churn_case(sc.base) +
               " stop_after=" + std::to_string(sc.stop_after_steps);
      });
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
  EXPECT_LT(skipped, r.cases_run / 4) << "too many degenerate profiles";
}

// ---------------------------------------------------------------------------
// Grammar: parse errors are loud and name the line.

TEST(ChurnProperties, GrammarRejectsMalformedSchedulesLoudly) {
  for (const char* bad : {
           "@5 arrive",              // missing app
           "@x arrive 0",            // bad cycle
           "arrive 0",               // missing @cycle
           "@5 vanish 0",            // unknown verb
           "@5 phase 0 api",         // knob without value
           "@5 phase 0 rowbuf=3",    // unknown knob
           "dormant",                // empty list
           "@5 arrive 0 1",          // extra operand
       }) {
    EXPECT_THROW((void)ChurnSchedule::parse(bad), std::runtime_error) << bad;
  }
  // Validation: out-of-range apps, double arrivals, empty machines.
  ChurnSchedule s1 = ChurnSchedule::parse("@5 arrive 7");
  EXPECT_THROW(s1.validate(4), std::runtime_error);
  ChurnSchedule s2 = ChurnSchedule::parse("@5 arrive 0");
  EXPECT_THROW(s2.validate(4), std::runtime_error);  // already live
  ChurnSchedule s3 = ChurnSchedule::parse("dormant 0,1\n@5 depart 2");
  EXPECT_THROW(s3.validate(3), std::runtime_error);  // no live app left
  ChurnSchedule s4 = ChurnSchedule::parse("@9 depart 1\n@5 depart 2");
  EXPECT_THROW(s4.validate(4), std::runtime_error);  // out of order
  // Numbers outside their field's range fail, naming the token, where a
  // wrapping or lenient parse would run something else than was written.
  const std::pair<const char*, const char*> out_of_range[] = {
      {"dormant 1;@-5 arrive 1", "'-5'"},            // wraps: never fires
      {"@100 depart 4294967297", "'4294967297'"},    // truncates to app 1
      {"@100 phase 0 write_fraction=-0.5 api=0.02", "'-0.5'"},  // dropped
      {"@100 phase 0 seq_run_lines=-1 api=0.02", "'-1'"},  // wraps to keep
      {"@100 phase 0 api=nan", "'nan'"},             // read as "no knob"
      {"@1000 phase 0 mean_cluster=inf", "'inf'"},   // no integer holds it
  };
  for (const auto& [text, token] : out_of_range) {
    try {
      ChurnSchedule::parse(text).validate(4);
      ADD_FAILURE() << text << ": accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
          << text << ": " << e.what();
    }
  }
  // A built schedule meets the same knob ranges in validate().
  PhaseKnobs inf_cluster;
  inf_cluster.mean_cluster = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ChurnSchedule{}.phase(5, 0, inf_cluster).validate(4),
               std::runtime_error);
  // Compact and multi-line forms parse identically.
  const ChurnSchedule a =
      ChurnSchedule::parse("dormant 1\n@5 arrive 1\n@9 phase 0 api=0.01");
  const ChurnSchedule b =
      ChurnSchedule::parse("dormant 1;@5 arrive 1;@9 phase 0 api=0.01");
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), 0u);
  EXPECT_EQ(ChurnSchedule{}.fingerprint(), 0u);
  // Knobs print with as many digits as they need to read back: schedules
  // one ULP apart fingerprint apart, and each survives its own text.
  PhaseKnobs k;
  k.api = 0.0123456789;
  const ChurnSchedule fine = ChurnSchedule{}.phase(100, 0, k);
  k.api = std::nextafter(k.api, 1.0);
  const ChurnSchedule ulp = ChurnSchedule{}.phase(100, 0, k);
  EXPECT_NE(fine.fingerprint(), ulp.fingerprint());
  EXPECT_TRUE(same_schedule(ChurnSchedule::parse(ulp.to_text()), ulp))
      << ulp.to_text();
  // Six significant digits or fewer print as before.
  EXPECT_EQ(ChurnSchedule::parse("@9 phase 0 api=0.0123457").to_compact(),
            "@9 phase 0 api=0.0123457");
}

}  // namespace
}  // namespace bwpart::harness
