// QoS under churn: after every arrival/departure the re-solver must bring
// the surviving guaranteed apps back onto their Eq. 11 targets within a
// bounded adaptation lag, and the liveness-aware share checker must catch a
// deliberately corrupted share vector (negative test) — the invariant
// checkers' conservation story extended to time-varying app sets.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "harness/churn.hpp"
#include "harness/experiment.hpp"
#include "workload/mixes.hpp"

namespace bwpart::harness {
namespace {

PhaseConfig churn_phases() {
  PhaseConfig p;
  p.warmup_cycles = 10'000;
  p.profile_cycles = 150'000;
  p.measure_cycles = 600'000;
  return p;
}

/// hmmer (index 3 in qos_mix1) is guaranteed 0.6 IPC; the other apps churn
/// around it. The guaranteed app itself never departs.
core::QosRequirement guaranteed() { return {3, 0.6}; }

TEST(ChurnQos, TargetsRemetWithinBoundedLagAfterEveryEvent) {
  const auto apps = workload::resolve_mix(workload::qos_mix1());
  const Experiment exp(SystemConfig{}, apps, churn_phases());
  ChurnSchedule sched;
  sched.depart(150'000, 1).arrive(320'000, 1).depart(430'000, 0);
  ChurnRunConfig cc;
  cc.scheme = core::Scheme::SquareRoot;
  cc.qos = {guaranteed()};
  cc.reprofile_window = 30'000;
  cc.eval_epoch = 25'000;
  const ChurnRunResult r = exp.run_churn(sched, cc);

  ASSERT_EQ(r.outcomes.size(), 3u);
  // Each event must have been re-solved one reprofile window after it
  // landed, and the objective re-met within a bounded adaptation lag:
  // the reprofile window plus a handful of evaluation epochs.
  const Cycle lag_bound = cc.reprofile_window + 6 * cc.eval_epoch;
  for (const ChurnEventOutcome& o : r.outcomes) {
    EXPECT_NE(o.resolved_at, kNoCycle) << "event@" << o.event.at;
    EXPECT_EQ(o.resolved_at, o.applied_at + cc.reprofile_window)
        << "event@" << o.event.at;
    ASSERT_NE(o.adaptation_lag, kNoCycle)
        << "objective never re-met after event@" << o.event.at;
    EXPECT_LE(o.adaptation_lag, lag_bound) << "event@" << o.event.at;
  }
  EXPECT_EQ(r.resolves, 4u);  // initial install + one per event
  // The guaranteed app was live throughout; its tenancy-normalized IPC
  // must sit at (or above, work conservation) the floor.
  EXPECT_GT(r.ipc_live[3], 0.6 - 0.07);
  // The violation clock only ticks transiently around churn instants: it
  // must stay well under the sum of the adaptation lags.
  Cycle lag_sum = 0;
  for (const ChurnEventOutcome& o : r.outcomes) lag_sum += o.adaptation_lag;
  EXPECT_LE(r.qos_violation_cycles, lag_sum);
}

TEST(ChurnQos, ResolveOnChurnDominatesStaticOnceOnViolationTime) {
  // The canonical non-stationarity failure: the guaranteed app's phase
  // changes to a much higher API, so the reservation computed from its
  // profile-phase parameters under-provisions it from that point on. A
  // work-conserving scheduler cannot self-heal this (the best-effort apps
  // are using their shares), so static-once violates Eq. 11 for the rest
  // of the run while re-solve-on-churn re-profiles and re-reserves.
  const auto apps = workload::resolve_mix(workload::qos_mix1());
  const Experiment exp(SystemConfig{}, apps, churn_phases());
  ChurnSchedule sched;
  PhaseKnobs hungrier;
  hungrier.api = 0.008;  // hmmer profiles at ~0.0046 accesses/instruction
  sched.phase(150'000, 3, hungrier);
  ChurnRunConfig re;
  re.scheme = core::Scheme::SquareRoot;
  re.qos = {guaranteed()};
  re.reprofile_window = 30'000;
  re.eval_epoch = 25'000;
  ChurnRunConfig st = re;
  st.resolve_on_churn = false;
  const ChurnRunResult dynamic = exp.run_churn(sched, re);
  const ChurnRunResult fixed = exp.run_churn(sched, st);
  EXPECT_EQ(fixed.resolves, 1u);
  EXPECT_EQ(dynamic.resolves, 2u);
  // Strict dominance on QoS violation time (the bench's headline metric).
  EXPECT_LT(dynamic.qos_violation_cycles, fixed.qos_violation_cycles);
  // Static-once never recovers: it keeps violating for a large fraction of
  // the post-event window; the re-solver's violation time is bounded by
  // its adaptation lag.
  EXPECT_GT(fixed.qos_violation_cycles, 200'000u);
  ASSERT_NE(dynamic.outcomes[0].adaptation_lag, kNoCycle);
  EXPECT_LE(dynamic.qos_violation_cycles, dynamic.outcomes[0].adaptation_lag);
}

// ---------------------------------------------------------------------------
// Negative tests: the liveness-aware checkers catch injected corruption.

TEST(ChurnQos, ShareVectorLiveCatchesDormantAppHoldingShare) {
  check::Recorder rec;
  const std::vector<double> beta = {0.5, 0.2, 0.3};
  const std::vector<std::uint8_t> live = {1, 0, 1};
  // App 1 is dormant but still holds 0.2 of the bus: the exact corruption a
  // forgotten re-solve after a departure would produce. The checker reports
  // every violated clause (the stranded share AND the live-sum deficit it
  // causes), so assert on the dormant clause specifically.
  check::share_vector_live(beta, live, "test");
  ASSERT_GE(rec.count(), 1u);
  EXPECT_TRUE(rec.caught("dormant")) << rec.violations().front().what;
}

TEST(ChurnQos, ShareVectorLiveCatchesLiveShareSumDeficit) {
  check::Recorder rec;
  // Dormant entries zeroed, but the live mass was never renormalized — the
  // other false negative the constant-num_apps checker used to wave past.
  const std::vector<double> beta = {0.5, 0.0, 0.3};
  const std::vector<std::uint8_t> live = {1, 0, 1};
  check::share_vector_live(beta, live, "test");
  ASSERT_EQ(rec.count(), 1u);
  EXPECT_NE(rec.violations().front().what.find("sum"), std::string::npos)
      << rec.violations().front().what;
}

TEST(ChurnQos, ShareVectorLiveAcceptsWellFormedVectors) {
  check::Recorder rec;
  check::share_vector_live(std::vector<double>{0.6, 0.0, 0.4},
                           std::vector<std::uint8_t>{1, 0, 1}, "test");
  check::share_vector_live(std::vector<double>{1.0},
                           std::vector<std::uint8_t>{1}, "test");
  // No live apps: the vector must be all-zero, and that is well-formed.
  check::share_vector_live(std::vector<double>{0.0, 0.0},
                           std::vector<std::uint8_t>{0, 0}, "test");
  EXPECT_EQ(rec.count(), 0u)
      << "false positive: " << rec.violations().front().what;
}

TEST(ChurnQos, EngineRejectsStructurallyInvalidSchedules) {
  const auto apps = workload::resolve_mix(workload::qos_mix1());
  const Experiment exp(SystemConfig{}, apps, churn_phases());
  ChurnRunConfig cc;
  cc.scheme = core::Scheme::SquareRoot;
  ChurnSchedule bad;
  bad.depart(100, 0).depart(200, 1).depart(300, 2).depart(400, 3);
  EXPECT_THROW((void)exp.run_churn(bad, cc), std::runtime_error);
}

}  // namespace
}  // namespace bwpart::harness
