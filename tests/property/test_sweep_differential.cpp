// Differential properties of the snapshot/fork sweep engine: a measure
// phase forked from a profile snapshot (Experiment::measure_from /
// measure_qos_from / run_all) must be bit-identical — every metric, every
// per-app double — to the straight-through run()/run_qos() that re-executes
// warmup + profile from scratch. Random machines, mixes, schemes, seeds and
// reprofile periods; plus determinism across run_all thread counts and
// across snapshot-reuse on/off.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/pbt.hpp"
#include "core/qos.hpp"
#include "harness/differential.hpp"
#include "harness/experiment.hpp"
#include "harness/generators.hpp"
#include "workload/mixes.hpp"

namespace bwpart::harness {
namespace {

struct SweepCase {
  SystemConfig cfg;
  std::vector<workload::BenchmarkSpec> mix;
  PhaseConfig phases;
  core::Scheme scheme = core::Scheme::NoPartitioning;
};

pbt::GenFn<SweepCase> sweep_case_gen() {
  return [](Rng& rng) {
    SweepCase c;
    c.cfg = gen::system_config(rng);
    c.mix = gen::mix(rng, 2, 4);
    c.phases = gen::phase_config(rng);
    // Rolling re-profiling forks mid-measure scheduling updates off the
    // snapshot path too; cover both it and the fixed-share path.
    if (rng.next_bool(0.35)) {
      c.phases.reprofile_period = pbt::gen_uint(rng, 3'000, 15'000);
    }
    c.scheme = gen::scheme(rng);
    return c;
  };
}

std::string print_sweep_case(const SweepCase& c) {
  std::ostringstream os;
  os << "scheme=" << core::to_string(c.scheme) << " seed=" << c.phases.seed
     << " profile=" << c.phases.profile_cycles
     << " measure=" << c.phases.measure_cycles
     << " reprofile=" << c.phases.reprofile_period << " mix={";
  for (const workload::BenchmarkSpec& b : c.mix) os << b.name << " ";
  os << "} ch=" << c.cfg.dram.channels << " ranks=" << c.cfg.dram.ranks;
  return os.str();
}

// measure_from(capture_profile(), scheme) == run(scheme), fingerprinted,
// across random configurations including reprofile_period != 0.
TEST(SweepDifferential, ForkedMeasurePhaseBitIdenticalToStraightRun) {
  const pbt::Result r = pbt::for_all<SweepCase>(
      "sweep-fork-vs-straight", sweep_case_gen(),
      [](const SweepCase& c) -> std::string {
        const Experiment ex(c.cfg, c.mix, c.phases);
        const ProfileSnapshot snap = ex.capture_profile();
        const RunResult forked = ex.measure_from(snap, c.scheme);
        const RunResult straight = ex.run(c.scheme);
        if (fingerprint(forked) != fingerprint(straight)) {
          return "forked measure phase diverged from straight run";
        }
        return {};
      },
      {}, nullptr, print_sweep_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

// The QoS fork allocates from the snapshot's stored profile bandwidth and
// must reproduce run_qos() exactly whenever the targets are feasible.
TEST(SweepDifferential, QosForkBitIdenticalToStraightRunQos) {
  std::size_t feasible_cases = 0;
  const pbt::Result r = pbt::for_all<SweepCase>(
      "sweep-qos-fork", sweep_case_gen(),
      [&feasible_cases](const SweepCase& c) -> std::string {
        // QoS + rolling reprofile is not a supported combination (QoS locks
        // the share vector); keep shares fixed here.
        PhaseConfig phases = c.phases;
        phases.reprofile_period = 0;
        const Experiment ex(c.cfg, c.mix, phases);
        const ProfileSnapshot snap = ex.capture_profile();
        // Guarantee app 0 half of its standalone IPC; skip the (rare)
        // infeasible draws — run_qos asserts on them by design.
        const core::QosRequirement req{
            0, 0.5 * snap.params[0].ipc_alone()};
        const core::QosPlan plan = core::qos_allocate(
            snap.params, std::span(&req, 1), snap.profiled_b, c.scheme);
        if (!plan.feasible) return {};
        ++feasible_cases;
        const RunResult forked =
            ex.measure_qos_from(snap, std::span(&req, 1), c.scheme);
        const RunResult straight = ex.run_qos(std::span(&req, 1), c.scheme);
        if (fingerprint(forked) != fingerprint(straight)) {
          return "forked QoS measure phase diverged from run_qos";
        }
        return {};
      },
      {}, nullptr, print_sweep_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
  // The generator's bandwidth regimes make infeasibility the exception.
  EXPECT_GE(feasible_cases, 50u);
}

// One snapshot fans out to every scheme: run_all must agree with per-scheme
// straight runs wholesale, whatever thread count executes the forks.
TEST(SweepDifferential, RunAllMatchesPerSchemeRuns) {
  Rng rng(pbt::case_seed(pbt::base_seed(), 9001));
  const std::vector<workload::BenchmarkSpec> mix = gen::mix(rng, 3, 4);
  PhaseConfig phases;
  phases.warmup_cycles = 4'000;
  phases.profile_cycles = 40'000;
  phases.measure_cycles = 40'000;
  const SystemConfig cfg;
  const Experiment ex(cfg, mix, phases);
  const std::vector<RunResult> all = ex.run_all(core::kAllSchemes);
  ASSERT_EQ(all.size(), std::size(core::kAllSchemes));
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(fingerprint(all[i]), fingerprint(ex.run(core::kAllSchemes[i])))
        << core::to_string(core::kAllSchemes[i]);
  }
}

// Determinism under parallelism and across the snapshot switch: the sweep's
// fingerprints are identical for 1, 2 and 8 worker threads, and identical
// again with snapshot reuse disabled (every fork replaced by a straight
// run).
TEST(SweepDifferential, RunAllDeterministicAcrossThreadsAndSnapshotMode) {
  Rng rng(pbt::case_seed(pbt::base_seed(), 9002));
  const std::vector<workload::BenchmarkSpec> mix = gen::mix(rng, 3, 4);
  PhaseConfig phases;
  phases.warmup_cycles = 4'000;
  phases.profile_cycles = 30'000;
  phases.measure_cycles = 30'000;
  phases.reprofile_period = 9'000;
  const SystemConfig cfg;
  Experiment ex(cfg, mix, phases);

  const std::vector<RunResult> serial = ex.run_all(core::kAllSchemes, 1);
  ASSERT_EQ(serial.size(), std::size(core::kAllSchemes));
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const std::vector<RunResult> parallel =
        ex.run_all(core::kAllSchemes, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(fingerprint(parallel[i]), fingerprint(serial[i]))
          << threads << " threads, "
          << core::to_string(core::kAllSchemes[i]);
    }
  }

  ex.set_snapshot_reuse(!ex.snapshot_reuse());
  const std::vector<RunResult> flipped = ex.run_all(core::kAllSchemes, 2);
  ASSERT_EQ(flipped.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(fingerprint(flipped[i]), fingerprint(serial[i]))
        << "snapshot mode flip, " << core::to_string(core::kAllSchemes[i]);
  }
}

}  // namespace
}  // namespace bwpart::harness
