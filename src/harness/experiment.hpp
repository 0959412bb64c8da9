// The experiment driver reproducing the paper's methodology (Section V-B):
// warm up, profile APC_alone online (Eq. 12-13) under No_partitioning,
// install the partitioning scheme under test, then measure.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/app_params.hpp"
#include "core/metrics.hpp"
#include "core/partition.hpp"
#include "core/qos.hpp"
#include "harness/snapshot.hpp"
#include "harness/system.hpp"
#include "workload/mixes.hpp"

namespace bwpart::harness {

struct ChurnSchedule;
struct ChurnRunConfig;
struct ChurnRunResult;

struct PhaseConfig {
  Cycle warmup_cycles = 500'000;
  Cycle profile_cycles = 2'000'000;
  Cycle measure_cycles = 2'000'000;
  /// When true, APC_alone/API come from truly-standalone runs of each app
  /// (ground truth) instead of the online interference-based estimator.
  bool oracle_alone = false;
  /// Re-profiling period during the measure phase; 0 disables (shares stay
  /// fixed at the profile-phase estimate, and the measure phase runs
  /// without interference attribution, which nothing would read).
  Cycle reprofile_period = 0;
  std::uint64_t seed = 42;

  /// The paper's full-scale setting: 10 M-cycle profile + 10 M-cycle
  /// measurement windows. Every non-cycle knob (oracle_alone,
  /// reprofile_period, seed) is reset to its default; use the overload
  /// below to keep them from an existing configuration.
  static PhaseConfig paper_scale() { return paper_scale(PhaseConfig{}); }

  /// Paper-scale cycle counts applied on top of `base`: oracle_alone,
  /// reprofile_period and seed carry forward unchanged.
  static PhaseConfig paper_scale(const PhaseConfig& base) {
    PhaseConfig p = base;
    p.warmup_cycles = 2'000'000;
    p.profile_cycles = 10'000'000;
    p.measure_cycles = 10'000'000;
    return p;
  }
};

struct RunResult {
  core::Scheme scheme = core::Scheme::NoPartitioning;
  /// The AppParams used for partitioning *and* for metric normalization
  /// (the paper uses the same estimates for both, Section IV-C).
  std::vector<core::AppParams> params;
  std::vector<double> ipc_shared;   ///< measured, per app
  std::vector<double> apc_shared;   ///< measured, per app
  double total_apc = 0.0;           ///< measured utilized bandwidth B
  double bus_utilization = 0.0;

  double hsp = 0.0;
  double wsp = 0.0;
  double ipcsum = 0.0;
  double min_fairness = 0.0;

  double metric(core::Metric m) const;
};

/// Installs a fresh scheduler enforcing `e` (make_scheduler) and its
/// admission mode on every controller of `sys`. Every controller gets its
/// own instance carrying the global shares or ranks, so DSTF virtual time
/// advances only for the applications issuing to that controller
/// (per-controller enforcement).
void install_enforcement(CmpSystem& sys, const Enforcement& e,
                         double row_hit_window);

/// Scores a finished measure window: the measured per-application IPC and
/// APC, total APC and bus utilization of `sys`, and the paper's metrics
/// against each application's alone IPC in `params` (Hsp reads 0 when any
/// application was starved).
RunResult score_window(const CmpSystem& sys, core::Scheme scheme,
                       std::vector<core::AppParams> params);

class Experiment {
 public:
  Experiment(const SystemConfig& cfg,
             std::span<const workload::BenchmarkSpec> apps,
             const PhaseConfig& phases);

  /// Runs one scheme end-to-end on a fresh system (same seed => identical
  /// traces across schemes).
  RunResult run(core::Scheme scheme) const;

  /// Runs the QoS-guaranteed mode (Section III-G / Fig. 3): guaranteed apps
  /// get exactly their reservation; the rest are partitioned with
  /// `best_effort_scheme` over the remaining bandwidth.
  RunResult run_qos(std::span<const core::QosRequirement> requirements,
                    core::Scheme best_effort_scheme) const;

  /// Runs a dynamic-workload measure phase: warm up + profile the full app
  /// superset, then replay `schedule`'s arrivals/departures/phase changes
  /// over the measure window with a ChurnEngine re-solving shares under
  /// `churn_cfg`'s objective. An empty schedule with a matching objective is
  /// bit-identical to run(scheme) / run_qos (fingerprint-proven).
  ChurnRunResult run_churn(const ChurnSchedule& schedule,
                           const ChurnRunConfig& churn_cfg) const;

  /// Churn fork: like measure_from(), but replays the churn schedule from
  /// the profile snapshot. Bit-identical to run_churn on the same inputs.
  ChurnRunResult measure_churn_from(const ProfileSnapshot& snapshot,
                                    const ChurnSchedule& schedule,
                                    const ChurnRunConfig& churn_cfg) const;

  /// Ground-truth standalone parameters of every app (each run alone on the
  /// full machine).
  std::vector<core::AppParams> profile_alone_oracle() const;

  /// Runs the warmup + profile phases once and captures the system at the
  /// measure-phase boundary. Every scheme's measure phase can then fork from
  /// the snapshot via measure_from() — bit-identical to run(scheme), since
  /// with a fixed seed the pre-measure phases are scheme-independent.
  ProfileSnapshot capture_profile() const;

  /// Forks `scheme`'s measure phase from a profile snapshot. The snapshot's
  /// config fingerprint must match this experiment's (else
  /// snap::SnapshotError). Bit-identical to run(scheme) in every metric.
  RunResult measure_from(const ProfileSnapshot& snapshot,
                         core::Scheme scheme) const;

  /// QoS fork: allocates from the snapshot's profiled bandwidth exactly as
  /// run_qos() would from its own profile phase, then forks the measure
  /// phase. Bit-identical to run_qos(requirements, best_effort_scheme).
  RunResult measure_qos_from(const ProfileSnapshot& snapshot,
                             std::span<const core::QosRequirement> requirements,
                             core::Scheme best_effort_scheme) const;

  /// Sweeps every scheme, profiling once and forking each measure phase from
  /// the in-memory snapshot (when snapshot reuse is on; otherwise falls back
  /// to an independent run() per scheme). Results are bit-identical to
  /// calling run() per scheme either way; with reuse the redundant
  /// warmup+profile replays are skipped, which is where the sweep speedup
  /// reported by bench/perf_regression comes from. `threads` is forwarded to
  /// parallel_for (0 = default parallelism, 1 = serial).
  std::vector<RunResult> run_all(std::span<const core::Scheme> schemes,
                                 std::size_t threads = 0) const;

  /// Toggles snapshot reuse for run_all(). On by default
  /// (kSnapshotEnabled).
  void set_snapshot_reuse(bool on) { snapshot_reuse_ = on; }
  bool snapshot_reuse() const { return snapshot_reuse_; }

  /// Fingerprint of (machine config, workload, phase config) binding
  /// snapshots to this experiment.
  std::uint64_t config_fingerprint() const;

  /// Attaches an observability hub: every system this experiment creates
  /// gets the hub plus a track label ("<scheme>" or "qos:<scheme>"), phase
  /// boundaries become Chrome-trace spans (warmup/profile/measure on the
  /// system track), and the rolling re-profiler reports through it.
  /// Telemetry only; results are bit-identical with or without it.
  void set_observability(obs::Hub* hub) { hub_ = hub; }
  obs::Hub* observability() const { return hub_; }

  const SystemConfig& system_config() const { return cfg_; }
  const PhaseConfig& phases() const { return phases_; }
  std::span<const workload::BenchmarkSpec> apps() const { return apps_; }

 private:
  /// Warm up + profile on a fresh system; returns the system positioned at
  /// the start of the measure phase along with the profiled parameters.
  std::vector<core::AppParams> profile_phase(CmpSystem& sys) const;
  RunResult measure_phase(CmpSystem& sys, core::Scheme scheme,
                          std::vector<core::AppParams> params,
                          std::span<const double> shares_override) const;

  /// Restores `snapshot` into the freshly-built `sys` (fingerprint-checked),
  /// leaving it positioned at the measure-phase boundary.
  void restore_into(CmpSystem& sys, const ProfileSnapshot& snapshot) const;

  SystemConfig cfg_;
  std::vector<workload::BenchmarkSpec> apps_;
  PhaseConfig phases_;
  obs::Hub* hub_ = nullptr;
  bool snapshot_reuse_ = kSnapshotEnabled;
};

/// Standalone profile of a single benchmark on the given machine
/// configuration (used by the oracle mode and bench/table3).
core::AppParams profile_standalone(const SystemConfig& cfg,
                                   const workload::BenchmarkSpec& bench,
                                   const PhaseConfig& phases);

}  // namespace bwpart::harness
