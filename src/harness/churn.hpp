// Dynamic multi-tenant churn: deterministic event schedules (arrivals,
// departures, phase changes at fixed measure-phase cycles) and the engine
// that replays them against a CmpSystem with online re-profiling and share
// re-solves under the active objective.
//
// The model: a run is built over the full application superset; churn only
// toggles per-app liveness and generator phase knobs between run() chunks.
// A departing app's in-flight requests drain normally; an arriving app's
// core resumes from its frozen state (initially-dormant apps arrive with
// the post-profile state every app shares). Because every mutation happens
// between run() calls at schedule-determined cycles, a churn run is exactly
// as deterministic as a fixed run — bit-identical across thread counts,
// fast-forward on/off, and snapshot save/restore (property-tested), and an
// empty schedule reproduces the fixed-mix measure phase bit-for-bit.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/partition.hpp"
#include "core/qos.hpp"
#include "harness/experiment.hpp"
#include "harness/system.hpp"

namespace bwpart::harness {

enum class ChurnKind : std::uint8_t { kArrive, kDepart, kPhase };

const char* to_string(ChurnKind k);

/// Phase-change knobs for one kPhase event. Sentinels mean "keep the
/// generator's current value": negative for the doubles, kKeep for the
/// integers (0 stays expressible for intra_cluster_gap).
struct PhaseKnobs {
  static constexpr std::uint64_t kKeep = ~std::uint64_t{0};
  double api = -1.0;
  double mean_cluster = -1.0;
  double write_fraction = -1.0;
  double dependent_fraction = -1.0;
  std::uint64_t seq_run_lines = kKeep;
  std::uint64_t intra_cluster_gap = kKeep;
};

struct ChurnEvent {
  Cycle at = 0;  ///< measure-phase-relative cycle the event fires at
  ChurnKind kind = ChurnKind::kArrive;
  AppId app = 0;
  PhaseKnobs knobs;  ///< kPhase only
};

/// A deterministic churn schedule: which apps start dormant, plus a
/// time-ordered event list. Parsed from a small text grammar, built
/// programmatically, or both.
///
/// Grammar (one directive per line; '#' comments and blank lines ignored;
/// ';' is accepted as a line separator so a whole schedule fits in one
/// shard-spec value):
///   dormant <app>[,<app>...]
///   @<cycle> arrive <app>
///   @<cycle> depart <app>
///   @<cycle> phase <app> [api=<f>] [mean_cluster=<f>] [write_fraction=<f>]
///            [dependent_fraction=<f>] [seq_run_lines=<u>]
///            [intra_cluster_gap=<u>]
struct ChurnSchedule {
  std::vector<AppId> initially_dormant;
  std::vector<ChurnEvent> events;  ///< non-decreasing by `at`

  bool empty() const { return initially_dormant.empty() && events.empty(); }

  /// Fluent builders (return *this for chaining).
  ChurnSchedule& dormant(AppId app);
  ChurnSchedule& arrive(Cycle at, AppId app);
  ChurnSchedule& depart(Cycle at, AppId app);
  ChurnSchedule& phase(Cycle at, AppId app, const PhaseKnobs& knobs);

  /// Parses the grammar above; throws std::runtime_error naming the
  /// offending line on any syntax error.
  static ChurnSchedule parse(std::string_view text);

  /// Canonical multi-line text (round-trips through parse()).
  std::string to_text() const;
  /// Canonical single-line form (';'-separated) for shard unit specs.
  std::string to_compact() const;

  /// FNV-1a over the canonical text: stable identity for golden corpora
  /// and shard unit keys. Empty schedules hash to 0 so churn-free specs
  /// stay byte-identical to their pre-churn encoding.
  std::uint64_t fingerprint() const;

  /// Structural validation against an app-superset size: indices in range,
  /// events time-ordered, arrivals only for dormant apps, departures and
  /// phase changes only for live apps, and at least one app live at every
  /// point. Throws std::runtime_error on the first violation.
  void validate(std::size_t num_apps) const;
};

/// Objective + re-solve policy for a churn run.
struct ChurnRunConfig {
  core::Scheme scheme = core::Scheme::Proportional;
  /// Non-empty selects QoS mode (Eq. 11): guaranteed apps get exactly their
  /// reservation, the rest are partitioned with `scheme` as best-effort.
  std::vector<core::QosRequirement> qos;
  /// false = static-once: the initial share install is never revisited
  /// (events still toggle liveness/phases). The bench baseline.
  bool resolve_on_churn = true;
  /// Cycles of fresh counters collected after a churn event before the
  /// share re-solve (the online re-profiling window).
  Cycle reprofile_window = 50'000;
  /// Objective evaluation granularity: the run is chunked at these
  /// boundaries and each span is scored against the objective.
  Cycle eval_epoch = 25'000;
  /// A guaranteed app meets its target when epoch IPC >= (1-tol)*target.
  /// The default matches the enforcement noise floor the QoS integration
  /// suite pins (~0.6-0.07 delivered on a 0.6 reservation): tight enough
  /// that an under-provisioned reservation scores as violated, loose
  /// enough that DSTF's per-epoch jitter does not.
  double qos_tolerance = 0.15;
  /// A best-effort app meets the objective when epoch APC >=
  /// (1-tol)*analytic allocation (Eq. 2 water-fill/knapsack over live apps).
  double alloc_tolerance = 0.30;
};

/// Per-event adaptation record.
struct ChurnEventOutcome {
  ChurnEvent event;
  Cycle applied_at = 0;    ///< absolute cycle the event was applied
  Cycle resolved_at = kNoCycle;  ///< absolute cycle shares were re-installed
  /// Cycles from the event to the end of the first evaluation span that
  /// (a) started at or after the re-solve and (b) met the objective;
  /// kNoCycle when the run ended first (or static mode never re-met it).
  Cycle adaptation_lag = kNoCycle;
};

struct ChurnRunResult {
  /// The fixed-run result shape over the global window — field-for-field
  /// what Experiment::measure_phase computes, so an empty schedule is
  /// bit-identical to the fixed-mix path (fingerprint-proven).
  RunResult base;
  /// Tenancy-normalized rates (counters / cycles the app was live) and the
  /// per-app live cycle counts inside the measure window.
  std::vector<double> ipc_live;
  std::vector<double> apc_live;
  std::vector<Cycle> live_cycles;
  std::vector<ChurnEventOutcome> outcomes;
  /// Cycles (summed over evaluation spans) where some fully-live guaranteed
  /// app missed its Eq. 11 target — the bench dominance metric.
  Cycle qos_violation_cycles = 0;
  /// Non-QoS equivalent: spans where some fully-live app fell short of its
  /// analytic allocation by more than the tolerance.
  Cycle objective_violation_cycles = 0;
  std::uint64_t resolves = 0;  ///< share re-solves installed
};

/// Bit-exact fingerprint of everything a ChurnRunResult carries (extends
/// harness::fingerprint(RunResult) with the churn fields).
std::uint64_t fingerprint(const ChurnRunResult& r);

/// Replays a churn schedule over a CmpSystem positioned at the start of its
/// measure phase. Resumable: step() advances one boundary at a time, and
/// save_state/restore_state capture the engine cursor (the system itself is
/// snapshotted separately by CmpSystem::save_state) so a mid-churn snapshot
/// resumes bit-identically.
class ChurnEngine {
 public:
  /// `params` are the profile-phase estimates for every superset app;
  /// `profiled_b` the bandwidth measured during the profile window (the
  /// QoS planner's B, exactly as run_qos uses it).
  ChurnEngine(CmpSystem& sys, const ChurnSchedule& schedule,
              const ChurnRunConfig& cfg, Cycle measure_cycles,
              std::vector<core::AppParams> params, double profiled_b,
              double row_hit_window);

  /// Applies initial dormancy, installs the initial shares over the live
  /// set, and resets the measurement window. Must be called exactly once,
  /// before step().
  void start();

  /// Runs to the next boundary (event, re-solve due, evaluation epoch, or
  /// end) and processes it. Returns false once the measure window is done.
  bool step();

  bool done() const;

  /// Final result; call after step() returns false.
  ChurnRunResult finish();

  /// Engine-cursor snapshot hooks (schedule and config are identity, not
  /// state — the restoring engine must be built over the same schedule,
  /// config and measure length, mirroring CmpSystem's contract).
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

  const std::vector<core::AppParams>& params() const { return params_; }

 private:
  /// The one field list behind save_state and restore_state.
  void transfer(snap::Io& io);
  Cycle rel_now() const;
  void apply_event(const ChurnEvent& ev, std::size_t index);
  void evaluate_span(Cycle span_start, Cycle span_end);
  void resolve_shares(bool initial);
  void snapshot_marks();

  CmpSystem& sys_;
  const ChurnSchedule& schedule_;
  ChurnRunConfig cfg_;
  Cycle measure_cycles_;
  double row_hit_window_;

  // --- serialized cursor state ---
  bool started_ = false;
  Cycle measure_start_ = 0;      ///< absolute cycle of the window start
  std::size_t next_event_ = 0;   ///< index of the next unapplied event
  Cycle resolve_due_ = kNoCycle; ///< absolute cycle of the pending re-solve
  Cycle last_eval_ = 0;          ///< absolute start of the open eval span
  std::vector<core::AppParams> params_;  ///< current (re-profiled) estimates
  double profiled_b_ = 0.0;
  /// Counter marks at the start of the open re-profiling window.
  Cycle mark_cycle_ = 0;
  std::vector<profile::AppCounters> mark_counters_;
  std::vector<Cycle> mark_live_window_;
  /// Counter marks at the start of the open evaluation span.
  std::vector<std::uint64_t> eval_served_;
  std::vector<std::uint64_t> eval_instructions_;
  std::vector<Cycle> eval_live_window_;
  std::vector<ChurnEventOutcome> outcomes_;
  Cycle qos_violation_cycles_ = 0;
  Cycle objective_violation_cycles_ = 0;
  std::uint64_t resolves_ = 0;
};

/// One-shot convenience: start + step-to-completion + finish.
ChurnRunResult run_churn(CmpSystem& sys, const ChurnSchedule& schedule,
                         const ChurnRunConfig& cfg, Cycle measure_cycles,
                         std::vector<core::AppParams> params, double profiled_b,
                         double row_hit_window);

}  // namespace bwpart::harness
