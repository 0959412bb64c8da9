// CmpSystem: N cores, each running one synthetic benchmark, sharing one or
// more independent memory controllers and their DRAM — the paper's Table II
// machine in simulation form, generalized to arbitrary application counts
// and multi-controller scale-out topologies (SystemConfig::num_controllers;
// applications are assigned round-robin and each controller enforces its
// scheme with its own DSTF instance over its local applications).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/snapshot_io.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "obs/hub.hpp"
#include "core/app_params.hpp"
#include "core/partition.hpp"
#include "cpu/core.hpp"
#include "dram/config.hpp"
#include "mem/controller.hpp"
#include "profile/alone_profiler.hpp"
#include "profile/interference.hpp"
#include "workload/spec_table.hpp"
#include "workload/synthetic_trace.hpp"

namespace bwpart::harness {

struct SystemConfig {
  Frequency cpu_clock = Frequency::from_ghz(5.0);
  dram::DramConfig dram = dram::DramConfig::ddr2_400();
  cpu::CoreConfig core{};  ///< template; each benchmark sets its rate
  std::size_t queue_capacity_per_app = 32;
  /// Shared-queue capacity used in No_partitioning (FCFS) mode, where one
  /// transaction queue is contended by every application.
  std::size_t queue_capacity_shared = 64;
  /// Row-hit bypass window for the share-based scheduler (0 = strict tag
  /// order); see StartTimeFairScheduler.
  double dstf_row_hit_window = 0.0;
  /// Independent memory controllers, each with its own DRAM devices (a full
  /// copy of `dram`), transaction queues and enforcement scheduler.
  /// Applications are assigned statically round-robin (app % controllers),
  /// so each controller partitions bandwidth among its local applications
  /// with its own DSTF instance — the scale-out topology for 16/32/64-app
  /// portfolios. Must satisfy 1 <= num_controllers <= app count.
  std::size_t num_controllers = 1;
  /// Event-driven fast-forwarding (default): run() runs each controller's
  /// partition on its own event loop, which jumps over cycle ranges where
  /// every core of the partition is provably stalled and its controller has
  /// no event, and the controller skips dead bus-tick ranges internally.
  /// Cycle-exact: all stats and scheduling decisions are bit-identical to
  /// the reference cycle-by-cycle loop (set false to force it, e.g. for
  /// debugging).
  bool fast_forward = true;

  /// Peak off-chip bandwidth expressed in the model's APC unit, across all
  /// controllers (each contributes one full copy of `dram`).
  double peak_apc() const {
    const BandwidthContext ctx{cpu_clock, 64};
    return ctx.gbps_to_apc(dram.peak_gbps()) *
           static_cast<double>(num_controllers);
  }
};

/// What a controller enforces: StartTimeFair over `beta` when it is
/// non-empty, else StrictPriority over `ranks` when that is non-empty, each
/// with per-application queue slices; else FCFS on the shared queue
/// (No_partitioning).
struct Enforcement {
  std::vector<double> beta;
  std::vector<std::uint32_t> ranks;
};

/// The enforcement `scheme` derives from the application parameters: ranks
/// for the priority schemes, shares for the share-based ones, neither for
/// No_partitioning.
Enforcement enforcement_for(core::Scheme scheme,
                            std::span<const core::AppParams> params);

/// Builds the scheduler enforcing `e` over `num_apps` applications.
std::unique_ptr<mem::Scheduler> make_scheduler(const Enforcement& e,
                                               std::size_t num_apps,
                                               double row_hit_window);

/// Builds the scheduler enforcing `scheme` over `params`.
std::unique_ptr<mem::Scheduler> make_scheduler(
    core::Scheme scheme, std::size_t num_apps,
    std::span<const core::AppParams> params, double row_hit_window);

/// Sets `e`'s shares or ranks on an installed scheduler of the same kind,
/// keeping its virtual clocks (periodic re-profiling, churn re-solves).
void apply_enforcement(mem::Scheduler& sched, const Enforcement& e);

class CmpSystem {
 public:
  CmpSystem(const SystemConfig& cfg,
            std::span<const workload::BenchmarkSpec> apps, std::uint64_t seed);

  /// Runs for `cycles` CPU cycles. With an observability hub attached and a
  /// nonzero epoch, the run is chunked at epoch boundaries and one
  /// EpochSeries row is appended per completed epoch; chunking is
  /// result-neutral (both engines are bit-identical to the reference
  /// cycle-by-cycle loop however a run is split), so sampling can never
  /// change what is being measured.
  void run(Cycle cycles);

  /// Attaches the observability hub to this system and its controller
  /// (nullptr detaches). Pure telemetry: every obs read is const, so
  /// results are bit-identical with the hub attached, detached or disabled.
  void set_observability(obs::Hub* hub);
  obs::Hub* observability() const { return hub_; }
  /// Label stamped on every epoch row this system emits (e.g.
  /// "measure:Equal"); also the default Chrome-trace track grouping.
  void set_obs_track(std::string track) { obs_track_ = std::move(track); }

  Cycle now() const { return now_; }
  /// Stable pointer to the cycle counter, for obs::ScopedSpan timestamping.
  const Cycle* cycle_clock() const { return &now_; }
  /// Cycles the fast-forward engine jumped over (0 when it is disabled),
  /// averaged over controller partitions: each partition (a controller and
  /// its round-robin cores) runs its own event loop and jumps on its own,
  /// so this is the mean of the partitions' jumped cycles, rounded down.
  /// It never exceeds now(), and on one controller it is the system's own
  /// count. skipped/now() is the fraction of the simulation that never
  /// executed a per-cycle tick. The count is not part of a snapshot: a
  /// restored system reads 0 at the restore and counts jumps from there.
  Cycle skipped_cycles() const {
    return skipped_cycles_ / controllers_.size();
  }
  std::uint32_t num_apps() const {
    return static_cast<std::uint32_t>(cores_.size());
  }

  cpu::OoOCore& core(AppId app) { return *cores_[app]; }
  const cpu::OoOCore& core(AppId app) const { return *cores_[app]; }
  /// The first (and, on single-controller configs, only) controller.
  mem::MemoryController& controller() { return *controllers_[0]; }
  const mem::MemoryController& controller() const { return *controllers_[0]; }
  std::size_t num_controllers() const { return controllers_.size(); }
  mem::MemoryController& controller(std::size_t c) { return *controllers_[c]; }
  const mem::MemoryController& controller(std::size_t c) const {
    return *controllers_[c];
  }
  /// The controller application `app` is wired to (app % num_controllers).
  std::size_t controller_of(AppId app) const {
    return app % controllers_.size();
  }
  mem::MemoryController& controller_for(AppId app) {
    return *controllers_[controller_of(app)];
  }
  const mem::MemoryController& controller_for(AppId app) const {
    return *controllers_[controller_of(app)];
  }
  /// Mean DRAM data-bus utilization across controllers (== the single
  /// controller's utilization on 1-controller configs).
  double bus_utilization() const;
  /// Per-app T_cyc,interference since the last reset_measurement(). The
  /// counters advance only while interference attribution is on.
  profile::InterferenceCounters& interference() { return interference_; }
  const profile::InterferenceCounters& interference() const {
    return interference_;
  }

  /// Attaches (on) or detaches (off) the interference counters on every
  /// controller. While off, no bus tick is attributed and interference()
  /// stays frozen; every other result is bit-identical either way, because
  /// attribution only reads controller state. On by default. Like the
  /// completion and observability hooks it is wiring, not state: save_state
  /// does not record it and restore_state leaves it as it is, so a freshly
  /// built system attributes after a restore until switched off.
  void set_interference_attribution(bool on);

  const SystemConfig& config() const { return cfg_; }
  const workload::BenchmarkSpec& benchmark(AppId app) const {
    return apps_[app];
  }

  // -------------------------------------------------------------------------
  // Liveness (churn runs). Every CmpSystem is built over the full app
  // superset; churn toggles per-app liveness between run() calls. A dormant
  // core never ticks (its generator emits nothing, so it enqueues nothing);
  // its in-flight requests drain normally, and its microarchitectural state
  // freezes in place so a later re-arrival resumes deterministically. With
  // every app live — the default — all liveness branches are no-ops and runs
  // are bit-identical to the pre-churn engine (property-tested).

  /// Marks `app` live or dormant. Must only be called between run() calls
  /// (sleep proofs are re-armed at run() entry, so no proof can span the
  /// transition). Also forwards to the app's controller.
  void set_app_live(AppId app, bool live);
  bool app_live(AppId app) const { return live_[app] != 0; }
  std::span<const std::uint8_t> liveness() const { return live_; }
  std::size_t num_live_apps() const;

  /// Swaps app `app`'s generator onto new phase knobs (see
  /// SyntheticTraceGenerator::set_phase); the address region is pinned.
  void set_app_phase(AppId app,
                     const workload::SyntheticTraceGenerator::Params& p);
  const workload::SyntheticTraceGenerator::Params& app_phase(AppId app) const {
    return traces_[app]->params();
  }

  /// Cycles app `app` has been live inside the current measurement window
  /// [window_start_, now()] — the denominator for per-app rates under churn
  /// (equals the full window when the app never departed).
  Cycle live_window(AppId app) const;

  /// Zeroes all measurement counters (cores, controller, DRAM stats,
  /// interference) at a phase boundary; microarchitectural state persists.
  void reset_measurement();

  /// Per-app cumulative profiler counters (accesses, instructions,
  /// interference) since the last reset_measurement(). Interference counts
  /// only the stretches run with interference attribution on.
  std::vector<profile::AppCounters> profiler_counters() const;

  /// Measured per-app IPC / APC over the window since reset_measurement().
  std::vector<double> measured_ipc() const;
  std::vector<double> measured_apc() const;
  /// Total utilized bandwidth in APC units over the window (the model's B).
  double measured_total_apc() const;

  /// Liveness-aware rates: each app's counters divided by the cycles it was
  /// live inside the window (live_window). Identical to measured_ipc/apc
  /// when every app was live throughout — the form churn runs report, so a
  /// half-window tenant is judged on its tenancy, not the wall clock.
  std::vector<double> measured_ipc_live() const;
  std::vector<double> measured_apc_live() const;

  /// Telemetry hooks for the churn engine: counts stamped onto the next
  /// epoch row (and emitted as trace instants) so time-series plots can mark
  /// churn instants and adaptation lag. No-ops when no enabled hub is
  /// attached; never read by any simulation decision.
  void note_churn_event(const char* kind, AppId app);
  void note_adaptation_lag(Cycle lag);

  /// Snapshot hooks: captures (restores) the complete mutable state — the
  /// cycle clock, every trace generator's RNG stream, every core including
  /// private caches and in-flight loads, the controller with its queues,
  /// scheduler and DRAM engine, and the interference counters. restore_state
  /// targets a freshly-constructed CmpSystem built with the identical
  /// (config, apps, seed) triple; construction rebuilds all wiring
  /// (callbacks, observers), restore overwrites only the mutable state.
  /// A restored system continues bit-identically to the one that was saved
  /// — the contract the snapshot/fork sweep engine and its differential
  /// tests enforce. Sleep bookkeeping is not serialized: proofs never
  /// survive a run() boundary (run() re-arms them at entry).
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

  /// Eq. 2 conservation audit: per-app APC must sum to B, and the
  /// controller's per-app served counters must agree with the DRAM engine's
  /// independently maintained column-access counter up to the in-flight
  /// slack. Violations go through check::report.
  void check_conservation(const char* where) const;

 private:
  /// The one field list behind save_state and restore_state.
  void transfer(snap::Io& io);
  /// Restore check: every read a controller holds, pending or in flight,
  /// belongs to an app that controller serves and matches exactly one
  /// pending off-chip load of that app's core (same request id), and each
  /// core's in-flight load and store counts equal its app's outstanding
  /// reads and writes. Throws snap::SnapshotError otherwise: an edited
  /// request id or owner would restore and then abort the resumed run when
  /// its completion found no load.
  void require_requests_match_loads() const;
  SystemConfig cfg_;
  std::vector<workload::BenchmarkSpec> apps_;
  std::vector<std::unique_ptr<workload::SyntheticTraceGenerator>> traces_;
  std::vector<std::unique_ptr<mem::MemoryController>> controllers_;
  std::vector<std::unique_ptr<cpu::OoOCore>> cores_;
  profile::InterferenceCounters interference_;
  /// Replays core `i`'s deferred cycles up to (excluding) `upto` using the
  /// closed form recorded for its sleep flavor.
  void flush_deferred_stalls(std::size_t i, Cycle upto);
  /// The engine proper (fast-forward or reference loop), one contiguous
  /// chunk; run() wraps it with the epoch-sampling chunker.
  void run_engine(Cycle cycles);
  /// Runs controller `c`'s partition (the controller and cores c, c + nc,
  /// c + 2nc, ...) from now_ to `end` on its own fast-forward event loop.
  void run_partition(std::size_t c, Cycle end);
  /// Re-bases the epoch sampler's cumulative-counter snapshot on the
  /// current counters (after attach or a measurement reset).
  void obs_resnapshot();
  /// Appends one epoch row covering (snapshot cycle, now_].
  void obs_sample();

  Cycle now_ = 0;
  Cycle window_start_ = 0;
  /// Cycles jumped by the fast-forward engine, summed over partitions.
  Cycle skipped_cycles_ = 0;
  /// Per-app liveness (1 = live; all live unless a churn schedule says
  /// otherwise) plus the accounting needed for per-tenancy rates:
  /// live_cycles_[a] accumulates completed live stretches inside the current
  /// window and live_from_[a] marks the start of the open stretch.
  std::vector<std::uint8_t> live_;
  std::vector<Cycle> live_cycles_;
  std::vector<Cycle> live_from_;
  /// Churn telemetry staged for the next epoch row (obs_sample drains them).
  std::uint32_t churn_events_pending_ = 0;
  Cycle churn_lag_pending_ = 0;
  /// Per-core sleep state: core i's tick() calls are deferred while
  /// now_ < sleep_until_[i]; slept_from_[i] marks the first deferred cycle,
  /// and sleep_kind_[i] records which closed-form replay applies
  /// (cpu::SleepFlavor) — the flavor must be captured at sleep time because
  /// other cores' enqueues/completions can change what a re-evaluation at
  /// wake time would conclude.
  std::vector<Cycle> sleep_until_;
  std::vector<Cycle> slept_from_;
  std::vector<cpu::SleepFlavor> sleep_kind_;
  /// The running partition's earliest core wake (min of its sleep_until_
  /// entries): the core pass recomputes it and the completion callback
  /// lowers it, so the all-asleep test is part_wake_ > now_.
  Cycle part_wake_ = 0;

  obs::Hub* hub_ = nullptr;
  std::string obs_track_;
  /// Cumulative counters at the previous epoch sample (or measurement
  /// reset); per-epoch deltas are differences against these.
  /// channel_busy concatenates every controller's channels in controller
  /// order; dram_ticks is per controller.
  struct ObsSnapshot {
    Cycle cycle = 0;
    std::vector<std::uint64_t> served;
    std::vector<std::uint64_t> instructions;
    std::vector<std::uint64_t> channel_busy;
    std::vector<std::uint64_t> dram_ticks;
  } obs_snap_;
};

}  // namespace bwpart::harness
