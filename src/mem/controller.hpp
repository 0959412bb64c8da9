// The memory controller: per-application request queues in front of the
// DRAM engine, a pluggable scheduling policy, completion delivery back to
// the cores, per-application bandwidth accounting, and the interference
// attribution hooks the online APC_alone profiler needs (paper Section
// IV-C: bus and bank conflicts between applications).
//
// Hot-path layout: requests live in a preallocated FixedPool (no queue
// churn after construction) and each channel's pending set is mirrored
// into a structure-of-arrays PendQueue carrying exactly the fields the
// per-tick scheduler scan touches (policy key, flat bank index, row,
// access type). For policies that advertise a static sort key
// (SchedOrdering) the queue is kept sorted, so the scan visits candidates
// in policy order with no virtual comparator calls; dynamic policies keep
// the exact top-1-selection fallback over before().
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/clock_crossing.hpp"
#include "common/fixed_pool.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "dram/dram_system.hpp"
#include "mem/request.hpp"
#include "mem/scheduler.hpp"
#include "obs/hub.hpp"

namespace bwpart::mem {

/// Per-application service counters maintained by the controller.
struct AppMemStats {
  std::uint64_t enqueued = 0;
  std::uint64_t served_reads = 0;
  std::uint64_t served_writes = 0;
  std::uint64_t sum_queue_cycles = 0;  ///< CPU cycles from arrival to data

  std::uint64_t served() const { return served_reads + served_writes; }
  double mean_latency_cycles() const {
    const std::uint64_t n = served();
    return n == 0 ? 0.0
                  : static_cast<double>(sum_queue_cycles) /
                        static_cast<double>(n);
  }
};

/// Receives interference attribution events. `cpu_cycles` is the weight of
/// one bus tick in CPU cycles, so accumulating the values reproduces the
/// paper's per-cycle T_interference counter.
class InterferenceObserver {
 public:
  virtual ~InterferenceObserver() = default;
  virtual void on_interference(AppId victim, Cycle cpu_cycles) = 0;
};

/// Request-queue admission policy. Classic FCFS controllers
/// (No_partitioning) have one shared transaction queue, so a memory-hungry
/// application can monopolize every entry and starve others at admission;
/// QoS-partitioning controllers give each application its own queue slice.
enum class AdmissionMode : std::uint8_t { Shared, PerApp };

/// Write-drain policy in the spirit of the Virtual Write Queue (Stuecheli
/// et al., ISCA'10): writes are held back while reads are waiting, and
/// drained in batches once the backlog crosses `high_watermark` (down to
/// `low_watermark`), amortizing the write-to-read bus turnaround penalty.
struct WriteDrainConfig {
  bool enabled = false;
  std::size_t high_watermark = 24;
  std::size_t low_watermark = 8;
};

class MemoryController {
 public:
  using CompletionCallback =
      std::function<void(const MemRequest&, Cycle done_cpu)>;

  MemoryController(const dram::DramConfig& cfg, Frequency cpu_clock,
                   std::uint32_t num_apps,
                   std::unique_ptr<Scheduler> scheduler,
                   std::size_t per_app_queue_capacity = 32,
                   dram::MapScheme map = dram::MapScheme::ChanRowColBankRank,
                   std::size_t shared_queue_capacity = 64,
                   AdmissionMode admission = AdmissionMode::Shared);

  /// Switches admission policy at a phase boundary (queued requests stay).
  void set_admission_mode(AdmissionMode mode) { admission_ = mode; }
  AdmissionMode admission_mode() const { return admission_; }

  /// Marks application `app` live or dormant (churn runs; all apps start
  /// live). A dormant app must not enqueue — enforced by assertion — but its
  /// already-queued and in-flight requests drain normally, so a departure
  /// needs no queue surgery and the served counters stay conserved.
  void set_app_live(AppId app, bool live);
  bool app_live(AppId app) const {
    BWPART_ASSERT(app < num_apps_, "app id out of range");
    return app_live_[app] != 0;
  }
  std::size_t num_live_apps() const { return num_live_; }

  /// Enables/disables batched write draining.
  void set_write_drain(const WriteDrainConfig& cfg);
  bool write_drain_active() const { return draining_; }

  /// Backpressure: false when the app's queue slice is full.
  bool can_accept(AppId app) const;

  /// True if the app's queue slice has at least `n` free slots.
  bool can_accept_n(AppId app, std::size_t n) const;

  /// Enqueues one cache-line access; returns the request id.
  /// Precondition: can_accept(app).
  std::uint64_t enqueue(AppId app, Addr addr, AccessType type, Cycle now_cpu);

  /// Advances the controller to CPU cycle `now_cpu`, running every DRAM bus
  /// tick that fires at or before it. Must be called with non-decreasing
  /// cycles; cycles may be skipped (each call catches up on all bus ticks
  /// due since the previous call).
  void tick(Cycle now_cpu);

  /// Selects between the event-driven engine (default), which skips to
  /// horizon() while no request waits, and the reference engine that runs
  /// run_bus_tick() for every tick. Both produce bit-identical stats and
  /// scheduling decisions; the reference loop exists for debugging and
  /// differential testing.
  void set_fast_forward(bool on) { fast_forward_ = on; }
  bool fast_forward() const { return fast_forward_; }

  /// A CPU cycle no later than the first one at which the controller can
  /// next act on its own — deliver a completion, issue a command, or advance
  /// device housekeeping (refresh, power-down). Valid between tick() calls;
  /// kNoCycle when the controller is empty and the device has no scheduled
  /// events. The system loop may skip straight to min(core wakes, this)
  /// without simulating the cycles in between. While a request waits to
  /// issue it answers the next due bus tick.
  Cycle next_event_cpu_cycle() const;

  /// First CPU cycle > the last tick() call at which a new bus tick falls
  /// due. tick() calls at earlier cycles are no-ops; the system loop may
  /// elide them (completions and issues still land on their exact cycles,
  /// because they only ever happen when a due bus tick is processed).
  Cycle next_bus_activity_cpu_cycle() const {
    return crossing_.cpu_cycle_of_tick(bus_ticks_done_);
  }
  /// Whether every tick() call so far was at a cycle before `now`.
  bool ticked_before(Cycle now) const {
    return !started_ || last_cpu_cycle_ < now;
  }

  void set_completion_callback(CompletionCallback cb) { on_complete_ = std::move(cb); }
  /// Attaches the attribution observer; nullptr detaches it. Detached, no
  /// bus tick is attributed. Attribution only reads controller state, so
  /// every other result is the same either way.
  void set_interference_observer(InterferenceObserver* obs) { observer_ = obs; }

  /// Attaches the observability hub (nullptr detaches). The controller
  /// records per-app request-latency histograms (arrival to data delivery,
  /// CPU cycles), per-command-type issue counters (dram.cmd.*), a skipped-
  /// tick-range histogram for the event engine (mem.skip_ticks), and marks
  /// scheduler swaps in the trace. Pure telemetry: never consulted by any
  /// scheduling or timing decision, so attaching it cannot change
  /// simulation results. Compiled out under BWPART_OBS=OFF.
  void set_observability(obs::Hub* hub);

  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }

  /// Swaps the scheduling policy (e.g. between experiment phases). Pending
  /// requests keep their tags; new requests are tagged by the new policy.
  void replace_scheduler(std::unique_ptr<Scheduler> scheduler);

  const dram::DramSystem& dram() const { return dram_; }
  const ClockCrossing& crossing() const { return crossing_; }

  const AppMemStats& app_stats(AppId app) const;
  void reset_stats();

  std::size_t pending_requests(AppId app) const;
  std::size_t pending_requests_total() const { return active_; }

  /// Upper bound on requests that can ever be queued or in flight at once,
  /// across both admission modes — the slack term for cross-layer
  /// conservation checks (commands the DRAM counted whose data the
  /// controller has not yet delivered, or vice versa across a stats reset)
  /// and the request pool's capacity.
  std::size_t queue_capacity_bound() const {
    return std::max(shared_capacity_,
                    static_cast<std::size_t>(num_apps_) * per_app_capacity_);
  }

  /// Snapshot hook: the full queue/slot state, per-app accounting, the
  /// DRAM engine and the scheduler (serialized by name() + policy blob; a
  /// restore into a controller running a different policy rebuilds the
  /// saved one via make_scheduler_by_name). A restore checks every stored
  /// index: pool slots against the pool's high-water mark, app ids against
  /// the app count and request locations against the geometry, so a
  /// forged stream fails as snap::SnapshotError. Deliberately excluded as
  /// engine/wiring, not state: the fast_forward_ switch (snapshots restore
  /// bit-identically into either engine), the pending queues' derived
  /// policy keys (restore invalidates them; they rebuild on first use),
  /// the waiting-app list (rebuilt from the restored
  /// oldest-pending index), completion/observer/obs hooks (the host rewires
  /// them) and the per-tick scratch vectors.
  void transfer(snap::Io& io);

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// One channel's pending requests in structure-of-arrays layout: the
  /// parallel arrays carry every field the scheduler scan reads, so it
  /// never touches the request pool. For static-key
  /// policies the arrays are kept sorted ascending by (prim, arrival, id) —
  /// exactly the policy's service order; for dynamic policies entries stay
  /// in append order (order never affects decisions there: the comparator's
  /// unique id tie-break makes the selected minimum order-independent).
  struct PendQueue {
    std::vector<double> prim;           ///< policy primary key
    std::vector<Cycle> arrival;         ///< arrival_cpu tie-break
    std::vector<std::uint64_t> id;      ///< request id, final tie-break
    std::vector<std::uint32_t> slot;    ///< pool slot handle
    std::vector<std::uint8_t> type;     ///< AccessType
    std::vector<std::uint32_t> bank;    ///< flat global bank index
    std::vector<std::uint64_t> row;
    std::vector<std::uint32_t> app;

    std::size_t size() const { return slot.size(); }
    void reserve(std::size_t n);
    void insert(std::size_t pos, double key, const MemRequest& req,
                std::uint32_t slot_idx, std::uint32_t bank_idx);
    void erase(std::size_t pos);
    /// First position whose (prim, arrival, id) sorts after the given key
    /// triple (insertion point that keeps the sort stable-by-id).
    std::size_t upper_bound(double key, Cycle arr, std::uint64_t rid) const;
  };

  void run_bus_tick(dram::Tick now);
  /// First bus tick >= bus_ticks_done_ at which the controller can act:
  /// bus_ticks_done_ itself while a request waits to issue, else the next
  /// completion or device event (kNoTick when there is none). With nothing
  /// waiting, nothing can issue and no app is attributed interference.
  dram::Tick horizon() const;
  void deliver_completions(dram::Tick now);
  bool try_issue_one(std::uint32_t channel, dram::Tick now);
  /// Devirtualized scan for static-key policies: the queue is already in
  /// policy order, so this walks it front to back applying the same vetoes
  /// (bus reservation, protected rows) the selection loop applies. Each
  /// request costs its command class (computed, not branched on) and a
  /// compare of the DRAM ready ticks against `now`.
  bool scan_sorted(std::uint32_t channel, dram::Tick now,
                   bool writes_eligible);
  /// Exact fallback: top-1 selection over before(), as before the SoA
  /// rework.
  bool scan_dynamic(std::uint32_t channel, dram::Tick now,
                    bool writes_eligible);
  /// Issues the class-`cls` command of the request at `pos` in its channel
  /// queue, plus the bookkeeping shared by both scans.
  void issue_request(std::uint32_t channel, std::size_t pos,
                     dram::CmdClass cls, dram::Tick now);
  /// Attributes bus tick `now` (worth `weight` CPU cycles) to each waiting
  /// application another one delays; `issued_app[ch]` is the app whose
  /// command issued on channel ch this tick (kNoApp when none).
  void account_interference(dram::Tick now, std::span<const AppId> issued_app,
                            Cycle weight);
  /// Rebuilds oldest_pending_[app] by scanning the pending queues (arrival
  /// then id order; kNoSlot when the app has none). Only needed when the
  /// app's current oldest leaves the pending set — new arrivals are never
  /// older than the incumbent, so enqueue maintains the index in O(1).
  void recompute_oldest(AppId app);

  /// Syncs the cached ordering descriptor with the scheduler, re-keying
  /// (and, for sorted modes, resorting) every channel queue when the mode
  /// or key version moved. Called before any order-dependent use of the
  /// queues (enqueue insertion, the per-tick scan); scheduler mutations
  /// only ever happen between tick() calls, so polling there suffices.
  void ensure_order();
  double key_of(const MemRequest& req) const;
  void rebuild_queue_order();

  std::size_t bank_index(const dram::Location& loc) const {
    return (static_cast<std::size_t>(loc.channel) * ranks_ + loc.rank) *
               banks_per_rank_ +
           loc.bank;
  }
  std::size_t rank_index(const dram::Location& loc) const {
    return static_cast<std::size_t>(loc.channel) * ranks_ + loc.rank;
  }

  dram::DramSystem dram_;
  ClockCrossing crossing_;
  std::unique_ptr<Scheduler> scheduler_;
  std::size_t per_app_capacity_;
  std::size_t shared_capacity_;
  AdmissionMode admission_;
  std::uint32_t num_apps_;
  // Geometry strides cached from dram_.config() (hot-path satellite).
  std::uint32_t channels_;
  std::uint32_t ranks_;
  std::uint32_t banks_per_rank_;

  // Request storage: a preallocated slot pool with stable indices (sized by
  // queue_capacity_bound(); never reallocates) plus the per-channel SoA
  // pending queues and an in-flight list, all maintained incrementally at
  // enqueue/issue/complete so the per-tick work is proportional to the
  // relevant channel's queue, not the whole transaction queue.
  FixedPool<MemRequest> pool_;
  std::vector<PendQueue> pend_;
  std::vector<std::uint32_t> inflight_slots_;
  std::size_t active_ = 0;  ///< pending + in-flight requests
  /// Min over in-flight requests' data_finish; deliver_completions()
  /// early-exits on it, and the fast path skips straight to it.
  dram::Tick next_completion_ = dram::kNoTick;
  /// Pending (not yet issued) requests per (channel, rank); drives the
  /// power-down notify loop.
  std::vector<std::uint32_t> rank_pending_;

  std::vector<std::size_t> per_app_count_;
  std::vector<AppMemStats> app_stats_;

  /// Per-app liveness for churn runs (1 = live). Dormant apps are barred
  /// from enqueueing; everything else (draining, stats, scheduling of
  /// already-queued requests) proceeds unchanged.
  std::vector<std::uint8_t> app_live_;
  std::size_t num_live_ = 0;

  WriteDrainConfig write_drain_{};
  bool draining_ = false;
  std::size_t pending_writes_ = 0;  ///< queued writes not yet issued
  std::size_t pending_reads_ = 0;   ///< queued reads not yet issued

  // Resource-ownership tracking for interference attribution.
  std::vector<AppId> bank_last_user_;  ///< [channel][rank][bank] flattened
  std::vector<AppId> bus_user_;        ///< [channel]: app of current burst
  std::vector<dram::Tick> bus_busy_until_;

  CompletionCallback on_complete_;
  InterferenceObserver* observer_ = nullptr;
  obs::Hub* obs_ = nullptr;
  /// Per-app latency histograms resolved once at attach (hot-path hook does
  /// one pointer load + relaxed atomics).
  std::vector<obs::Histogram*> obs_latency_;
  /// Per-command-type issue counters (index = dram::CommandType) and the
  /// event engine's skipped-range histogram, resolved once at attach.
  obs::Counter* obs_cmd_[7] = {};
  obs::Histogram* obs_skip_ = nullptr;

  // Cached SchedOrdering of the current policy (synced by ensure_order()).
  SchedOrdering::Mode ord_mode_ = SchedOrdering::Mode::kDynamic;
  const double* ord_app_value_ = nullptr;
  std::uint64_t ord_key_version_ = 0;
  bool order_valid_ = false;

  std::uint64_t next_req_id_ = 0;
  std::uint64_t bus_ticks_done_ = 0;
  Cycle last_cpu_cycle_ = 0;
  bool started_ = false;
  bool fast_forward_ = true;

  /// Each app's oldest pending request slot, maintained incrementally
  /// (set at enqueue when empty, recomputed only when the incumbent is
  /// issued) — the interference-attribution path reads it every bus tick,
  /// so a full rescan there would dominate the tick cost.
  std::vector<std::uint32_t> oldest_pending_;
  /// The apps whose oldest_pending_ is set, in no particular order (every
  /// consumer is order-independent); empty exactly when no request waits
  /// to issue. The per-tick attribution walks this instead
  /// of all num_apps_ ids: a controller of a multi-controller system is
  /// built over the global id space but sees only its own apps enqueue.
  /// Derived state, rebuilt on restore.
  std::vector<AppId> waiting_apps_;

  // Per-tick scratch storage (kept as members to avoid reallocation in the
  // bus-tick hot path).
  std::vector<std::uint32_t> scratch_;
  /// Row protection in the scans: the epoch of the last scan that visited
  /// a row hit on each flat bank. Every scan takes a fresh epoch, so no
  /// per-scan clearing is needed.
  std::vector<std::uint64_t> row_hit_epoch_;
  std::uint64_t scan_epoch_ = 0;
  std::vector<AppId> issued_scratch_;
  AppId issued_app_scratch_ = kNoApp;
};

}  // namespace bwpart::mem
