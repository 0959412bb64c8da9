// Memory-request scheduling policies.
//
// The controller scans its pending queue once per bus tick in the order a
// policy defines and issues the first legal DRAM command it finds. The
// policies implement the seven schemes of the paper's Section V-D:
//
//   No_partitioning                    -> FcfsScheduler
//   (utilization baseline, Section II) -> FrFcfsScheduler
//   Equal / Proportional / Square_root /
//   2/3_power (any share vector beta)  -> StartTimeFairScheduler
//   Priority_API / Priority_APC        -> StrictPriorityScheduler
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/snapshot_io.hpp"
#include "common/types.hpp"
#include "dram/dram_system.hpp"
#include "mem/request.hpp"

namespace bwpart::mem {

/// How the controller may order a policy's pending queue without calling
/// the virtual before() comparator per pair. Policies whose order is a
/// lexicographic (primary key, arrival_cpu, id) ascending sort advertise
/// where the primary key comes from; the controller then keeps its queues
/// sorted and scans them devirtualized. kDynamic keeps the exact-compare
/// fallback (row-hit tiers, mode switches — anything before() reads from
/// mutable DRAM or scheduler state per comparison).
struct SchedOrdering {
  enum class Mode : std::uint8_t {
    kDynamic,   ///< order only defined by before(); call it per compare
    kStatic,    ///< primary key = start_tag, frozen at enqueue
    kAppValue,  ///< primary key = app_value[req.app]
  };
  Mode mode = Mode::kDynamic;
  /// kAppValue only: per-application primary keys (one per app, owned by
  /// the scheduler; stable address for the scheduler's lifetime).
  const double* app_value = nullptr;
  /// Bumped whenever the values behind `app_value` change, so the
  /// controller knows to re-key and resort its queues.
  std::uint64_t key_version = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Called once when a request enters the controller (tag assignment).
  virtual void on_enqueue(MemRequest& req, Cycle now_cpu) {
    (void)req;
    (void)now_cpu;
  }

  /// Called when a request's column command issues (it leaves the queue).
  virtual void on_issue(const MemRequest& req) { (void)req; }

  /// Strict weak ordering: true if `a` should be served before `b`.
  /// `dram` exposes row-buffer state for row-hit-aware policies.
  virtual bool before(const MemRequest& a, const MemRequest& b,
                      const dram::DramSystem& dram) const = 0;

  /// The sort-key contract of this policy's before() ordering (see
  /// SchedOrdering). Must be consistent with before(): whenever a non-
  /// dynamic mode is advertised, sorting by (key, arrival_cpu, id) yields
  /// exactly the before() order. Default: dynamic.
  virtual SchedOrdering ordering() const { return {}; }

  /// Installs per-application bandwidth shares (share-based policies).
  virtual void set_shares(std::span<const double> beta) { (void)beta; }

  /// Installs a per-application priority rank, 0 = highest (priority-based
  /// policies).
  virtual void set_priority_ranks(std::span<const std::uint32_t> ranks) {
    (void)ranks;
  }

  /// Observability probe: spread between the most-ahead and most-behind
  /// application virtual clock of a fair-queueing policy (how far DSTF
  /// enforcement currently lets applications drift apart). Policies with no
  /// virtual-time notion report 0.
  virtual double virtual_time_lag() const { return 0.0; }

  /// Snapshot hook: a policy transfers its mutable decision state plus its
  /// constructor knobs (so make_scheduler_by_name() can rebuild an
  /// identical instance and then overwrite it) through one field list;
  /// stateless policies transfer nothing.
  virtual void transfer(snap::Io& io) { (void)io; }

  virtual std::string name() const = 0;
};

/// Rebuilds a scheduler instance from Scheduler::name() during snapshot
/// restore; the caller then applies transfer() to it. Returns nullptr
/// for an unknown name (the restore fails loudly on that).
std::unique_ptr<Scheduler> make_scheduler_by_name(std::string_view name,
                                                  std::size_t num_apps);

/// First-come-first-served across all applications; the paper's
/// No_partitioning baseline ("the memory controller serves all the memory
/// requests based on a FCFS policy").
class FcfsScheduler final : public Scheduler {
 public:
  bool before(const MemRequest& a, const MemRequest& b,
              const dram::DramSystem& dram) const override;
  /// Pure (arrival, id) order; tags stay at their zero default.
  SchedOrdering ordering() const override {
    return {SchedOrdering::Mode::kStatic, nullptr, 0};
  }
  std::string name() const override { return "FCFS"; }
};

/// First-ready FCFS (Rixner et al.): row hits first, then oldest-first.
/// Included as the classic utilization-oriented baseline. An optional
/// streak cap bounds how many consecutive row hits one bank may absorb
/// before oldest-first order reasserts itself (a common starvation
/// mitigation); 0 disables the cap.
class FrFcfsScheduler final : public Scheduler {
 public:
  explicit FrFcfsScheduler(std::uint32_t row_hit_streak_cap = 0);

  void on_issue(const MemRequest& req) override;
  bool before(const MemRequest& a, const MemRequest& b,
              const dram::DramSystem& dram) const override;
  void transfer(snap::Io& io) override;
  std::string name() const override { return "FR-FCFS"; }

 private:
  bool hit_priority_allowed(const MemRequest& r,
                            const dram::DramSystem& dram) const;

  std::uint32_t streak_cap_;
  // Streak tracking: consecutive column accesses served from one
  // (rank, bank).
  std::uint32_t streak_ = 0;
  std::uint32_t last_rank_ = 0;
  std::uint32_t last_bank_ = 0;
  bool has_last_ = false;
};

/// Parallelism-Aware Batch Scheduling, simplified (Mutlu & Moscibroda,
/// ISCA'08): each application's k-th request is marked with batch number
/// floor(k / per_app_cap); lower batch numbers are served strictly first,
/// with row-hit-first/oldest-first inside a batch. A memory-hungry
/// application thus cycles through batch numbers quickly while a light
/// application's requests always land in a low batch — bounding how long
/// any application can be deferred, PAR-BS's core guarantee.
class BatchScheduler final : public Scheduler {
 public:
  explicit BatchScheduler(std::size_t num_apps, std::size_t per_app_cap = 5);

  void on_enqueue(MemRequest& req, Cycle now_cpu) override;
  bool before(const MemRequest& a, const MemRequest& b,
              const dram::DramSystem& dram) const override;
  void transfer(snap::Io& io) override;
  std::string name() const override { return "PAR-BS"; }

 private:
  std::size_t per_app_cap_;
  std::vector<std::uint64_t> arrival_count_;  ///< per-app total arrivals
};

/// Modified DRAM Start-Time Fair queueing (paper Section IV-B).
///
/// Each application a has a virtual clock; its i-th request receives tag
/// S_i = S_{i-1} + 1/beta_a. Unlike the original DSTF, tags do not depend
/// on arrival time, so an application that under-used its share in the past
/// (small running tag) naturally catches up later — the modification the
/// paper introduces so low-intensity applications reach their shares.
/// Requests are served in increasing tag order. An optional row-hit window
/// lets a row-hitting request bypass a lower-tagged one whose tag is within
/// `row_hit_window` — the "combination" of partitioning and utilization
/// ordering described in Section II-A3.
class StartTimeFairScheduler final : public Scheduler {
 public:
  explicit StartTimeFairScheduler(std::size_t num_apps,
                                  double row_hit_window = 0.0);

  void on_enqueue(MemRequest& req, Cycle now_cpu) override;
  bool before(const MemRequest& a, const MemRequest& b,
              const dram::DramSystem& dram) const override;
  /// Tag order is frozen at enqueue; only the row-hit bypass window makes
  /// the comparison depend on live DRAM state.
  SchedOrdering ordering() const override {
    return {row_hit_window_ > 0.0 ? SchedOrdering::Mode::kDynamic
                                  : SchedOrdering::Mode::kStatic,
            nullptr, 0};
  }
  void set_shares(std::span<const double> beta) override;
  void transfer(snap::Io& io) override;
  std::string name() const override { return "StartTimeFair"; }
  double virtual_time_lag() const override;

  /// The running virtual clock of one application (exposed for tests).
  double virtual_clock(AppId app) const;

 private:
  std::vector<double> next_tag_;
  std::vector<double> increment_;  // 1 / beta_a
  double row_hit_window_;
};

/// The *original* DRAM Start-Time Fair queueing of Rafique et al. (PACT'07)
/// for comparison with the paper's modification: tags are anchored to a
/// global virtual clock that advances with service, so an application that
/// stays idle forfeits the share it did not use (no catch-up):
///
///   S_i = max(V_now, F_{i-1}),   F_i = S_i + 1/beta_a
///
/// where V_now is the tag of the most recently served request. The paper
/// replaces this with the arrival-independent recurrence so low-intensity
/// applications can reclaim their share later (Section IV-B); the
/// difference is quantified in bench/ablation_enforcement.
class ClassicDstfScheduler final : public Scheduler {
 public:
  explicit ClassicDstfScheduler(std::size_t num_apps);

  void on_enqueue(MemRequest& req, Cycle now_cpu) override;
  void on_issue(const MemRequest& req) override;
  bool before(const MemRequest& a, const MemRequest& b,
              const dram::DramSystem& dram) const override;
  /// on_issue() moves the virtual clock, but that only shapes *future*
  /// tags; queued requests compare by their frozen tags alone.
  SchedOrdering ordering() const override {
    return {SchedOrdering::Mode::kStatic, nullptr, 0};
  }
  void set_shares(std::span<const double> beta) override;
  void transfer(snap::Io& io) override;
  std::string name() const override { return "ClassicDSTF"; }
  double virtual_time_lag() const override;

  double virtual_time() const { return virtual_time_; }

 private:
  std::vector<double> last_finish_;
  std::vector<double> increment_;
  double virtual_time_ = 0.0;
};

/// Stall-Time Fair Memory scheduling (Mutlu & Moscibroda, MICRO'07),
/// reproduced as a related-work comparison point: when the estimated
/// slowdown imbalance max_i S_i / min_i S_i exceeds `alpha`, the most
/// slowed-down application's requests are prioritized; otherwise requests
/// fall back to row-hit-first/oldest-first ordering. Slowdown estimates
/// are fed externally (e.g. from the online profiler).
class StfmScheduler final : public Scheduler {
 public:
  explicit StfmScheduler(std::size_t num_apps, double alpha = 1.1);

  bool before(const MemRequest& a, const MemRequest& b,
              const dram::DramSystem& dram) const override;
  void transfer(snap::Io& io) override;
  std::string name() const override { return "STFM"; }

  /// Installs the current estimated slowdown of each application
  /// (T_shared / T_alone; larger = more slowed down).
  void set_slowdowns(std::span<const double> slowdowns);

  /// True when the imbalance currently exceeds alpha (fairness mode).
  bool fairness_mode_active() const;

 private:
  std::vector<double> slowdown_;
  double alpha_;
};

/// ATLAS-style least-attained-service scheduling (Kim et al., HPCA'10):
/// applications are ranked by the service (column accesses) they attained
/// in the current long quantum; the least-served application's requests go
/// first, which naturally deprioritizes bandwidth hogs. The attained
/// counters decay at each quantum boundary so history ages out.
class AtlasScheduler final : public Scheduler {
 public:
  /// `quantum` is measured in served requests (a proxy for the 10M-cycle
  /// quantum of the original, which the scheduler cannot observe).
  explicit AtlasScheduler(std::size_t num_apps, std::uint64_t quantum = 2048,
                          double decay = 0.5);

  void on_issue(const MemRequest& req) override;
  bool before(const MemRequest& a, const MemRequest& b,
              const dram::DramSystem& dram) const override;
  void transfer(snap::Io& io) override;
  std::string name() const override { return "ATLAS"; }

  double attained(AppId app) const;

 private:
  std::vector<double> attained_;
  std::uint64_t quantum_;
  double decay_;
  std::uint64_t served_in_quantum_ = 0;
};

/// Thread-Cluster-Memory-lite (Kim et al., MICRO'10): applications are
/// split into a latency-sensitive cluster (low memory intensity) that is
/// always prioritized, and a bandwidth-heavy cluster scheduled
/// least-attained-first among themselves (fairness inside the heavy
/// cluster). Cluster membership is installed externally from the profiled
/// APC_alone values.
class TcmScheduler final : public Scheduler {
 public:
  explicit TcmScheduler(std::size_t num_apps);

  /// Marks each application as latency-sensitive (true) or bandwidth-heavy
  /// (false).
  void set_clusters(std::span<const bool> latency_sensitive);
  void on_issue(const MemRequest& req) override;
  bool before(const MemRequest& a, const MemRequest& b,
              const dram::DramSystem& dram) const override;
  void transfer(snap::Io& io) override;
  std::string name() const override { return "TCM"; }

 private:
  std::vector<bool> latency_cluster_;
  std::vector<double> attained_;
};

/// Strict priority by application rank (0 = most important); oldest-first
/// within a rank. With ranks sorted by ascending APC_alone this is the
/// paper's Priority_APC; sorted by ascending API it is Priority_API.
class StrictPriorityScheduler final : public Scheduler {
 public:
  explicit StrictPriorityScheduler(std::size_t num_apps);

  bool before(const MemRequest& a, const MemRequest& b,
              const dram::DramSystem& dram) const override;
  /// Per-app rank as the primary key; re-ranking bumps the key version so
  /// controllers re-key their queues.
  SchedOrdering ordering() const override {
    return {SchedOrdering::Mode::kAppValue, rank_key_.data(), key_version_};
  }
  void set_priority_ranks(std::span<const std::uint32_t> ranks) override;
  void transfer(snap::Io& io) override;
  std::string name() const override { return "StrictPriority"; }

 private:
  std::vector<std::uint32_t> rank_;
  /// rank_ mirrored as doubles (u32 ranks are exactly representable), the
  /// ordering() key array.
  std::vector<double> rank_key_;
  std::uint64_t key_version_ = 0;
};

}  // namespace bwpart::mem
