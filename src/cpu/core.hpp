// Simplified out-of-order core timing model.
//
// The model captures exactly the core behaviours the paper's analysis
// depends on: a ROB-bounded instruction window (memory-level parallelism is
// limited by how many misses fit in the window and by the MSHR file), an
// issue-width/ILP-bounded execution rate for non-memory work, posted stores
// through a store buffer, and in-order retirement that stalls on the oldest
// incomplete load. Together these reproduce the IPC = APC/API coupling
// (Eq. 1): when an application is memory-bound, its IPC is proportional to
// the rate the memory system serves its accesses.
//
// Instructions are consumed from a TraceSource; the paper's Table II core
// (5 GHz, 8-wide, 192-entry ROB, private 32K L1 / 256K L2) is the default.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "common/types.hpp"
#include "cpu/cache.hpp"
#include "cpu/trace.hpp"
#include "mem/controller.hpp"

namespace bwpart::cpu {

struct CoreConfig {
  std::uint32_t rob_size = 192;
  /// Maximum instructions fetched/retired per cycle.
  double issue_width = 8.0;
  /// ILP-limited throughput of the non-memory instruction stream
  /// (instructions per cycle; <= issue_width). Per-benchmark knob.
  double nonmem_ipc = 8.0;
  /// Outstanding off-chip load misses (memory-level parallelism cap).
  std::uint32_t mshrs = 16;
  /// Outstanding posted stores.
  std::uint32_t store_buffer = 16;
  Cycle l1_latency = 5;   ///< 1 ns at 5 GHz
  Cycle l2_latency = 25;  ///< 5 ns at 5 GHz
  /// When true, trace addresses run through L1/L2 and only misses go
  /// off-chip (address-stream mode). When false, every trace op is an
  /// off-chip access (miss-stream mode, used for calibrated experiments).
  bool model_caches = false;
  CacheGeometry l1 = CacheGeometry::l1_default();
  CacheGeometry l2 = CacheGeometry::l2_default();
};

struct CoreStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;       ///< retired
  std::uint64_t offchip_reads = 0;      ///< sent to the controller
  std::uint64_t offchip_writes = 0;
  std::uint64_t rob_stall_cycles = 0;   ///< fetch blocked: window full
  std::uint64_t mem_stall_cycles = 0;   ///< retire blocked on a load
  std::uint64_t queue_stall_cycles = 0; ///< blocked on MSHR/queue/store buf

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
  std::uint64_t offchip_accesses() const {
    return offchip_reads + offchip_writes;
  }
  /// Memory accesses per cycle — the APC of Eq. 1/2.
  double apc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(offchip_accesses()) /
                             static_cast<double>(cycles);
  }
  /// Memory accesses per instruction — the API of Eq. 1.
  double api() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(offchip_accesses()) /
                                   static_cast<double>(instructions);
  }
};

/// How a sleeping core's deferred cycles must be replayed, and which events
/// can invalidate the sleep proof early. Stall flavors lean on external
/// state a completion can free. The deterministic-window replay reads the
/// load queue, so the owner must replay its range *before* delivering one
/// of this application's read completions (which mutate load state) and
/// wake the core there; write completions leave it untouched.
enum class SleepFlavor : std::uint8_t {
  kStallOwn = 0,     ///< blocked; only this app's completions can unblock
  kStallShared = 1,  ///< blocked on shared queue space; any completion can
  kDet = 2,          ///< deterministic window run; own read completions wake
};

/// Result of OoOCore::prove_sleep(): the first cycle the core must tick
/// again, and the replay/wake semantics of the cycles in between.
struct WakeProof {
  Cycle wake = 0;
  SleepFlavor flavor = SleepFlavor::kStallOwn;
};

/// Memo of the fractional fetch-budget orbit for one nonmem_ipc value
/// (defined in core.cpp; shared across cores process-wide).
struct FbOrbit;

class OoOCore {
 public:
  /// Cap on the cycles next_det_wake() will prove in one call; a longer run
  /// simply re-proves after waking (bounds the cost of a proof that ends up
  /// truncated by the run-window edge). Used when no off-chip read is
  /// undelivered — then no event can truncate the proof, so every proved
  /// cycle is replayed from the memo and long proofs amortize perfectly.
  static constexpr Cycle kDetLookahead = 4096;
  /// Lookahead while off-chip reads are in flight: their completions
  /// truncate the proof (forcing a cycle-by-cycle replay of the partial
  /// range and a fresh proof), so proving far past the typical completion
  /// gap only burns mirror cycles that are thrown away.
  static constexpr Cycle kDetShortLookahead = 128;

  OoOCore(AppId app, const CoreConfig& cfg, TraceSource& trace,
          mem::MemoryController& controller);

  /// Advances one CPU cycle. The owner must also tick the controller once
  /// per cycle and route its completion callbacks to on_mem_complete().
  void tick(Cycle now);

  /// Earliest cycle > `now` at which tick() could make progress (retire or
  /// fetch an instruction), given the state after ticking at `now` and
  /// assuming no memory completion arrives first. Returns now + 1 when the
  /// core is not provably stalled, the completion cycle of the oldest load
  /// when retirement is waiting on a known completion, and kNoCycle when
  /// the core is blocked purely on external events (an undelivered
  /// completion, or controller backpressure that only a completion can
  /// clear). The owner may replace the cycles in between with one
  /// fast_forward_stall() call.
  Cycle next_wake(Cycle now) const;

  /// Earliest cycle > `now` at which tick() would attempt to execute a
  /// memory operation. Between memory-op attempts the core's evolution is
  /// fully deterministic given the loads already in the window (their
  /// completion cycles, known or still pending, are data, not events):
  /// retirement drains completed loads and blocks on pending ones, fetch
  /// consumes trace gap. Everything up to (excluding) the returned cycle
  /// can be replayed by fast_forward_det() without consulting the memory
  /// system — provided no new completion for this application's reads is
  /// delivered inside the range (the owner must replay-then-wake at such a
  /// delivery). Returns now + 1 when the memory op would be attempted on
  /// the very next cycle, and kNoCycle when the window provably freezes
  /// (retirement blocked on a pending load, window full) — the cycles
  /// after the frozen point follow the fast_forward_stall() closed form.
  /// The proof mirrors at most kDetLookahead cycles.
  Cycle next_det_wake(Cycle now) const;

  /// Replays the `n` consecutive cycles [start, start + n) of a
  /// deterministic window run: retire/fetch sequence numbers, retired
  /// loads, instruction and stall counters, and both fractional budgets
  /// advance bit-identically to n tick() calls. The proved range applies
  /// from the det-proof memo in O(1); a range cut short (a read completion
  /// or the run-window edge) runs tick(start + i) per cycle. Precondition:
  /// next_det_wake() proved no memory-op attempt within the range and no
  /// read completion was delivered inside it.
  void fast_forward_det(Cycle start, Cycle n);

  /// One-shot sleep proof combining next_wake() with the deterministic-
  /// window refinement, plus the completion-sensitivity classification: a
  /// stalled core blocked on the shared transaction queue can be freed by
  /// any application's completion, while MSHR, store-buffer, per-app-queue
  /// and dependent-load blocks clear only on this application's
  /// completions.
  WakeProof prove_sleep(Cycle now) const;

  /// Replays `n` consecutive provably-stalled cycles in closed form:
  /// cycle/stall counters advance exactly as n tick() calls would, and the
  /// fractional issue budgets end bit-identical (the fetch budget's
  /// sub-1-IPC accumulation is replayed exactly). Precondition: next_wake()
  /// proved the next n cycles make no progress and no completion is
  /// delivered within them.
  void fast_forward_stall(Cycle n);

  /// Completion delivery for this core's controller requests.
  void on_mem_complete(const mem::MemRequest& req, Cycle done_cpu);

  AppId app() const { return app_; }
  const CoreStats& stats() const { return stats_; }

  /// Observability probes (instantaneous microarchitectural occupancy; pure
  /// reads, sampled by the epoch time-series).
  /// Instructions currently in the window (fetched, not yet retired).
  std::uint64_t window_occupancy() const { return fetch_seq_ - retire_seq_; }
  /// Off-chip load misses outstanding right now (instantaneous MLP).
  std::uint32_t offchip_loads_inflight() const {
    return offchip_loads_inflight_;
  }
  /// Zeroes the measurement counters at a phase boundary without touching
  /// microarchitectural state (ROB, caches, in-flight requests).
  void reset_stats();

  /// Snapshot hook: window sequence numbers, fractional budgets, the
  /// current trace op, the load queue (with controller request ids — slot
  /// wiring is restored by the controller's own hook), in-flight counters,
  /// stats and both private caches. The det-proof memo is deliberately not
  /// serialized: restore invalidates it, and a missing memo only makes the
  /// next fast_forward_det() replay through tick().
  void transfer(snap::Io& io);

  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }

 private:
  struct Load {
    std::uint64_t seq = 0;               ///< instruction sequence number
    std::uint64_t req_id = 0;            ///< controller id (off-chip only)
    Cycle done_at = kNoCycle;            ///< completion cycle; kNoCycle = pending
    bool offchip = false;
  };

  void do_retire(Cycle now);
  void do_fetch(Cycle now);
  /// Executes the memory op at the fetch head. Returns false, changing
  /// nothing, when mem_op_would_stall().
  bool execute_mem_op(Cycle now);
  /// The memory-op stall rule (dependent load, MSHRs, store buffer,
  /// controller backpressure), shared by execute_mem_op() and the sleep
  /// proofs. With model_caches it reserves the worst case up front (demand
  /// miss plus dirty L2 victim), so no cache lookup can stall halfway.
  bool mem_op_would_stall() const;
  void advance_trace();

  AppId app_;
  CoreConfig cfg_;
  TraceSource& trace_;
  mem::MemoryController& controller_;
  Cache l1_;
  Cache l2_;

  std::uint64_t fetch_seq_ = 0;
  std::uint64_t retire_seq_ = 0;
  double fetch_budget_ = 0.0;
  double retire_budget_ = 0.0;

  TraceOp current_op_{};
  std::uint64_t next_mem_seq_ = 0;

  std::deque<Load> loads_;  ///< in program order
  std::uint32_t offchip_loads_inflight_ = 0;
  std::uint32_t stores_inflight_ = 0;

  /// Memo written by next_det_wake(): the proof loop already simulates
  /// every cycle it proves clean, so it records the architectural end state
  /// of the proved range and fast_forward_det() applies it in O(1) instead
  /// of replaying the same cycles a second time. Keyed on the full start
  /// state; any mismatch (e.g. a replay truncated early by a completion or
  /// the run-window edge) falls back to one tick() per cycle. When
  /// `frozen` is set the proved prefix ends in a state that cannot make
  /// progress, and cycles past it replay via fast_forward_stall().
  struct DetProof {
    std::uint64_t start_fetch_seq = 0;
    std::uint64_t start_retire_seq = 0;
    double start_fetch_budget = 0.0;
    double start_retire_budget = 0.0;
    Cycle cycles = 0;  ///< length of the proved prefix
    std::uint64_t end_fetch_seq = 0;
    std::uint64_t end_retire_seq = 0;
    double end_fetch_budget = 0.0;
    double end_retire_budget = 0.0;
    std::size_t loads_retired = 0;   ///< front loads popped in the prefix
    std::uint64_t mem_stalls = 0;    ///< retire-blocked cycles in the prefix
    std::uint64_t rob_stalls = 0;    ///< ROB-full cycles in the prefix
    bool frozen = false;
    bool valid = false;
  };
  mutable DetProof det_proof_;

  /// Shared memo of the fetch-budget orbit for this core's nonmem_ipc (see
  /// FbOrbit in core.cpp). Acquired lazily by next_det_wake(); one table
  /// per distinct ipc value process-wide. Mirror-side only — never part of
  /// architectural state.
  mutable std::shared_ptr<const FbOrbit> orbit_;

  CoreStats stats_;
};

}  // namespace bwpart::cpu
