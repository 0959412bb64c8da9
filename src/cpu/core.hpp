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
#include <optional>

#include "common/types.hpp"
#include "cpu/cache.hpp"
#include "cpu/trace.hpp"
#include "mem/controller.hpp"

namespace bwpart::cpu {

/// Fetch budgets count hundredths of an instruction. Every shipped
/// non-memory IPC is a multiple of 0.01, so the budget is an exact integer
/// and every stretch of fetch cycles has a closed form.
inline constexpr std::uint32_t kBudgetUnit = 100;

/// `ipc` in hundredths of an instruction per cycle. Aborts unless `ipc` is
/// a positive multiple of 0.01 (2.4 and 0.72 convert; 0.333 does not), so
/// an off-grid rate is never rounded silently.
std::uint32_t ipc_x100(double ipc);

struct CoreConfig {
  std::uint32_t rob_size = 192;
  /// Instructions retired per cycle, and the most fetched per cycle.
  std::uint32_t issue_width = 8;
  /// ILP-limited throughput of the non-memory instruction stream, in
  /// hundredths of an instruction per cycle (in (0, 100 * issue_width]).
  /// Per-benchmark knob: CmpSystem sets it through ipc_x100().
  std::uint32_t nonmem_ipc_x100 = 800;
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

/// How a sleeping core's deferred cycles must be replayed, and which of
/// this application's completions end the sleep early (no other
/// application's can). A stall leans on state any of its completions can
/// free. The deterministic-window replay reads the load queue, so the
/// owner must replay its range *before* delivering one of this
/// application's read completions (which mutate load state) and wake the
/// core there; write completions leave it untouched.
enum class SleepFlavor : std::uint8_t {
  kStall = 0,  ///< blocked; any of this app's completions wakes
  kDet = 1,    ///< deterministic window run; this app's reads wake
};

/// Result of OoOCore::prove_sleep(): the first cycle the core must tick
/// again, and the replay/wake semantics of the cycles in between.
struct WakeProof {
  Cycle wake = 0;
  SleepFlavor flavor = SleepFlavor::kStall;
};

class OoOCore {
 public:
  /// Cap on the cycles one deterministic-window proof walks; a longer run
  /// simply re-proves after waking.
  static constexpr Cycle kDetLookahead = 4096;

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

  /// Replays the `n` consecutive cycles [start, start + n) of a
  /// deterministic window run: retire/fetch sequence numbers, retired
  /// loads, instruction and stall counters, and the fetch budget advance
  /// exactly as n tick() calls would. It walks the proof's window again
  /// from start - 1 (a sleep begins after a tick, so start >= 1), capped
  /// at n, and replays the cycles past a freeze through
  /// fast_forward_stall(). Precondition: prove_sleep(start - 1) proved a
  /// det sleep that wakes no earlier than start + n (or freezes), and no
  /// read completion of this application was delivered inside the range.
  void fast_forward_det(Cycle start, Cycle n);

  /// One-shot sleep proof combining next_wake() with the deterministic-
  /// window refinement (a walk_det() capped at kDetLookahead). Every sleep
  /// it proves ends only on this application's completions: MSHR,
  /// store-buffer, per-app-queue and dependent-load blocks clear on nothing
  /// else. A block on the shared transaction queue, which any application's
  /// completion can clear, proves no sleep (wake now + 1).
  WakeProof prove_sleep(Cycle now) const;

  /// Replays `n` consecutive provably-stalled cycles in closed form at
  /// every rate: cycle/stall counters and the fetch budget end exactly as
  /// n tick() calls leave them. Precondition: next_wake() proved the next n
  /// cycles make no progress and no completion is delivered within them.
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
  /// Fetch bandwidth carried into the next cycle, in 1/kBudgetUnit
  /// instruction; always below kBudgetUnit.
  std::uint32_t fetch_budget() const { return fetch_budget_; }
  /// Zeroes the measurement counters at a phase boundary without touching
  /// microarchitectural state (ROB, caches, in-flight requests).
  void reset_stats();

  /// Snapshot hook: window sequence numbers, the fetch budget, the
  /// current trace op, the load queue (with controller request ids — slot
  /// wiring is restored by the controller's own hook), in-flight counters,
  /// stats and both private caches.
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

  /// End of a deterministic-window walk: the cycles it covers and, unless
  /// it stopped at a memory op, the state n tick() calls would leave.
  struct DetWalk {
    Cycle cycles = 0;
    bool frozen = false;  ///< stopped where the window can make no progress
    std::uint64_t fetch_seq = 0;
    std::uint64_t retire_seq = 0;
    std::uint32_t fetch_budget = 0;
    std::size_t loads_retired = 0;  ///< front loads popped by the walk
    std::uint64_t mem_stalls = 0;   ///< retire-blocked cycles
    std::uint64_t rob_stalls = 0;   ///< ROB-full cycles
  };
  /// Walks at most `cap` cycles after `now` (now + 1, now + 2, ...) up to
  /// the first tick() that would attempt a memory operation. Between such
  /// attempts the core's evolution is fully deterministic given the loads
  /// already in the window (their completion cycles, known or still
  /// pending, are data, not events). The walk reads only the fetch and
  /// retire cursors, the fetch budget, next_mem_seq_ and the load queue,
  /// so a second walk before one of this application's reads is delivered
  /// sees what the first saw. `cycles` counts the cycles before the
  /// memory-op attempt (the end state is then not filled in), or is `cap`
  /// when none comes. A walk that freezes (retirement blocked on a pending
  /// load, window full) stops there with `frozen` set; the cycles after it
  /// follow the fast_forward_stall() closed form. Stretches with retirement
  /// blocked on a pending load, or with no load left, end in closed form
  /// from the integer fetch budget; only windows holding loads with known
  /// completions are mirrored cycle by cycle.
  DetWalk walk_det(Cycle now, Cycle cap) const;

  AppId app_;
  CoreConfig cfg_;
  TraceSource& trace_;
  mem::MemoryController& controller_;
  Cache l1_;
  Cache l2_;

  std::uint64_t fetch_seq_ = 0;
  std::uint64_t retire_seq_ = 0;
  std::uint32_t fetch_budget_ = 0;  ///< see fetch_budget()

  TraceOp current_op_{};
  std::uint64_t next_mem_seq_ = 0;

  std::deque<Load> loads_;  ///< in program order
  std::uint32_t offchip_loads_inflight_ = 0;
  std::uint32_t stores_inflight_ = 0;

  CoreStats stats_;
};

}  // namespace bwpart::cpu
