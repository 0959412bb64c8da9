#include "cpu/core.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace bwpart::cpu {

namespace {

/// Where one cycle's fetch of non-memory instructions stopped.
enum class FetchStop : std::uint8_t { kBudget, kWindowFull, kMemOp };

/// The fetch step of do_fetch() and of every det-window mirror: stop at a
/// full window (`fs == rob_lim`), then at the next memory operation
/// (`mem_seq`), else advance `fs` by min(budget, room, distance).
inline FetchStop fetch_nonmem(std::uint64_t& fs, std::uint64_t& bud,
                              std::uint64_t rob_lim, std::uint64_t mem_seq) {
  while (bud > 0) {
    if (fs == rob_lim) return FetchStop::kWindowFull;
    if (fs >= mem_seq) return FetchStop::kMemOp;
    const std::uint64_t adv = std::min({bud, rob_lim - fs, mem_seq - fs});
    fs += adv;
    bud -= adv;
  }
  return FetchStop::kBudget;
}

/// The fetch grants of a stretch of cycles with no budget reset, from
/// budget `b` at `r` (both in 1/kBudgetUnit instruction): k cycles grant
/// after(k) = floor((b + k·r) / kBudgetUnit) whole instructions in all and
/// leave left(k) = (b + k·r) mod kBudgetUnit of budget.
struct Grants {
  std::uint64_t b;
  std::uint64_t r;

  std::uint64_t after(std::uint64_t k) const {
    return (b + k * r) / kBudgetUnit;
  }
  std::uint64_t left(std::uint64_t k) const {
    return (b + k * r) % kBudgetUnit;
  }
  /// The fewest cycles whose grants reach `n` instructions (0 when the
  /// budget already covers them): ceil((n·kBudgetUnit − b) / r).
  std::uint64_t reach(std::uint64_t n) const {
    const std::uint64_t need = n * kBudgetUnit;
    return need > b ? (need - b + r - 1) / r : 0;
  }
  /// Cycles that fetch before the touch of a memory op `dist` instructions
  /// ahead, or `room` when it is not touched within `room` cycles. The
  /// touch cycle is the first whose grants strictly exceed `dist`: an exact
  /// landing consumes the whole grant, stalls once more, and touches on
  /// the next granted instruction. Testing the whole room first keeps
  /// reach()'s argument small for any distance.
  std::uint64_t before_touch(std::uint64_t dist, std::uint64_t room) const {
    return after(room) > dist ? reach(dist + 1) - 1 : room;
  }
};

}  // namespace

std::uint32_t ipc_x100(double ipc) {
  // An on-grid rate converts exactly: llround recovers its integer, and the
  // correctly rounded division gives back the very double its decimal
  // literal names.
  const bool on_grid =
      std::isfinite(ipc) && ipc > 0.0 && ipc <= 1e6 &&
      static_cast<double>(std::llround(ipc * kBudgetUnit)) / kBudgetUnit ==
          ipc;
  BWPART_ASSERT(on_grid, "non-memory IPC must be a positive multiple of 0.01");
  return static_cast<std::uint32_t>(std::llround(ipc * kBudgetUnit));
}

OoOCore::OoOCore(AppId app, const CoreConfig& cfg, TraceSource& trace,
                 mem::MemoryController& controller)
    : app_(app),
      cfg_(cfg),
      trace_(trace),
      controller_(controller),
      l1_(cfg.l1),
      l2_(cfg.l2) {
  BWPART_ASSERT(cfg.rob_size > 0, "ROB must hold at least one instruction");
  BWPART_ASSERT(cfg.issue_width > 0, "issue width must be positive");
  BWPART_ASSERT(cfg.nonmem_ipc_x100 > 0 &&
                    cfg.nonmem_ipc_x100 <=
                        std::uint64_t{kBudgetUnit} * cfg.issue_width,
                "non-memory IPC must be in (0, issue_width]");
  BWPART_ASSERT(cfg.mshrs > 0 && cfg.store_buffer > 0,
                "need at least one MSHR and one store-buffer entry");
  advance_trace();
}

void OoOCore::advance_trace() {
  current_op_ = trace_.next();
  next_mem_seq_ = fetch_seq_ + current_op_.gap_nonmem;
}

void OoOCore::tick(Cycle now) {
  ++stats_.cycles;
  do_retire(now);
  do_fetch(now);
}

Cycle OoOCore::next_wake(Cycle now) const {
  // Fetch-side progress: room in the window and either non-memory work at
  // the fetch head or a memory op that would not stall.
  const std::uint64_t rob_space = retire_seq_ + cfg_.rob_size - fetch_seq_;
  if (rob_space > 0 &&
      (fetch_seq_ < next_mem_seq_ || !mem_op_would_stall())) {
    return now + 1;
  }
  // Retire-side progress.
  if (retire_seq_ < fetch_seq_) {
    if (loads_.empty() || loads_.front().seq != retire_seq_) return now + 1;
    const Load& head = loads_.front();
    if (head.done_at != kNoCycle) return std::max(head.done_at, now + 1);
    return kNoCycle;  // waiting on a completion the controller will deliver
  }
  // Empty window and a stalled fetch head: only a completion (possibly of
  // another application's request, freeing queue space) can unblock.
  return kNoCycle;
}

WakeProof OoOCore::prove_sleep(Cycle now) const {
  const Cycle w = next_wake(now);
  if (w == now + 1) {
    const DetWalk d = walk_det(now, kDetLookahead);
    const Cycle wd = d.frozen ? kNoCycle : now + d.cycles + 1;
    if (wd > w) return {wd, SleepFlavor::kDet};
    return {w, SleepFlavor::kStall};  // not sleeping; flavor unused
  }
  // Blocked. Shared-queue backpressure is the only block another
  // application's completion can clear (conservatively: the two-slot
  // reservation used with cache modelling counts as queue pressure too),
  // so such a core ticks on instead of sleeping.
  if (controller_.admission_mode() == mem::AdmissionMode::Shared &&
      !controller_.can_accept_n(app_, 2)) {
    return {now + 1, SleepFlavor::kStall};
  }
  return {w, SleepFlavor::kStall};
}

OoOCore::DetWalk OoOCore::walk_det(Cycle now, Cycle cap) const {
  const std::uint64_t width = cfg_.issue_width;
  const std::uint64_t r = cfg_.nonmem_ipc_x100;
  const std::uint64_t rob = cfg_.rob_size;
  const std::uint64_t mem_seq = next_mem_seq_;
  std::uint64_t fb = fetch_budget_;
  std::uint64_t rs = retire_seq_;
  std::uint64_t fs = fetch_seq_;
  // First unretired load, advanced incrementally (a deque iterator bump is
  // cheap; indexed deque access in this loop is not).
  auto it = loads_.begin();
  const auto loads_end = loads_.end();
  DetWalk w;
  w.cycles = cap;  // clean to the cap unless a memory op or a freeze ends it
  // Load-free collapse precondition: ROB headroom above the largest
  // single-cycle grant (which never exceeds the issue width, as the rate is
  // at most 100 * width). Then, once no load is left and the un-retired
  // tail fits in one cycle's retirement, each cycle retires exactly the
  // previous cycle's fetch, the ROB never fills, and the remaining cycles
  // reduce to the fetch grants alone.
  const std::uint64_t bud_max = (kBudgetUnit - 1 + r) / kBudgetUnit;
  const bool collapsible = rob > bud_max;
  for (Cycle j = 1; j <= cap; ++j) {
    if (it != loads_end && it->seq == rs && it->done_at == kNoCycle) {
      // Retirement blocked on a load whose completion is not yet known: the
      // retire cursor cannot move again within this walk (loads_ is
      // immutable here), so each remaining cycle is one memory stall plus
      // the fetch grant, with no budget reset until the ROB fills (frozen:
      // the remaining cycles follow the fast_forward_stall() closed form
      // exactly), fetch reaches the next memory op (touch), or the cap. The
      // stretch ends in closed form at the first of these.
      const Grants g{fb, r};
      const std::uint64_t room = cap - j + 1;
      const std::uint64_t dist = mem_seq - fs;
      const std::uint64_t dist_rob = rs + rob - fs;
      std::uint64_t stalls;
      if (dist < dist_rob) {
        // Touch boundary first.
        stalls = g.before_touch(dist, room);
        if (stalls < room) {
          w.cycles = j + stalls - 1;
          return w;
        }
        fs += g.after(stalls);
        fb = g.left(stalls);
      } else {
        // Window boundary first (the fetch step checks ROB space before
        // the memory touch, so ties freeze). The stretch ends at the first
        // cycle whose grants reach the window limit; budget left over at
        // the limit flags one ROB stall and zeroes the budget, and the
        // following cycle's scan freezes.
        const std::uint64_t fill = g.reach(dist_rob);
        const bool leftover = fill <= room && g.after(fill) > dist_rob;
        if (fill < room) {
          stalls = fill;
          fs = rs + rob;
          w.cycles = j + fill - 1;
          w.frozen = true;
        } else {
          stalls = room;
          fs += std::min(g.after(room), dist_rob);
        }
        if (leftover) {
          ++w.rob_stalls;
          fb = 0;
        } else {
          fb = g.left(stalls);
        }
      }
      w.mem_stalls += stalls;
      break;
    }
    if (it == loads_end && collapsible && fs - rs <= width) {
      // No load left: from here each cycle retires the previous cycle's
      // grant and fetches its own, so the touch cycle and the end state
      // follow from the grants in closed form.
      const Grants g{fb, r};
      const std::uint64_t room = cap - j + 1;
      const std::uint64_t done = g.before_touch(mem_seq - fs, room);
      if (done < room) {
        w.cycles = j + done - 1;
        return w;
      }
      // Un-retired tail after the stretch = the last cycle's grant.
      const std::uint64_t tail =
          done > 0 ? g.after(done) - g.after(done - 1) : fs - rs;
      fs += g.after(done);
      rs = fs - tail;
      fb = g.left(done);
      break;
    }
    // Mirror of do_retire(): drain completed loads, block on pending ones;
    // with no load left, one bulk advance.
    const std::uint64_t start_rs = rs;
    if (it == loads_end) {
      rs += std::min(width, fs - rs);
    } else {
      std::uint64_t rbud = width;
      while (rbud > 0 && rs < fs) {
        if (it != loads_end && it->seq == rs) {
          if (it->done_at == kNoCycle || it->done_at > now + j) break;
          ++it;
        }
        ++rs;
        --rbud;
      }
    }
    if (rs == start_rs && it != loads_end && it->seq == rs) ++w.mem_stalls;
    // Mirror of do_fetch() up to the first memory-op attempt.
    fb += r;
    std::uint64_t bud = fb / kBudgetUnit;
    fb -= bud * kBudgetUnit;
    const FetchStop stop = fetch_nonmem(fs, bud, rs + rob, mem_seq);
    if (stop == FetchStop::kMemOp) {
      // The tick at now + j touches memory: the walk ends one cycle earlier.
      w.cycles = j - 1;
      return w;
    }
    if (stop == FetchStop::kWindowFull) {
      ++w.rob_stalls;
      fb = 0;
    }
  }
  w.fetch_seq = fs;
  w.retire_seq = rs;
  w.fetch_budget = static_cast<std::uint32_t>(fb);
  w.loads_retired = static_cast<std::size_t>(it - loads_.begin());
  return w;
}

void OoOCore::fast_forward_det(Cycle start, Cycle n) {
  if (n == 0) return;
  // The proof walked this window from the tick before the sleep, and
  // nothing the walk reads has changed since: walking it again, capped at
  // n, ends where n tick() calls would, or freezes first and stalls for the
  // rest.
  const DetWalk d = walk_det(start - 1, n);
  BWPART_ASSERT(d.frozen || d.cycles == n,
                "deterministic replay reached a memory operation");
  stats_.cycles += d.cycles;
  stats_.instructions += d.retire_seq - retire_seq_;
  stats_.mem_stall_cycles += d.mem_stalls;
  stats_.rob_stall_cycles += d.rob_stalls;
  fetch_seq_ = d.fetch_seq;
  retire_seq_ = d.retire_seq;
  fetch_budget_ = d.fetch_budget;
  loads_.erase(loads_.begin(),
               loads_.begin() + static_cast<std::ptrdiff_t>(d.loads_retired));
  fast_forward_stall(n - d.cycles);
}

void OoOCore::fast_forward_stall(Cycle n) {
  if (n == 0) return;
  stats_.cycles += n;
  // Retire side: nothing retires, so the memory-stall classification is
  // constant across the range.
  if (!loads_.empty() && loads_.front().seq == retire_seq_) {
    stats_.mem_stall_cycles += n;
  }
  // Fetch side: the stall kind is frozen (the window stays full / the same
  // memory op stays blocked), but a stall cycle is only *flagged* when the
  // budget reaches a whole instruction, and flagging zeroes the budget. So
  // the first flag comes after ceil((kBudgetUnit - b) / r) cycles and then
  // one every ceil(kBudgetUnit / r) (every cycle at r >= kBudgetUnit), and
  // the budget ends at r times the cycles since the last flag.
  const std::uint64_t r = cfg_.nonmem_ipc_x100;
  const std::uint64_t first = (kBudgetUnit - fetch_budget_ + r - 1) / r;
  std::uint64_t flagged = 0;
  if (n < first) {
    fetch_budget_ += static_cast<std::uint32_t>(n * r);
  } else {
    const std::uint64_t period = (kBudgetUnit + r - 1) / r;
    flagged = 1 + (n - first) / period;
    fetch_budget_ = static_cast<std::uint32_t>((n - first) % period * r);
  }
  const std::uint64_t rob_space = retire_seq_ + cfg_.rob_size - fetch_seq_;
  if (rob_space == 0) {
    stats_.rob_stall_cycles += flagged;
  } else {
    stats_.queue_stall_cycles += flagged;
  }
}

void OoOCore::do_retire(Cycle now) {
  std::uint64_t budget = cfg_.issue_width;
  const std::uint64_t start = retire_seq_;
  while (budget > 0 && retire_seq_ < fetch_seq_) {
    if (!loads_.empty() && loads_.front().seq == retire_seq_) {
      const Load& head = loads_.front();
      const bool done = head.done_at != kNoCycle && head.done_at <= now;
      if (!done) break;  // in-order retirement stalls on the oldest load
      loads_.pop_front();
    }
    ++retire_seq_;
    --budget;
  }
  stats_.instructions += retire_seq_ - start;
  if (retire_seq_ == start && !loads_.empty() &&
      loads_.front().seq == retire_seq_) {
    ++stats_.mem_stall_cycles;
  }
}

void OoOCore::do_fetch(Cycle now) {
  fetch_budget_ += cfg_.nonmem_ipc_x100;
  std::uint64_t budget = fetch_budget_ / kBudgetUnit;
  fetch_budget_ %= kBudgetUnit;

  const std::uint64_t rob_lim = retire_seq_ + cfg_.rob_size;
  for (;;) {
    const FetchStop stop =
        fetch_nonmem(fetch_seq_, budget, rob_lim, next_mem_seq_);
    if (stop == FetchStop::kBudget) return;
    // Fetch bandwidth is not banked across stall cycles.
    if (stop == FetchStop::kWindowFull) {
      ++stats_.rob_stall_cycles;
      fetch_budget_ = 0;
      return;
    }
    // The fetch head is the pending memory operation.
    if (!execute_mem_op(now)) {
      ++stats_.queue_stall_cycles;
      fetch_budget_ = 0;
      return;
    }
    ++fetch_seq_;
    --budget;
    advance_trace();
  }
}

bool OoOCore::mem_op_would_stall() const {
  const AccessType type = current_op_.type;
  if (current_op_.dependent && type == AccessType::Read &&
      offchip_loads_inflight_ > 0) {
    return true;
  }
  if (cfg_.model_caches) {
    const bool may_need_load = type == AccessType::Read;
    return (may_need_load && offchip_loads_inflight_ >= cfg_.mshrs) ||
           stores_inflight_ + 1 >= cfg_.store_buffer ||
           !controller_.can_accept_n(app_, 2);
  }
  if (type == AccessType::Read) {
    return offchip_loads_inflight_ >= cfg_.mshrs ||
           !controller_.can_accept(app_);
  }
  return stores_inflight_ >= cfg_.store_buffer ||
         !controller_.can_accept(app_);
}

bool OoOCore::execute_mem_op(Cycle now) {
  if (mem_op_would_stall()) return false;
  const Addr addr = current_op_.addr;
  const AccessType type = current_op_.type;

  if (cfg_.model_caches) {
    // The stall rule reserved the worst case (demand miss + dirty L2
    // victim): the cache lookups below mutate replacement/dirty state, so
    // the operation must not abort halfway and retry.
    const Cache::Outcome o1 = l1_.access(addr, type);
    if (o1.hit) {
      if (type == AccessType::Read) {
        loads_.push_back(Load{fetch_seq_, 0, now + cfg_.l1_latency, false});
      }
      return true;
    }
    // L1 dirty victims land in L2 (private inclusive-enough hierarchy).
    if (o1.writeback) {
      (void)l2_.access(o1.writeback_addr, AccessType::Write);
    }
    const Cache::Outcome o2 = l2_.access(addr, type);
    if (o2.hit) {
      if (type == AccessType::Read) {
        loads_.push_back(Load{fetch_seq_, 0, now + cfg_.l2_latency, false});
      }
      return true;
    }
    // Off-chip: the L2 miss fetches the line; a dirty L2 victim is written
    // back through the store path.
    if (o2.writeback) {
      controller_.enqueue(app_, o2.writeback_addr, AccessType::Write, now);
      ++stores_inflight_;
      ++stats_.offchip_writes;
    }
    // The demand access itself goes off-chip as its own request below,
    // with its own MSHR/store-buffer slot.
  }

  if (type == AccessType::Read) {
    const std::uint64_t id = controller_.enqueue(app_, addr, type, now);
    loads_.push_back(Load{fetch_seq_, id, kNoCycle, true});
    ++offchip_loads_inflight_;
    ++stats_.offchip_reads;
  } else {
    controller_.enqueue(app_, addr, type, now);
    ++stores_inflight_;
    ++stats_.offchip_writes;
  }
  return true;
}

void OoOCore::on_mem_complete(const mem::MemRequest& req, Cycle done_cpu) {
  BWPART_ASSERT(req.app == app_, "completion routed to wrong core");
  if (req.type == AccessType::Write) {
    BWPART_ASSERT(stores_inflight_ > 0, "write completion without store");
    --stores_inflight_;
    return;
  }
  for (Load& ld : loads_) {
    if (ld.offchip && ld.done_at == kNoCycle && ld.req_id == req.id) {
      ld.done_at = done_cpu;
      BWPART_ASSERT(offchip_loads_inflight_ > 0, "load completion underflow");
      --offchip_loads_inflight_;
      return;
    }
  }
  BWPART_ASSERT(false, "read completion for unknown load");
}

void OoOCore::pending_load_ids(std::vector<std::uint64_t>& out) const {
  out.clear();
  for (const Load& ld : loads_) {
    if (ld.offchip && ld.done_at == kNoCycle) out.push_back(ld.req_id);
  }
}

void OoOCore::reset_stats() { stats_ = CoreStats{}; }

void OoOCore::transfer(snap::Io& io) {
  io.tag("CORE");
  io.u64(fetch_seq_);
  io.u64(retire_seq_);
  io.u32(fetch_budget_);
  snap::require(fetch_budget_ < kBudgetUnit,
                "fetch budget holds a whole instruction (corrupt)");
  io.u64(current_op_.gap_nonmem);
  io.u64(current_op_.addr);
  io.enum8(current_op_.type, AccessType::Write,
           "trace-op access type byte out of range");
  io.b(current_op_.dependent);
  io.u64(next_mem_seq_);
  // A load: sequence number, request id, completion cycle, off-chip flag.
  io.list(loads_, 8 + 8 + 8 + 1, [&io](Load& ld) {
    io.u64(ld.seq);
    io.u64(ld.req_id);
    io.u64(ld.done_at);
    io.b(ld.offchip);
  });
  io.u32(offchip_loads_inflight_);
  io.u32(stores_inflight_);
  io.u64(stats_.cycles);
  io.u64(stats_.instructions);
  io.u64(stats_.offchip_reads);
  io.u64(stats_.offchip_writes);
  io.u64(stats_.rob_stall_cycles);
  io.u64(stats_.mem_stall_cycles);
  io.u64(stats_.queue_stall_cycles);
  l1_.transfer(io);
  l2_.transfer(io);
}

}  // namespace bwpart::cpu
