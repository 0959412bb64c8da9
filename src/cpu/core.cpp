#include "cpu/core.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"

namespace bwpart::cpu {

/// Memo of the fractional fetch-budget orbit for one nonmem_ipc value.
///
/// Every core's fetch budget walks a single deterministic orbit: it starts
/// at 0.0, every ROB/queue-stall reset returns it to 0.0, and each cycle
/// applies exactly one step of x -> (x + ipc) - trunc(x + ipc) in the same
/// add/truncate/subtract order the per-cycle mirrors use. Tabulating the
/// orbit once per distinct ipc value — with a prefix sum of the
/// whole-instruction budgets it grants — turns the mirror's per-cycle
/// accumulator loops into O(log) binary searches over `cum`. The collapse
/// is bit-exact by construction: every tabulated value was produced by the
/// reference FP operations, so reading a table entry and replaying the
/// cycles give identical bits.
struct FbOrbit {
  /// Steps tabulated. Comfortably above kDetLookahead so a lookup landing
  /// mid-table still has a full proof window of entries ahead of it.
  static constexpr std::uint32_t kSteps = 20480;
  static constexpr std::uint32_t kNpos = ~std::uint32_t{0};

  /// Budget value after k steps from 0.0; fbl[0] == 0.0.
  std::vector<double> fbl;
  /// Whole instructions granted by steps 1..k; cum[0] == 0.
  std::vector<std::uint64_t> cum;
  /// Bit pattern of a budget value -> smallest step index holding it.
  std::unordered_map<std::uint64_t, std::uint32_t> pos;

  explicit FbOrbit(double ipc) : fbl(kSteps + 1), cum(kSteps + 1) {
    pos.reserve(kSteps + 1);
    double x = 0.0;
    std::uint64_t c = 0;
    pos.emplace(std::bit_cast<std::uint64_t>(x), 0);
    for (std::uint32_t k = 1; k <= kSteps; ++k) {
      const double nfb = x + ipc;
      const auto bud = static_cast<std::uint64_t>(nfb);
      x = nfb - static_cast<double>(bud);
      c += bud;
      fbl[k] = x;
      cum[k] = c;
      pos.emplace(std::bit_cast<std::uint64_t>(x), k);
    }
  }

  /// Step index whose budget value is bit-identical to `fb`, or kNpos when
  /// `fb` is off-orbit: past the table, after kSteps steps with no reset.
  std::uint32_t find(double fb) const {
    const auto it = pos.find(std::bit_cast<std::uint64_t>(fb));
    return it == pos.end() ? kNpos : it->second;
  }
};

namespace {

/// Process-wide orbit registry, one table per distinct ipc bit pattern.
/// Shared across cores and threads (run_all measures schemes in parallel).
std::shared_ptr<const FbOrbit> acquire_orbit(double ipc) {
  static std::mutex mu;
  static std::unordered_map<std::uint64_t, std::shared_ptr<const FbOrbit>>
      registry;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = registry[std::bit_cast<std::uint64_t>(ipc)];
  if (!slot) slot = std::make_shared<const FbOrbit>(ipc);
  return slot;
}

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

}  // namespace

OoOCore::OoOCore(AppId app, const CoreConfig& cfg, TraceSource& trace,
                 mem::MemoryController& controller)
    : app_(app),
      cfg_(cfg),
      trace_(trace),
      controller_(controller),
      l1_(cfg.l1),
      l2_(cfg.l2) {
  BWPART_ASSERT(cfg.rob_size > 0, "ROB must hold at least one instruction");
  BWPART_ASSERT(cfg.issue_width > 0.0, "issue width must be positive");
  BWPART_ASSERT(cfg.nonmem_ipc > 0.0 && cfg.nonmem_ipc <= cfg.issue_width,
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
    const Cycle wd = next_det_wake(now);
    if (wd > w) return {wd, SleepFlavor::kDet};
    return {w, SleepFlavor::kStallOwn};  // not sleeping; flavor unused
  }
  // Blocked. Shared-queue backpressure is the only block another
  // application's completion can clear (conservatively: the two-slot
  // reservation used with cache modelling counts as queue pressure too).
  const bool shared_block =
      controller_.admission_mode() == mem::AdmissionMode::Shared &&
      !controller_.can_accept_n(app_, 2);
  return {w, shared_block ? SleepFlavor::kStallShared
                          : SleepFlavor::kStallOwn};
}

Cycle OoOCore::next_det_wake(Cycle now) const {
  if (!orbit_) orbit_ = acquire_orbit(cfg_.nonmem_ipc);
  const FbOrbit& orbit = *orbit_;
  const double width = cfg_.issue_width;
  const double ipc = cfg_.nonmem_ipc;
  const std::uint64_t rob = cfg_.rob_size;
  const std::uint64_t mem_seq = next_mem_seq_;
  double rb = retire_budget_;
  double fb = fetch_budget_;
  std::uint64_t rs = retire_seq_;
  std::uint64_t fs = fetch_seq_;
  // First unretired load, advanced incrementally (a deque iterator bump is
  // cheap; indexed deque access in this loop is not).
  auto it = loads_.begin();
  const auto loads_end = loads_.end();
  std::uint64_t mem_stalls = 0;
  std::uint64_t rob_stalls = 0;
  // State after the previous (proved-clean) iteration, memoized into
  // det_proof_ so the owner's replay of the range is O(1).
  double rb_p = rb, fb_p = fb;
  std::uint64_t rs_p = rs, fs_p = fs;
  auto it_p = it;
  std::uint64_t ms_p = 0;
  const Cycle cap =
      offchip_loads_inflight_ == 0 ? kDetLookahead : kDetShortLookahead;
  Cycle prefix = cap;
  Cycle wake = now + cap + 1;  // clean cap unless proven otherwise
  bool frozen = false;
  // Load-free collapse preconditions: integer issue width, per-cycle fetch
  // bounded by the retire budget, and ROB headroom above the largest
  // single-cycle fetch. Under these, once no load is left and the
  // un-retired tail fits in one retire budget, the mirror reaches a fixed
  // point (each cycle retires exactly the previous cycle's fetch, the ROB
  // never fills) and the remaining cycles reduce to the fractional fetch
  // accumulator alone. The FP ops replicate the per-cycle mirror
  // operation-for-operation, so the collapse is bit-exact, not a closed
  // form.
  const auto bud_max = static_cast<std::uint64_t>(ipc) + 1;
  const auto width_u = static_cast<std::uint64_t>(width);
  const bool collapsible = width >= 1.0 && width == std::floor(width) &&
                           static_cast<double>(bud_max) <= width &&
                           rob > bud_max;
  for (Cycle j = 1; j <= cap; ++j) {
    if (it != loads_end && it->seq == rs && it->done_at == kNoCycle) {
      // Retirement blocked on a load whose completion is not yet known: the
      // retire cursor cannot move again within this proof (loads_ is
      // immutable here), so each remaining cycle is one memory stall plus
      // the fetch accumulator, until the ROB fills (frozen: the remaining
      // cycles follow the fast_forward_stall() closed form exactly), fetch
      // reaches the next memory op (touch), or the cap. Collapsing the
      // stretch skips the retire mirror and the per-cycle rollback
      // snapshots; every FP op matches the generic body below bit-for-bit.
      const std::uint64_t rob_lim = rs + rob;
      // Orbit collapse: locate the budget on the tabulated orbit, then the
      // whole stretch reduces to one binary search over the prefix sums —
      // the first cycle whose cumulative fetch passes the next memory op
      // (touch) or fills the window (freeze). End states read straight off
      // the table, so every FP value matches the per-cycle loop below
      // bit-for-bit. Off-orbit budgets fall back to the loop.
      const std::uint32_t p0 = orbit.find(fb);
      const std::uint64_t room = cap - j + 1;
      if (p0 != FbOrbit::kNpos && p0 + room <= FbOrbit::kSteps) {
        const auto first = orbit.cum.begin() + p0;
        const auto last = first + static_cast<std::ptrdiff_t>(room) + 1;
        const std::uint64_t base = orbit.cum[p0];
        const std::uint64_t dist_rob = rob_lim - fs;
        std::uint64_t stalls;
        if (mem_seq - fs < dist_rob) {
          // Touch boundary first. The touch cycle is the first whose
          // cumulative fetch strictly exceeds the distance to mem_seq: an
          // exact landing consumes the whole budget, stalls once more, and
          // touches on the next granted instruction — which is exactly
          // upper_bound's strict compare.
          const auto hit =
              std::upper_bound(first, last, base + (mem_seq - fs));
          if (hit != last) {
            stalls = static_cast<std::uint64_t>(hit - first) - 1;
            prefix = j + stalls - 1;
            wake = now + j + stalls;
          } else {
            stalls = room;
          }
          fs += orbit.cum[p0 + stalls] - base;
          fb = orbit.fbl[p0 + stalls];
        } else {
          // Window boundary first (the loop checks ROB space before the
          // memory touch, so ties freeze). The stretch ends at the first
          // cycle whose cumulative fetch reaches the window limit; budget
          // left over at the limit flags one ROB stall and zeroes the
          // budget, and the following cycle's scan freezes.
          const auto hit = std::lower_bound(first, last, base + dist_rob);
          const auto m_r = static_cast<std::uint64_t>(hit - first);
          const bool leftover =
              hit != last && orbit.cum[p0 + m_r] - base > dist_rob;
          if (hit != last && m_r < room) {
            stalls = m_r;
            fs = rob_lim;
            prefix = j + m_r - 1;
            wake = kNoCycle;
            frozen = true;
          } else {
            stalls = room;
            fs += std::min(orbit.cum[p0 + room] - base, dist_rob);
          }
          if (leftover) {
            ++rob_stalls;
            fb = 0.0;
          } else {
            fb = orbit.fbl[p0 + stalls];
          }
        }
        mem_stalls += stalls;
        if (stalls > 0) rb = 0.0;
        break;
      }
      for (; j <= cap; ++j) {
        if (fs == rob_lim) {
          prefix = j - 1;
          wake = kNoCycle;
          frozen = true;
          break;
        }
        const double nfb = fb + ipc;
        const auto granted = static_cast<std::uint64_t>(nfb);
        std::uint64_t bud = granted;
        const std::uint64_t fs_top = fs;
        const FetchStop stop = fetch_nonmem(fs, bud, rob_lim, mem_seq);
        if (stop == FetchStop::kMemOp) {
          prefix = j - 1;
          wake = now + j;
          fs = fs_top;
          break;
        }
        ++mem_stalls;
        rb = 0.0;  // nothing retired
        if (stop == FetchStop::kWindowFull) {
          ++rob_stalls;
          fb = 0.0;
        } else {
          fb = nfb - static_cast<double>(granted);
        }
      }
      break;
    }
    // With no load left and rb exactly zero (guaranteed in practice: an
    // integer width leaves retire_budget_ at 0.0 forever) the retire
    // mirror is pure integer bookkeeping: each cycle drains exactly the
    // previous fetch.
    if (it == loads_end && collapsible && fs - rs <= width_u && rb == 0.0) {
      // Orbit collapse: the accumulator loop below walks the tabulated
      // orbit one step per cycle, so the touch cycle is one binary search
      // over the prefix sums and the end state reads straight off the
      // table (same construction as the stuck-stretch collapse above).
      // Off-orbit budgets fall back to the loop.
      const std::uint32_t p0 = orbit.find(fb);
      const std::uint64_t room = cap - j + 1;
      if (p0 != FbOrbit::kNpos && p0 + room <= FbOrbit::kSteps) {
        const auto first = orbit.cum.begin() + p0;
        const auto last = first + static_cast<std::ptrdiff_t>(room) + 1;
        const std::uint64_t base = orbit.cum[p0];
        const auto hit = std::upper_bound(first, last, base + (mem_seq - fs));
        const std::uint64_t done =
            hit != last ? static_cast<std::uint64_t>(hit - first) - 1 : room;
        // Un-retired tail after the stretch = the last granted budget
        // (each cycle retires exactly the previous cycle's fetch).
        const std::uint64_t tail =
            done > 0 ? orbit.cum[p0 + done] - orbit.cum[p0 + done - 1]
                     : fs - rs;
        fs += orbit.cum[p0 + done] - base;
        rs = fs - tail;
        fb = orbit.fbl[p0 + done];
        if (hit != last) {
          prefix = j + done - 1;
          wake = now + j + done;
        }
        break;
      }
      std::uint64_t delta = fs - rs;  // un-retired tail = last fetch
      std::uint64_t acc = 0;          // instructions fetched in this loop
      const std::uint64_t needed = mem_seq - fs;
      for (; j <= cap; ++j) {
        const double nfb = fb + ipc;
        const auto bud = static_cast<std::uint64_t>(nfb);
        if (acc + bud > needed) {
          // This cycle's fetch would reach mem_seq with budget left: the
          // memory touch. State stays as of the previous cycle, exactly
          // like the snapshot rollback in the generic mirror.
          prefix = j - 1;
          wake = now + j;
          break;
        }
        acc += bud;
        fb = nfb - static_cast<double>(bud);
        delta = bud;
      }
      fs += acc;
      rs = fs - delta;
      break;
    }
    rb_p = rb;
    fb_p = fb;
    rs_p = rs;
    fs_p = fs;
    it_p = it;
    ms_p = mem_stalls;
    // Mirror of do_retire(): drain completed loads, block on pending ones;
    // with no load left, one bulk advance.
    rb += width;
    auto rbud = static_cast<std::uint64_t>(rb);
    rb -= static_cast<double>(rbud);
    const std::uint64_t start_rs = rs;
    if (it == loads_end) {
      rs += std::min(rbud, fs - rs);
    } else {
      while (rbud > 0 && rs < fs) {
        if (it != loads_end && it->seq == rs) {
          if (it->done_at == kNoCycle || it->done_at > now + j) break;
          ++it;
        }
        ++rs;
        --rbud;
      }
    }
    if (rs == start_rs) {
      if (it != loads_end && it->seq == rs) ++mem_stalls;
      rb = 0.0;
    }
    // Mirror of do_fetch() up to the first memory-op attempt.
    fb += ipc;
    auto bud = static_cast<std::uint64_t>(fb);
    fb -= static_cast<double>(bud);
    const FetchStop stop = fetch_nonmem(fs, bud, rs + rob, mem_seq);
    if (stop == FetchStop::kMemOp) {
      // The tick at now + j touches memory: the clean range ends one cycle
      // earlier, its end state the snapshot taken before this iteration.
      prefix = j - 1;
      wake = now + j;
      rb = rb_p;
      fb = fb_p;
      rs = rs_p;
      fs = fs_p;
      it = it_p;
      mem_stalls = ms_p;
      break;
    }
    if (stop == FetchStop::kWindowFull) {
      ++rob_stalls;
      fb = 0.0;
    }
  }
  det_proof_ = DetProof{
      fetch_seq_, retire_seq_,
      fetch_budget_, retire_budget_,
      prefix, fs,
      rs, fb,
      rb, static_cast<std::size_t>(it - loads_.begin()),
      mem_stalls, rob_stalls,
      frozen, true};
  return wake;
}

void OoOCore::fast_forward_det(Cycle start, Cycle n) {
  if (n == 0) return;
  // Common case: the range being replayed starts exactly where the proof
  // simulated, so its memoized end state applies directly; a frozen proof
  // covers any longer range via the stall closed form. A range cut short
  // (a read completion or the run-window edge) replays through tick().
  const DetProof& p = det_proof_;
  if (p.valid && (p.cycles == n || (p.frozen && p.cycles <= n)) &&
      p.start_fetch_seq == fetch_seq_ && p.start_retire_seq == retire_seq_ &&
      p.start_fetch_budget == fetch_budget_ &&
      p.start_retire_budget == retire_budget_) {
    const Cycle tail = n - p.cycles;
    stats_.cycles += p.cycles;
    stats_.instructions += p.end_retire_seq - retire_seq_;
    stats_.mem_stall_cycles += p.mem_stalls;
    stats_.rob_stall_cycles += p.rob_stalls;
    fetch_seq_ = p.end_fetch_seq;
    retire_seq_ = p.end_retire_seq;
    fetch_budget_ = p.end_fetch_budget;
    retire_budget_ = p.end_retire_budget;
    loads_.erase(loads_.begin(),
                 loads_.begin() + static_cast<std::ptrdiff_t>(p.loads_retired));
    det_proof_.valid = false;
    if (tail > 0) fast_forward_stall(tail);
    return;
  }
  const std::uint64_t mem_seq = next_mem_seq_;
  const std::uint64_t queue_stalls = stats_.queue_stall_cycles;
  for (Cycle i = 0; i < n; ++i) tick(start + i);
  BWPART_ASSERT(next_mem_seq_ == mem_seq &&
                    stats_.queue_stall_cycles == queue_stalls,
                "deterministic replay reached a memory operation");
}

void OoOCore::fast_forward_stall(Cycle n) {
  if (n == 0) return;
  stats_.cycles += n;
  // Retire side: nothing retires, so the budget resets every cycle and the
  // memory-stall classification is constant across the range.
  retire_budget_ = 0.0;
  if (!loads_.empty() && loads_.front().seq == retire_seq_) {
    stats_.mem_stall_cycles += n;
  }
  // Fetch side: the stall kind is frozen (the window stays full / the same
  // memory op stays blocked), but a stall cycle is only *flagged* when the
  // whole-instruction budget reaches 1 — and flagging zeroes the budget.
  // At nonmem_ipc >= 1 every cycle flags; below 1 the fractional
  // accumulation must be replayed add-for-add to stay bit-identical.
  std::uint64_t flagged = 0;
  if (cfg_.nonmem_ipc >= 1.0) {
    flagged = n;
    fetch_budget_ = 0.0;
  } else {
    for (Cycle i = 0; i < n; ++i) {
      fetch_budget_ += cfg_.nonmem_ipc;
      if (fetch_budget_ >= 1.0) {
        ++flagged;
        fetch_budget_ = 0.0;
      }
    }
  }
  const std::uint64_t rob_space = retire_seq_ + cfg_.rob_size - fetch_seq_;
  if (rob_space == 0) {
    stats_.rob_stall_cycles += flagged;
  } else {
    stats_.queue_stall_cycles += flagged;
  }
}

void OoOCore::do_retire(Cycle now) {
  retire_budget_ += cfg_.issue_width;
  auto budget = static_cast<std::uint64_t>(retire_budget_);
  retire_budget_ -= static_cast<double>(budget);

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
  // Unused retire budget does not accumulate across stall cycles.
  if (retire_seq_ == start) retire_budget_ = 0.0;
}

void OoOCore::do_fetch(Cycle now) {
  fetch_budget_ += cfg_.nonmem_ipc;
  auto budget = static_cast<std::uint64_t>(fetch_budget_);
  fetch_budget_ -= static_cast<double>(budget);

  const std::uint64_t rob_lim = retire_seq_ + cfg_.rob_size;
  for (;;) {
    const FetchStop stop =
        fetch_nonmem(fetch_seq_, budget, rob_lim, next_mem_seq_);
    if (stop == FetchStop::kBudget) return;
    // Fetch bandwidth is not banked across stall cycles.
    if (stop == FetchStop::kWindowFull) {
      ++stats_.rob_stall_cycles;
      fetch_budget_ = 0.0;
      return;
    }
    // The fetch head is the pending memory operation.
    if (!execute_mem_op(now)) {
      ++stats_.queue_stall_cycles;
      fetch_budget_ = 0.0;
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

void OoOCore::reset_stats() { stats_ = CoreStats{}; }

void OoOCore::transfer(snap::Io& io) {
  io.tag("CORE");
  io.u64(fetch_seq_);
  io.u64(retire_seq_);
  io.f64(fetch_budget_);
  io.f64(retire_budget_);
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
  // The memo is stale after a restore; rebuilt (or fallen back) on demand.
  if (io.reading()) det_proof_ = DetProof{};
}

}  // namespace bwpart::cpu
