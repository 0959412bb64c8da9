#include "mem/controller.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"

namespace bwpart::mem {

namespace {

constexpr auto kWriteType = static_cast<std::uint8_t>(AccessType::Write);

template <typename V, typename X>
void insert_at(V& v, std::size_t pos, X x) {
  v.insert(v.begin() + static_cast<std::ptrdiff_t>(pos), x);
}

template <typename V>
void erase_at(V& v, std::size_t pos) {
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(pos));
}

}  // namespace

// --------------------------------------------------------------------------
// PendQueue: parallel-array maintenance.

void MemoryController::PendQueue::reserve(std::size_t n) {
  prim.reserve(n);
  arrival.reserve(n);
  id.reserve(n);
  slot.reserve(n);
  type.reserve(n);
  bank.reserve(n);
  row.reserve(n);
  app.reserve(n);
}

void MemoryController::PendQueue::insert(std::size_t pos, double key,
                                         const MemRequest& req,
                                         std::uint32_t slot_idx,
                                         std::uint32_t bank_idx) {
  insert_at(prim, pos, key);
  insert_at(arrival, pos, req.arrival_cpu);
  insert_at(id, pos, req.id);
  insert_at(slot, pos, slot_idx);
  insert_at(type, pos, static_cast<std::uint8_t>(req.type));
  insert_at(bank, pos, bank_idx);
  insert_at(row, pos, req.loc.row);
  insert_at(app, pos, req.app);
}

void MemoryController::PendQueue::erase(std::size_t pos) {
  erase_at(prim, pos);
  erase_at(arrival, pos);
  erase_at(id, pos);
  erase_at(slot, pos);
  erase_at(type, pos);
  erase_at(bank, pos);
  erase_at(row, pos);
  erase_at(app, pos);
}

std::size_t MemoryController::PendQueue::upper_bound(double key, Cycle arr,
                                                     std::uint64_t rid) const {
  std::size_t lo = 0;
  std::size_t hi = size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    bool le;  // entry[mid] <= (key, arr, rid)?
    if (prim[mid] != key) {
      le = prim[mid] < key;
    } else if (arrival[mid] != arr) {
      le = arrival[mid] < arr;
    } else {
      le = id[mid] < rid;  // ids are unique, so never equal here
    }
    if (le) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// --------------------------------------------------------------------------

MemoryController::MemoryController(const dram::DramConfig& cfg,
                                   Frequency cpu_clock,
                                   std::uint32_t num_apps,
                                   std::unique_ptr<Scheduler> scheduler,
                                   std::size_t per_app_queue_capacity,
                                   dram::MapScheme map,
                                   std::size_t shared_queue_capacity,
                                   AdmissionMode admission)
    : dram_(cfg, map),
      crossing_(cpu_clock, cfg.bus_clock),
      scheduler_(std::move(scheduler)),
      per_app_capacity_(per_app_queue_capacity),
      shared_capacity_(shared_queue_capacity),
      admission_(admission),
      num_apps_(num_apps),
      channels_(cfg.channels),
      ranks_(cfg.ranks),
      banks_per_rank_(cfg.banks_per_rank),
      pool_(queue_capacity_bound()),
      pend_(cfg.channels),
      rank_pending_(static_cast<std::size_t>(cfg.channels) * cfg.ranks, 0),
      per_app_count_(num_apps, 0),
      app_stats_(num_apps),
      app_live_(num_apps, 1),
      num_live_(num_apps),
      bank_last_user_(cfg.total_banks(), kNoApp),
      bus_user_(cfg.channels, kNoApp),
      bus_busy_until_(cfg.channels, 0),
      oldest_pending_(num_apps, kNoSlot),
      row_hit_epoch_(cfg.total_banks(), 0) {
  BWPART_ASSERT(scheduler_ != nullptr, "controller needs a scheduler");
  BWPART_ASSERT(num_apps > 0, "controller needs at least one app");
  BWPART_ASSERT(per_app_queue_capacity > 0, "zero queue capacity");
  const std::size_t bound = queue_capacity_bound();
  inflight_slots_.reserve(bound);
  scratch_.reserve(bound);
  for (PendQueue& q : pend_) q.reserve(bound);
  issued_scratch_.reserve(channels_);
  waiting_apps_.reserve(num_apps);
}

bool MemoryController::can_accept(AppId app) const {
  return can_accept_n(app, 1);
}

void MemoryController::set_app_live(AppId app, bool live) {
  BWPART_ASSERT(app < num_apps_, "app id out of range");
  if ((app_live_[app] != 0) == live) return;
  app_live_[app] = live ? 1 : 0;
  num_live_ += live ? 1 : static_cast<std::size_t>(-1);
}

bool MemoryController::can_accept_n(AppId app, std::size_t n) const {
  BWPART_ASSERT(app < num_apps_, "app id out of range");
  if (admission_ == AdmissionMode::Shared) {
    return active_ + n <= shared_capacity_;
  }
  return per_app_count_[app] + n <= per_app_capacity_;
}

void MemoryController::ensure_order() {
  const SchedOrdering ord = scheduler_->ordering();
  if (order_valid_ && ord.mode == ord_mode_ &&
      ord.key_version == ord_key_version_ &&
      ord.app_value == ord_app_value_) {
    return;
  }
  ord_mode_ = ord.mode;
  ord_app_value_ = ord.app_value;
  ord_key_version_ = ord.key_version;
  order_valid_ = true;
  rebuild_queue_order();
}

double MemoryController::key_of(const MemRequest& req) const {
  switch (ord_mode_) {
    case SchedOrdering::Mode::kStatic:
      return req.start_tag;
    case SchedOrdering::Mode::kAppValue:
      BWPART_ASSERT(ord_app_value_ != nullptr, "kAppValue without key array");
      return ord_app_value_[req.app];
    case SchedOrdering::Mode::kDynamic:
      return 0.0;
  }
  return 0.0;
}

void MemoryController::rebuild_queue_order() {
  // Re-key every entry; for sorted modes, resort the parallel arrays. Rare
  // path (policy swap, re-ranking, snapshot restore), so materializing the
  // entries for the sort is fine.
  struct Entry {
    double prim;
    Cycle arrival;
    std::uint64_t id;
    std::uint32_t slot;
    std::uint8_t type;
    std::uint32_t bank;
    std::uint64_t row;
    std::uint32_t app;
  };
  std::vector<Entry> tmp;
  for (PendQueue& q : pend_) {
    const std::size_t n = q.size();
    for (std::size_t i = 0; i < n; ++i) {
      q.prim[i] = key_of(pool_[q.slot[i]]);
    }
    if (ord_mode_ == SchedOrdering::Mode::kDynamic || n < 2) continue;
    tmp.clear();
    tmp.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      tmp.push_back({q.prim[i], q.arrival[i], q.id[i], q.slot[i], q.type[i],
                     q.bank[i], q.row[i], q.app[i]});
    }
    std::sort(tmp.begin(), tmp.end(), [](const Entry& a, const Entry& b) {
      if (a.prim != b.prim) return a.prim < b.prim;
      if (a.arrival != b.arrival) return a.arrival < b.arrival;
      return a.id < b.id;  // unique: a strict total order
    });
    for (std::size_t i = 0; i < n; ++i) {
      q.prim[i] = tmp[i].prim;
      q.arrival[i] = tmp[i].arrival;
      q.id[i] = tmp[i].id;
      q.slot[i] = tmp[i].slot;
      q.type[i] = tmp[i].type;
      q.bank[i] = tmp[i].bank;
      q.row[i] = tmp[i].row;
      q.app[i] = tmp[i].app;
    }
  }
}

std::uint64_t MemoryController::enqueue(AppId app, Addr addr, AccessType type,
                                        Cycle now_cpu) {
  BWPART_ASSERT(can_accept(app), "enqueue into full queue");
  BWPART_ASSERT(app_live_[app] != 0, "enqueue from a dormant app");
  ensure_order();
  const std::uint32_t slot = pool_.acquire();
  MemRequest& req = pool_[slot];
  req = MemRequest{};
  req.id = next_req_id_++;
  req.app = app;
  req.addr = addr;
  req.type = type;
  req.loc = dram_.mapper().decode(addr);
  req.arrival_cpu = now_cpu;
  req.arrival_tick = bus_ticks_done_;
  scheduler_->on_enqueue(req, now_cpu);
  PendQueue& q = pend_[req.loc.channel];
  const double key = key_of(req);
  const std::size_t pos = ord_mode_ == SchedOrdering::Mode::kDynamic
                              ? q.size()
                              : q.upper_bound(key, req.arrival_cpu, req.id);
  q.insert(pos, key, req, slot,
           static_cast<std::uint32_t>(bank_index(req.loc)));
  // Arrival times are monotone (and ids tie-break upward), so a new request
  // can only become the app's oldest when it had none pending.
  if (oldest_pending_[app] == kNoSlot) {
    oldest_pending_[app] = slot;
    waiting_apps_.push_back(app);
  }
  ++rank_pending_[rank_index(req.loc)];
  ++active_;
  ++per_app_count_[app];
  ++app_stats_[app].enqueued;
  if (type == AccessType::Write) {
    ++pending_writes_;
  } else {
    ++pending_reads_;
  }
  return req.id;
}

void MemoryController::set_write_drain(const WriteDrainConfig& cfg) {
  BWPART_ASSERT(!cfg.enabled || cfg.low_watermark < cfg.high_watermark,
                "write-drain watermarks inverted");
  write_drain_ = cfg;
  draining_ = false;
}

void MemoryController::tick(Cycle now_cpu) {
  BWPART_ASSERT(!started_ || now_cpu >= last_cpu_cycle_,
                "controller time must not go backwards");
  started_ = true;
  last_cpu_cycle_ = now_cpu;
  ensure_order();
  const std::uint64_t target = crossing_.device_ticks_at(now_cpu);
  while (bus_ticks_done_ < target) {
    const dram::Tick quiet_to =
        fast_forward_ ? std::min<dram::Tick>(horizon(), target) : 0;
    if (quiet_to <= bus_ticks_done_) {
      run_bus_tick(bus_ticks_done_);
      ++bus_ticks_done_;
      continue;
    }
    // Nothing is pending, so the reference loop would end any write drain
    // on the first skipped tick (see try_issue_one).
    draining_ = false;
    dram_.skip_ticks(bus_ticks_done_, quiet_to);
    if (obs_skip_ != nullptr && obs_->enabled()) {
      obs_skip_->record(quiet_to - bus_ticks_done_);
    }
    bus_ticks_done_ = quiet_to;
  }
}

dram::Tick MemoryController::horizon() const {
  if (!waiting_apps_.empty()) return bus_ticks_done_;
  return std::min(next_completion_, dram_.next_event_tick(bus_ticks_done_));
}

Cycle MemoryController::next_event_cpu_cycle() const {
  const dram::Tick e = horizon();
  return e == dram::kNoTick ? kNoCycle : crossing_.cpu_cycle_of_tick(e);
}

void MemoryController::replace_scheduler(std::unique_ptr<Scheduler> scheduler) {
  BWPART_ASSERT(scheduler != nullptr, "controller needs a scheduler");
  scheduler_ = std::move(scheduler);
  order_valid_ = false;
  if (obs_ != nullptr && obs_->enabled()) {
    obs_->trace().instant("scheduler:" + scheduler_->name(),
                          obs::TraceEmitter::kSystemTrack, last_cpu_cycle_);
    obs_->metrics().counter("mem.scheduler_swaps").add();
  }
}

void MemoryController::set_observability(obs::Hub* hub) {
  obs_ = hub;
  obs_latency_.clear();
  std::fill(std::begin(obs_cmd_), std::end(obs_cmd_), nullptr);
  obs_skip_ = nullptr;
  if (hub != nullptr) {
    obs_latency_.reserve(num_apps_);
    for (AppId a = 0; a < num_apps_; ++a) {
      obs_latency_.push_back(&hub->metrics().histogram(
          "mem.latency_cycles.app" + std::to_string(a)));
    }
    static constexpr const char* kCmdNames[7] = {
        "dram.cmd.act", "dram.cmd.rd",  "dram.cmd.rda", "dram.cmd.wr",
        "dram.cmd.wra", "dram.cmd.pre", "dram.cmd.ref"};
    for (std::size_t i = 0; i < 7; ++i) {
      obs_cmd_[i] = &hub->metrics().counter(kCmdNames[i]);
    }
    obs_skip_ = &hub->metrics().histogram("mem.skip_ticks");
  }
}

const AppMemStats& MemoryController::app_stats(AppId app) const {
  BWPART_ASSERT(app < num_apps_, "app id out of range");
  return app_stats_[app];
}

void MemoryController::reset_stats() {
  for (auto& s : app_stats_) s = AppMemStats{};
  dram_.reset_stats();
}

std::size_t MemoryController::pending_requests(AppId app) const {
  BWPART_ASSERT(app < num_apps_, "app id out of range");
  return per_app_count_[app];
}

void MemoryController::recompute_oldest(AppId app) {
  std::uint32_t o = kNoSlot;
  Cycle best_arrival = 0;
  std::uint64_t best_id = 0;
  for (const PendQueue& q : pend_) {
    const std::size_t n = q.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (q.app[i] != app) continue;
      if (o == kNoSlot || q.arrival[i] < best_arrival ||
          (q.arrival[i] == best_arrival && q.id[i] < best_id)) {
        o = q.slot[i];
        best_arrival = q.arrival[i];
        best_id = q.id[i];
      }
    }
  }
  oldest_pending_[app] = o;
  if (o == kNoSlot) {
    // Only called for an app whose incumbent just issued: it is listed.
    const auto it =
        std::find(waiting_apps_.begin(), waiting_apps_.end(), app);
    BWPART_ASSERT(it != waiting_apps_.end(), "waiting app not listed");
    *it = waiting_apps_.back();
    waiting_apps_.pop_back();
  }
}

void MemoryController::run_bus_tick(dram::Tick now) {
  dram_.tick(now);
  deliver_completions(now);
  // Wake powered-down ranks that have work waiting.
  if (dram_.config().enable_powerdown) {
    for (std::uint32_t ch = 0; ch < channels_; ++ch) {
      for (std::uint32_t rk = 0; rk < ranks_; ++rk) {
        if (rank_pending_[static_cast<std::size_t>(ch) * ranks_ + rk] > 0) {
          dram_.notify_rank_pending(ch, rk, now);
        }
      }
    }
  }
  // One command per channel per tick (shared command bus per channel).
  issued_scratch_.assign(channels_, kNoApp);
  for (std::uint32_t ch = 0; ch < channels_; ++ch) {
    if (try_issue_one(ch, now)) issued_scratch_[ch] = issued_app_scratch_;
  }
  if (observer_ != nullptr) {
    // Weight of this bus tick in CPU cycles: exact rational spacing.
    const Cycle weight = crossing_.cpu_cycle_of_tick(now + 1) -
                         crossing_.cpu_cycle_of_tick(now);
    account_interference(now, issued_scratch_, weight);
  }
}

void MemoryController::deliver_completions(dram::Tick now) {
  if (next_completion_ > now) return;
  dram::Tick next = dram::kNoTick;
  for (std::size_t i = 0; i < inflight_slots_.size();) {
    const std::uint32_t slot = inflight_slots_[i];
    MemRequest& req = pool_[slot];
    BWPART_ASSERT(req.in_flight, "pending request on the in-flight list");
    if (req.data_finish <= now) {
      const Cycle done_cpu = crossing_.cpu_cycle_of_tick(req.data_finish);
      AppMemStats& s = app_stats_[req.app];
      if (req.type == AccessType::Read) {
        ++s.served_reads;
      } else {
        ++s.served_writes;
      }
      s.sum_queue_cycles +=
          done_cpu > req.arrival_cpu ? done_cpu - req.arrival_cpu : 0;
      if (obs_ != nullptr && obs_->enabled()) {
        obs_latency_[req.app]->record(
            done_cpu > req.arrival_cpu ? done_cpu - req.arrival_cpu : 0);
      }
      --per_app_count_[req.app];
      --active_;
      const MemRequest done = req;
      inflight_slots_[i] = inflight_slots_.back();
      inflight_slots_.pop_back();
      pool_.release(slot);
      if (on_complete_) on_complete_(done, done_cpu);
      // re-examine the element swapped into position i
    } else {
      next = std::min(next, req.data_finish);
      ++i;
    }
  }
  next_completion_ = next;
}

void MemoryController::issue_request(std::uint32_t channel, std::size_t pos,
                                     dram::CmdClass cls, dram::Tick now) {
  PendQueue& q = pend_[channel];
  const std::uint32_t slot = q.slot[pos];
  MemRequest& req = pool_[slot];
  const dram::CommandType need = dram_.command_of(cls);
  const dram::IssueResult result =
      dram_.issue({need, req.loc, req.app, req.id}, now);
  bank_last_user_[q.bank[pos]] = req.app;
  if (obs_ != nullptr && obs_->enabled()) {
    obs_cmd_[static_cast<std::size_t>(need)]->add();
  }
  if (dram::is_column_command(need)) {
    req.in_flight = true;
    req.data_finish = result.data_finish;
    bus_user_[channel] = req.app;
    bus_busy_until_[channel] = result.data_finish;
    if (req.type == AccessType::Write) {
      BWPART_ASSERT(pending_writes_ > 0, "write accounting underflow");
      --pending_writes_;
    } else {
      BWPART_ASSERT(pending_reads_ > 0, "read accounting underflow");
      --pending_reads_;
    }
    scheduler_->on_issue(req);
    q.erase(pos);
    if (oldest_pending_[req.app] == slot) recompute_oldest(req.app);
    inflight_slots_.push_back(slot);
    next_completion_ = std::min(next_completion_, result.data_finish);
    const std::size_t rank_idx = rank_index(req.loc);
    BWPART_ASSERT(rank_pending_[rank_idx] > 0,
                  "rank pending counter underflow");
    --rank_pending_[rank_idx];
  }
  issued_app_scratch_ = req.app;
}

bool MemoryController::try_issue_one(std::uint32_t channel, dram::Tick now) {
  // Write-drain hysteresis: hold writes while reads wait, unless the write
  // backlog crossed the high watermark; drain down to the low watermark.
  if (write_drain_.enabled) {
    if (!draining_ && pending_writes_ >= write_drain_.high_watermark) {
      draining_ = true;
    } else if (draining_ && pending_writes_ <= write_drain_.low_watermark) {
      draining_ = false;
    }
  }
  const bool writes_eligible =
      !write_drain_.enabled || draining_ || pending_reads_ == 0;
  if (pend_[channel].size() == 0) return false;
  return ord_mode_ == SchedOrdering::Mode::kDynamic
             ? scan_dynamic(channel, now, writes_eligible)
             : scan_sorted(channel, now, writes_eligible);
}

namespace {

/// The vetoes both scans apply, request by request in policy order, on top
/// of command legality:
///  * Bus reservation: once a higher-priority column command is blocked
///    *only* by data-bus occupancy, lower-priority column commands may not
///    grab the bus (they would push bus-free time out forever — with tRTRS
///    a same-rank stream can otherwise starve a rank-switching request).
///    Non-bus commands (ACT/PRE) still flow.
///  * Row protection: do not close a row that a *higher-priority* waiting
///    request can still use. That request's column command is merely
///    blocked this tick (tCCD/bus), and precharging under it would throw
///    its activation away and churn ACT/PRE pairs. Lower-priority row hits
///    get no such protection — the policy's order must win. Every visited
///    row hit stamps its bank with the scan's epoch, so the check is one
///    compare.
struct ScanVetoes {
  dram::ReadyTicks ready;
  std::uint64_t* row_hit_epoch;  ///< per flat bank
  std::uint64_t epoch;
  dram::Tick now;
  bool bus_reserved = false;

  /// Visits the next request in policy order, whose next command has class
  /// `cls`; true when that command issues now. The verdict is computed
  /// without branching on the class, the ticks or the vetoes.
  bool issues(std::size_t bank, dram::CmdClass cls) {
    const bool hit = dram::is_column_class(cls);
    const bool row_protected = row_hit_epoch[bank] == epoch;
    row_hit_epoch[bank] = hit ? epoch : row_hit_epoch[bank];
    const bool timing_ok = ready.bank_rank(bank, cls) <= now;
    const bool bus_ok = ready.bus_at(bank, cls) <= now;  // ACT/PRE: always
    const bool veto = (hit & bus_reserved) |
                      ((cls == dram::CmdClass::Precharge) & row_protected);
    bus_reserved |= hit & timing_ok & !bus_ok;
    return timing_ok & bus_ok & !veto;
  }
};

}  // namespace

bool MemoryController::scan_sorted(std::uint32_t channel, dram::Tick now,
                                   bool writes_eligible) {
  // The queue is already in policy order, so walk it front to back.
  const PendQueue& q = pend_[channel];
  const bool writes_held = !writes_eligible;
  const dram::ReadyTicks ready = dram_.ready_ticks();
  ScanVetoes scan{ready, row_hit_epoch_.data(), ++scan_epoch_, now};
  const std::size_t n = q.size();
  for (std::size_t i = 0; i < n; ++i) {
    const bool is_write = q.type[i] == kWriteType;
    if (is_write & writes_held) continue;
    const std::uint32_t bank = q.bank[i];
    const dram::CmdClass cls = ready.class_at(bank, q.row[i], is_write);
    if (scan.issues(bank, cls)) {
      issue_request(channel, i, cls, now);
      return true;
    }
  }
  return false;
}

bool MemoryController::scan_dynamic(std::uint32_t channel, dram::Tick now,
                                    bool writes_eligible) {
  // Gather schedulable queue positions on this channel.
  const PendQueue& q = pend_[channel];
  scratch_.clear();
  const std::size_t n = q.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (writes_eligible || q.type[i] != kWriteType) {
      scratch_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const dram::ReadyTicks ready = dram_.ready_ticks();
  ScanVetoes scan{ready, row_hit_epoch_.data(), ++scan_epoch_, now};
  for (std::size_t pos = 0; pos < scratch_.size(); ++pos) {
    // Top-1 selection on demand: move the policy minimum of the unexamined
    // tail to `pos`. Most ticks issue the first pick, so this does O(K)
    // comparator calls instead of sorting the whole candidate set; when a
    // pick is vetoed below, the next minimum is extracted, reproducing the
    // fully sorted visit order.
    std::size_t min_at = pos;
    for (std::size_t k = pos + 1; k < scratch_.size(); ++k) {
      if (scheduler_->before(pool_[q.slot[scratch_[k]]],
                             pool_[q.slot[scratch_[min_at]]], dram_)) {
        min_at = k;
      }
    }
    std::swap(scratch_[pos], scratch_[min_at]);
    const std::uint32_t qi = scratch_[pos];
    const std::uint32_t bank = q.bank[qi];
    const dram::CmdClass cls =
        ready.class_at(bank, q.row[qi], q.type[qi] == kWriteType);
    if (scan.issues(bank, cls)) {
      issue_request(channel, qi, cls, now);
      return true;
    }
  }
  return false;
}

void MemoryController::account_interference(dram::Tick now,
                                            std::span<const AppId> issued_app,
                                            Cycle weight) {
  // Paper Section IV-C (detection per STFM / FST). Each application with a
  // waiting request is judged on its oldest one. Ready, it is a victim when
  // a different application's command won its channel's slot; blocked on
  // the data bus or its bank, when another application used that last
  // (refresh is not inter-application interference). Command legality,
  // which picks between the two, is tested only when they differ.
  const dram::ReadyTicks ready = dram_.ready_ticks();
  const dram::CmdTimings& t = dram_.cmd_timings();
  for (const AppId app : waiting_apps_) {
    const MemRequest& oldest = pool_[oldest_pending_[app]];
    const std::uint32_t ch = oldest.loc.channel;
    const AppId winner = issued_app[ch];
    const bool ready_verdict = winner != kNoApp && winner != app;
    const std::size_t bank = bank_index(oldest.loc);
    const dram::CmdClass cls = ready.class_at(
        bank, oldest.loc.row, oldest.type == AccessType::Write);
    bool blocked_verdict = false;
    if (!dram_.refresh_blocked(ch, oldest.loc.rank)) {
      const bool bus_block =
          dram::is_column_class(cls) &&
          now + (cls == dram::CmdClass::Read ? t.rd_lat : t.wr_lat) <
              bus_busy_until_[ch];
      const AppId holder = bus_block ? bus_user_[ch] : bank_last_user_[bank];
      blocked_verdict = holder != kNoApp && holder != app;
    }
    bool victim = ready_verdict;
    if (ready_verdict != blocked_verdict && ready.issue_tick(bank, cls) > now) {
      victim = blocked_verdict;
    }
    if (victim) observer_->on_interference(app, weight);
  }
}

void MemoryController::transfer(snap::Io& io) {
  io.tag("CTRL");
  io.enum8(admission_, AdmissionMode::PerApp,
           "admission-mode byte out of range");
  io.b(write_drain_.enabled);
  io.sz(write_drain_.high_watermark);
  io.sz(write_drain_.low_watermark);
  io.b(draining_);
  io.sz(pending_writes_);
  io.sz(pending_reads_);
  const auto app = [&io, this](AppId& a, bool none_ok) {
    io.u32(a);
    snap::require(a < num_apps_ || (none_ok && a == kNoApp),
                  "controller app id out of range");
  };
  // The pool's used prefix travels verbatim, free slots included: their
  // stale contents are a deterministic function of the simulation history,
  // so the byte stream itself is reproducible run-to-run.
  pool_.transfer(io, [&](MemRequest& req) {
    io.u64(req.id);
    app(req.app, false);
    io.u64(req.addr);
    io.enum8(req.type, AccessType::Write,
             "request access-type byte out of range");
    io.u32(req.loc.channel);
    io.u32(req.loc.rank);
    io.u32(req.loc.bank);
    io.u64(req.loc.row);
    io.u32(req.loc.column);
    snap::require(req.loc.channel < channels_ && req.loc.rank < ranks_ &&
                      req.loc.bank < banks_per_rank_,
                  "request location outside the DRAM geometry");
    io.u64(req.arrival_cpu);
    io.u64(req.arrival_tick);
    io.f64(req.start_tag);
    io.b(req.in_flight);
    io.u64(req.data_finish);
  });
  const auto slot = [&io, this](std::uint32_t& s, bool none_ok) {
    io.u32(s);
    snap::require(s < pool_.high_water() || (none_ok && s == kNoSlot),
                  "controller request slot out of range");
  };
  const auto slots = [&](std::vector<std::uint32_t>& v) {
    io.list(v, 4, [&](std::uint32_t& s) { slot(s, false); });
  };
  // Pending queues as slot lists in queue order (sorted order for static-
  // key policies, append order otherwise); the SoA mirrors and policy keys
  // are derived state, rebuilt on restore.
  io.arity(pend_.size(), "channel count differs from the snapshot's");
  for (PendQueue& q : pend_) {
    if (!io.reading()) {
      slots(q.slot);
      continue;
    }
    // Rebuild the SoA mirror from the restored pool in the stored order.
    // Keys are left stale here: order_valid_ is dropped below, so the next
    // order-dependent use re-keys (and, for sorted modes, resorts — a
    // no-op permutation, since the stored order already was the sorted
    // order under identical keys).
    slots(scratch_);
    while (q.size() > 0) q.erase(q.size() - 1);
    for (const std::uint32_t s : scratch_) {
      const MemRequest& req = pool_[s];
      q.insert(q.size(), 0.0, req, s,
               static_cast<std::uint32_t>(bank_index(req.loc)));
    }
  }
  slots(inflight_slots_);
  io.sz(active_);
  io.u64(next_completion_);
  io.fixed(rank_pending_,
           "controller vector arity differs from the snapshot's");
  io.fixed(per_app_count_, "app count differs from the snapshot's",
           [&io](std::size_t& c) { io.sz(c); });
  io.fixed(app_stats_, "app count differs from the snapshot's",
           [&io](AppMemStats& s) {
             io.u64(s.enqueued);
             io.u64(s.served_reads);
             io.u64(s.served_writes);
             io.u64(s.sum_queue_cycles);
           });
  io.fixed(bank_last_user_, "bank count differs from the snapshot's",
           [&](AppId& a) { app(a, true); });
  io.fixed(bus_user_, "channel count differs from the snapshot's",
           [&](AppId& a) { app(a, true); });
  io.fixed(bus_busy_until_, "channel count differs from the snapshot's");
  io.u64(next_req_id_);
  io.u64(bus_ticks_done_);
  io.u64(last_cpu_cycle_);
  io.b(started_);
  // A retired engine flag's byte, written as 1 and ignored on read: older
  // files resume here, and files written here resume in older builds.
  bool retired = true;
  io.b(retired);
  io.fixed(oldest_pending_,
           "controller vector arity differs from the snapshot's",
           [&](std::uint32_t& s) { slot(s, true); });
  // Per-app liveness (churn runs mutate it mid-run; all-live otherwise).
  io.fixed(app_live_, "app count differs from the snapshot's",
           [&io](std::uint8_t& l) {
             io.u8(l);
             snap::require(l <= 1,
                           "liveness byte holds a value other than 0/1");
           });
  std::string policy = scheduler_->name();
  io.str(policy);
  if (policy != scheduler_->name()) {
    std::unique_ptr<Scheduler> rebuilt =
        make_scheduler_by_name(policy, num_apps_);
    snap::require(rebuilt != nullptr,
                  "snapshot names an unknown scheduling policy");
    scheduler_ = std::move(rebuilt);
  }
  scheduler_->transfer(io);
  dram_.transfer(io);
  if (!io.reading()) return;
  snap::require(dram_.next_tick() == bus_ticks_done_,
                "controller and DRAM tick cursors differ");
  waiting_apps_.clear();
  for (AppId a = 0; a < num_apps_; ++a) {
    if (oldest_pending_[a] != kNoSlot) waiting_apps_.push_back(a);
  }
  num_live_ = 0;
  for (const std::uint8_t l : app_live_) num_live_ += l;
  order_valid_ = false;  // queue keys/order rebuild against the new policy
}

}  // namespace bwpart::mem
