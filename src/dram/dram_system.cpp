#include "dram/dram_system.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/assert.hpp"
#include "common/check.hpp"

namespace bwpart::dram {

DramSystem::DramSystem(const DramConfig& cfg, MapScheme scheme)
    : cfg_(cfg),
      t_(cfg.ticks()),
      tt_(CmdTimings::build(t_)),
      map_(cfg, scheme),
      banks_(static_cast<std::size_t>(cfg.channels) * cfg.ranks *
             cfg.banks_per_rank),
      ranks_(static_cast<std::size_t>(cfg.channels) * cfg.ranks),
      chans_(cfg.channels),
      rank_ready_(ranks_.size() * kCmdClasses, 0),
      bus_ready_(ranks_.size() * kCmdClasses, 0),
      // In CmdClass order.
      class_cmd_{CommandType::Activate, CommandType::Precharge,
                 cfg.page_policy == PagePolicy::Close ? CommandType::ReadAp
                                                      : CommandType::Read,
                 cfg.page_policy == PagePolicy::Close ? CommandType::WriteAp
                                                      : CommandType::Write},
      // A power of two: map_ asserted it.
      rank_shift_(static_cast<unsigned>(std::countr_zero(cfg.banks_per_rank))) {
  rebuild_ready_ticks();
  // Stagger refresh across ranks so they do not all drain simultaneously.
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    ranks_[i].next_refresh_due =
        cfg_.enable_refresh ? t_.refi * (i + 1) / ranks_.size() + 1
                            : static_cast<Tick>(-1);
  }
  rebuild_refresh_cache();
  // Power-down idle threshold, in bus ticks (rounded up).
  const double tick_ns = 1e9 / static_cast<double>(cfg_.bus_clock.hz);
  pd_threshold_ =
      static_cast<Tick>(std::ceil(cfg_.powerdown_idle_ns / tick_ns));
  stats_.channels = cfg_.channels;
  stats_.channel_busy_ticks.assign(cfg_.channels, 0);
  if constexpr (check::kEnabled) {
    checker_ = std::make_unique<ProtocolChecker>(cfg_);
  }
}

void DramSystem::rebuild_refresh_cache() {
  refresh_pending_count_ = 0;
  min_refresh_due_ = kNoTick;
  for (const RankState& r : ranks_) {
    if (r.refresh_pending) ++refresh_pending_count_;
    min_refresh_due_ = std::min(min_refresh_due_, r.next_refresh_due);
  }
}

void DramSystem::refresh_rank_ready(std::size_t rank_idx) {
  const RankState& r = ranks_[rank_idx];
  Tick* ready = &rank_ready_[rank_idx * kCmdClasses];
  const auto set = [ready](CmdClass c, Tick t) {
    ready[static_cast<std::size_t>(c)] = t;
  };
  if (r.pd) {  // powered down: the wake-up is an event, not a timing expiry
    for (std::size_t c = 0; c < kCmdClasses; ++c) ready[c] = kNoTick;
    return;
  }
  Tick act = r.any_act ? r.last_act + tt_.act_to_act : 0;  // tRRD
  if (r.act_count >= 4) {                                  // tFAW
    act = std::max(act, r.act_window[r.act_count % 4] + tt_.faw);
  }
  set(CmdClass::Activate, r.refresh_pending ? kNoTick : act);
  set(CmdClass::Precharge, 0);
  const Tick col = r.any_col ? r.last_col + tt_.col_to_col : 0;  // tCCD
  set(CmdClass::Read,
      r.any_write ? std::max(col, r.write_data_end + tt_.wrdata_to_rd)
                  : col);  // tWTR
  set(CmdClass::Write, col);
}

void DramSystem::refresh_bus_ready(std::uint32_t channel) {
  const ChannelState& ch = chans_[channel];
  for (std::uint32_t rk = 0; rk < cfg_.ranks; ++rk) {
    // Switching the data bus between ranks needs an extra tRTRS gap; the
    // burst of a command issued at t starts at t + its data latency.
    const Tick need =
        ch.bus_free_at +
        (ch.bus_has_last && ch.bus_last_rank != rk ? tt_.rtrs : 0);
    Tick* ready =
        &bus_ready_[(static_cast<std::size_t>(channel) * cfg_.ranks + rk) *
                    kCmdClasses];
    ready[static_cast<std::size_t>(CmdClass::Read)] =
        need > tt_.rd_lat ? need - tt_.rd_lat : 0;
    ready[static_cast<std::size_t>(CmdClass::Write)] =
        need > tt_.wr_lat ? need - tt_.wr_lat : 0;
  }
}

void DramSystem::rebuild_ready_ticks() {
  for (std::size_t i = 0; i < ranks_.size(); ++i) refresh_rank_ready(i);
  for (std::uint32_t ch = 0; ch < cfg_.channels; ++ch) refresh_bus_ready(ch);
}

void DramSystem::tick_slow(Tick now) {
  for (std::uint32_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::uint32_t rk = 0; rk < cfg_.ranks; ++rk) {
      RankState& r = rank_at(ch, rk);
      if (cfg_.enable_refresh) {
        if (!r.refresh_pending && now >= r.next_refresh_due) {
          r.refresh_pending = true;  // blocks new activates to this rank
          ++refresh_pending_count_;
          refresh_rank_ready(static_cast<std::size_t>(ch) * cfg_.ranks + rk);
        }
        if (r.refresh_pending) try_refresh(ch, rk, now);
      }
      if (cfg_.enable_powerdown) update_powerdown(r, ch, rk, now);
    }
  }
}

Tick DramSystem::next_event_tick(
    Tick from, std::span<const std::uint32_t> rank_pending) const {
  if (!cfg_.enable_refresh && !cfg_.enable_powerdown) return kNoTick;
  BWPART_ASSERT(rank_pending.size() == ranks_.size(),
                "rank_pending span has wrong size");
  // Fast path mirroring tick()'s fast-out: no drain in progress and no
  // power-down machinery means the only device event is the earliest
  // refresh deadline (min over ranks of max(due, from) == max(min_due,
  // from) since every due is per-rank independent).
  if (!cfg_.enable_powerdown && refresh_pending_count_ == 0) {
    return std::max(min_refresh_due_, from);
  }
  Tick best = kNoTick;
  for (std::uint32_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::uint32_t rk = 0; rk < cfg_.ranks; ++rk) {
      const RankState& r = rank_at(ch, rk);
      const bool pending =
          rank_pending[static_cast<std::size_t>(ch) * cfg_.ranks + rk] > 0;
      const std::size_t bank0 =
          (static_cast<std::size_t>(ch) * cfg_.ranks + rk) *
          cfg_.banks_per_rank;
      if (cfg_.enable_refresh) {
        if (!r.refresh_pending) {
          best = std::min(best, std::max(r.next_refresh_due, from));
        } else {
          // Drain in progress: the next step is either a still-open bank
          // becoming closable or, with all banks closed, the recovery
          // windows expiring so the refresh fires.
          bool any_open = false;
          Tick recover = from;
          for (std::uint32_t b = 0; b < cfg_.banks_per_rank; ++b) {
            const std::size_t bi = bank0 + b;
            if (banks_.row_open(bi)) {
              any_open = true;
              best = std::min(best,
                              std::max(banks_.next_precharge_tick(bi), from));
            } else {
              recover = std::max(recover, banks_.next_activate_tick(bi));
            }
          }
          if (!any_open) best = std::min(best, recover);
        }
      }
      if (cfg_.enable_powerdown) {
        if (r.pd) {
          if (r.waking) {
            best = std::min(best, std::max(r.wake_ready, from));
          } else if (pending) {
            // The controller's per-tick notify starts the wake-up; it must
            // run, so the very next tick is an event.
            best = std::min(best, from);
          }
        } else if (pending && pd_threshold_ <= 1) {
          // Degenerate threshold: even a rank notified every tick can slip
          // into power-down between notifies. Give up skipping.
          best = std::min(best, from);
        } else if (!pending && !r.refresh_pending) {
          // Idle rank: power-down entry once every bank is closed and
          // recovered and the idle threshold has elapsed. Banks cannot
          // close without commands, so an open bank means no entry while
          // the state stays frozen.
          bool any_open = false;
          Tick entry = r.last_activity + pd_threshold_;
          for (std::uint32_t b = 0; b < cfg_.banks_per_rank; ++b) {
            const std::size_t bi = bank0 + b;
            if (banks_.row_open(bi)) {
              any_open = true;
              break;
            }
            entry = std::max(entry, banks_.next_activate_tick(bi));
          }
          if (!any_open) best = std::min(best, std::max(entry, from));
        }
      }
    }
  }
  return best;
}

void DramSystem::skip_ticks(Tick from, Tick to,
                            std::span<const std::uint32_t> rank_pending) {
  BWPART_ASSERT(to > from, "empty skip range");
  BWPART_ASSERT(!ticked_ || from == last_tick_ + 1,
                "skip_ticks must continue the tick sequence");
  BWPART_ASSERT(rank_pending.size() == ranks_.size(),
                "rank_pending span has wrong size");
  const std::uint64_t n = to - from;
  stats_.ticks += n;
  if (cfg_.enable_powerdown) {
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
      RankState& r = ranks_[i];
      if (r.pd) stats_.powerdown_rank_ticks += n;
      // Per-tick notify_rank_pending calls would have pinned last_activity
      // to each tick in the range; pin it to the last one.
      if (rank_pending[i] > 0) {
        r.last_activity = std::max(r.last_activity, to - 1);
      }
    }
  }
  last_tick_ = to - 1;
  ticked_ = true;
}

void DramSystem::update_powerdown(RankState& r, std::uint32_t channel,
                                  std::uint32_t rank, Tick now) {
  const std::size_t rank_idx =
      static_cast<std::size_t>(channel) * cfg_.ranks + rank;
  if (r.pd) {
    ++stats_.powerdown_rank_ticks;
    if (r.waking && now >= r.wake_ready) {
      r.pd = false;
      r.waking = false;
      r.last_activity = now;
      refresh_rank_ready(rank_idx);
    }
    return;
  }
  if (r.refresh_pending) return;
  if (now < r.last_activity + pd_threshold_) return;
  // Enter precharge power-down only with every bank closed and recovered.
  const std::size_t bank0 = rank_idx * cfg_.banks_per_rank;
  for (std::uint32_t b = 0; b < cfg_.banks_per_rank; ++b) {
    const std::size_t bi = bank0 + b;
    if (banks_.row_open(bi) || now < banks_.next_activate_tick(bi)) return;
  }
  r.pd = true;
  r.waking = false;
  refresh_rank_ready(rank_idx);
}

void DramSystem::notify_rank_pending(std::uint32_t channel,
                                     std::uint32_t rank, Tick now) {
  if (!cfg_.enable_powerdown) return;
  RankState& r = rank_at(channel, rank);
  if (r.pd && !r.waking) {
    r.waking = true;
    r.wake_ready = now + t_.xp;
  }
  // A rank with pending work never *enters* power-down this tick.
  r.last_activity = std::max(r.last_activity, now);
}

bool DramSystem::powered_down(std::uint32_t channel,
                              std::uint32_t rank) const {
  return rank_at(channel, rank).pd;
}

void DramSystem::try_refresh(std::uint32_t channel, std::uint32_t rank,
                             Tick now) {
  RankState& r = rank_at(channel, rank);
  const std::size_t bank0 =
      (static_cast<std::size_t>(channel) * cfg_.ranks + rank) *
      cfg_.banks_per_rank;
  // Close any open bank as soon as its tRAS/tRTP/tWR constraints allow.
  // (Hardware would issue PRECHARGE-ALL; we fold it into the engine.)
  bool all_closed = true;
  for (std::uint32_t b = 0; b < cfg_.banks_per_rank; ++b) {
    const std::size_t bi = bank0 + b;
    if (banks_.row_open(bi)) {
      if (banks_.can_precharge(bi, now)) {
        if (checker_) {
          const Location pre_loc{channel, rank, b, banks_.row_value(bi), 0};
          checker_->observe({CommandType::Precharge, pre_loc, kNoApp, 0},
                            now);
        }
        banks_.precharge(bi, now, tt_);
        ++stats_.precharges;
      } else {
        all_closed = false;
      }
    }
  }
  if (!all_closed) return;
  // All banks must also be past their precharge-recovery windows.
  for (std::uint32_t b = 0; b < cfg_.banks_per_rank; ++b) {
    if (now < banks_.next_activate_tick(bank0 + b)) return;
  }
  if (checker_) checker_->observe_refresh(channel, rank, now);
  for (std::uint32_t b = 0; b < cfg_.banks_per_rank; ++b) {
    banks_.refresh(bank0 + b, now, tt_);
  }
  ++stats_.refreshes;
  r.refresh_pending = false;
  r.next_refresh_due += t_.refi;
  refresh_rank_ready(static_cast<std::size_t>(channel) * cfg_.ranks + rank);
  BWPART_ASSERT(refresh_pending_count_ > 0, "refresh cache underflow");
  --refresh_pending_count_;
  // The deadline minimum only matters while nothing is pending; keep it
  // fresh whenever a refresh retires (O(ranks), a rare event).
  min_refresh_due_ = kNoTick;
  for (const RankState& rs : ranks_) {
    min_refresh_due_ = std::min(min_refresh_due_, rs.next_refresh_due);
  }
}

bool DramSystem::refresh_blocked(std::uint32_t channel,
                                 std::uint32_t rank) const {
  return rank_at(channel, rank).refresh_pending;
}

IssueResult DramSystem::issue(const Command& cmd, Tick now) {
  BWPART_ASSERT(can_issue(cmd, now), "issue() without can_issue()");
  if (checker_) checker_->observe(cmd, now);
  const Location& loc = cmd.loc;
  const std::size_t bi = bank_index(loc);
  RankState& rank = rank_at(loc.channel, loc.rank);
  ChannelState& chan = chans_[loc.channel];
  rank.last_activity = now;
  IssueResult result;
  switch (cmd.type) {
    case CommandType::Activate: {
      banks_.activate(bi, now, loc.row, tt_);
      rank.act_window[rank.act_count % 4] = now;
      ++rank.act_count;
      rank.last_act = now;
      rank.any_act = true;
      ++stats_.activates;
      break;
    }
    case CommandType::Read:
    case CommandType::ReadAp: {
      banks_.read(bi, now, cmd.type == CommandType::ReadAp, tt_);
      rank.last_col = now;
      rank.any_col = true;
      const Tick data_start = now + tt_.rd_lat;
      chan.bus_free_at = data_start + tt_.burst;
      chan.bus_last_rank = loc.rank;
      chan.bus_has_last = true;
      stats_.data_bus_busy_ticks += tt_.burst;
      stats_.channel_busy_ticks[loc.channel] += tt_.burst;
      ++stats_.reads;
      result.data_finish = now + tt_.rd_to_data_end;
      break;
    }
    case CommandType::Write:
    case CommandType::WriteAp: {
      banks_.write(bi, now, cmd.type == CommandType::WriteAp, tt_);
      rank.last_col = now;
      rank.any_col = true;
      const Tick data_start = now + tt_.wr_lat;
      chan.bus_free_at = data_start + tt_.burst;
      chan.bus_last_rank = loc.rank;
      chan.bus_has_last = true;
      rank.write_data_end = data_start + tt_.burst;
      rank.any_write = true;
      stats_.data_bus_busy_ticks += tt_.burst;
      stats_.channel_busy_ticks[loc.channel] += tt_.burst;
      ++stats_.writes;
      result.data_finish = now + tt_.wr_to_data_end;
      break;
    }
    case CommandType::Precharge: {
      banks_.precharge(bi, now, tt_);
      ++stats_.precharges;
      break;
    }
    case CommandType::Refresh:
      BWPART_ASSERT(false, "refresh is internal to DramSystem");
  }
  if (cmd.type != CommandType::Precharge) {
    refresh_rank_ready(rank_index(loc));
    if (is_column_command(cmd.type)) refresh_bus_ready(loc.channel);
  }
  return result;
}

void DramSystem::save_state(snap::Writer& w) const {
  w.tag("DRAM");
  w.u64(banks_.size());
  for (std::size_t i = 0; i < banks_.size(); ++i) banks_.save_one(i, w);
  w.u64(ranks_.size());
  for (const RankState& rk : ranks_) {
    w.u64(rk.last_act);
    w.b(rk.any_act);
    for (const Tick t : rk.act_window) w.u64(t);
    w.u32(rk.act_count);
    w.u64(rk.last_col);
    w.b(rk.any_col);
    w.u64(rk.write_data_end);
    w.b(rk.any_write);
    w.u64(rk.next_refresh_due);
    w.b(rk.refresh_pending);
    w.u64(rk.last_activity);
    w.b(rk.pd);
    w.b(rk.waking);
    w.u64(rk.wake_ready);
  }
  w.u64(chans_.size());
  for (const ChannelState& ch : chans_) {
    w.u64(ch.bus_free_at);
    w.u32(ch.bus_last_rank);
    w.b(ch.bus_has_last);
  }
  w.u64(stats_.activates);
  w.u64(stats_.reads);
  w.u64(stats_.writes);
  w.u64(stats_.precharges);
  w.u64(stats_.refreshes);
  w.u64(stats_.data_bus_busy_ticks);
  w.u64(stats_.ticks);
  w.u64(stats_.powerdown_rank_ticks);
  w.u32(stats_.channels);
  w.u64(stats_.channel_busy_ticks.size());
  for (const std::uint64_t t : stats_.channel_busy_ticks) w.u64(t);
  w.u64(last_tick_);
  w.b(ticked_);
  // Optional shadow-checker section, length-prefixed so a checker-less
  // build (BWPART_CHECK=OFF) can skip it wholesale.
  w.b(checker_ != nullptr);
  if (checker_ != nullptr) {
    snap::Writer sub;
    checker_->save_state(sub);
    w.u64(sub.bytes().size());
    for (const std::uint8_t byte : sub.bytes()) w.u8(byte);
  }
}

void DramSystem::restore_state(snap::Reader& r) {
  r.expect_tag("DRAM");
  snap::require(r.u64() == banks_.size(),
                "DRAM bank count differs from the snapshot's");
  for (std::size_t i = 0; i < banks_.size(); ++i) banks_.restore_one(i, r);
  snap::require(r.u64() == ranks_.size(),
                "DRAM rank count differs from the snapshot's");
  for (RankState& rk : ranks_) {
    rk.last_act = r.u64();
    rk.any_act = r.b();
    for (Tick& t : rk.act_window) t = r.u64();
    rk.act_count = r.u32();
    rk.last_col = r.u64();
    rk.any_col = r.b();
    rk.write_data_end = r.u64();
    rk.any_write = r.b();
    rk.next_refresh_due = r.u64();
    rk.refresh_pending = r.b();
    rk.last_activity = r.u64();
    rk.pd = r.b();
    rk.waking = r.b();
    rk.wake_ready = r.u64();
  }
  rebuild_refresh_cache();  // derived hot-path cache, never serialized
  snap::require(r.u64() == chans_.size(),
                "DRAM channel count differs from the snapshot's");
  for (ChannelState& ch : chans_) {
    ch.bus_free_at = r.u64();
    ch.bus_last_rank = r.u32();
    ch.bus_has_last = r.b();
  }
  rebuild_ready_ticks();  // derived, never serialized
  stats_.activates = r.u64();
  stats_.reads = r.u64();
  stats_.writes = r.u64();
  stats_.precharges = r.u64();
  stats_.refreshes = r.u64();
  stats_.data_bus_busy_ticks = r.u64();
  stats_.ticks = r.u64();
  stats_.powerdown_rank_ticks = r.u64();
  stats_.channels = r.u32();
  snap::require(r.u64() == stats_.channel_busy_ticks.size(),
                "per-channel stats arity differs from the snapshot's");
  for (std::uint64_t& t : stats_.channel_busy_ticks) t = r.u64();
  last_tick_ = r.u64();
  ticked_ = r.b();
  const bool snap_has_checker = r.b();
  if (snap_has_checker) {
    const std::uint64_t len = r.u64();
    if (checker_ != nullptr) {
      const std::size_t before = r.position();
      checker_->restore_state(r);
      snap::require(r.position() - before == len,
                    "protocol-checker section length mismatch");
    } else {
      r.skip(len);  // this build validates nothing; drop the shadow state
    }
  } else {
    snap::require(checker_ == nullptr,
                  "snapshot lacks the protocol-checker state this "
                  "BWPART_CHECK build needs (was it written by a "
                  "BWPART_CHECK=OFF build?)");
  }
}

}  // namespace bwpart::dram
