#include "dram/dram_system.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/assert.hpp"

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
}

void DramSystem::rebuild_refresh_cache() {
  refresh_pending_count_ = 0;
  min_refresh_due_ = kNoTick;
  for (const RankState& r : ranks_) {
    if (r.refresh_pending) ++refresh_pending_count_;
    min_refresh_due_ = std::min(min_refresh_due_, r.next_refresh_due);
  }
}

std::array<Tick, kCmdClasses> DramSystem::rank_timing(
    const RankState& r) const {
  Tick act = r.any_act ? r.last_act + tt_.act_to_act : 0;  // tRRD
  if (r.act_count >= 4) {                                  // tFAW
    act = std::max(act, r.act_window[r.act_count % 4] + tt_.faw);
  }
  const Tick col = r.any_col ? r.last_col + tt_.col_to_col : 0;  // tCCD
  const Tick rd = r.any_write
                      ? std::max(col, r.write_data_end + tt_.wrdata_to_rd)
                      : col;  // tWTR
  return {act, 0, rd, col};  // in CmdClass order
}

void DramSystem::refresh_rank_ready(std::size_t rank_idx) {
  const RankState& r = ranks_[rank_idx];
  std::array<Tick, kCmdClasses> ready = rank_timing(r);
  if (r.refresh_pending) ready[0] = kNoTick;  // no Activate while draining
  if (r.pd) ready.fill(kNoTick);  // the wake-up is an event, not a timing
  std::copy(ready.begin(), ready.end(), &rank_ready_[rank_idx * kCmdClasses]);
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

Tick DramSystem::next_event_tick(Tick from) const {
  if (!cfg_.enable_refresh && !cfg_.enable_powerdown) return kNoTick;
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
      // A powered-down rank has no event of its own (see the header).
      if (cfg_.enable_powerdown && !r.pd && !r.refresh_pending) {
        // Idle rank: power-down entry once every bank is closed and
        // recovered and the idle threshold has elapsed. Banks cannot close
        // without commands, so an open bank means no entry while the state
        // stays frozen.
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
  return best;
}

void DramSystem::skip_ticks(Tick from, Tick to) {
  BWPART_ASSERT(to > from, "empty skip range");
  BWPART_ASSERT(!ticked_ || from == last_tick_ + 1,
                "skip_ticks must continue the tick sequence");
  const std::uint64_t n = to - from;
  stats_.ticks += n;
  if (cfg_.enable_powerdown) {
    for (const RankState& r : ranks_) {
      if (r.pd) stats_.powerdown_rank_ticks += n;
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
        const Location pre_loc{channel, rank, b, banks_.row_value(bi), 0};
        checker_.observe({CommandType::Precharge, pre_loc, kNoApp, 0}, now);
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
  checker_.observe_refresh(channel, rank, now);
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
  checker_.observe(cmd, now);
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

void DramSystem::transfer(snap::Io& io) {
  io.tag("DRAM");
  banks_.transfer(io);
  io.fixed(ranks_, "DRAM rank count differs from the snapshot's",
           [&io](RankState& rk) {
             io.u64(rk.last_act);
             io.b(rk.any_act);
             for (Tick& t : rk.act_window) io.u64(t);
             io.u32(rk.act_count);
             io.u64(rk.last_col);
             io.b(rk.any_col);
             io.u64(rk.write_data_end);
             io.b(rk.any_write);
             io.u64(rk.next_refresh_due);
             io.b(rk.refresh_pending);
             io.u64(rk.last_activity);
             io.b(rk.pd);
             io.b(rk.waking);
             io.u64(rk.wake_ready);
           });
  io.fixed(chans_, "DRAM channel count differs from the snapshot's",
           [&io](ChannelState& ch) {
             io.u64(ch.bus_free_at);
             io.u32(ch.bus_last_rank);
             io.b(ch.bus_has_last);
           });
  io.u64(stats_.activates);
  io.u64(stats_.reads);
  io.u64(stats_.writes);
  io.u64(stats_.precharges);
  io.u64(stats_.refreshes);
  io.u64(stats_.data_bus_busy_ticks);
  io.u64(stats_.ticks);
  io.u64(stats_.powerdown_rank_ticks);
  io.u32(stats_.channels);
  io.fixed(stats_.channel_busy_ticks,
           "per-channel stats arity differs from the snapshot's");
  io.u64(last_tick_);
  io.b(ticked_);
  // The shadow-checker section: a presence flag, always 1, then the
  // length-prefixed shadow state. Without the section the shadow would
  // start out of step with the engine and report false violations.
  bool has_checker = true;
  io.b(has_checker);
  snap::require(has_checker, "snapshot lacks the protocol-checker section");
  std::vector<std::uint8_t> section;
  if (!io.reading()) {
    snap::Writer sub;
    snap::save(checker_, sub);
    section = sub.take();
  }
  io.bytes(section);
  if (io.reading()) {
    snap::Reader sub(section);
    snap::restore(checker_, sub);
    snap::require(sub.at_end(), "protocol-checker section length mismatch");
    rebuild_refresh_cache();  // derived hot-path caches, never serialized
    rebuild_ready_ticks();
    require_shadow_agrees();
  }
}

void DramSystem::require_shadow_agrees() const {
  const ReadyTicks ready = ready_ticks();
  for (std::uint32_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::uint32_t rk = 0; rk < cfg_.ranks; ++rk) {
      const RankState& r = rank_at(ch, rk);
      snap::require(checker_.same_act_window(ch, rk, r.act_window,
                                             r.act_count),
                    "protocol-checker section holds another four-activate "
                    "window than the DRAM state");
      const std::array<Tick, kCmdClasses> rank = rank_timing(r);
      for (std::uint32_t bk = 0; bk < cfg_.banks_per_rank; ++bk) {
        const std::size_t b = bank_index({ch, rk, bk, 0, 0});
        const Location loc{ch, rk, bk, banks_.row_value(b), 0};
        for (std::size_t c = 0; c < kCmdClasses; ++c) {
          const auto cls = static_cast<CmdClass>(c);
          const Tick at =
              std::max({next_tick(), ready.bank[b * kCmdClasses + c],
                        rank[c], ready.bus_at(b, cls)});
          // Row state counts for the commands the bank's state admits: an
          // ACT to a closed bank, the others to its open row.
          const bool row_state = (cls == CmdClass::Activate) !=
                                 banks_.row_open(b);
          snap::require(checker_.allows({class_cmd_[c], loc, kNoApp, 0}, at,
                                        row_state),
                        "protocol-checker section flags a command the DRAM "
                        "state allows");
        }
      }
    }
  }
}

}  // namespace bwpart::dram
