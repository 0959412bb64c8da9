#include "dram/protocol_checker.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/assert.hpp"
#include "common/check.hpp"

namespace bwpart::dram {

ProtocolChecker::ProtocolChecker(const DramConfig& cfg)
    : cfg_(cfg),
      t_(cfg.ticks()),
      banks_(static_cast<std::size_t>(cfg.channels) * cfg.ranks *
             cfg.banks_per_rank),
      ranks_(static_cast<std::size_t>(cfg.channels) * cfg.ranks),
      chans_(cfg.channels) {}

ProtocolChecker::BankShadow& ProtocolChecker::bank_at(const Location& loc) {
  const std::size_t idx =
      (static_cast<std::size_t>(loc.channel) * cfg_.ranks + loc.rank) *
          cfg_.banks_per_rank +
      loc.bank;
  BWPART_ASSERT(idx < banks_.size(), "checker bank index out of range");
  return banks_[idx];
}

ProtocolChecker::RankShadow& ProtocolChecker::rank_at(std::uint32_t channel,
                                                      std::uint32_t rank) {
  const std::size_t idx =
      static_cast<std::size_t>(channel) * cfg_.ranks + rank;
  BWPART_ASSERT(idx < ranks_.size(), "checker rank index out of range");
  return ranks_[idx];
}

void ProtocolChecker::violate(const Command& cmd, Tick now, const char* rule,
                              const char* detail) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "DRAM protocol: %s violated by %s at tick %llu "
                "(ch %u rank %u bank %u row %llu): %s",
                rule, to_string(cmd.type),
                static_cast<unsigned long long>(now), cmd.loc.channel,
                cmd.loc.rank, cmd.loc.bank,
                static_cast<unsigned long long>(cmd.loc.row), detail);
  ++violations_;
  ++current_cmd_violations_;
  check::report(buf, __FILE__, __LINE__);
}

template <typename Flag>
void ProtocolChecker::rules(const Command& cmd, Tick now, bool row_state,
                            Flag&& flag) const {
  const BankShadow& b = bank_at(cmd.loc);
  const RankShadow& r = rank_at(cmd.loc.channel, cmd.loc.rank);
  switch (cmd.type) {
    case CommandType::Activate:
      if (row_state && b.open) {
        flag("row-state ordering", "ACT to a bank with an open row");
      }
      if (b.any_pre && now < b.pre_tick + t_.rp) {
        flag("tRP", "ACT before precharge recovery completed");
      }
      if (b.any_ref && now < b.ref_end) {
        flag("tRFC", "ACT while the bank is refreshing");
      }
      if (r.any_act && now < r.last_act + t_.rrd) {
        flag("tRRD", "ACT too soon after the rank's last ACT");
      }
      if (r.act_count >= 4 && now < r.act_window[r.act_count % 4] + t_.faw) {
        flag("tFAW", "fifth ACT inside the rank's four-activate window");
      }
      break;
    case CommandType::Read:
    case CommandType::ReadAp:
    case CommandType::Write:
    case CommandType::WriteAp: {
      const ChannelShadow& ch = chans_[cmd.loc.channel];
      if (row_state && !b.open) {
        flag("row-state ordering", "column access to a closed bank");
      } else if (row_state && b.row != cmd.loc.row) {
        flag("row-state ordering",
             "column access to a different row than the open one");
      }
      // Posted CAS: the device executes the column command internally tAL
      // after it is issued, so tRCD applies to now + tAL, not to now.
      // Derived here from the raw parameter set independently of the
      // engine's act_to_col = tRCD - tAL saturating subtraction.
      if (b.any_act && now + t_.al < b.act_tick + t_.rcd) {
        flag("tRCD", "column access before activate-to-column delay");
      }
      if (r.any_col && now < r.last_col + t_.ccd) {
        flag("tCCD", "column command too soon after the rank's last");
      }
      if (is_read_command(cmd.type) && r.any_wr &&
          now < r.wr_data_end + t_.wtr) {
        flag("tWTR", "read before write-to-read turnaround elapsed");
      }
      // Shared data bus occupancy, including the rank-switch gap. Data
      // moves tAL later under posted CAS.
      const Tick data_start =
          now + t_.al + (is_read_command(cmd.type) ? t_.cl : t_.cwl);
      if (ch.bus_used) {
        const Tick gap = ch.bus_last_rank != cmd.loc.rank ? t_.rtrs : 0;
        if (data_start < ch.bus_free_at + gap) {
          flag("data-bus occupancy",
               gap > 0 ? "burst overlaps previous burst plus tRTRS gap"
                       : "burst overlaps the previous data burst");
        }
      }
      break;
    }
    case CommandType::Precharge:
      if (row_state && !b.open) {
        flag("row-state ordering", "PRE to an already closed bank");
        break;
      }
      if (b.any_act && now < b.act_tick + t_.ras) {
        flag("tRAS", "PRE before the row was open tRAS");
      }
      // tRTP runs from the internal read (issue + tAL under posted CAS).
      if (b.any_rd && now < b.last_rd + t_.al + t_.rtp) {
        flag("tRTP", "PRE before read-to-precharge delay");
      }
      if (b.any_wr && now < b.wr_data_end + t_.wr) {
        flag("tWR", "PRE before write recovery completed");
      }
      break;
    case CommandType::Refresh:
      flag("command routing", "REF must be observed via observe_refresh");
      break;
  }
}

void ProtocolChecker::apply(const Command& cmd, Tick now) {
  BankShadow& b = bank_at(cmd.loc);
  RankShadow& r = rank_at(cmd.loc.channel, cmd.loc.rank);
  ChannelShadow& ch = chans_[cmd.loc.channel];
  switch (cmd.type) {
    case CommandType::Activate:
      b.open = true;
      b.row = cmd.loc.row;
      b.any_act = true;
      b.act_tick = now;
      r.act_window[r.act_count % 4] = now;
      ++r.act_count;
      r.last_act = now;
      r.any_act = true;
      break;
    case CommandType::Read:
    case CommandType::ReadAp: {
      b.any_rd = true;
      b.last_rd = now;
      r.any_col = true;
      r.last_col = now;
      const Tick data_start = now + t_.al + t_.cl;
      ch.bus_used = true;
      ch.bus_free_at = data_start + t_.burst;
      ch.bus_last_rank = cmd.loc.rank;
      if (cmd.type == CommandType::ReadAp) {
        // The auto-precharge begins once both tRAS and tRTP are satisfied
        // (tRTP counted from the internal read under posted CAS).
        b.open = false;
        b.any_pre = true;
        b.pre_tick = std::max(b.act_tick + t_.ras, now + t_.al + t_.rtp);
      }
      break;
    }
    case CommandType::Write:
    case CommandType::WriteAp: {
      const Tick data_end = now + t_.al + t_.cwl + t_.burst;
      b.any_wr = true;
      b.wr_data_end = data_end;
      r.any_col = true;
      r.last_col = now;
      r.any_wr = true;
      r.wr_data_end = data_end;
      ch.bus_used = true;
      ch.bus_free_at = data_end;
      ch.bus_last_rank = cmd.loc.rank;
      if (cmd.type == CommandType::WriteAp) {
        b.open = false;
        b.any_pre = true;
        b.pre_tick = std::max(b.act_tick + t_.ras, data_end + t_.wr);
      }
      break;
    }
    case CommandType::Precharge:
      b.open = false;
      b.any_pre = true;
      b.pre_tick = now;
      break;
    case CommandType::Refresh:
      BWPART_ASSERT(false, "refresh goes through observe_refresh");
      break;
  }
}

int ProtocolChecker::observe(const Command& cmd, Tick now) {
  ++commands_checked_;
  current_cmd_violations_ = 0;
  rules(cmd, now, true, [&](const char* rule, const char* detail) {
    violate(cmd, now, rule, detail);
  });
  if (cmd.type != CommandType::Refresh) apply(cmd, now);
  return current_cmd_violations_;
}

bool ProtocolChecker::allows(const Command& cmd, Tick now,
                             bool row_state) const {
  bool ok = true;
  rules(cmd, now, row_state, [&ok](const char*, const char*) { ok = false; });
  return ok;
}

bool ProtocolChecker::same_act_window(std::uint32_t channel,
                                      std::uint32_t rank,
                                      const Tick (&window)[4],
                                      std::uint32_t count) const {
  const RankShadow& r = rank_at(channel, rank);
  for (std::uint32_t i = 0; i < 4; ++i) {
    if (r.act_window[(r.act_count + i) % 4] != window[(count + i) % 4]) {
      return false;
    }
  }
  return true;
}

int ProtocolChecker::observe_refresh(std::uint32_t channel, std::uint32_t rank,
                                     Tick now) {
  ++commands_checked_;
  current_cmd_violations_ = 0;
  Command ref{CommandType::Refresh, Location{channel, rank, 0, 0, 0}, kNoApp,
              0};
  for (std::uint32_t bk = 0; bk < cfg_.banks_per_rank; ++bk) {
    ref.loc.bank = bk;
    BankShadow& b = bank_at(ref.loc);
    if (b.open) {
      violate(ref, now, "row-state ordering", "REF with an open row");
    }
    if (b.any_pre && now < b.pre_tick + t_.rp) {
      violate(ref, now, "tRP", "REF before precharge recovery completed");
    }
    b.any_ref = true;
    b.ref_end = now + t_.rfc;
  }
  return current_cmd_violations_;
}

void ProtocolChecker::transfer(snap::Io& io) {
  io.tag("PCHK");
  io.fixed(banks_, "protocol-checker bank count differs from the snapshot's",
           [&io](BankShadow& b) {
             io.b(b.open);
             io.u64(b.row);
             io.b(b.any_act);
             io.u64(b.act_tick);
             io.b(b.any_rd);
             io.u64(b.last_rd);
             io.b(b.any_wr);
             io.u64(b.wr_data_end);
             io.b(b.any_pre);
             io.u64(b.pre_tick);
             io.b(b.any_ref);
             io.u64(b.ref_end);
           });
  io.fixed(ranks_, "protocol-checker rank count differs from the snapshot's",
           [&io](RankShadow& rk) {
             io.b(rk.any_act);
             io.u64(rk.last_act);
             for (Tick& t : rk.act_window) io.u64(t);
             io.u32(rk.act_count);
             io.b(rk.any_col);
             io.u64(rk.last_col);
             io.b(rk.any_wr);
             io.u64(rk.wr_data_end);
           });
  io.fixed(chans_,
           "protocol-checker channel count differs from the snapshot's",
           [&io](ChannelShadow& ch) {
             io.b(ch.bus_used);
             io.u64(ch.bus_free_at);
             io.u32(ch.bus_last_rank);
           });
  io.u64(commands_checked_);
  io.u64(violations_);
  auto current = static_cast<std::uint32_t>(current_cmd_violations_);
  io.u32(current);
  if (io.reading()) current_cmd_violations_ = static_cast<int>(current);
}

}  // namespace bwpart::dram
