// Channel-level DRAM engine in the style of DRAMSim2: per-bank state
// machines plus rank constraints (tRRD, tFAW, tWTR, refresh) and the shared
// data bus. The memory controller decides *which* request to serve; this
// class decides *whether* a specific DRAM command is legal right now and
// evolves device state when it issues.
//
// Hot-path layout: every timing rule is derived once, where the state it
// reads changes, into a *ready tick* per command class (CmdClass) at the
// level the rule lives on: the bank (its next-legal ticks, in BankArray),
// the rank (tRRD, tFAW, tCCD, tWTR, refresh drain, power-down) and the data
// bus per (channel, rank) (burst occupancy plus the tRTRS switch gap). A
// command is legal at the first tick no earlier than all three, once its
// bank is in the row state it needs. can_issue and earliest_issue_tick are
// thin reads of the tables, and the controller's per-tick scheduler scan
// reads them directly through ReadyTicks.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hpp"
#include "dram/address_map.hpp"
#include "dram/bank.hpp"
#include "dram/command.hpp"
#include "dram/config.hpp"
#include "dram/protocol_checker.hpp"
#include "dram/timing_table.hpp"

namespace bwpart::dram {

/// "No such tick" sentinel for the event-query API (never a valid tick).
inline constexpr Tick kNoTick = std::numeric_limits<Tick>::max();

struct DramStats {
  std::uint64_t activates = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t precharges = 0;  // explicit PRE commands only
  std::uint64_t refreshes = 0;
  std::uint64_t data_bus_busy_ticks = 0;  ///< summed over all channels
  std::uint64_t ticks = 0;
  /// Sum over ranks of ticks spent in precharge power-down.
  std::uint64_t powerdown_rank_ticks = 0;
  /// Number of channels busy ticks are summed over (set by DramSystem).
  std::uint32_t channels = 1;

  /// Per-channel split of data_bus_busy_ticks (observability: the epoch
  /// sampler derives per-channel utilization from deltas of these). Always
  /// sums to data_bus_busy_ticks; sized to `channels`.
  std::vector<std::uint64_t> channel_busy_ticks;

  std::uint64_t column_accesses() const { return reads + writes; }
  /// Fraction of tick-channel slots that carried data (bandwidth
  /// utilization across the whole memory system, always in [0, 1]).
  double bus_utilization() const {
    return ticks == 0 ? 0.0
                      : static_cast<double>(data_bus_busy_ticks) /
                            (static_cast<double>(ticks) *
                             static_cast<double>(channels));
  }
  /// Utilization of one channel's data bus, in [0, 1].
  double channel_utilization(std::uint32_t channel) const {
    return ticks == 0 ? 0.0
                      : static_cast<double>(channel_busy_ticks[channel]) /
                            static_cast<double>(ticks);
  }
};

/// Result of issuing a command. For column commands, `data_finish` is the
/// bus tick at which the last data beat has transferred (request complete).
struct IssueResult {
  Tick data_finish = 0;
};

/// Read-only view of the engine's ready-tick tables, for loops that query
/// many requests per tick (the controller's scheduler scan). Take it once
/// per loop; the pointers stay valid for the engine's lifetime, since the
/// tables never resize after construction.
struct ReadyTicks {
  const std::uint64_t* open_row;  ///< per flat bank: open row or kNoRow
  const Tick* bank;               ///< [flat bank * kCmdClasses + class]
  const Tick* rank;               ///< [flat rank * kCmdClasses + class]
  const Tick* bus;                ///< [flat rank * kCmdClasses + class]
  /// Flat bank >> rank_shift is its flat rank (banks per rank is a power
  /// of two).
  unsigned rank_shift;

  /// Class of the next command a request for row `r` at flat bank `b`
  /// needs, without branching: closed bank -> Activate, other row open ->
  /// Precharge, row hit -> Read or Write.
  CmdClass class_at(std::size_t b, std::uint64_t r, bool is_write) const {
    const std::uint64_t open = open_row[b];
    const unsigned is_open = open != kNoRow ? 1u : 0u;
    const unsigned hit = is_open & (open == r ? 1u : 0u);
    return static_cast<CmdClass>(is_open + hit + (hit & (is_write ? 1u : 0u)));
  }
  /// First tick both bank `b` and its rank allow class `c`: kNoTick while
  /// the rank is powered down, or draining for refresh when `c` is
  /// Activate.
  Tick bank_rank(std::size_t b, CmdClass c) const {
    const auto ci = static_cast<std::size_t>(c);
    return std::max(bank[b * kCmdClasses + ci],
                    rank[(b >> rank_shift) * kCmdClasses + ci]);
  }
  /// First tick the data bus takes a class-`c` burst from bank `b`'s rank
  /// (0 for Activate and Precharge, which move no data).
  Tick bus_at(std::size_t b, CmdClass c) const {
    return bus[(b >> rank_shift) * kCmdClasses + static_cast<std::size_t>(c)];
  }
  /// First tick a class-`c` command to bank `b` is legal, provided the bank
  /// is in the row state the class needs.
  Tick issue_tick(std::size_t b, CmdClass c) const {
    return std::max(bank_rank(b, c), bus_at(b, c));
  }
};

class DramSystem {
 public:
  explicit DramSystem(const DramConfig& cfg,
                      MapScheme scheme = MapScheme::ChanRowColBankRank);

  const DramConfig& config() const { return cfg_; }
  const TimingsTicks& timings() const { return t_; }
  const CmdTimings& cmd_timings() const { return tt_; }
  const AddressMap& mapper() const { return map_; }
  const DramStats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = DramStats{};
    stats_.channels = cfg_.channels;
    stats_.channel_busy_ticks.assign(cfg_.channels, 0);
  }

  /// Flattened bank index of a location ([channel][rank][bank]) — the key
  /// into every `*_at` hot-path query below.
  std::size_t bank_index(const Location& loc) const {
    return (static_cast<std::size_t>(loc.channel) * cfg_.ranks + loc.rank) *
               cfg_.banks_per_rank +
           loc.bank;
  }
  /// The tick the next tick() or skip_ticks() must start at.
  Tick next_tick() const { return ticked_ ? last_tick_ + 1 : 0; }
  /// Flattened rank index of a location ([channel][rank]).
  std::size_t rank_index(const Location& loc) const {
    return static_cast<std::size_t>(loc.channel) * cfg_.ranks + loc.rank;
  }

  /// Advances device-internal housekeeping (refresh scheduling) to `now`.
  /// Must be called once per bus tick, before can_issue/issue. O(1) when no
  /// refresh is due or draining and power-down is off (the common case) via
  /// a cached minimum next-refresh deadline.
  void tick(Tick now);

  /// Earliest tick >= `from` at which tick() could change device state on
  /// its own while no request waits on any rank: a refresh deadline
  /// arriving, a refresh drain making progress (a bank becoming closable or
  /// the refresh firing), or an idle rank becoming eligible to enter
  /// power-down. No rank is then waking: a wake-up starts with a notify,
  /// and the notifying request waits until the rank is up. Returns kNoTick
  /// when no internal event can ever fire from the current state.
  /// Conservative in the safe direction: it may report a tick at which
  /// nothing happens, but never skips past a state change.
  Tick next_event_tick(Tick from) const;

  /// Earliest tick >= `from` at which `cmd` could first pass can_issue(),
  /// assuming device state stays frozen until then (no other command
  /// issues, no refresh/power-down event fires). Exact for pure timing
  /// constraints; returns kNoTick when the command is blocked on a state
  /// change instead (powered-down rank, refresh-pending Activate, wrong /
  /// missing open row), whose timing next_event_tick() covers. A read of
  /// the bank's row state, then of each ready-tick table.
  Tick earliest_issue_tick(const Command& cmd, Tick from) const;

  /// Batch-advances time over [from, to), a range with no notify that
  /// next_event_tick() proved dead: accounts the skipped ticks in the stats
  /// (including per-rank power-down residency). `from` must continue the
  /// tick sequence and `to` must not exceed the next event tick.
  void skip_ticks(Tick from, Tick to);

  /// True if the bank addressed by `loc` currently has `loc.row` open.
  bool is_row_hit(const Location& loc) const {
    const std::size_t b = bank_index(loc);
    return banks_.row_open(b) && banks_.open_row(b) == loc.row;
  }
  /// True if the addressed bank has any row open.
  bool is_row_open(const Location& loc) const {
    return banks_.row_open(bank_index(loc));
  }

  /// The next command a request at `loc` needs, honouring the page policy:
  /// row hit -> column command; open conflicting row -> Precharge;
  /// closed bank -> Activate.
  CommandType required_command(const Location& loc, AccessType type) const {
    return command_of(ready_ticks().class_at(bank_index(loc), loc.row,
                                             type == AccessType::Write));
  }
  /// The command a request of class `c` issues: column classes carry
  /// auto-precharge under the close-page policy.
  CommandType command_of(CmdClass c) const {
    return class_cmd_[static_cast<std::size_t>(c)];
  }

  /// Checks every timing constraint (bank, rank, bus, pending refresh) for
  /// issuing `cmd` at tick `now`: legal exactly when its earliest issue
  /// tick is `now`.
  bool can_issue(const Command& cmd, Tick now) const {
    return earliest_issue_tick(cmd, now) == now;
  }

  /// The ready-tick tables behind every legality query (see ReadyTicks).
  ReadyTicks ready_ticks() const {
    return {banks_.open_row_data(), banks_.ready_data(), rank_ready_.data(),
            bus_ready_.data(), rank_shift_};
  }

  /// Issues `cmd`; all constraints must hold (checked).
  IssueResult issue(const Command& cmd, Tick now);

  /// True while a rank in the channel is draining for / undergoing refresh.
  /// Exposed so interference accounting can distinguish refresh stalls from
  /// inter-application interference.
  bool refresh_blocked(std::uint32_t channel, std::uint32_t rank) const;

  /// Power-down management (when cfg.enable_powerdown): the controller
  /// calls this each tick for every rank that has pending requests; a
  /// powered-down rank then begins its tXP wake-up. Idle ranks drop into
  /// power-down automatically inside tick().
  void notify_rank_pending(std::uint32_t channel, std::uint32_t rank,
                           Tick now);
  bool powered_down(std::uint32_t channel, std::uint32_t rank) const;

  /// The shadow protocol checker validating every issued command.
  const ProtocolChecker& protocol_checker() const { return checker_; }

  /// Snapshot hook: every bank/rank/channel state machine, the stats block
  /// and the tick cursor. Derived hot-path caches (the refresh-deadline
  /// minimum, the pending-refresh count and the rank and bus ready ticks)
  /// are rebuilt from the restored rank and channel state, not serialized.
  /// The shadow protocol checker travels as a flagged, length-prefixed
  /// section: restoring a snapshot whose flag says it has none fails
  /// loudly (the shadow would be out of sync and report false violations).
  /// A restored shadow must also agree with the restored engine (see
  /// require_shadow_agrees), or the restore fails.
  void transfer(snap::Io& io);

 private:
  struct RankState {
    Tick last_act = 0;           // tRRD reference; 0 means "none yet"
    bool any_act = false;
    Tick act_window[4] = {};     // ring buffer of recent ACT ticks (tFAW)
    std::uint32_t act_count = 0; // total ACTs (ring index = count % 4)
    Tick last_col = 0;           // tCCD reference
    bool any_col = false;
    Tick write_data_end = 0;     // tWTR reference
    bool any_write = false;
    Tick next_refresh_due = 0;
    bool refresh_pending = false;
    // Precharge power-down state.
    Tick last_activity = 0;
    bool pd = false;
    bool waking = false;
    Tick wake_ready = 0;
  };

  struct ChannelState {
    Tick bus_free_at = 0;  // first tick the data bus is free
    std::uint32_t bus_last_rank = 0;  // rank of the last data burst (tRTRS)
    bool bus_has_last = false;
  };

  RankState& rank_at(std::uint32_t channel, std::uint32_t rank);
  const RankState& rank_at(std::uint32_t channel, std::uint32_t rank) const;

  /// Re-derives rank `rank_idx`'s ready ticks from its RankState. Called
  /// wherever that state changes: issue, refresh drain start and finish,
  /// power-down entry and exit, restore.
  void refresh_rank_ready(std::size_t rank_idx);
  /// Re-derives the bus ready ticks of every rank on `channel` from its
  /// ChannelState (after each column command, and on restore).
  void refresh_bus_ready(std::uint32_t channel);
  /// Both of the above for every rank and channel (construction, restore).
  void rebuild_ready_ticks();
  void update_powerdown(RankState& r, std::uint32_t channel,
                        std::uint32_t rank, Tick now);
  /// Attempts to start the pending refresh of one rank.
  void try_refresh(std::uint32_t channel, std::uint32_t rank, Tick now);
  /// The per-rank housekeeping loop behind tick()'s O(1) fast-out.
  void tick_slow(Tick now);
  /// Rebuilds the cached refresh aggregates (pending count, earliest
  /// not-yet-pending deadline) from the rank states.
  void rebuild_refresh_cache();
  /// Rank `r`'s timing floor per class (tRRD and tFAW, tCCD, tWTR),
  /// before power-down and refresh drain block it.
  std::array<Tick, kCmdClasses> rank_timing(const RankState& r) const;
  /// Throws snap::SnapshotError unless the shadow checker agrees with the
  /// engine, which it otherwise would flag after a resume: the same
  /// four-activate windows, and every command class at every bank passing
  /// the shadow at the first tick the engine's timing allows it.
  void require_shadow_agrees() const;

  DramConfig cfg_;
  TimingsTicks t_;
  CmdTimings tt_;
  AddressMap map_;
  BankArray banks_;                  // SoA, [channel][rank][bank] flattened
  std::vector<RankState> ranks_;     // [channel][rank] flattened
  std::vector<ChannelState> chans_;  // [channel]
  /// Rank ready ticks, [flat rank * kCmdClasses + class]: tRRD and tFAW
  /// for Activate, tCCD (plus tWTR for Read) for the column classes; every
  /// class is kNoTick while the rank is powered down, and Activate while it
  /// drains for refresh.
  std::vector<Tick> rank_ready_;
  /// Data-bus ready ticks, [flat rank * kCmdClasses + class]: the first
  /// command tick whose burst from that rank clears the channel's last
  /// burst plus the tRTRS gap on a rank switch. Zero for ACT and PRE.
  std::vector<Tick> bus_ready_;
  ProtocolChecker checker_{cfg_};  // shadow model
  DramStats stats_;
  /// command_of() table: the command each class issues under the policy.
  std::array<CommandType, kCmdClasses> class_cmd_;
  unsigned rank_shift_ = 0;  ///< log2(banks_per_rank), see ReadyTicks
  Tick pd_threshold_ = 0;
  Tick last_tick_ = 0;
  bool ticked_ = false;
  /// Hot-path refresh cache: how many ranks currently have a refresh
  /// pending, and — valid whenever that count is zero — the earliest
  /// next_refresh_due over all ranks. tick() is O(1) while now is before
  /// the deadline and nothing is draining.
  std::uint32_t refresh_pending_count_ = 0;
  Tick min_refresh_due_ = kNoTick;
};

// ---------------------------------------------------------------------------
// Inline queries. The controller's per-tick loops read the ready tables
// through ReadyTicks; these serve the Command-based entry points and the
// per-tick housekeeping.

inline DramSystem::RankState& DramSystem::rank_at(std::uint32_t channel,
                                                  std::uint32_t rank) {
  const std::size_t idx =
      static_cast<std::size_t>(channel) * cfg_.ranks + rank;
  BWPART_ASSERT(idx < ranks_.size(), "rank index out of range");
  return ranks_[idx];
}

inline const DramSystem::RankState& DramSystem::rank_at(
    std::uint32_t channel, std::uint32_t rank) const {
  return const_cast<DramSystem*>(this)->rank_at(channel, rank);
}

inline Tick DramSystem::earliest_issue_tick(const Command& cmd,
                                            Tick from) const {
  if (cmd.type == CommandType::Refresh) return kNoTick;  // internal to tick()
  // The bank must be in the row state the command needs; a wrong or
  // missing open row is a state change away, which next_event_tick()
  // covers.
  const std::size_t b = bank_index(cmd.loc);
  const bool open = banks_.row_open(b);
  const CmdClass c = class_of(cmd.type);
  const bool row_state_ok =
      c == CmdClass::Activate    ? !open
      : c == CmdClass::Precharge ? open
                                 : open && banks_.open_row(b) == cmd.loc.row;
  if (!row_state_ok) return kNoTick;
  return std::max(from, ready_ticks().issue_tick(b, c));
}

inline void DramSystem::tick(Tick now) {
  BWPART_ASSERT(!ticked_ || now == last_tick_ + 1,
                "DramSystem::tick must advance one tick at a time");
  last_tick_ = now;
  ticked_ = true;
  ++stats_.ticks;
  if (!cfg_.enable_refresh && !cfg_.enable_powerdown) return;
  // Fast-out: with power-down off, nothing can happen before the earliest
  // refresh deadline unless a drain is already in progress.
  if (!cfg_.enable_powerdown && refresh_pending_count_ == 0 &&
      now < min_refresh_due_) {
    return;
  }
  tick_slow(now);
}

}  // namespace bwpart::dram
