// Shadow DRAM protocol checker: an independent re-derivation of the JEDEC
// timing rules that validates every command the engine issues. DramSystem
// folds constraints into per-bank "next legal tick" deadlines for speed;
// this checker instead records raw command history (last ACT tick, last
// column tick, write-data end, ...) and re-derives each rule from first
// principles at observation time — double-entry bookkeeping for timing
// state. A disagreement means one of the two implementations bent a rule,
// which is exactly what a perf-motivated scheduler or engine refactor is
// most likely to break silently.
//
// The checker is wired into DramSystem::issue() when the build defines
// BWPART_CHECK, and can also be driven standalone against a hand-written
// command stream (the negative tests in tests/property do this to prove
// violations are caught). Violations are routed through check::report with
// the JEDEC rule name (tRCD, tFAW, ...) in the message.
#pragma once

#include <cstdint>
#include <vector>

#include "common/snapshot_io.hpp"
#include "dram/command.hpp"
#include "dram/config.hpp"

namespace bwpart::dram {

class ProtocolChecker {
 public:
  explicit ProtocolChecker(const DramConfig& cfg);

  /// Validates `cmd` at bus tick `now` against the shadow state, reports
  /// each violated rule via check::report, then applies the command to the
  /// shadow (so one bad command does not cascade into spurious reports).
  /// Returns the number of violations detected for this command.
  int observe(const Command& cmd, Tick now);

  /// The engine's internal all-bank refresh of one rank (never visible as
  /// an external Command). All banks must be precharged and recovered.
  int observe_refresh(std::uint32_t channel, std::uint32_t rank, Tick now);

  /// Whether `cmd` at `now` passes the shadow's rules, its row-state rules
  /// only when `row_state`. Reads only: nothing is reported or applied.
  bool allows(const Command& cmd, Tick now, bool row_state) const;
  /// Whether the rank's last four ACT ticks, in the order the tFAW rule
  /// will meet them, are those of the ring `window` after `count` ACTs.
  bool same_act_window(std::uint32_t channel, std::uint32_t rank,
                       const Tick (&window)[4], std::uint32_t count) const;

  std::uint64_t commands_checked() const { return commands_checked_; }
  std::uint64_t violations() const { return violations_; }

  /// Snapshot hook: the complete shadow state, so a restored checker keeps
  /// validating from the cut point without spurious violations.
  void transfer(snap::Io& io);

 private:
  struct BankShadow {
    bool open = false;
    std::uint64_t row = 0;
    bool any_act = false;
    Tick act_tick = 0;  ///< tick of the ACT that opened the current row
    bool any_rd = false;
    Tick last_rd = 0;  ///< last read command tick
    bool any_wr = false;
    Tick wr_data_end = 0;  ///< last write's final data beat
    bool any_pre = false;
    Tick pre_tick = 0;  ///< tick the most recent precharge began
    bool any_ref = false;
    Tick ref_end = 0;  ///< refresh completion (start + tRFC)
  };

  struct RankShadow {
    bool any_act = false;
    Tick last_act = 0;
    Tick act_window[4] = {};  ///< ring buffer of ACT ticks for tFAW
    std::uint32_t act_count = 0;
    bool any_col = false;
    Tick last_col = 0;
    bool any_wr = false;
    Tick wr_data_end = 0;
  };

  struct ChannelShadow {
    bool bus_used = false;
    Tick bus_free_at = 0;
    std::uint32_t bus_last_rank = 0;
  };

  BankShadow& bank_at(const Location& loc);
  RankShadow& rank_at(std::uint32_t channel, std::uint32_t rank);
  const BankShadow& bank_at(const Location& loc) const {
    return const_cast<ProtocolChecker*>(this)->bank_at(loc);
  }
  const RankShadow& rank_at(std::uint32_t channel, std::uint32_t rank) const {
    return const_cast<ProtocolChecker*>(this)->rank_at(channel, rank);
  }

  /// Reports "<rule> violated ..." and bumps the violation count.
  void violate(const Command& cmd, Tick now, const char* rule,
               const char* detail);

  /// Calls `flag(rule, detail)` for each rule `cmd` at `now` breaks
  /// against the shadow state; the row-state rules only when `row_state`.
  template <typename Flag>
  void rules(const Command& cmd, Tick now, bool row_state, Flag&& flag) const;
  void apply(const Command& cmd, Tick now);

  DramConfig cfg_;
  TimingsTicks t_;
  std::vector<BankShadow> banks_;
  std::vector<RankShadow> ranks_;
  std::vector<ChannelShadow> chans_;
  std::uint64_t commands_checked_ = 0;
  std::uint64_t violations_ = 0;
  int current_cmd_violations_ = 0;
};

}  // namespace bwpart::dram
