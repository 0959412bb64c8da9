// The shadow DRAM protocol checker: (a) differential properties — random
// request streams driven through the real engine must produce zero shadow
// violations (engine and checker re-derive the JEDEC rules independently),
// and every command's earliest issue tick must be exactly the first tick
// the shadow accepts it; (b) negative tests — hand-written command streams
// that break tFAW, tRCD, tRP, tRAS and row-state ordering must each be
// caught and named.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/pbt.hpp"
#include "dram/dram_system.hpp"
#include "dram/protocol_checker.hpp"

namespace bwpart::dram {
namespace {

// DDR2-400 tick values (5 ns bus tick): rcd=rp=cl=3, ras=8, rrd=2, faw=8,
// rtp=wtr=ccd=2, wr=3, burst=4. The tFAW tests stretch tfaw to 100 ns
// (20 ticks) so a tFAW break can be staged without also breaking tRRD
// (at stock DDR2-400, 4 x rrd == faw makes that impossible).
DramConfig faw_stretched() {
  DramConfig cfg = DramConfig::ddr2_400();
  cfg.t.tfaw = 100.0;
  return cfg;
}

Command act(std::uint32_t bank, std::uint64_t row) {
  return Command{CommandType::Activate, Location{0, 0, bank, row, 0}, 0, 0};
}
Command rd(std::uint32_t bank, std::uint64_t row) {
  return Command{CommandType::Read, Location{0, 0, bank, row, 0}, 0, 0};
}
Command pre(std::uint32_t bank) {
  return Command{CommandType::Precharge, Location{0, 0, bank, 0, 0}, 0, 0};
}

TEST(ProtocolCheckerNegative, LegalCloseRowSequencePasses) {
  check::Recorder rec;
  ProtocolChecker pc(DramConfig::ddr2_400());
  EXPECT_EQ(pc.observe(act(0, 7), 0), 0);
  EXPECT_EQ(pc.observe(rd(0, 7), 3), 0);    // tRCD = 3 satisfied
  EXPECT_EQ(pc.observe(pre(0), 8), 0);      // tRAS = 8, tRTP = 2 satisfied
  EXPECT_EQ(pc.observe(act(0, 9), 11), 0);  // tRP = 3 satisfied
  EXPECT_EQ(pc.violations(), 0u);
  EXPECT_EQ(pc.commands_checked(), 4u);
  EXPECT_EQ(rec.count(), 0u);
}

TEST(ProtocolCheckerNegative, FifthActivateInsideFawWindowIsCaught) {
  check::Recorder rec;
  ProtocolChecker pc(faw_stretched());  // faw = 20 ticks, rrd = 2 ticks
  // Four ACTs to distinct banks, 3 ticks apart: tRRD satisfied, window
  // legal (only 4 in flight).
  EXPECT_EQ(pc.observe(act(0, 1), 0), 0);
  EXPECT_EQ(pc.observe(act(1, 1), 3), 0);
  EXPECT_EQ(pc.observe(act(2, 1), 6), 0);
  EXPECT_EQ(pc.observe(act(3, 1), 9), 0);
  ASSERT_EQ(rec.count(), 0u);
  // Fifth ACT at tick 12: 12 - 0 < 20, tRRD still fine (12 - 9 = 3 >= 2).
  EXPECT_EQ(pc.observe(act(4, 1), 12), 1);
  EXPECT_TRUE(rec.caught("tFAW")) << "violations: " << rec.count();
  EXPECT_FALSE(rec.caught("tRRD"));
  // At tick 23 the window has slid past ACT@3 (23 - 3 >= 20): legal again.
  rec.clear();
  EXPECT_EQ(pc.observe(act(5, 1), 23), 0);
  EXPECT_EQ(rec.count(), 0u);
}

TEST(ProtocolCheckerNegative, ColumnBeforeTrcdIsCaught) {
  check::Recorder rec;
  ProtocolChecker pc(DramConfig::ddr2_400());
  EXPECT_EQ(pc.observe(act(0, 5), 0), 0);
  EXPECT_EQ(pc.observe(rd(0, 5), 1), 1);  // 1 < 0 + tRCD(3)
  EXPECT_TRUE(rec.caught("tRCD"));
  EXPECT_FALSE(rec.caught("row-state"));
}

TEST(ProtocolCheckerNegative, ActivateBeforePrechargeRecoveryIsCaught) {
  check::Recorder rec;
  ProtocolChecker pc(DramConfig::ddr2_400());
  EXPECT_EQ(pc.observe(act(0, 5), 0), 0);
  EXPECT_EQ(pc.observe(pre(0), 8), 0);     // tRAS satisfied exactly
  EXPECT_EQ(pc.observe(act(0, 6), 9), 1);  // 9 < 8 + tRP(3)
  EXPECT_TRUE(rec.caught("tRP"));
  EXPECT_FALSE(rec.caught("tRAS"));
}

TEST(ProtocolCheckerNegative, PrechargeBeforeTrasIsCaught) {
  check::Recorder rec;
  ProtocolChecker pc(DramConfig::ddr2_400());
  EXPECT_EQ(pc.observe(act(0, 5), 0), 0);
  EXPECT_EQ(pc.observe(pre(0), 4), 1);  // 4 < tRAS(8)
  EXPECT_TRUE(rec.caught("tRAS"));
}

TEST(ProtocolCheckerNegative, RowStateOrderingIsCaught) {
  check::Recorder rec;
  ProtocolChecker pc(DramConfig::ddr2_400());
  // Column access to a bank that was never activated.
  EXPECT_EQ(pc.observe(rd(2, 5), 0), 1);
  EXPECT_TRUE(rec.caught("row-state"));
  rec.clear();
  // ACT on top of an already open row.
  EXPECT_EQ(pc.observe(act(3, 1), 10), 0);
  EXPECT_EQ(pc.observe(act(3, 2), 40), 1);
  EXPECT_TRUE(rec.caught("row-state"));
  rec.clear();
  // The shadow applied the (bad) ACT so row 2 is now open; reading the old
  // row must flag a row mismatch.
  EXPECT_EQ(pc.observe(rd(3, 1), 44), 1);
  EXPECT_TRUE(rec.caught("row-state"));
}

TEST(ProtocolCheckerNegative, ActDuringRefreshIsCaught) {
  check::Recorder rec;
  ProtocolChecker pc(DramConfig::ddr2_400());
  EXPECT_EQ(pc.observe_refresh(0, 0, 0), 0);
  // tRFC = ceil(127.5/5) = 26 ticks; ACT at tick 10 lands inside it.
  EXPECT_EQ(pc.observe(act(0, 1), 10), 1);
  EXPECT_TRUE(rec.caught("tRFC"));
}

// The checker keeps its own AoS shadow state and re-derives every JEDEC
// rule straight from DramConfig — it shares none of the SoA fast-path
// tables (CmdTimings, cached next-legal ticks) it audits. This test
// records a command stream from the real SoA engine, confirms the legal
// stream passes the shadow clean, then pulls one column command inside its
// tRCD window — producing a stream the fast path's legality tables would
// never emit — and requires the shadow to catch and name it.
TEST(ProtocolCheckerNegative, IllegalStreamAgainstSoaFastPathIsCaught) {
  DramConfig cfg = DramConfig::ddr2_400();
  cfg.enable_refresh = false;
  cfg.page_policy = PagePolicy::Open;  // plain RD + explicit PRE commands
  DramSystem engine(cfg);
  std::vector<Command> cmds;
  std::vector<Tick> ticks;
  Tick now = 0;
  std::uint64_t row = 1;
  while (cmds.size() < 24 && now < 10'000) {
    engine.tick(now);
    const Location loc{0, 0, 0, row, 0};
    const Command cmd{engine.required_command(loc, AccessType::Read), loc, 0,
                      0};
    if (engine.can_issue(cmd, now)) {
      engine.issue(cmd, now);
      cmds.push_back(cmd);
      ticks.push_back(now);
      // A fresh row per read forces PRE -> ACT -> RD cycles, so all three
      // command types appear in the recorded stream.
      if (is_read_command(cmd.type)) ++row;
    }
    ++now;
  }
  ASSERT_GE(cmds.size(), 24u);

  check::Recorder rec;
  {
    ProtocolChecker shadow(cfg);
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      EXPECT_EQ(shadow.observe(cmds[i], ticks[i]), 0)
          << "legal engine stream flagged at command " << i;
    }
    EXPECT_EQ(shadow.violations(), 0u);
  }
  EXPECT_EQ(rec.count(), 0u);

  // Find an ACT immediately followed by its column command and move the
  // column one tick inside tRCD.
  std::size_t rd_at = 0;
  for (std::size_t i = 0; i + 1 < cmds.size(); ++i) {
    if (cmds[i].type == CommandType::Activate &&
        is_read_command(cmds[i + 1].type)) {
      rd_at = i + 1;
      break;
    }
  }
  ASSERT_GT(rd_at, 0u);
  std::vector<Tick> tampered = ticks;
  tampered[rd_at] = ticks[rd_at - 1] + engine.timings().rcd - 1;
  ProtocolChecker shadow(cfg);
  int flagged = 0;
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    flagged += shadow.observe(cmds[i], tampered[i]);
  }
  EXPECT_GT(flagged, 0);
  EXPECT_TRUE(rec.caught("tRCD")) << "violations recorded: " << rec.count();
}

// ---------------------------------------------------------------------------
// Differential properties against the shadow: whatever the engine issues,
// the shadow accepts; and the engine's earliest issue tick for a command is
// exactly the first tick the shadow accepts it. The fast-forward
// differential cannot catch a rule the engine applies too strictly (both of
// its engines share DramSystem), so the second property is the one that
// pins the ready-tick tables to the JEDEC rules from both sides.

struct StreamCase {
  DramConfig cfg;
  std::uint64_t seed = 0;
  int ticks = 0;
  double load = 1.0;  ///< probability of each per-tick issue attempt
};

pbt::GenFn<StreamCase> stream_case_gen() {
  return [](Rng& rng) {
    StreamCase c;
    const std::vector<DramGeneration>& gens = dram_generations();
    c.cfg = gens[rng.next_below(gens.size())].config;
    // Geometry must stay a power of two for the address map.
    c.cfg.channels = static_cast<std::uint32_t>(pbt::gen_uint(rng, 1, 2));
    c.cfg.ranks = 1u << pbt::gen_uint(rng, 0, 2);
    if (rng.next_bool(0.5)) c.cfg.banks_per_rank = 4;
    c.cfg.page_policy =
        rng.next_bool(0.5) ? PagePolicy::Open : PagePolicy::Close;
    c.cfg.enable_refresh = rng.next_bool(0.75);
    c.cfg.enable_powerdown = rng.next_bool(0.3);
    // Every registered set has an ideal bus (tRTRS = 0); a one-tick gap
    // exercises the rank-switch rule too.
    if (rng.next_bool(0.3)) {
      c.cfg.t.trtrs = 0.5e9 / static_cast<double>(c.cfg.bus_clock.hz);
    }
    c.seed = rng.next_u64();
    c.ticks = static_cast<int>(pbt::gen_uint(rng, 500, 1500));
    const double loads[] = {0.02, 0.1, 0.5, 1.0};
    c.load = loads[rng.next_below(4)];
    return c;
  };
}

std::string print_stream_case(const StreamCase& c) {
  std::ostringstream os;
  os << c.cfg.generation << " bus=" << (c.cfg.bus_clock.mhz())
     << "MHz ch=" << c.cfg.channels << " ranks=" << c.cfg.ranks
     << " banks=" << c.cfg.banks_per_rank
     << " page=" << (c.cfg.page_policy == PagePolicy::Open ? "open" : "close")
     << " refresh=" << c.cfg.enable_refresh
     << " powerdown=" << c.cfg.enable_powerdown
     << " rtrs_ticks=" << c.cfg.ticks().rtrs << " load=" << c.load
     << " seed=" << c.seed << " ticks=" << c.ticks;
  return os.str();
}

/// A random location over few rows, so row conflicts are frequent.
Location random_location(Rng& rng, const DramConfig& cfg) {
  Location loc{};
  loc.channel = static_cast<std::uint32_t>(rng.next_below(cfg.channels));
  loc.rank = static_cast<std::uint32_t>(rng.next_below(cfg.ranks));
  loc.bank = static_cast<std::uint32_t>(rng.next_below(cfg.banks_per_rank));
  loc.row = rng.next_below(8);
  loc.column = static_cast<std::uint32_t>(rng.next_below(64));
  return loc;
}

AccessType random_access(Rng& rng) {
  return rng.next_bool(0.3) ? AccessType::Write : AccessType::Read;
}

/// One tick of random traffic after dram.tick(now): up to two issue
/// attempts at random locations, and now and then a pending-work notify to
/// a random rank, which wakes it from power-down.
void drive_random_traffic(DramSystem& dram, const StreamCase& c, Rng& rng,
                          Tick now) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!rng.next_bool(c.load)) continue;
    const Location loc = random_location(rng, c.cfg);
    const Command cmd{dram.required_command(loc, random_access(rng)), loc, 0,
                      0};
    if (dram.can_issue(cmd, now)) dram.issue(cmd, now);
  }
  if (rng.next_bool(0.2)) {
    dram.notify_rank_pending(
        static_cast<std::uint32_t>(rng.next_below(c.cfg.channels)),
        static_cast<std::uint32_t>(rng.next_below(c.cfg.ranks)), now);
  }
}

TEST(ProtocolCheckerProperty, EngineStreamsNeverViolateShadowRules) {
  if constexpr (!check::kEnabled) {
    GTEST_SKIP() << "BWPART_CHECK is compiled out";
  }
  check::Recorder rec;  // a disagreement fails the test instead of aborting
  std::uint64_t total_checked = 0;
  const pbt::Result r = pbt::for_all<StreamCase>(
      "engine-vs-shadow", stream_case_gen(),
      [&rec, &total_checked](const StreamCase& c) -> std::string {
        rec.clear();
        DramSystem dram(c.cfg);
        Rng rng(c.seed);
        for (Tick now = 0; now < static_cast<Tick>(c.ticks); ++now) {
          dram.tick(now);
          drive_random_traffic(dram, c, rng, now);
        }
        const ProtocolChecker* pc = dram.protocol_checker();
        if (pc == nullptr) return "checker not attached";
        total_checked += pc->commands_checked();
        if (pc->violations() != 0 || rec.count() != 0) {
          std::ostringstream os;
          os << pc->violations() << " shadow violations; first: "
             << (rec.violations().empty() ? "<none recorded>"
                                          : rec.violations().front().what);
          return os.str();
        }
        return {};
      },
      {}, nullptr, print_stream_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
  EXPECT_GT(total_checked, 0u) << "streams issued no commands at all";
}

/// Which ready-tick level sets a command's earliest issue tick `e` (for
/// failure messages: a too-strict rule shows up as the level it lives on).
const char* binding_level(const DramSystem& dram, const Command& cmd,
                          Tick e) {
  const ReadyTicks t = dram.ready_ticks();
  const CmdClass c = class_of(cmd.type);
  const auto ci = static_cast<std::size_t>(c);
  const std::size_t b = dram.bank_index(cmd.loc);
  if (t.bus_at(b, c) == e) return "data-bus ready tick";
  if (t.rank[(b >> t.rank_shift) * kCmdClasses + ci] == e) {
    return "rank ready tick";
  }
  if (t.bank[b * kCmdClasses + ci] == e) return "bank ready tick";
  return "probe tick";
}

struct ProbeCounts {
  std::uint64_t probes = 0;   // commands in their row state, not blocked
  std::uint64_t future = 0;   // ... whose earliest tick lies ahead
  std::uint64_t blocked = 0;  // blocked by power-down or a refresh drain
};

/// Checks `cmd`'s earliest issue tick at `now` against copies of the
/// engine's shadow checker; returns a failure description, or "" when the
/// tick is exact. `rec` must be alive (it captures the shadow's reports).
std::string check_earliest_tick(const DramSystem& dram, const Command& cmd,
                                Tick now, check::Recorder& rec,
                                ProbeCounts& n) {
  const Tick e = dram.earliest_issue_tick(cmd, now);
  const auto fail = [&](const std::string& what) {
    std::ostringstream os;
    os << to_string(cmd.type) << " ch " << cmd.loc.channel << " rank "
       << cmd.loc.rank << " bank " << cmd.loc.bank << " row " << cmd.loc.row
       << " probed at tick " << now << ": " << what;
    return os.str();
  };
  if (dram.can_issue(cmd, now) != (e == now)) {
    return fail("can_issue disagrees with earliest_issue_tick " +
                std::to_string(e));
  }
  if (dram.powered_down(cmd.loc.channel, cmd.loc.rank) ||
      (cmd.type == CommandType::Activate &&
       dram.refresh_blocked(cmd.loc.channel, cmd.loc.rank))) {
    ++n.blocked;
    return e == kNoTick ? std::string()
                        : fail("blocked by power-down or refresh, yet "
                               "earliest tick " + std::to_string(e));
  }
  ++n.probes;
  if (e == kNoTick) return fail("no earliest tick in the right row state");
  rec.clear();
  ProtocolChecker at_e = *dram.protocol_checker();
  if (at_e.observe(cmd, e) != 0) {
    return fail("engine too lax: the shadow rejects it at its earliest "
                "tick " + std::to_string(e) + ": " +
                rec.violations().front().what);
  }
  if (e == now) return {};
  ++n.future;
  ProtocolChecker before = *dram.protocol_checker();
  if (before.observe(cmd, e - 1) == 0) {
    return fail("engine too strict: the shadow accepts it at tick " +
                std::to_string(e - 1) + ", one before its earliest tick " +
                std::to_string(e) + " (set by the " +
                binding_level(dram, cmd, e) + ")");
  }
  return {};
}

TEST(ProtocolCheckerProperty, EarliestIssueTickIsFirstShadowLegalTick) {
  if constexpr (!check::kEnabled) {
    GTEST_SKIP() << "BWPART_CHECK is compiled out";
  }
  check::Recorder rec;
  ProbeCounts n;
  const pbt::Result r = pbt::for_all<StreamCase>(
      "earliest-issue-tick-exact", stream_case_gen(),
      [&rec, &n](const StreamCase& c) -> std::string {
        DramSystem dram(c.cfg);
        if (dram.protocol_checker() == nullptr) return "checker not attached";
        Rng rng(c.seed);
        for (Tick now = 0; now < static_cast<Tick>(c.ticks); ++now) {
          dram.tick(now);
          // Probe the state as tick() left it, before this tick's traffic.
          for (int probe = 0; probe < 2; ++probe) {
            const Location loc = random_location(rng, c.cfg);
            Command cmd{dram.required_command(loc, random_access(rng)), loc,
                        0, 0};
            // An open bank also takes a precharge, row hit or not.
            if (dram.is_row_open(loc) && rng.next_bool(0.25)) {
              cmd.type = CommandType::Precharge;
            }
            std::string failure = check_earliest_tick(dram, cmd, now, rec, n);
            if (!failure.empty()) return failure;
          }
          drive_random_traffic(dram, c, rng, now);
        }
        return {};
      },
      {}, nullptr, print_stream_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
  // The property has teeth only if many probes land ahead of `now` and the
  // generator reaches power-down and refresh drains.
  EXPECT_GT(n.future, n.probes / 4) << n.future << " of " << n.probes;
  EXPECT_GT(n.blocked, 0u);
}

}  // namespace
}  // namespace bwpart::dram
