// The DramGeneration registry and its per-generation test matrix:
// (a) registry API — built-ins present in order, unknown names rejected
//     loudly listing every registered set, runtime registration;
// (b) derived-matrix spot checks — posted CAS (tAL) on DDR4, HBM-class
//     geometry, peak-bandwidth laddering across families;
// (c) property — for EVERY registered generation, >= 200 randomized command
//     streams driven through the SoA fast path produce zero violations in
//     the independently-derived shadow protocol checker;
// (d) negatives — streams tampered to break tRCD (DDR3/DDR4, including the
//     posted-CAS window) and tFAW are caught and named by the shadow.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/pbt.hpp"
#include "dram/config.hpp"
#include "dram/dram_system.hpp"
#include "dram/protocol_checker.hpp"
#include "dram/timing_table.hpp"

namespace bwpart::dram {
namespace {

// ---------------------------------------------------------------------------
// (a) Registry API.

TEST(GenerationRegistry, BuiltinsRegisteredInOrder) {
  const std::vector<DramGeneration>& gens = dram_generations();
  ASSERT_GE(gens.size(), 7u);
  const char* expected[] = {"ddr2_400",  "ddr2_800",  "ddr2_1600",
                            "ddr3_1066", "ddr3_1600", "ddr4_2400",
                            "hbm_like"};
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(gens[i].name, expected[i]);
    EXPECT_EQ(gens[i].config.generation, expected[i])
        << "config.generation must mirror the registry key";
    EXPECT_FALSE(gens[i].family.empty());
  }
}

TEST(GenerationRegistry, UnknownNameThrowsListingEveryRegisteredSet) {
  EXPECT_EQ(find_dram_generation("ddr5_6400"), nullptr);
  try {
    (void)dram_config_for_generation("ddr5_6400");
    FAIL() << "unknown generation was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ddr5_6400"), std::string::npos) << what;
    for (const DramGeneration& g : dram_generations()) {
      EXPECT_NE(what.find(g.name), std::string::npos)
          << "error must list '" << g.name << "': " << what;
    }
  }
}

TEST(GenerationRegistry, RuntimeRegistrationAndDuplicateRejection) {
  DramGeneration g;
  g.name = "custom_test_gen";
  g.family = "DDR3";
  g.notes = "registered by test_generation_matrix";
  g.config = dram_config_for_generation("ddr3_1600");
  register_dram_generation(g);
  const DramGeneration* back = find_dram_generation("custom_test_gen");
  ASSERT_NE(back, nullptr);
  // The registry stamps config.generation with the registry key.
  EXPECT_EQ(back->config.generation, "custom_test_gen");
  EXPECT_EQ(back->config.bus_clock.hz,
            dram_config_for_generation("ddr3_1600").bus_clock.hz);
  EXPECT_THROW(register_dram_generation(g), std::invalid_argument);
  DramGeneration unnamed;
  EXPECT_THROW(register_dram_generation(unnamed), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// (b) Derived-matrix spot checks.

TEST(GenerationMatrix, PeakBandwidthLaddersAcrossFamilies) {
  EXPECT_NEAR(dram_config_for_generation("ddr3_1066").peak_gbps(), 8.528,
              1e-9);
  EXPECT_NEAR(dram_config_for_generation("ddr3_1600").peak_gbps(), 12.8,
              1e-9);
  EXPECT_NEAR(dram_config_for_generation("ddr4_2400").peak_gbps(), 19.2,
              1e-9);
  // HBM-like: 2 x 500 MHz x 16 B x 4 channels = 64 GB/s aggregate.
  EXPECT_NEAR(dram_config_for_generation("hbm_like").peak_gbps(), 64.0,
              1e-9);
}

TEST(GenerationMatrix, Ddr4PostedCasShapesTheDerivedTables) {
  const DramConfig cfg = dram_config_for_generation("ddr4_2400");
  const TimingsTicks t = cfg.ticks();
  // 0.8333 ns tick: AL = ceil(8.33 / 0.8333) = 10, CL = tRCD = 16.
  EXPECT_EQ(t.al, 10u);
  EXPECT_EQ(t.cl, 16u);
  EXPECT_EQ(t.rcd, 16u);
  const CmdTimings c = CmdTimings::build(t);
  // The column command may be issued tAL early...
  EXPECT_EQ(c.act_to_col, t.rcd - t.al);
  // ...and every command-relative data/precharge latency grows by tAL.
  EXPECT_EQ(c.rd_lat, t.al + t.cl);
  EXPECT_EQ(c.wr_lat, t.al + t.cwl);
  EXPECT_EQ(c.rd_to_pre, t.al + t.rtp);
  EXPECT_EQ(c.wr_to_pre, t.al + t.cwl + t.burst + t.wr);
  EXPECT_EQ(c.rd_to_data_end, t.al + t.cl + t.burst);
  // ACT -> first read data is tAL-invariant: (tRCD - tAL) + (tAL + tCL).
  EXPECT_EQ(c.act_to_col + c.rd_lat, t.rcd + t.cl);
}

TEST(GenerationMatrix, HbmLikeGeometryKeepsLineSizedBursts) {
  const DramConfig cfg = dram_config_for_generation("hbm_like");
  // 16B bus x 4 beats = one 64B line, 2 bus ticks of data occupancy.
  EXPECT_EQ(cfg.bus_bytes * cfg.burst_beats, 64u);
  EXPECT_EQ(cfg.ticks().burst, 2u);
  EXPECT_EQ(cfg.channels, 4u);
  EXPECT_EQ(cfg.total_banks(), 64u);
}

// ---------------------------------------------------------------------------
// (c) Property: every registered generation's engine streams satisfy the
// shadow checker. The checker consumes the raw parameter set (DramConfig)
// and re-derives the JEDEC rules — including the posted-CAS shift — with
// none of the SoA fast path's precomputed tables, so agreement here is
// double-entry bookkeeping over the whole registry.

struct StreamCase {
  std::uint64_t seed = 0;
  int ticks = 0;
  bool open_page = false;
  bool refresh = true;
};

pbt::GenFn<StreamCase> stream_case_gen() {
  return [](Rng& rng) {
    StreamCase c;
    c.seed = rng.next_u64();
    c.ticks = static_cast<int>(pbt::gen_uint(rng, 400, 1200));
    c.open_page = rng.next_bool(0.5);
    c.refresh = rng.next_bool(0.75);
    return c;
  };
}

std::string print_stream_case(const StreamCase& c) {
  std::ostringstream os;
  os << "seed=" << c.seed << " ticks=" << c.ticks
     << " page=" << (c.open_page ? "open" : "close")
     << " refresh=" << c.refresh;
  return os.str();
}

TEST(GenerationProperty, EveryGenerationsEngineStreamsPassTheShadow) {
  check::Recorder rec;  // a disagreement fails the test instead of aborting
  for (const DramGeneration& g : dram_generations()) {
    SCOPED_TRACE(g.name);
    std::uint64_t total_checked = 0;
    const pbt::Result r = pbt::for_all<StreamCase>(
        ("engine-vs-shadow@" + g.name).c_str(), stream_case_gen(),
        [&](const StreamCase& c) -> std::string {
          rec.clear();
          DramConfig cfg = g.config;
          cfg.page_policy =
              c.open_page ? PagePolicy::Open : PagePolicy::Close;
          cfg.enable_refresh = c.refresh;
          DramSystem dram(cfg);
          Rng rng(c.seed);
          for (Tick now = 0; now < static_cast<Tick>(c.ticks); ++now) {
            dram.tick(now);
            for (int attempt = 0; attempt < 2; ++attempt) {
              Location loc{};
              loc.channel =
                  static_cast<std::uint32_t>(rng.next_below(cfg.channels));
              loc.rank =
                  static_cast<std::uint32_t>(rng.next_below(cfg.ranks));
              loc.bank = static_cast<std::uint32_t>(
                  rng.next_below(cfg.banks_per_rank));
              loc.row = rng.next_below(8);
              loc.column = static_cast<std::uint32_t>(rng.next_below(64));
              const AccessType at =
                  rng.next_bool(0.3) ? AccessType::Write : AccessType::Read;
              const Command cmd{dram.required_command(loc, at), loc, 0, 0};
              if (dram.can_issue(cmd, now)) dram.issue(cmd, now);
            }
          }
          const ProtocolChecker& pc = dram.protocol_checker();
          total_checked += pc.commands_checked();
          if (pc.violations() != 0 || rec.count() != 0) {
            std::ostringstream os;
            os << pc.violations() << " shadow violations; first: "
               << (rec.violations().empty()
                       ? "<none recorded>"
                       : rec.violations().front().what);
            return os.str();
          }
          return {};
        },
        {}, nullptr, print_stream_case);
    EXPECT_TRUE(r.ok) << r.report();
    EXPECT_GE(r.cases_run, 200);
    EXPECT_GT(total_checked, 0u)
        << g.name << " streams issued no commands at all";
  }
}

// ---------------------------------------------------------------------------
// (d) Negatives: tampered streams under the new generations are caught.

// Records a legal open-page read stream from the real SoA engine under
// `gen`, verifies it passes the shadow clean, then pulls one column command
// inside its (posted-CAS-adjusted) tRCD window and requires the shadow to
// catch and name the violation. Under DDR4 the earliest legal column tick
// is ACT + (tRCD - tAL); one tick earlier than THAT is what a buggy
// fast-path table would emit, and the checker must still flag it.
void expect_trcd_tamper_caught(const char* gen) {
  SCOPED_TRACE(gen);
  DramConfig cfg = dram_config_for_generation(gen);
  cfg.enable_refresh = false;
  cfg.page_policy = PagePolicy::Open;
  DramSystem engine(cfg);
  std::vector<Command> cmds;
  std::vector<Tick> ticks;
  Tick now = 0;
  std::uint64_t row = 1;
  while (cmds.size() < 24 && now < 50'000) {
    engine.tick(now);
    const Location loc{0, 0, 0, row, 0};
    const Command cmd{engine.required_command(loc, AccessType::Read), loc, 0,
                      0};
    if (engine.can_issue(cmd, now)) {
      engine.issue(cmd, now);
      cmds.push_back(cmd);
      ticks.push_back(now);
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
  ASSERT_EQ(rec.count(), 0u);

  std::size_t rd_at = 0;
  for (std::size_t i = 0; i + 1 < cmds.size(); ++i) {
    if (cmds[i].type == CommandType::Activate &&
        is_read_command(cmds[i + 1].type)) {
      rd_at = i + 1;
      break;
    }
  }
  ASSERT_GT(rd_at, 0u);
  const TimingsTicks t = engine.timings();
  std::vector<Tick> tampered = ticks;
  tampered[rd_at] = ticks[rd_at - 1] + (t.rcd - t.al) - 1;
  ProtocolChecker shadow(cfg);
  int flagged = 0;
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    flagged += shadow.observe(cmds[i], tampered[i]);
  }
  EXPECT_GT(flagged, 0);
  EXPECT_TRUE(rec.caught("tRCD")) << "violations recorded: " << rec.count();
}

TEST(GenerationNegative, Ddr3TrcdTamperIsCaught) {
  expect_trcd_tamper_caught("ddr3_1600");
}

TEST(GenerationNegative, Ddr4PostedCasTrcdTamperIsCaught) {
  // tAL > 0 here: the tampered tick sits tAL earlier than raw tRCD, inside
  // the posted-CAS window — only an AL-aware checker can flag it.
  const TimingsTicks t = dram_config_for_generation("ddr4_2400").ticks();
  ASSERT_GT(t.al, 0u);
  expect_trcd_tamper_caught("ddr4_2400");
}

Command act_at(std::uint32_t bank, std::uint64_t row) {
  return Command{CommandType::Activate, Location{0, 0, bank, row, 0}, 0, 0};
}

// Five ACTs to distinct banks of one rank, spaced exactly tRRD apart so the
// fifth lands inside the tFAW window without breaking tRRD — the checker
// must name tFAW, not tRRD. Works for any generation where 4 x tRRD < tFAW
// (true for the shipped DDR3-1600 and DDR4-2400 sets; stock DDR2-400 has
// 4 x tRRD == tFAW, which is why the DDR2 suite stretches tFAW instead).
void expect_faw_tamper_caught(const char* gen) {
  SCOPED_TRACE(gen);
  const DramConfig cfg = dram_config_for_generation(gen);
  const TimingsTicks t = cfg.ticks();
  ASSERT_LT(4 * t.rrd, t.faw)
      << gen << " cannot stage a pure tFAW break (tRRD window too wide)";
  check::Recorder rec;
  ProtocolChecker pc(cfg);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pc.observe(act_at(i, 1), i * t.rrd), 0);
  }
  ASSERT_EQ(rec.count(), 0u);
  EXPECT_EQ(pc.observe(act_at(4, 1), 4 * t.rrd), 1);
  EXPECT_TRUE(rec.caught("tFAW")) << "violations: " << rec.count();
  EXPECT_FALSE(rec.caught("tRRD"));
}

TEST(GenerationNegative, Ddr3FifthActivateInsideFawIsCaught) {
  expect_faw_tamper_caught("ddr3_1600");
}

TEST(GenerationNegative, Ddr4FifthActivateInsideFawIsCaught) {
  expect_faw_tamper_caught("ddr4_2400");
}

}  // namespace
}  // namespace bwpart::dram
