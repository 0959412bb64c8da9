// The shared flag parser: strict unsigned, real and list values, range
// ends, repeated flags, switches, unknown flags and missing values, and the
// exit-2 report parse() makes of the first problem.
#include "common/cli.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace bwpart::cli {
namespace {

/// A parser over one of each kind, with the targets it writes.
struct Fixture {
  bool on = false;
  std::string name = "dflt";
  std::uint32_t count = 5;
  double gbps = 3.2;
  std::vector<std::uint64_t> list;
  Parser cli{"prog"};

  Fixture() {
    cli.flag("--on", on, "a switch");
    cli.text("--name", name, "NAME", "a string");
    cli.number("--count", count, 3, 7, "an unsigned in [3, 7]");
    cli.number("--gbps", gbps, 0.5, 20.0, "a real in [0.5, 20]", "GBPS");
    cli.uint_list("--list", list, 1, 8, "A,B", "unsigned items in [1, 8]");
  }

  std::string parse(std::vector<const char*> args) {
    return cli.try_parse(args);
  }
};

TEST(Cli, EveryKindAssignsItsTarget) {
  Fixture f;
  EXPECT_EQ(f.parse({"--on", "--name", "x", "--count", "6", "--gbps", "12.8",
                     "--list", "1,8,2"}),
            "");
  EXPECT_TRUE(f.on);
  EXPECT_EQ(f.name, "x");
  EXPECT_EQ(f.count, 6u);
  EXPECT_EQ(f.gbps, 12.8);
  EXPECT_EQ(f.list, (std::vector<std::uint64_t>{1, 8, 2}));
}

TEST(Cli, AbsentFlagsKeepTheirDefaults) {
  Fixture f;
  EXPECT_EQ(f.parse({}), "");
  EXPECT_FALSE(f.on);
  EXPECT_EQ(f.name, "dflt");
  EXPECT_EQ(f.count, 5u);
  EXPECT_EQ(f.gbps, 3.2);
  EXPECT_TRUE(f.list.empty());
}

TEST(Cli, BothRangeEndsAreAccepted) {
  Fixture f;
  EXPECT_EQ(f.parse({"--count", "3"}), "");
  EXPECT_EQ(f.count, 3u);
  EXPECT_EQ(f.parse({"--count", "7"}), "");
  EXPECT_EQ(f.count, 7u);
  EXPECT_EQ(f.parse({"--gbps", "0.5"}), "");
  EXPECT_EQ(f.parse({"--gbps", "20"}), "");
  EXPECT_EQ(f.gbps, 20.0);
  EXPECT_EQ(f.parse({"--list", "1,8"}), "");
  EXPECT_EQ(f.parse({"--count", "2"}), "--count: '2' is out of range [3, 7]");
  EXPECT_EQ(f.parse({"--count", "8"}), "--count: '8' is out of range [3, 7]");
  EXPECT_NE(f.parse({"--gbps", "20.5"}).find("out of range"),
            std::string::npos);
  EXPECT_NE(f.parse({"--list", "0"}).find("out of range"), std::string::npos);
}

TEST(Cli, UnsignedRejectsMalformedSignedAndOverflowingValues) {
  const char* const bad[] = {"18446744073709551616", "-1", "10k", "1e3", "",
                             "+4", " 4", "4 ", "0x4", "4.0"};
  for (const char* v : bad) {
    Fixture f;
    const std::string problem = f.parse({"--count", v});
    EXPECT_EQ(problem.rfind("--count: ", 0), 0u) << "'" << v << "': "
                                                 << problem;
    EXPECT_EQ(f.count, 5u) << "a rejected value must not be assigned: " << v;
  }
  std::uint64_t x = 0;
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551616", 0,
                                        UINT64_MAX, x),
            "'18446744073709551616' is out of range [0, "
            "18446744073709551615]");
  EXPECT_EQ(parse_number<std::uint64_t>("-1", 0, UINT64_MAX, x),
            "'-1' is not an unsigned integer");
  EXPECT_EQ(parse_number<std::uint64_t>("", 0, UINT64_MAX, x),
            "'' is not an unsigned integer");
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615", 0,
                                        UINT64_MAX, x),
            "");
  EXPECT_EQ(x, UINT64_MAX);
}

TEST(Cli, RealRejectsNonNumbersAndNonFinite) {
  for (const char* v : {"x", "", "3.2GB", "nan", "inf", "1e999", " 3"}) {
    Fixture f;
    EXPECT_EQ(f.parse({"--gbps", v}).rfind("--gbps: ", 0), 0u) << v;
    EXPECT_EQ(f.gbps, 3.2) << v;
  }
}

TEST(Cli, ListRejectsAnyBadItemAndNamesIt) {
  Fixture f;
  EXPECT_EQ(f.parse({"--list", "1,x"}),
            "--list: item 2: 'x' is not an unsigned integer");
  EXPECT_EQ(f.parse({"--list", "1,,2"}),
            "--list: item 2: '' is not an unsigned integer");
  EXPECT_EQ(f.parse({"--list", "2,"}),
            "--list: item 2: '' is not an unsigned integer");
  EXPECT_TRUE(f.list.empty());
}

TEST(Cli, FlagGivenTwiceKeepsTheLastValue) {
  Fixture f;
  EXPECT_EQ(f.parse({"--count", "4", "--name", "a", "--count", "6", "--name",
                     "b", "--list", "1,2", "--list", "3"}),
            "");
  EXPECT_EQ(f.count, 6u);
  EXPECT_EQ(f.name, "b");
  EXPECT_EQ(f.list, (std::vector<std::uint64_t>{3}));
}

TEST(Cli, SwitchGivenAValueIsRejectedNamingTheSwitch) {
  Fixture f;
  EXPECT_EQ(f.parse({"--on", "yes"}),
            "--on: a switch takes no value, got 'yes'");
  EXPECT_EQ(f.parse({"--on", "--count", "4"}), "");
}

TEST(Cli, UnknownFlagsMissingValuesAndStrayWordsAreRejected) {
  Fixture f;
  EXPECT_EQ(f.parse({"--cout", "4"}), "unknown flag '--cout'");
  EXPECT_EQ(f.parse({"-c"}), "unknown flag '-c'");
  EXPECT_EQ(f.parse({"stray"}), "unknown flag 'stray'");
  EXPECT_EQ(f.parse({"--count"}), "--count: missing value (N)");
  EXPECT_EQ(f.parse({"--name", "--on"}), "--name: missing value (NAME)");
}

TEST(Cli, UsageListsEveryFlagWithRangeAndDefault) {
  Fixture f;
  const std::string usage = f.cli.usage();
  EXPECT_EQ(usage.rfind("usage: prog [options]\n", 0), 0u) << usage;
  EXPECT_NE(usage.find("--count N"), std::string::npos) << usage;
  EXPECT_NE(usage.find("[3, 7] (default 5)"), std::string::npos) << usage;
  EXPECT_NE(usage.find("[0.5, 20] (default 3.2)"), std::string::npos)
      << usage;
  EXPECT_NE(usage.find("(default dflt)"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--on "), std::string::npos) << usage;
}

TEST(CliDeathTest, ParseExitsTwoWithOneLineNamingTheFlag) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Fixture f;
  const char* argv[] = {"prog", "--count", "10k"};
  EXPECT_EXIT(f.cli.parse(3, argv), testing::ExitedWithCode(2),
              "^prog: --count: '10k' is not an unsigned integer\n"
              "usage: prog");
}

}  // namespace
}  // namespace bwpart::cli
