// The PBT engine itself: deterministic case derivation, the
// BWPART_PBT_SEED override, and bounded shrinking.
#include "common/pbt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <vector>

namespace bwpart::pbt {
namespace {

GenFn<std::vector<double>> vec_gen(std::size_t max_len) {
  return [max_len](Rng& rng) {
    const std::size_t n = static_cast<std::size_t>(gen_uint(rng, 1, max_len));
    std::vector<double> v(n);
    for (double& x : v) x = gen_double(rng, 0.0, 100.0);
    return v;
  };
}

TEST(PbtEngine, SameSeedSameCases) {
  // Record the generated inputs of two identically configured runs; every
  // case must be bit-identical.
  Config cfg;
  cfg.seed = 1234;
  cfg.cases = 250;
  std::vector<std::vector<double>> first, second;
  const Property<std::vector<double>> record_first =
      [&first](const std::vector<double>& v) {
        first.push_back(v);
        return std::string();
      };
  const Property<std::vector<double>> record_second =
      [&second](const std::vector<double>& v) {
        second.push_back(v);
        return std::string();
      };
  EXPECT_TRUE(for_all<std::vector<double>>("rec1", vec_gen(8), record_first,
                                           cfg)
                  .ok);
  EXPECT_TRUE(for_all<std::vector<double>>("rec2", vec_gen(8), record_second,
                                           cfg)
                  .ok);
  ASSERT_EQ(first.size(), 250u);
  EXPECT_EQ(first, second);
}

TEST(PbtEngine, DifferentSeedsDifferentCases) {
  Config a, b;
  a.seed = 1;
  b.seed = 2;
  a.cases = b.cases = 1;
  std::vector<double> va, vb;
  for_all<std::vector<double>>(
      "a", vec_gen(8),
      [&va](const std::vector<double>& v) {
        va = v;
        return std::string();
      },
      a);
  for_all<std::vector<double>>(
      "b", vec_gen(8),
      [&vb](const std::vector<double>& v) {
        vb = v;
        return std::string();
      },
      b);
  EXPECT_NE(va, vb);
}

TEST(PbtEngine, CaseSeedsAreDistinct) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.push_back(case_seed(42, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

TEST(PbtEngine, EnvSeedOverride) {
  ASSERT_EQ(setenv("BWPART_PBT_SEED", "98765", 1), 0);
  EXPECT_EQ(base_seed(1), 98765u);
  ASSERT_EQ(setenv("BWPART_PBT_SEED", "18446744073709551615", 1), 0);
  EXPECT_EQ(base_seed(1), 0xffffffffffffffffu);
  ASSERT_EQ(setenv("BWPART_PBT_SEED", "0x10", 1), 0);
  EXPECT_EQ(base_seed(1), 16u);
  ASSERT_EQ(setenv("BWPART_PBT_SEED", "0XdeadBEEF", 1), 0);
  EXPECT_EQ(base_seed(1), 0xdeadbeefu);
  ASSERT_EQ(setenv("BWPART_PBT_SEED", "", 1), 0);
  EXPECT_EQ(base_seed(7), 7u);  // empty means unset
  ASSERT_EQ(unsetenv("BWPART_PBT_SEED"), 0);
  EXPECT_EQ(base_seed(7), 7u);
}

// A malformed seed would otherwise re-run some other seed (the default, or
// a prefix of the typed value) under the typed value's name.
TEST(PbtEngineDeathTest, MalformedEnvSeedAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* bad : {"seven", "7abc", "-1", "+7", " 7", "0x",
                          "0x1g", "18446744073709551616"}) {
    EXPECT_DEATH(
        {
          setenv("BWPART_PBT_SEED", bad, 1);
          (void)base_seed(1);
        },
        "BWPART_PBT_SEED='.*' is not a decimal or 0x-hex")
        << bad;
  }
}

TEST(PbtEngine, FailureReportsSeedAndCase) {
  Config cfg;
  cfg.seed = 777;
  cfg.cases = 200;
  const Result r = for_all<std::vector<double>>(
      "always-fails", vec_gen(8),
      [](const std::vector<double>&) { return std::string("nope"); }, cfg);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failing_index, 0u);
  EXPECT_EQ(r.failing_seed, case_seed(777, 0));
  EXPECT_NE(r.report().find("777"), std::string::npos);
  EXPECT_NE(r.report().find("BWPART_PBT_SEED"), std::string::npos);
}

TEST(PbtEngine, ShrinkingFindsMinimalCounterexample) {
  // Property: "the sum of the vector is < 50". Shrinking with anchor 0 and
  // min size 1 must converge to a single-element vector barely above 50.
  Config cfg;
  cfg.seed = 4242;
  cfg.cases = 300;
  std::vector<double> shrunk;
  const Result r = for_all<std::vector<double>>(
      "sum-below-50", vec_gen(10),
      [](const std::vector<double>& v) {
        const double sum = std::accumulate(v.begin(), v.end(), 0.0);
        return sum >= 50.0 ? "sum >= 50" : std::string();
      },
      cfg,
      [](const std::vector<double>& v) {
        return shrink_double_vec(v, 1, 0.0);
      },
      [&shrunk](const std::vector<double>& v) {
        shrunk = v;
        return describe(v);
      });
  ASSERT_FALSE(r.ok) << "vectors of up to 10 values in [0,100) must "
                        "eventually sum above 50";
  EXPECT_GT(r.shrink_steps, 0);
  // The shrunk counterexample still fails ...
  const double sum = std::accumulate(shrunk.begin(), shrunk.end(), 0.0);
  EXPECT_GE(sum, 50.0);
  // ... and is near-minimal: halving any single element would fix it.
  EXPECT_LT(sum, 100.0 + 1e-9);
}

TEST(PbtEngine, ShrinkStepsAreBounded) {
  Config cfg;
  cfg.seed = 5;
  cfg.cases = 10;
  cfg.max_shrink_steps = 17;
  const Result r = for_all<std::vector<double>>(
      "always-fails", vec_gen(10),
      [](const std::vector<double>&) { return std::string("no"); }, cfg,
      [](const std::vector<double>& v) {
        return shrink_double_vec(v, 1, 0.0);
      });
  ASSERT_FALSE(r.ok);
  EXPECT_LE(r.shrink_steps, 17);
}

TEST(PbtEngine, GeneratorRangesRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = gen_double(rng, -2.5, 7.5);
    EXPECT_GE(d, -2.5);
    EXPECT_LT(d, 7.5);
    const double ld = gen_log_double(rng, 1e-4, 10.0);
    EXPECT_GE(ld, 1e-4 * (1 - 1e-12));
    EXPECT_LE(ld, 10.0);
    const std::uint64_t u = gen_uint(rng, 3, 9);
    EXPECT_GE(u, 3u);
    EXPECT_LE(u, 9u);
  }
}

}  // namespace
}  // namespace bwpart::pbt
