#include "workload/spec_table.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cpu/core.hpp"

namespace bwpart::workload {
namespace {

TEST(SpecTable, HasAllSixteenBenchmarks) {
  EXPECT_EQ(spec2006_table().size(), 16u);
  std::set<std::string> names;
  for (const auto& b : spec2006_table()) names.insert(std::string(b.name));
  EXPECT_EQ(names.size(), 16u);
}

TEST(SpecTable, OrderedByDescendingApkcAsInTableIII) {
  const auto table = spec2006_table();
  for (std::size_t i = 1; i < table.size(); ++i) {
    EXPECT_GE(table[i - 1].paper_apkc, table[i].paper_apkc);
  }
}

TEST(SpecTable, PaperIntensityClassesMatchTableIII) {
  EXPECT_EQ(find_benchmark("lbm").paper_intensity(), Intensity::High);
  EXPECT_EQ(find_benchmark("libquantum").paper_intensity(),
            Intensity::Middle);
  EXPECT_EQ(find_benchmark("leslie3d").paper_intensity(), Intensity::Middle);
  EXPECT_EQ(find_benchmark("bzip2").paper_intensity(), Intensity::Low);
  EXPECT_EQ(find_benchmark("povray").paper_intensity(), Intensity::Low);
  // Exactly one high-intensity benchmark in Table III.
  int high = 0;
  for (const auto& b : spec2006_table()) {
    if (b.paper_intensity() == Intensity::High) ++high;
  }
  EXPECT_EQ(high, 1);
}

TEST(SpecTable, ApiDerivedFromApki) {
  for (const auto& b : spec2006_table()) {
    EXPECT_NEAR(b.api, b.paper_apki / 1000.0, 1e-9) << b.name;
  }
}

// The core counts fetch budgets in hundredths of an instruction, and
// ipc_x100() aborts on a rate off that grid.
TEST(SpecTable, NonmemIpcOnTheHundredthsGrid) {
  for (const auto& b : spec2006_table()) {
    EXPECT_EQ(cpu::ipc_x100(b.nonmem_ipc) / 100.0, b.nonmem_ipc) << b.name;
  }
}

TEST(SpecTable, TuningParametersWithinModelRanges) {
  for (const auto& b : spec2006_table()) {
    EXPECT_GT(b.api, 0.0) << b.name;
    EXPECT_LT(b.api, 0.1) << b.name;
    EXPECT_GE(b.mean_cluster, 1.0) << b.name;
    EXPECT_GT(b.nonmem_ipc, 0.0) << b.name;
    EXPECT_LE(b.nonmem_ipc, 8.0) << b.name;
    EXPECT_GE(b.write_fraction, 0.0) << b.name;
    EXPECT_LE(b.write_fraction, 0.5) << b.name;
    EXPECT_GE(b.dependent_fraction, 0.0) << b.name;
    EXPECT_LE(b.dependent_fraction, 1.0) << b.name;
    EXPECT_GE(b.seq_run_lines, 1u) << b.name;
  }
}

TEST(SpecTable, HmmerVsLeslie3dRankInversion) {
  // Section VI-A: hmmer has higher APC_alone but lower API than leslie3d,
  // which makes Priority_API and Priority_APC diverge on homogeneous mixes.
  const auto& hmmer = find_benchmark("hmmer");
  const auto& leslie = find_benchmark("leslie3d");
  EXPECT_GT(hmmer.paper_apkc, leslie.paper_apkc);
  EXPECT_LT(hmmer.paper_apki, leslie.paper_apki);
}

TEST(SpecTable, IntClassificationBoundaries) {
  EXPECT_EQ(classify_intensity(8.01), Intensity::High);
  EXPECT_EQ(classify_intensity(8.0), Intensity::Middle);
  EXPECT_EQ(classify_intensity(4.01), Intensity::Middle);
  EXPECT_EQ(classify_intensity(4.0), Intensity::Low);
  EXPECT_EQ(classify_intensity(0.1), Intensity::Low);
}

TEST(SpecTable, TypeColumnsMatchPaper) {
  EXPECT_TRUE(find_benchmark("lbm").is_fp);
  EXPECT_FALSE(find_benchmark("libquantum").is_fp);
  EXPECT_TRUE(find_benchmark("milc").is_fp);
  EXPECT_FALSE(find_benchmark("hmmer").is_fp);
  EXPECT_FALSE(find_benchmark("gobmk").is_fp);
  EXPECT_TRUE(find_benchmark("povray").is_fp);
}

}  // namespace
}  // namespace bwpart::workload
