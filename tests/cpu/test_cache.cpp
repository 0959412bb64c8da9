#include "cpu/cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "harness/system.hpp"
#include "workload/mixes.hpp"

namespace bwpart::cpu {
namespace {

std::vector<std::uint8_t> saved(const Cache& c) {
  snap::Writer w;
  snap::save(c, w);
  return w.take();
}

/// A cache section holding `lines` all-invalid lines, as a build that
/// disagreed about the geometry would have written it.
std::vector<std::uint8_t> forged_section(std::uint64_t lines) {
  snap::Writer w;
  w.tag("CACH");
  w.u64(lines);
  for (std::uint64_t i = 0; i < lines; ++i) {
    w.u64(0);
    w.u64(0);
    w.b(false);
    w.b(false);
  }
  w.u64(0);  // LRU clock
  w.u64(0);  // hits
  w.u64(0);  // misses
  return w.take();
}

TEST(CacheGeometry, SetCountMatchesParameters) {
  EXPECT_EQ(CacheGeometry::l1_default().sets(), 32u * 1024 / (64 * 2));
  EXPECT_EQ(CacheGeometry::l2_default().sets(), 256u * 1024 / (64 * 8));
}

TEST(Cache, MissThenHit) {
  Cache c(CacheGeometry::l1_default());
  EXPECT_FALSE(c.access(0x1000, AccessType::Read).hit);
  EXPECT_TRUE(c.access(0x1000, AccessType::Read).hit);
  EXPECT_TRUE(c.access(0x1020, AccessType::Read).hit);  // same line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, DistinctLinesMissIndependently) {
  Cache c(CacheGeometry::l1_default());
  EXPECT_FALSE(c.access(0x1000, AccessType::Read).hit);
  EXPECT_FALSE(c.access(0x2000, AccessType::Read).hit);
  EXPECT_TRUE(c.access(0x1000, AccessType::Read).hit);
  EXPECT_TRUE(c.access(0x2000, AccessType::Read).hit);
}

TEST(Cache, LruEvictionOrder) {
  // 2-way cache: touch three lines mapping to one set; the least-recently
  // used line is evicted.
  const CacheGeometry g{2 * 64 * 4, 64, 2};  // 4 sets, 2 ways
  Cache c(g);
  // Addresses that are multiples of sets*line (= 256) all map to set 0.
  const Addr set_stride = 64 * 4;
  const Addr a = 0, b = set_stride, c3 = 2 * set_stride;
  EXPECT_FALSE(c.access(a, AccessType::Read).hit);
  EXPECT_FALSE(c.access(b, AccessType::Read).hit);
  EXPECT_TRUE(c.access(a, AccessType::Read).hit);   // a is now MRU
  EXPECT_FALSE(c.access(c3, AccessType::Read).hit);  // evicts b
  EXPECT_TRUE(c.access(a, AccessType::Read).hit);
  EXPECT_FALSE(c.access(b, AccessType::Read).hit);  // b was evicted
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  const CacheGeometry g{2 * 64 * 1, 64, 2};  // 1 set, 2 ways
  Cache c(g);
  c.access(0 * 64, AccessType::Write);  // dirty
  c.access(1 * 64, AccessType::Read);
  const Cache::Outcome o = c.access(2 * 64, AccessType::Read);  // evicts line 0
  EXPECT_FALSE(o.hit);
  EXPECT_TRUE(o.writeback);
  EXPECT_EQ(o.writeback_addr, 0u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  const CacheGeometry g{2 * 64 * 1, 64, 2};
  Cache c(g);
  c.access(0 * 64, AccessType::Read);
  c.access(1 * 64, AccessType::Read);
  const Cache::Outcome o = c.access(2 * 64, AccessType::Read);
  EXPECT_FALSE(o.writeback);
}

TEST(Cache, WriteMarksLineDirtyOnHitToo) {
  const CacheGeometry g{2 * 64 * 1, 64, 2};
  Cache c(g);
  c.access(0 * 64, AccessType::Read);   // clean fill
  c.access(0 * 64, AccessType::Write);  // dirtied by hit
  c.access(1 * 64, AccessType::Read);
  c.access(1 * 64, AccessType::Read);   // line 0 is now LRU
  const Cache::Outcome o = c.access(2 * 64, AccessType::Read);
  EXPECT_TRUE(o.writeback);
  EXPECT_EQ(o.writeback_addr, 0u);
}

TEST(Cache, ProbeDoesNotDisturbState) {
  const CacheGeometry g{2 * 64 * 1, 64, 2};
  Cache c(g);
  c.access(0 * 64, AccessType::Read);
  c.access(1 * 64, AccessType::Read);
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(5 * 64));
  // Probing line 0 must not refresh its LRU position.
  c.probe(0);
  c.access(2 * 64, AccessType::Read);  // evicts line 0 (still LRU)
  EXPECT_FALSE(c.probe(0));
  const std::uint64_t hits_before = c.hits();
  c.probe(1 * 64);
  EXPECT_EQ(c.hits(), hits_before);  // probe not counted
}

TEST(Cache, InvalidateAllDropsEverything) {
  Cache c(CacheGeometry::l1_default());
  c.access(0x100, AccessType::Write);
  c.access(0x5000, AccessType::Read);
  c.invalidate_all();
  EXPECT_FALSE(c.probe(0x100));
  EXPECT_FALSE(c.probe(0x5000));
  // Dirty data is dropped silently (no writeback) by design.
  EXPECT_FALSE(c.access(0x100, AccessType::Read).hit);
}

TEST(Cache, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup) {
  Cache c(CacheGeometry::l1_default());  // 32 KiB
  const std::size_t lines = 16 * 1024 / 64;  // 16 KiB working set
  for (std::size_t i = 0; i < lines; ++i) {
    c.access(static_cast<Addr>(i) * 64, AccessType::Read);
  }
  c.reset_stats();
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < lines; ++i) {
      c.access(static_cast<Addr>(i) * 64, AccessType::Read);
    }
  }
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 1.0);
}

TEST(Cache, WorkingSetLargerThanCacheThrashesWithStreaming) {
  const CacheGeometry g{8 * 1024, 64, 2};  // 8 KiB cache
  Cache c(g);
  const std::size_t lines = 32 * 1024 / 64;  // 32 KiB streaming set
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < lines; ++i) {
      c.access(static_cast<Addr>(i) * 64, AccessType::Read);
    }
  }
  // Sequential sweep over 4x the capacity with LRU: every access misses.
  EXPECT_EQ(c.hits(), 0u);
}

TEST(CacheSnapshot, NeverAccessedCacheSavesZeroLines) {
  const Cache untouched(CacheGeometry::l2_default());
  EXPECT_FALSE(untouched.probe(0x1000));
  const std::vector<std::uint8_t> empty = saved(untouched);
  snap::Reader r(empty);
  r.expect_tag("CACH");
  EXPECT_EQ(r.u64(), 0u);
  r.skip(3 * 8);  // LRU clock, hits, misses
  EXPECT_TRUE(r.at_end());

  Cache used(CacheGeometry::l2_default());
  used.access(0x1000, AccessType::Read);
  const std::vector<std::uint8_t> full = saved(used);
  snap::Reader r2(full);
  r2.expect_tag("CACH");
  EXPECT_EQ(r2.u64(), CacheGeometry::l2_default().sets() * 8u);
}

TEST(CacheSnapshot, ZeroLineRestoreMakesAnAccessedCacheFresh) {
  const CacheGeometry g{2 * 64 * 4, 64, 2};  // 4 sets, 2 ways
  // Three hot lines interleaved with a 13-line stream over 8 slots, a third
  // of the accesses writes: the sequence hits, misses and evicts dirty
  // victims.
  const auto addr = [](int i) {
    return static_cast<Addr>(i % 2 == 0 ? i / 2 % 3 : 3 + i * 5 % 13) * 64;
  };
  const auto type = [](int i) {
    return i % 3 == 0 ? AccessType::Write : AccessType::Read;
  };
  Cache used(g);
  for (int i = 0; i < 40; ++i) used.access(addr(i), type(i));

  const std::vector<std::uint8_t> empty = saved(Cache(g));
  snap::Reader r(empty);
  snap::restore(used, r);
  EXPECT_TRUE(r.at_end());
  for (int i = 0; i < 40; ++i) EXPECT_FALSE(used.probe(addr(i))) << i;

  Cache fresh(g);
  int writebacks = 0;
  for (int i = 0; i < 40; ++i) {
    const Cache::Outcome a = used.access(addr(i), type(i));
    const Cache::Outcome b = fresh.access(addr(i), type(i));
    EXPECT_EQ(a.hit, b.hit) << i;
    EXPECT_EQ(a.writeback, b.writeback) << i;
    EXPECT_EQ(a.writeback_addr, b.writeback_addr) << i;
    writebacks += b.writeback ? 1 : 0;
  }
  EXPECT_GT(fresh.hits(), 0u);
  EXPECT_GT(writebacks, 0);
  EXPECT_EQ(used.hits(), fresh.hits());
  EXPECT_EQ(used.misses(), fresh.misses());
  EXPECT_EQ(saved(used), saved(fresh));
}

TEST(CacheSnapshot, RestoreRejectsLineCountsOtherThanZeroOrSetsTimesWays) {
  const CacheGeometry g{2 * 64 * 4, 64, 2};  // 8 lines
  for (const std::uint64_t lines : {1u, 7u, 9u, 16u}) {
    Cache c(g);
    c.access(0, AccessType::Write);
    const std::vector<std::uint8_t> bytes = forged_section(lines);
    snap::Reader r(bytes);
    EXPECT_THROW(snap::restore(c, r), snap::SnapshotError) << lines;
    EXPECT_TRUE(c.probe(0)) << "rejected restore was partially applied";
  }
  for (const std::uint64_t lines : {0u, 8u}) {
    Cache c(g);
    const std::vector<std::uint8_t> bytes = forged_section(lines);
    snap::Reader r(bytes);
    EXPECT_NO_THROW(snap::restore(c, r)) << lines;
    EXPECT_TRUE(r.at_end()) << lines;
  }
}

// Unmodelled private caches are never accessed, so a system snapshot
// carries none of their lines, whatever their geometry.
TEST(CacheSnapshot, UnmodelledCachesLeaveSystemStateSizeGeometryFree) {
  const std::vector<workload::BenchmarkSpec> mix =
      workload::resolve_mix(workload::paper_mixes()[0]);
  const auto state_size = [&](const CacheGeometry& l1,
                              const CacheGeometry& l2) {
    harness::SystemConfig cfg;
    EXPECT_FALSE(cfg.core.model_caches);
    cfg.core.l1 = l1;
    cfg.core.l2 = l2;
    harness::CmpSystem sys(cfg, mix, 42);
    sys.run(5'000);
    snap::Writer w;
    sys.save_state(w);
    return w.bytes().size();
  };
  EXPECT_EQ(
      state_size(CacheGeometry::l1_default(), CacheGeometry::l2_default()),
      state_size({64 * 1024, 64, 4}, {1024 * 1024, 64, 16}));
}

}  // namespace
}  // namespace bwpart::cpu
