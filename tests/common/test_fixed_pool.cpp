#include "common/fixed_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/snapshot_io.hpp"

namespace bwpart {
namespace {

TEST(FixedPool, AcquireExtendsThenRecyclesLifo) {
  FixedPool<int> pool(4);
  EXPECT_EQ(pool.capacity(), 4u);
  EXPECT_EQ(pool.acquire(), 0u);
  EXPECT_EQ(pool.acquire(), 1u);
  EXPECT_EQ(pool.acquire(), 2u);
  EXPECT_EQ(pool.high_water(), 3u);
  pool.release(1);
  pool.release(0);
  // LIFO: the most recently released slot comes back first.
  EXPECT_EQ(pool.acquire(), 0u);
  EXPECT_EQ(pool.acquire(), 1u);
  // Recycling never moved the high-water mark.
  EXPECT_EQ(pool.high_water(), 3u);
  EXPECT_EQ(pool.acquire(), 3u);
  EXPECT_EQ(pool.live(), 4u);
}

TEST(FixedPool, EntriesKeepValuesAcrossRecycle) {
  FixedPool<std::uint64_t> pool(2);
  const std::uint32_t a = pool.acquire();
  pool[a] = 42;
  pool.release(a);
  const std::uint32_t b = pool.acquire();
  EXPECT_EQ(a, b);
  // Stale contents survive: the pool never clears on release.
  EXPECT_EQ(pool[b], 42u);
}

TEST(FixedPool, SaveRestoreRoundTrip) {
  FixedPool<std::uint32_t> pool(8);
  for (std::uint32_t i = 0; i < 5; ++i) pool[pool.acquire()] = i * 10;
  pool.release(3);
  pool.release(1);

  snap::Writer w;
  snap::Io out(w);
  pool.transfer(out, [&out](std::uint32_t& v) { out.u32(v); });

  FixedPool<std::uint32_t> restored(8);
  snap::Reader r(w.bytes());
  snap::Io in(r);
  restored.transfer(in, [&in](std::uint32_t& v) { in.u32(v); });
  EXPECT_EQ(restored.high_water(), 5u);
  EXPECT_EQ(restored.live(), 3u);
  EXPECT_EQ(restored.free_count(), 2u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(restored[i], i * 10);
  // Free-list order restored verbatim: LIFO pops 1 then 3.
  EXPECT_EQ(restored.acquire(), 1u);
  EXPECT_EQ(restored.acquire(), 3u);
  EXPECT_EQ(restored.acquire(), 5u);
}

TEST(FixedPool, RestoreRejectsOversizedSnapshot) {
  FixedPool<std::uint32_t> big(4);
  for (int i = 0; i < 4; ++i) big[big.acquire()] = 7;
  snap::Writer w;
  snap::Io out(w);
  big.transfer(out, [&out](std::uint32_t& v) { out.u32(v); });

  FixedPool<std::uint32_t> small(2);
  snap::Reader r(w.bytes());
  snap::Io in(r);
  EXPECT_THROW(small.transfer(in, [&in](std::uint32_t& v) { in.u32(v); }),
               snap::SnapshotError);
}

}  // namespace
}  // namespace bwpart
