// Set-associative write-back write-allocate cache with true-LRU
// replacement. Used for the private L1 D-cache and unified private L2 of
// each core (paper Table II: 32 KB 2-way L1, 256 KB 8-way L2, 64 B lines).
//
// The line array is allocated on the first access(). Most configurations
// never model the private caches (CoreConfig::model_caches is off), yet
// every core owns an L1 and an L2 and every snapshot fork builds, saves and
// restores them; an untouched cache costs no memory and snapshots as zero
// lines, and an empty array means exactly "every line invalid".
#pragma once

#include <cstdint>
#include <vector>

#include "common/snapshot_io.hpp"
#include "common/types.hpp"

namespace bwpart::cpu {

struct CacheGeometry {
  std::uint32_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 2;

  std::uint32_t sets() const { return size_bytes / (line_bytes * ways); }

  static CacheGeometry l1_default() { return {32 * 1024, 64, 2}; }
  static CacheGeometry l2_default() { return {256 * 1024, 64, 8}; }
};

class Cache {
 public:
  struct Outcome {
    bool hit = false;
    bool writeback = false;   ///< a dirty victim was evicted
    Addr writeback_addr = 0;  ///< line address of the dirty victim
  };

  explicit Cache(const CacheGeometry& geom);

  /// Looks up `addr`; on miss, allocates the line (evicting LRU). A write
  /// marks the line dirty. Returns hit/miss and any dirty eviction.
  Outcome access(Addr addr, AccessType type);

  /// Lookup without any state change (tests, warm-up inspection).
  bool probe(Addr addr) const;

  /// Drops all lines (clean and dirty) without writebacks.
  void invalidate_all();

  const CacheGeometry& geometry() const { return geom_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) / static_cast<double>(total);
  }
  void reset_stats() { hits_ = misses_ = 0; }

  /// Snapshot hooks: every line (tags, LRU stamps, dirty bits), the LRU
  /// clock and the hit/miss counters. A cache that was never accessed saves
  /// zero lines. Geometry is configuration: restore accepts exactly zero
  /// lines (leaving the cache as if freshly built) or sets x ways lines,
  /// and throws snap::SnapshotError on any other count.
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru_stamp = 0;
    bool valid = false;
    bool dirty = false;
  };

  std::size_t line_count() const {
    return static_cast<std::size_t>(sets_) * geom_.ways;
  }
  std::uint64_t tag_of(Addr addr) const { return addr / geom_.line_bytes / sets_; }
  std::uint32_t set_of(Addr addr) const {
    return static_cast<std::uint32_t>((addr / geom_.line_bytes) % sets_);
  }
  Addr line_addr(std::uint64_t tag, std::uint32_t set) const {
    return (tag * sets_ + set) * geom_.line_bytes;
  }

  CacheGeometry geom_;
  std::uint32_t sets_;
  std::vector<Line> lines_;  // [set][way] flattened; empty until accessed
  std::uint64_t stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace bwpart::cpu
