#include "cpu/cache.hpp"

#include "common/assert.hpp"

namespace bwpart::cpu {

Cache::Cache(const CacheGeometry& geom) : geom_(geom), sets_(geom.sets()) {
  BWPART_ASSERT(geom.line_bytes > 0 && (geom.line_bytes & (geom.line_bytes - 1)) == 0,
                "line size must be a power of two");
  BWPART_ASSERT(geom.ways > 0, "cache needs at least one way");
  BWPART_ASSERT(geom.size_bytes % (geom.line_bytes * geom.ways) == 0,
                "size must be divisible by line*ways");
  BWPART_ASSERT(sets_ > 0, "cache needs at least one set");
}

Cache::Outcome Cache::access(Addr addr, AccessType type) {
  if (lines_.empty()) lines_.resize(line_count());
  const std::uint64_t tag = tag_of(addr);
  const std::uint32_t set = set_of(addr);
  Line* base = &lines_[static_cast<std::size_t>(set) * geom_.ways];
  ++stamp_;

  for (std::uint32_t w = 0; w < geom_.ways; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.lru_stamp = stamp_;
      if (type == AccessType::Write) line.dirty = true;
      ++hits_;
      return Outcome{true, false, 0};
    }
  }

  ++misses_;
  // Choose victim: first invalid way, else true-LRU.
  Line* victim = &base[0];
  for (std::uint32_t w = 0; w < geom_.ways; ++w) {
    Line& line = base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.lru_stamp < victim->lru_stamp) victim = &line;
  }

  Outcome out;
  if (victim->valid && victim->dirty) {
    out.writeback = true;
    out.writeback_addr = line_addr(victim->tag, set);
  }
  victim->valid = true;
  victim->tag = tag;
  victim->dirty = (type == AccessType::Write);
  victim->lru_stamp = stamp_;
  return out;
}

bool Cache::probe(Addr addr) const {
  if (lines_.empty()) return false;
  const std::uint64_t tag = tag_of(addr);
  const std::uint32_t set = set_of(addr);
  const Line* base = &lines_[static_cast<std::size_t>(set) * geom_.ways];
  for (std::uint32_t w = 0; w < geom_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

void Cache::invalidate_all() { lines_.clear(); }

void Cache::save_state(snap::Writer& w) const {
  w.tag("CACH");
  w.u64(lines_.size());
  for (const Line& line : lines_) {
    w.u64(line.tag);
    w.u64(line.lru_stamp);
    w.b(line.valid);
    w.b(line.dirty);
  }
  w.u64(stamp_);
  w.u64(hits_);
  w.u64(misses_);
}

void Cache::restore_state(snap::Reader& r) {
  r.expect_tag("CACH");
  const std::uint64_t n = r.u64();
  snap::require(n == 0 || n == line_count(),
                "cache snapshot holds neither zero lines nor sets x ways "
                "lines (geometry differs from the snapshot's)");
  lines_.resize(static_cast<std::size_t>(n));
  for (Line& line : lines_) {
    line.tag = r.u64();
    line.lru_stamp = r.u64();
    line.valid = r.b();
    line.dirty = r.b();
  }
  stamp_ = r.u64();
  hits_ = r.u64();
  misses_ = r.u64();
}

}  // namespace bwpart::cpu
