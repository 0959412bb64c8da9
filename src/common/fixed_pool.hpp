// Preallocated fixed-capacity slot pool (FixStateList idiom): storage for
// all entries is allocated once up front, acquire/release recycle slot
// indices through a LIFO free list, and no allocation ever happens after
// construction. Indices are stable for the lifetime of the pool, so other
// structures can hold u32 slot handles instead of pointers.
//
// Slot-assignment discipline: acquire() pops the most recently released
// slot when one exists and otherwise extends the high-water mark. This is
// exactly the grow-then-recycle sequence a dynamically grown vector + free
// list produces, which keeps slot numbering (and therefore anything
// serialized in slot order) reproducible run-to-run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/snapshot_io.hpp"

namespace bwpart {

template <typename T>
class FixedPool {
 public:
  FixedPool() = default;
  explicit FixedPool(std::size_t capacity) : items_(capacity) {
    free_.reserve(capacity);
  }

  std::size_t capacity() const { return items_.size(); }
  /// Number of slots ever handed out (the serialized prefix of the pool).
  std::size_t high_water() const { return high_water_; }
  /// Currently acquired slots.
  std::size_t live() const { return high_water_ - free_.size(); }
  std::size_t free_count() const { return free_.size(); }

  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    BWPART_ASSERT(high_water_ < items_.size(), "fixed pool exhausted");
    return static_cast<std::uint32_t>(high_water_++);
  }

  void release(std::uint32_t slot) {
    BWPART_ASSERT(slot < high_water_, "release of never-acquired slot");
    free_.push_back(slot);
  }

  T& operator[](std::uint32_t slot) {
    BWPART_ASSERT(slot < high_water_, "pool slot out of range");
    return items_[slot];
  }
  const T& operator[](std::uint32_t slot) const {
    BWPART_ASSERT(slot < high_water_, "pool slot out of range");
    return items_[slot];
  }

  /// Snapshot hook: the used prefix verbatim (free slots included — their
  /// stale contents are a deterministic function of history) through a
  /// per-entry callable, then the free list. A restore fails loudly when
  /// the snapshot needs more slots than this pool was sized for.
  template <typename Entry>
  void transfer(snap::Io& io, Entry&& entry) {
    std::uint64_t n = high_water_;
    io.u64(n);
    snap::require(n <= items_.size(),
                  "pool high-water mark exceeds this pool's capacity");
    if (io.reading()) high_water_ = static_cast<std::size_t>(n);
    for (std::size_t i = 0; i < high_water_; ++i) entry(items_[i]);
    std::uint64_t nfree = free_.size();
    io.u64(nfree);
    snap::require(nfree <= high_water_, "pool free list larger than pool");
    if (io.reading()) free_.resize(static_cast<std::size_t>(nfree));
    for (std::uint32_t& s : free_) {
      io.u32(s);
      snap::require(s < high_water_, "pool free slot out of range");
    }
  }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;  // LIFO recycle order
  std::size_t high_water_ = 0;
};

}  // namespace bwpart
