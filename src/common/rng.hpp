// Deterministic, fast pseudo-random source for the synthetic workload
// generators. xoshiro256** (Blackman & Vigna) — tiny state, excellent
// statistical quality, and fully reproducible across platforms, which the
// experiment harness relies on for repeatable runs.
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "common/snapshot_io.hpp"

namespace bwpart {

class Rng {
 public:
  /// Seeds the generator via splitmix64 so that any 64-bit seed (including
  /// zero) yields a well-mixed initial state.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit word.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) {
    BWPART_ASSERT(bound > 0, "next_below(0)");
    // Lemire's multiply-shift rejection-free approximation is fine here:
    // bound is tiny relative to 2^64 so bias is negligible, but we use the
    // rejection variant anyway for exactness.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Bernoulli trial with probability p.
  bool next_bool(double p) { return next_double() < p; }

  /// Geometric number of failures before first success, success prob p.
  /// Calls libm `log` and `log1p`, so its draws may differ across
  /// toolchains; it sits on no result path. Its only caller is
  /// AddressStreamGenerator::next(), which only the shared-L2 example
  /// (examples/shared_l2_study.cpp) drives.
  std::uint64_t next_geometric(double p);

  /// Snapshot hook: the full xoshiro256** state, so a restored stream
  /// continues bit-identically to the uninterrupted one.
  void transfer(snap::Io& io) {
    for (std::uint64_t& word : state_) io.u64(word);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace bwpart
