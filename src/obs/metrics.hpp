// Observability metrics: a hierarchical registry of counters, gauges and
// fixed-log2-bucket histograms with lock-free hot paths.
//
// Naming is dotted-path hierarchical ("mem.latency_cycles.app0"); the
// registry owns every instrument and hands out stable references, so an
// instrumented component resolves its instruments once (cold) and then
// updates them with a single relaxed atomic op (hot). All updates are
// loss-free under concurrent writers — the property suite hammers one
// registry from a parallel_for and checks the totals exactly.
//
// The whole subsystem is advisory: nothing here feeds back into the
// simulation, so attaching or detaching it can never change a result (the
// zero-overhead differential test enforces exactly that).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace bwpart::obs {

/// Every build compiles the instrumentation hooks in; a Hub's runtime
/// switch (Hub::set_enabled) is the only way to turn them off. The constant
/// stays because perfbench's build record reports it.
inline constexpr bool kEnabled = true;

/// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written double (instantaneous level, e.g. an estimated APC_alone).
class Gauge {
 public:
  void set(double x) {
    bits_.store(std::bit_cast<std::uint64_t>(x), std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{0};  // 0 bits == 0.0
};

/// Histogram over unsigned values with fixed power-of-two buckets: bucket 0
/// holds the value 0, bucket i >= 1 holds [2^(i-1), 2^i). The bucket index
/// of v is therefore std::bit_width(v), and the invariants the property
/// suite checks are structural: counts sum to count(), every recorded value
/// lands in exactly one bucket, and min/max/sum track exactly.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width ranges 0..64

  static constexpr std::size_t bucket_index(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Smallest value bucket `i` can hold.
  static constexpr std::uint64_t bucket_lower(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  void record(std::uint64_t v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Min/max over recorded values; min() is UINT64_MAX and max() is 0 while
  /// the histogram is empty.
  std::uint64_t min() const { return min_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_{0};
};

/// The registry: resolves dotted-path names to instruments, creating them on
/// first use. Resolution takes a mutex (cold); the returned references stay
/// valid for the registry's lifetime, so hot paths never lock.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  std::size_t size() const;

  /// One JSON object keyed by instrument name:
  ///   counters -> integer, gauges -> number,
  ///   histograms -> {count, sum, min, max, mean, buckets: {"<lower>": n}}
  /// (only non-empty buckets are emitted).
  void write_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace bwpart::obs
