// Property suite for the observability subsystem:
//   * the metrics registry never loses updates when hammered from a
//     parallel_for across threads (counters and histogram totals are exact,
//     not approximate);
//   * histogram structural invariants hold for randomized inputs (every
//     value lands in exactly one log2 bucket, bucket counts sum to count(),
//     min/max/sum track exactly);
//   * the epoch time-series a real system emits is monotone in cycle time
//     with spans that tile the run, however the run is chunked.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "common/pbt.hpp"
#include "common/rng.hpp"
#include "harness/generators.hpp"
#include "harness/system.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"

namespace bwpart::obs {
namespace {

// Deterministic per-op value with magnitudes spanning the full bucket
// range; must be a pure function of (thread, op) so the serial reference
// can recompute it.
std::uint64_t hammer_value(std::uint64_t thread, std::uint64_t op) {
  Rng rng(thread * 0x9e3779b97f4a7c15ULL + op + 1);
  return rng.next_u64() >> rng.next_below(64);
}

TEST(ObsRegistryProperty, LossFreeUnderParallelHammer) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kOps = 20'000;
  Registry reg;
  // Every thread hits the same few instruments, resolving them inside the
  // loop so resolution races with updates too.
  parallel_for(
      kThreads,
      [&reg](std::size_t t) {
        for (std::uint64_t op = 0; op < kOps; ++op) {
          reg.counter("hammer.count").add();
          reg.counter("hammer.shard" + std::to_string(op % 3)).add(2);
          reg.histogram("hammer.hist").record(hammer_value(t, op));
          reg.gauge("hammer.gauge").set(static_cast<double>(op));
        }
      },
      kThreads);

  EXPECT_EQ(reg.counter("hammer.count").value(), kThreads * kOps);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(reg.counter("hammer.shard" + std::to_string(s)).value(),
              2 * kThreads * (kOps / 3 + (static_cast<std::uint64_t>(s) <
                                                  kOps % 3
                                              ? 1
                                              : 0)));
  }

  // Serial reference for the histogram totals.
  std::uint64_t ref_sum = 0;
  std::uint64_t ref_buckets[Histogram::kBuckets] = {};
  std::uint64_t ref_min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t ref_max = 0;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t op = 0; op < kOps; ++op) {
      const std::uint64_t v = hammer_value(t, op);
      ref_sum += v;
      ++ref_buckets[Histogram::bucket_index(v)];
      ref_min = std::min(ref_min, v);
      ref_max = std::max(ref_max, v);
    }
  }
  const Histogram& h = reg.histogram("hammer.hist");
  EXPECT_EQ(h.count(), kThreads * kOps);
  EXPECT_EQ(h.sum(), ref_sum);
  EXPECT_EQ(h.min(), ref_min);
  EXPECT_EQ(h.max(), ref_max);
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(h.bucket_count(i), ref_buckets[i]) << "bucket " << i;
  }
  // The gauge holds *some* thread's last write — any value a thread wrote.
  EXPECT_GE(h.count(), 1u);
  EXPECT_LT(reg.gauge("hammer.gauge").value(), static_cast<double>(kOps));
}

TEST(ObsHistogramProperty, BucketInvariantsForRandomInputs) {
  const pbt::Result r = pbt::for_all<std::vector<std::uint64_t>>(
      "histogram-bucket-invariants",
      [](Rng& rng) {
        const std::size_t n = pbt::gen_uint(rng, 1, 300);
        std::vector<std::uint64_t> values;
        values.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          // Log-uniform magnitudes so every bucket range gets traffic,
          // including 0 and the top bucket.
          values.push_back(rng.next_u64() >> rng.next_below(64));
        }
        return values;
      },
      [](const std::vector<std::uint64_t>& values) -> std::string {
        Histogram h;
        std::uint64_t sum = 0;
        std::uint64_t mn = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t mx = 0;
        for (const std::uint64_t v : values) {
          h.record(v);
          sum += v;
          mn = std::min(mn, v);
          mx = std::max(mx, v);
        }
        if (h.count() != values.size()) return "count mismatch";
        if (h.sum() != sum) return "sum mismatch";
        if (h.min() != mn || h.max() != mx) return "min/max mismatch";
        std::uint64_t bucket_total = 0;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          bucket_total += h.bucket_count(i);
        }
        if (bucket_total != values.size()) {
          return "bucket counts do not sum to count()";
        }
        for (const std::uint64_t v : values) {
          const std::size_t i = Histogram::bucket_index(v);
          if (v < Histogram::bucket_lower(i)) return "value below its bucket";
          if (i + 1 < Histogram::kBuckets &&
              v >= Histogram::bucket_lower(i + 1)) {
            return "value reaches the next bucket";
          }
          if (h.bucket_count(i) == 0) return "recorded bucket is empty";
        }
        return {};
      });
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

struct SeriesCase {
  harness::SystemConfig cfg;
  std::vector<workload::BenchmarkSpec> mix;
  Cycle epoch = 0;
  std::vector<Cycle> chunks;  ///< run() call lengths
  std::uint64_t seed = 0;
};

pbt::GenFn<SeriesCase> series_case_gen() {
  return [](Rng& rng) {
    SeriesCase c;
    c.cfg = harness::gen::system_config(rng);
    c.mix = harness::gen::mix(rng, 1, 3);
    c.epoch = pbt::gen_uint(rng, 500, 20'000);
    const std::size_t n_chunks = pbt::gen_uint(rng, 1, 5);
    for (std::size_t i = 0; i < n_chunks; ++i) {
      c.chunks.push_back(pbt::gen_uint(rng, 1'000, 40'000));
    }
    c.seed = rng.next_u64();
    return c;
  };
}

std::string print_series_case(const SeriesCase& c) {
  std::ostringstream os;
  os << "epoch=" << c.epoch << " seed=" << c.seed << " apps=" << c.mix.size()
     << " chunks={";
  for (const Cycle ch : c.chunks) os << ch << " ";
  os << "}";
  return os.str();
}

TEST(ObsSeriesProperty, EpochRowsMonotoneAndTiling) {
  const pbt::Result r = pbt::for_all<SeriesCase>(
      "epoch-series-monotone", series_case_gen(),
      [](const SeriesCase& c) -> std::string {
        Hub hub;
        hub.set_epoch_cycles(c.epoch);
        harness::CmpSystem sys(c.cfg, c.mix, c.seed);
        sys.set_observability(&hub);
        sys.set_obs_track("prop");
        Cycle total = 0;
        for (const Cycle chunk : c.chunks) {
          sys.run(chunk);
          total += chunk;
        }
        const auto& rows = hub.series().rows();
        // Exactly one row per epoch boundary crossed.
        if (rows.size() != total / c.epoch) {
          return "expected " + std::to_string(total / c.epoch) + " rows, got " +
                 std::to_string(rows.size());
        }
        Cycle prev = 0;
        for (const EpochRow& row : rows) {
          if (row.track != "prop") return "row track mismatch";
          if (row.cycle <= prev && prev != 0) {
            return "cycle not strictly increasing";
          }
          if (row.cycle % c.epoch != 0) return "row off an epoch boundary";
          if (row.span != row.cycle - prev) {
            return "spans do not tile the run";
          }
          if (row.apps.size() != c.mix.size()) return "app arity mismatch";
          for (const AppEpochSample& s : row.apps) {
            if (s.apc < 0.0 || s.ipc < 0.0 || s.api < 0.0) {
              return "negative rate";
            }
          }
          for (const double u : row.channel_util) {
            if (u < 0.0 || u > 1.0) return "channel util outside [0, 1]";
          }
          prev = row.cycle;
        }
        if (hub.metrics().counter("sys.epochs_sampled").value() !=
            rows.size()) {
          return "epochs_sampled counter disagrees with the series";
        }
        return {};
      },
      {}, nullptr, print_series_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

}  // namespace
}  // namespace bwpart::obs
