#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace bwpart {
namespace {

TEST(Parallel, EveryIndexRunsExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, ResultsMatchSerialExecution) {
  const std::size_t n = 500;
  std::vector<double> parallel_out(n), serial_out(n);
  auto work = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = 1; k <= 100; ++k) {
      acc += static_cast<double>((i * k) % 97) / static_cast<double>(k);
    }
    return acc;
  };
  parallel_for(n, [&](std::size_t i) { parallel_out[i] = work(i); }, 4);
  for (std::size_t i = 0; i < n; ++i) serial_out[i] = work(i);
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(Parallel, ZeroItemsIsNoop) {
  bool ran = false;
  parallel_for(0, [&](std::size_t) { ran = true; }, 4);
  EXPECT_FALSE(ran);
}

TEST(Parallel, SingleThreadRunsInline) {
  std::vector<std::size_t> order;
  parallel_for(10, [&](std::size_t i) { order.push_back(i); }, 1);
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);  // inline path is in-order
}

TEST(Parallel, MoreThreadsThanItemsIsSafe) {
  std::atomic<int> count{0};
  parallel_for(3, [&](std::size_t) { count.fetch_add(1); }, 64);
  EXPECT_EQ(count.load(), 3);
}

TEST(Parallel, DefaultParallelismBounds) {
  EXPECT_EQ(default_parallelism(0), 1u);
  EXPECT_EQ(default_parallelism(1), 1u);
  EXPECT_GE(default_parallelism(1000), 1u);
  EXPECT_LE(default_parallelism(4), 4u);
}

// Restores (or clears) BWPART_SWEEP_THREADS on scope exit so cap tests
// cannot leak into each other.
class ScopedSweepThreads {
 public:
  explicit ScopedSweepThreads(const char* value) {
    const char* old = std::getenv("BWPART_SWEEP_THREADS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv("BWPART_SWEEP_THREADS", value, 1);
  }
  ~ScopedSweepThreads() {
    if (had_) {
      ::setenv("BWPART_SWEEP_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("BWPART_SWEEP_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(Parallel, SweepThreadsEnvCapsDefaultParallelism) {
  ScopedSweepThreads env("1");
  EXPECT_EQ(parallelism_cap(), 1u);
  EXPECT_EQ(default_parallelism(1000), 1u);
}

TEST(Parallel, SweepThreadsEnvClampsExplicitThreadRequests) {
  ScopedSweepThreads env("1");
  // With the cap at 1, even an explicit 8-thread request must run inline
  // (in index order) — that is the oversubscription guard's contract for
  // sharded sweep workers.
  std::vector<std::size_t> order;
  parallel_for(10, [&](std::size_t i) { order.push_back(i); }, 8);
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(Parallel, MalformedSweepThreadsEnvMeansNoCap) {
  for (const char* bad : {"", "0", "banana", "4x"}) {
    ScopedSweepThreads env(bad);
    EXPECT_EQ(parallelism_cap(), SIZE_MAX) << "value '" << bad << "'";
  }
}

TEST(Parallel, ActuallyUsesMultipleThreads) {
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  // Rendezvous instead of a fixed busy loop: a body stays in flight until a
  // second body overlaps it, so the peak no longer depends on how fast the
  // workers start on a loaded host. The wait is bounded by one shared
  // deadline, so a serial parallel_for fails the check below after about a
  // second instead of hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  parallel_for(
      64,
      [&](std::size_t) {
        const int now = concurrent.fetch_add(1) + 1;
        int p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        while (peak.load() < 2 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        concurrent.fetch_sub(1);
      },
      4);
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GT(peak.load(), 1);
  }
}

}  // namespace
}  // namespace bwpart
