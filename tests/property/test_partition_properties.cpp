// Closed-form partitioning properties under randomized workloads: share
// normalization for every scheme, Eq. 2 conservation of the analytic
// allocation, sqrt-rule optimality against perturbed feasible neighbors,
// and negative tests proving the invariant checkers catch seeded
// violations (a beta sum off by 1e-3, a cap-busting allocation).
#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/pbt.hpp"
#include "core/metrics.hpp"
#include "core/partition.hpp"
#include "harness/generators.hpp"
#include "mem/scheduler.hpp"

namespace bwpart {
namespace {

using core::AppParams;
using core::Scheme;

struct PartitionCase {
  std::vector<AppParams> apps;
  double b = 0.0;
  Scheme scheme = Scheme::NoPartitioning;
};

pbt::GenFn<PartitionCase> partition_case_gen() {
  return [](Rng& rng) {
    PartitionCase c;
    c.apps = harness::gen::workload(rng, 2, 8);
    c.b = harness::gen::bandwidth(rng, c.apps);
    c.scheme = harness::gen::scheme(rng);
    return c;
  };
}

std::string print_case(const PartitionCase& c) {
  std::ostringstream os;
  os << "scheme=" << core::to_string(c.scheme) << " B=" << c.b << " apps={";
  for (const AppParams& a : c.apps) {
    os << "(apc=" << a.apc_alone << ",api=" << a.api << ")";
  }
  os << "}";
  return os.str();
}

double sum(std::span<const double> v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(PartitionProperties, SharesAreNormalizedForEveryScheme) {
  const pbt::Result r = pbt::for_all<PartitionCase>(
      "shares-normalized", partition_case_gen(),
      [](const PartitionCase& c) -> std::string {
        for (const Scheme s : core::kAllSchemes) {
          const std::vector<double> beta =
              core::compute_shares(s, c.apps, c.b);
          if (beta.size() != c.apps.size()) return "beta size mismatch";
          for (const double x : beta) {
            if (!(x >= 0.0)) return "negative share under " + to_string(s);
          }
          if (std::abs(sum(beta) - 1.0) > check::kShareSumTol) {
            return "share sum != 1 under " + to_string(s);
          }
        }
        return {};
      },
      {}, nullptr, print_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

TEST(PartitionProperties, AllocationConservesBandwidthAndRespectsCaps) {
  // Eq. 2 for the analytic allocation of every scheme: allocations are
  // nonnegative, never exceed APC_alone, and sum to min(B, sum APC_alone).
  const pbt::Result r = pbt::for_all<PartitionCase>(
      "allocation-eq2", partition_case_gen(),
      [](const PartitionCase& c) -> std::string {
        const std::vector<double> caps = core::apc_alone_of(c.apps);
        const double expect_total = std::min(c.b, sum(caps));
        const double tol = 1e-9 * std::max(1.0, expect_total);
        for (const Scheme s : core::kAllSchemes) {
          const std::vector<double> alloc =
              core::analytic_allocation(s, c.apps, c.b);
          for (std::size_t i = 0; i < alloc.size(); ++i) {
            if (alloc[i] < -tol) return "negative allocation";
            if (alloc[i] > caps[i] + tol) return "allocation exceeds cap";
          }
          if (std::abs(sum(alloc) - expect_total) > tol) {
            return "allocation sum != min(B, sum caps) under " + to_string(s);
          }
        }
        return {};
      },
      {}, nullptr, print_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

TEST(PartitionProperties, SqrtRuleBeatsPerturbedNeighborsOnHsp) {
  // Section III-B: the sqrt allocation maximizes Hsp over the feasible set
  // {sum alloc = min(B, sum caps), 0 <= alloc_i <= cap_i}. Move mass
  // between random app pairs (staying feasible) and verify Hsp never
  // improves beyond numerical noise.
  const pbt::Result r = pbt::for_all<PartitionCase>(
      "sqrt-hsp-optimal", partition_case_gen(),
      [](const PartitionCase& c) -> std::string {
        const std::vector<double> caps = core::apc_alone_of(c.apps);
        const std::vector<double> alloc =
            core::analytic_allocation(Scheme::SquareRoot, c.apps, c.b);
        std::vector<double> ipc_alone(c.apps.size()), ipc_shared(alloc.size());
        for (std::size_t i = 0; i < c.apps.size(); ++i) {
          ipc_alone[i] = c.apps[i].ipc_alone();
          ipc_shared[i] = c.apps[i].ipc_at(alloc[i]);
        }
        const double best =
            core::harmonic_weighted_speedup(ipc_shared, ipc_alone);

        Rng perturb_rng(42);  // fixed inner seed; outer randomness suffices
        for (int t = 0; t < 32; ++t) {
          const std::size_t i = static_cast<std::size_t>(
              pbt::gen_uint(perturb_rng, 0, c.apps.size() - 1));
          std::size_t j = static_cast<std::size_t>(
              pbt::gen_uint(perturb_rng, 0, c.apps.size() - 2));
          if (j >= i) ++j;
          const double room = std::min(alloc[i], caps[j] - alloc[j]);
          if (room <= 0.0) continue;
          const double delta =
              room * pbt::gen_double(perturb_rng, 0.01, 0.99);
          std::vector<double> moved = alloc;
          moved[i] -= delta;
          moved[j] += delta;
          if (moved[i] <= 0.0) continue;  // Hsp undefined at zero bandwidth
          std::vector<double> ipc(moved.size());
          for (std::size_t k = 0; k < moved.size(); ++k) {
            ipc[k] = c.apps[k].ipc_at(moved[k]);
          }
          const double perturbed =
              core::harmonic_weighted_speedup(ipc, ipc_alone);
          if (perturbed > best * (1.0 + 1e-9)) {
            std::ostringstream os;
            os << "perturbation (" << i << "->" << j << ", delta=" << delta
               << ") improved Hsp " << best << " -> " << perturbed;
            return os.str();
          }
        }
        return {};
      },
      {}, nullptr, print_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

TEST(PartitionProperties, ProportionalEqualizesSpeedupsUnderContention) {
  // Section III-C: beta_i ~ APC_alone_i gives every app the same speedup
  // APC_shared_i / APC_alone_i = B / sum APC_alone whenever B fits under
  // the total demand (no cap binds).
  const pbt::Result r = pbt::for_all<PartitionCase>(
      "proportional-equal-speedups", partition_case_gen(),
      [](const PartitionCase& c) -> std::string {
        const std::vector<double> caps = core::apc_alone_of(c.apps);
        const double total = sum(caps);
        const double b = std::min(c.b, total);  // clamp to contended regime
        const std::vector<double> alloc =
            core::analytic_allocation(Scheme::Proportional, c.apps, b);
        const double expect = b / total;
        for (std::size_t i = 0; i < alloc.size(); ++i) {
          const double speedup = alloc[i] / caps[i];
          if (std::abs(speedup - expect) > 1e-9) {
            std::ostringstream os;
            os << "app " << i << " speedup " << speedup << " != " << expect;
            return os.str();
          }
        }
        return {};
      },
      {}, nullptr, print_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

TEST(PartitionProperties, KnapsackServesRanksAsCapPrefix) {
  // Sections III-D/E: in rank order the knapsack allocation is full caps,
  // then at most one partial app, then zeros.
  const pbt::Result r = pbt::for_all<PartitionCase>(
      "knapsack-prefix", partition_case_gen(),
      [](const PartitionCase& c) -> std::string {
        const std::vector<double> caps = core::apc_alone_of(c.apps);
        for (const Scheme s : {Scheme::PriorityApc, Scheme::PriorityApi}) {
          const std::vector<std::uint32_t> ranks =
              core::priority_ranks(s, c.apps);
          const std::vector<double> alloc =
              core::knapsack_allocate(caps, ranks, c.b);
          // Order app indices by rank (0 served first).
          std::vector<std::size_t> order(c.apps.size());
          std::iota(order.begin(), order.end(), std::size_t{0});
          std::sort(order.begin(), order.end(),
                    [&ranks](std::size_t x, std::size_t y) {
                      return ranks[x] < ranks[y];
                    });
          // full -> (partial)? -> zero, scanning in service order
          int state = 0;  // 0 = full prefix, 1 = seen partial, 2 = zeros
          for (const std::size_t i : order) {
            const double tol = 1e-12 * std::max(1.0, caps[i]);
            const bool full = std::abs(alloc[i] - caps[i]) <= tol;
            const bool zero = alloc[i] <= tol;
            if (state == 0) {
              if (full) continue;
              state = zero ? 2 : 1;
            } else if (state == 1) {
              state = 2;
              if (!zero) return "second partial allocation after partial";
            } else if (!zero) {
              return "nonzero allocation after budget exhausted";
            }
          }
        }
        return {};
      },
      {}, nullptr, print_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

// ---------------------------------------------------------------------------
// Negative tests: deliberately seeded violations must be caught.

TEST(PartitionNegative, BetaSumOffByOneThousandthIsCaught) {
  // Exercises the share-vector check inside the scheduler.
  check::Recorder rec;
  mem::StartTimeFairScheduler sched(2);
  const std::vector<double> bad = {0.5, 0.499};  // sums to 0.999
  sched.set_shares(bad);
  EXPECT_TRUE(rec.caught("share")) << "recorded " << rec.count()
                                   << " violations";
  EXPECT_GE(rec.count(), 1u);
}

TEST(PartitionNegative, NegativeShareIsCaught) {
  check::Recorder rec;
  const std::vector<double> bad = {1.2, -0.2};
  check::share_vector(bad, "test");
  EXPECT_TRUE(rec.caught("share"));
}

TEST(PartitionNegative, CapBustingAllocationIsCaught) {
  check::Recorder rec;
  const std::vector<double> caps = {0.05, 0.02};
  const std::vector<double> alloc = {0.06, 0.01};  // sums right, busts cap 0
  check::allocation(alloc, caps, 0.07, 1e-9, "test");
  EXPECT_GE(rec.count(), 1u);
}

TEST(PartitionNegative, LeakyAccountingIsCaught) {
  check::Recorder rec;
  const std::vector<double> per_app = {0.03, 0.04};
  check::bandwidth_accounting(per_app, 0.08, "test");  // 0.07 != 0.08
  EXPECT_GE(rec.count(), 1u);
}

TEST(PartitionNegative, RecorderRestoresPreviousHandler) {
  // Nested scopes must not leak the recording handler.
  {
    check::Recorder rec;
    check::report("scoped violation", __FILE__, __LINE__);
    EXPECT_EQ(rec.count(), 1u);
    rec.clear();
    EXPECT_EQ(rec.count(), 0u);
  }
  // After scope exit a fresh Recorder starts empty and still records.
  check::Recorder rec2;
  check::share_vector(std::vector<double>{0.9, 0.2}, "test2");
  EXPECT_TRUE(rec2.caught("test2"));
}

}  // namespace
}  // namespace bwpart
