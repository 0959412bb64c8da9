// Bit-exact regression pin for the span/in-place solver refactor.
//
// qos_allocate, weighted_optimal_allocation/shares, compute_shares,
// analytic_allocation, waterfill and knapsack_allocate were refactored to
// take std::span<const AppParams> end-to-end and delegate to *_into cores
// that borrow caller scratch (SolveWorkspace) instead of allocating — the
// advisor's hot path depends on that. This suite freezes the pre-refactor
// implementations verbatim (namespace ref, minus the advisory check::
// calls, which never alter results) and asserts the
// production entry points return bitwise-identical doubles on 200 random
// workloads per property plus paper-magnitude profiles. Any reassociation,
// reordering or copy-elimination slip that moves one result by one ULP
// fails here before it can reach the golden corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <vector>

#include "common/pbt.hpp"
#include "core/partition.hpp"
#include "core/qos.hpp"
#include "core/weighted.hpp"

namespace {

using namespace bwpart;
using core::AppParams;
using core::Metric;
using core::QosPlan;
using core::QosRequirement;
using core::Scheme;

// -- Frozen pre-refactor implementations (verbatim copies) -------------------

namespace ref {

std::vector<double> normalized(std::vector<double> w) {
  const double sum = std::accumulate(w.begin(), w.end(), 0.0);
  for (double& x : w) x /= sum;
  return w;
}

std::vector<double> scheme_weights(Scheme s, std::span<const AppParams> apps) {
  std::vector<double> w;
  w.reserve(apps.size());
  for (const AppParams& a : apps) {
    switch (s) {
      case Scheme::Equal:
        w.push_back(1.0);
        break;
      case Scheme::Proportional:
      case Scheme::NoPartitioning:  // demand-proportional approximation
        w.push_back(a.apc_alone);
        break;
      case Scheme::SquareRoot:
        w.push_back(std::sqrt(a.apc_alone));
        break;
      case Scheme::TwoThirdsPower:
        w.push_back(std::pow(a.apc_alone, 2.0 / 3.0));
        break;
      case Scheme::PriorityApc:
      case Scheme::PriorityApi:
        std::abort();
    }
  }
  return w;
}

std::vector<std::uint32_t> priority_ranks(Scheme s,
                                          std::span<const AppParams> apps) {
  std::vector<std::uint32_t> order(apps.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     const double ka = s == Scheme::PriorityApc
                                           ? apps[a].apc_alone
                                           : apps[a].api;
                     const double kb = s == Scheme::PriorityApc
                                           ? apps[b].apc_alone
                                           : apps[b].api;
                     return ka < kb;
                   });
  std::vector<std::uint32_t> rank(apps.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

std::vector<std::uint32_t> density_ranks(std::span<const double> density) {
  std::vector<std::uint32_t> order(density.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return density[a] > density[b];
                   });
  std::vector<std::uint32_t> rank(density.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

std::vector<double> knapsack_allocate(std::span<const double> caps,
                                      std::span<const std::uint32_t> ranks,
                                      double b) {
  std::vector<std::uint32_t> order(caps.size());
  for (std::uint32_t i = 0; i < caps.size(); ++i) order[ranks[i]] = i;
  std::vector<double> alloc(caps.size(), 0.0);
  double remaining = b;
  for (std::uint32_t idx : order) {
    const double take = std::min(caps[idx], remaining);
    alloc[idx] = take;
    remaining -= take;
    if (remaining <= 0.0) break;
  }
  return alloc;
}

std::vector<double> waterfill(std::span<const double> weights,
                              std::span<const double> caps, double b) {
  const std::size_t n = weights.size();
  std::vector<double> alloc(n, 0.0);
  std::vector<bool> capped(n, false);
  double remaining = b;
  for (std::size_t pass = 0; pass < n && remaining > 1e-15; ++pass) {
    double active_weight = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!capped[i]) active_weight += weights[i];
    }
    if (active_weight <= 0.0) break;
    bool newly_capped = false;
    const double budget = remaining;
    for (std::size_t i = 0; i < n; ++i) {
      if (capped[i]) continue;
      const double offer = budget * weights[i] / active_weight;
      const double headroom = caps[i] - alloc[i];
      if (offer >= headroom) {
        alloc[i] = caps[i];
        remaining -= headroom;
        capped[i] = true;
        newly_capped = true;
      }
    }
    if (!newly_capped) {
      for (std::size_t i = 0; i < n; ++i) {
        if (capped[i]) continue;
        alloc[i] += budget * weights[i] / active_weight;
        remaining -= budget * weights[i] / active_weight;
      }
      break;
    }
  }
  return alloc;
}

std::vector<double> analytic_allocation(Scheme s,
                                        std::span<const AppParams> apps,
                                        double b) {
  std::vector<double> caps;
  caps.reserve(apps.size());
  for (const AppParams& a : apps) caps.push_back(a.apc_alone);
  std::vector<double> alloc;
  if (core::is_priority_scheme(s)) {
    const std::vector<std::uint32_t> ranks = ref::priority_ranks(s, apps);
    alloc = ref::knapsack_allocate(caps, ranks, b);
  } else {
    const std::vector<double> w = ref::scheme_weights(s, apps);
    alloc = ref::waterfill(w, caps, b);
  }
  return alloc;
}

std::vector<double> compute_shares(Scheme s, std::span<const AppParams> apps,
                                   double b) {
  if (core::is_priority_scheme(s)) {
    const std::vector<double> alloc = ref::analytic_allocation(s, apps, b);
    const double sum = std::accumulate(alloc.begin(), alloc.end(), 0.0);
    std::vector<double> beta(alloc.size());
    for (std::size_t i = 0; i < alloc.size(); ++i) beta[i] = alloc[i] / sum;
    return beta;
  }
  return ref::normalized(ref::scheme_weights(s, apps));
}

QosPlan qos_allocate(std::span<const AppParams> apps,
                     std::span<const QosRequirement> requirements, double b,
                     Scheme best_effort_scheme) {
  QosPlan plan;
  plan.apc_shared.assign(apps.size(), 0.0);

  std::vector<bool> is_qos(apps.size(), false);
  for (const QosRequirement& req : requirements) {
    is_qos[req.app_index] = true;
    const AppParams& a = apps[req.app_index];
    const double reserve = req.ipc_target * a.api;
    if (reserve > a.apc_alone) return plan;  // target unreachable
    plan.apc_shared[req.app_index] = reserve;
    plan.b_qos += reserve;
  }
  if (plan.b_qos > b) return plan;  // reservations exceed total bandwidth
  plan.b_best_effort = b - plan.b_qos;

  std::vector<AppParams> be_apps;
  std::vector<std::size_t> be_index;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!is_qos[i]) {
      be_apps.push_back(apps[i]);
      be_index.push_back(i);
    }
  }
  if (!be_apps.empty() && plan.b_best_effort > 0.0) {
    const std::vector<double> be_alloc =
        ref::analytic_allocation(best_effort_scheme, be_apps,
                                 plan.b_best_effort);
    for (std::size_t k = 0; k < be_apps.size(); ++k) {
      plan.apc_shared[be_index[k]] = be_alloc[k];
    }
  }

  const double total =
      std::accumulate(plan.apc_shared.begin(), plan.apc_shared.end(), 0.0);
  plan.beta.resize(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    plan.beta[i] = plan.apc_shared[i] / total;
  }
  plan.feasible = true;
  return plan;
}

std::vector<double> weighted_optimal_allocation(
    Metric m, std::span<const AppParams> apps,
    std::span<const double> weights, double b) {
  const std::size_t n = apps.size();
  std::vector<double> caps(n);
  for (std::size_t i = 0; i < n; ++i) caps[i] = apps[i].apc_alone;
  switch (m) {
    case Metric::HarmonicWeightedSpeedup: {
      std::vector<double> w(n);
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = std::sqrt(weights[i] * apps[i].apc_alone);
      }
      return ref::waterfill(w, caps, std::min(b, std::accumulate(caps.begin(),
                                                            caps.end(), 0.0)));
    }
    case Metric::MinFairness: {
      std::vector<double> w(n);
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = weights[i] * apps[i].apc_alone;
      }
      return ref::waterfill(w, caps, std::min(b, std::accumulate(caps.begin(),
                                                            caps.end(), 0.0)));
    }
    case Metric::WeightedSpeedup: {
      std::vector<double> density(n);
      for (std::size_t i = 0; i < n; ++i) {
        density[i] = weights[i] / apps[i].apc_alone;
      }
      return ref::knapsack_allocate(caps, ref::density_ranks(density), b);
    }
    case Metric::IpcSum: {
      std::vector<double> density(n);
      for (std::size_t i = 0; i < n; ++i) {
        density[i] = weights[i] / apps[i].api;
      }
      return ref::knapsack_allocate(caps, ref::density_ranks(density), b);
    }
  }
  return {};
}

std::vector<double> weighted_optimal_shares(Metric m,
                                            std::span<const AppParams> apps,
                                            std::span<const double> weights,
                                            double b) {
  std::vector<double> alloc =
      ref::weighted_optimal_allocation(m, apps, weights, b);
  const double sum = std::accumulate(alloc.begin(), alloc.end(), 0.0);
  for (double& x : alloc) x /= sum;
  return alloc;
}

}  // namespace ref

// -- Bitwise comparison helpers ----------------------------------------------

std::string diff_bits(std::string_view what, std::span<const double> got,
                      std::span<const double> want) {
  if (got.size() != want.size()) {
    return std::string(what) + ": arity " + std::to_string(got.size()) +
           " vs " + std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      std::ostringstream os;
      os.precision(17);
      os << what << "[" << i << "]: " << got[i] << " != " << want[i];
      return os.str();
    }
  }
  return {};
}

struct Workload {
  std::vector<AppParams> apps;
  double b = 0.0;
};

Workload gen_workload(Rng& rng) {
  Workload w;
  const std::size_t n = pbt::gen_uint(rng, 1, 12);
  w.apps.resize(n);
  double total = 0.0;
  for (AppParams& a : w.apps) {
    a.apc_alone = pbt::gen_log_double(rng, 1e-3, 1.0);
    a.api = pbt::gen_log_double(rng, 1e-2, 2.0);
    total += a.apc_alone;
  }
  // Budgets from scarce to saturating (past sum-of-caps).
  w.b = pbt::gen_double(rng, 0.05, 1.5) * total;
  return w;
}

std::string print_workload(const Workload& w) {
  std::ostringstream os;
  os.precision(17);
  os << "b=" << w.b;
  for (const AppParams& a : w.apps) {
    os << " (" << a.apc_alone << "," << a.api << ")";
  }
  return os.str();
}

// Paper-magnitude spot checks (Table III APC/API ranges).
std::vector<AppParams> paper_profiles() {
  return {{0.585, 0.599}, {0.291, 0.308}, {0.141, 0.151},
          {0.071, 0.090}, {0.440, 0.500}, {0.024, 0.063}};
}

TEST(SolverSpanRegression, SharesAndAllocationsBitMatchAllSchemes) {
  const auto result = pbt::for_all<Workload>(
      "shares_alloc_bitwise", gen_workload,
      [](const Workload& w) -> std::string {
        for (Scheme s : core::kAllSchemes) {
          std::string d = diff_bits(
              "alloc(" + core::to_string(s) + ")",
              core::analytic_allocation(s, w.apps, w.b),
              ref::analytic_allocation(s, w.apps, w.b));
          if (!d.empty()) return d;
          d = diff_bits("shares(" + core::to_string(s) + ")",
                        core::compute_shares(s, w.apps, w.b),
                        ref::compute_shares(s, w.apps, w.b));
          if (!d.empty()) return d;
        }
        return {};
      },
      {}, nullptr, print_workload);
  EXPECT_TRUE(result.ok) << result.report();
}

TEST(SolverSpanRegression, WaterfillAndKnapsackBitMatch) {
  const auto result = pbt::for_all<Workload>(
      "waterfill_knapsack_bitwise", gen_workload,
      [](const Workload& w) -> std::string {
        std::vector<double> caps, weights;
        for (const AppParams& a : w.apps) {
          caps.push_back(a.apc_alone);
          weights.push_back(a.api);  // any positive weights exercise it
        }
        std::string d = diff_bits("waterfill",
                                  core::waterfill(weights, caps, w.b),
                                  ref::waterfill(weights, caps, w.b));
        if (!d.empty()) return d;
        const auto ranks = ref::density_ranks(weights);
        return diff_bits("knapsack",
                         core::knapsack_allocate(caps, ranks, w.b),
                         ref::knapsack_allocate(caps, ranks, w.b));
      },
      {}, nullptr, print_workload);
  EXPECT_TRUE(result.ok) << result.report();
}

TEST(SolverSpanRegression, QosPlanBitMatchesPreRefactorApi) {
  const auto result = pbt::for_all<Workload>(
      "qos_allocate_bitwise", gen_workload,
      [](const Workload& w) -> std::string {
        if (w.apps.size() < 2) return {};
        Rng rng(std::bit_cast<std::uint64_t>(w.b));
        std::vector<QosRequirement> reqs;
        const std::size_t nreq = pbt::gen_uint(rng, 1, w.apps.size() - 1);
        for (std::size_t k = 0; k < nreq; ++k) {
          const AppParams& a = w.apps[k];
          // Mostly feasible targets, sometimes unreachable on purpose.
          const double frac = pbt::gen_double(rng, 0.1, 1.3);
          reqs.push_back({static_cast<std::uint32_t>(k),
                          frac * a.apc_alone / a.api});
        }
        for (Scheme be : {Scheme::Proportional, Scheme::SquareRoot,
                          Scheme::PriorityApc, Scheme::PriorityApi}) {
          const QosPlan got = core::qos_allocate(w.apps, reqs, w.b, be);
          const QosPlan want = ref::qos_allocate(w.apps, reqs, w.b, be);
          if (got.feasible != want.feasible) {
            return "feasible mismatch for " + core::to_string(be);
          }
          if (std::bit_cast<std::uint64_t>(got.b_qos) !=
                  std::bit_cast<std::uint64_t>(want.b_qos) ||
              std::bit_cast<std::uint64_t>(got.b_best_effort) !=
                  std::bit_cast<std::uint64_t>(want.b_best_effort)) {
            return "b_qos/b_best_effort mismatch for " + core::to_string(be);
          }
          if (!got.feasible) continue;
          std::string d = diff_bits("qos apc_shared(" + core::to_string(be) +
                                        ")",
                                    got.apc_shared, want.apc_shared);
          if (!d.empty()) return d;
          d = diff_bits("qos beta(" + core::to_string(be) + ")", got.beta,
                        want.beta);
          if (!d.empty()) return d;
        }
        return {};
      },
      {}, nullptr, print_workload);
  EXPECT_TRUE(result.ok) << result.report();
}

TEST(SolverSpanRegression, WeightedOptimaBitMatchAllMetrics) {
  const auto result = pbt::for_all<Workload>(
      "weighted_optima_bitwise", gen_workload,
      [](const Workload& w) -> std::string {
        Rng rng(std::bit_cast<std::uint64_t>(w.b) ^ 0x77);
        std::vector<double> weights(w.apps.size());
        for (double& x : weights) x = pbt::gen_log_double(rng, 0.25, 4.0);
        for (Metric m : core::kAllMetrics) {
          std::string d = diff_bits(
              "weighted alloc(" + core::to_string(m) + ")",
              core::weighted_optimal_allocation(m, w.apps, weights, w.b),
              ref::weighted_optimal_allocation(m, w.apps, weights, w.b));
          if (!d.empty()) return d;
          d = diff_bits(
              "weighted shares(" + core::to_string(m) + ")",
              core::weighted_optimal_shares(m, w.apps, weights, w.b),
              ref::weighted_optimal_shares(m, w.apps, weights, w.b));
          if (!d.empty()) return d;
        }
        return {};
      },
      {}, nullptr, print_workload);
  EXPECT_TRUE(result.ok) << result.report();
}

TEST(SolverSpanRegression, PaperMagnitudeProfilesBitMatch) {
  const std::vector<AppParams> apps = paper_profiles();
  const std::vector<double> weights = {1.0, 2.0, 0.5, 1.5, 1.0, 3.0};
  for (double b : {0.2, 0.8, 1.552, 3.0}) {
    for (Scheme s : core::kAllSchemes) {
      EXPECT_EQ(diff_bits("alloc", core::analytic_allocation(s, apps, b),
                          ref::analytic_allocation(s, apps, b)),
                "")
          << core::to_string(s) << " b=" << b;
    }
    for (Metric m : core::kAllMetrics) {
      EXPECT_EQ(
          diff_bits("weighted",
                    core::weighted_optimal_allocation(m, apps, weights, b),
                    ref::weighted_optimal_allocation(m, apps, weights, b)),
          "")
          << core::to_string(m) << " b=" << b;
    }
    const std::vector<QosRequirement> reqs = {{0, 0.5}, {3, 0.3}};
    const QosPlan got = core::qos_allocate(apps, reqs, b, Scheme::SquareRoot);
    const QosPlan want = ref::qos_allocate(apps, reqs, b, Scheme::SquareRoot);
    ASSERT_EQ(got.feasible, want.feasible) << "b=" << b;
    if (got.feasible) {
      EXPECT_EQ(diff_bits("qos", got.apc_shared, want.apc_shared), "")
          << "b=" << b;
    }
  }
}

/// The workspace-reusing forms must also be self-consistent: repeated
/// solves through one SolveWorkspace never depend on leftover scratch.
TEST(SolverSpanRegression, WorkspaceReuseIsStateless) {
  core::SolveWorkspace ws;
  const std::vector<AppParams> apps = paper_profiles();
  std::vector<double> first(apps.size());
  std::vector<double> again(apps.size());
  for (Scheme s : core::kAllSchemes) {
    core::analytic_allocation_into(s, apps, 0.9, first, ws);
    // Pollute every scratch vector, then re-solve through the same ws.
    ws.caps.assign(64, 1e9);
    ws.weights.assign(64, -1.0);
    ws.keys.assign(64, 3.14);
    ws.alloc.assign(64, 7.0);
    ws.index.assign(64, 9);
    ws.ranks.assign(64, 9);
    ws.order.assign(64, 9);
    ws.flags.assign(64, 2);
    core::analytic_allocation_into(s, apps, 0.9, again, ws);
    EXPECT_EQ(diff_bits("reuse", again, first), "") << core::to_string(s);
  }
}

}  // namespace
