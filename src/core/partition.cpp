#include "core/partition.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/assert.hpp"
#include "common/check.hpp"

namespace bwpart::core {

std::string to_string(Scheme s) {
  switch (s) {
    case Scheme::NoPartitioning: return "No_partitioning";
    case Scheme::Equal: return "Equal";
    case Scheme::Proportional: return "Proportional";
    case Scheme::SquareRoot: return "Square_root";
    case Scheme::TwoThirdsPower: return "2/3_power";
    case Scheme::PriorityApc: return "Priority_APC";
    case Scheme::PriorityApi: return "Priority_API";
  }
  return "?";
}

double scheme_weight(Scheme s, const AppParams& a) {
  BWPART_ASSERT(a.apc_alone > 0.0, "APC_alone must be positive");
  switch (s) {
    case Scheme::Equal:
      return 1.0;
    case Scheme::Proportional:
    case Scheme::NoPartitioning:  // demand-proportional approximation
      return a.apc_alone;
    case Scheme::SquareRoot:
      return std::sqrt(a.apc_alone);
    case Scheme::TwoThirdsPower:
      return std::pow(a.apc_alone, 2.0 / 3.0);
    case Scheme::PriorityApc:
    case Scheme::PriorityApi:
      break;
  }
  BWPART_ASSERT(false, "priority schemes have no weight vector");
  return 0.0;
}

std::vector<std::uint32_t> priority_ranks(Scheme s,
                                          std::span<const AppParams> apps) {
  BWPART_ASSERT(is_priority_scheme(s), "ranks only for priority schemes");
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
  // order[r] = app with rank r; invert to rank-per-app.
  std::vector<std::uint32_t> rank(apps.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

void ranks_by_key_into(std::span<const double> keys,
                       std::span<std::uint32_t> ranks,
                       std::span<std::uint32_t> order, bool descending) {
  const std::size_t n = keys.size();
  BWPART_ASSERT(ranks.size() == n && order.size() == n,
                "ranks/order arity mismatch");
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return descending ? keys[a] > keys[b] : keys[a] < keys[b];
                   });
  for (std::uint32_t r = 0; r < n; ++r) ranks[order[r]] = r;
}

void knapsack_allocate_into(std::span<const double> caps,
                            std::span<const std::uint32_t> ranks, double b,
                            std::span<double> out,
                            std::span<std::uint32_t> order) {
  BWPART_ASSERT(caps.size() == ranks.size(), "caps/ranks arity mismatch");
  BWPART_ASSERT(out.size() == caps.size() && order.size() == caps.size(),
                "out/order arity mismatch");
  BWPART_ASSERT(b >= 0.0, "negative budget");
  // Invert ranks back into serving order.
  for (std::uint32_t i = 0; i < caps.size(); ++i) {
    BWPART_ASSERT(ranks[i] < caps.size(), "rank out of range");
    order[ranks[i]] = i;
  }
  std::fill(out.begin(), out.end(), 0.0);
  double remaining = b;
  for (std::uint32_t idx : order) {
    const double take = std::min(caps[idx], remaining);
    out[idx] = take;
    remaining -= take;
    if (remaining <= 0.0) break;
  }
}

std::vector<double> knapsack_allocate(std::span<const double> caps,
                                      std::span<const std::uint32_t> ranks,
                                      double b) {
  std::vector<double> alloc(caps.size(), 0.0);
  std::vector<std::uint32_t> order(caps.size());
  knapsack_allocate_into(caps, ranks, b, alloc, order);
  return alloc;
}

void waterfill_into(std::span<const double> weights,
                    std::span<const double> caps, double b,
                    std::span<double> out, std::span<unsigned char> capped) {
  BWPART_ASSERT(weights.size() == caps.size(), "weights/caps arity mismatch");
  BWPART_ASSERT(out.size() == caps.size() && capped.size() == caps.size(),
                "out/capped arity mismatch");
  BWPART_ASSERT(b >= 0.0, "negative budget");
  const std::size_t n = weights.size();
  std::fill(out.begin(), out.end(), 0.0);
  std::fill(capped.begin(), capped.end(), static_cast<unsigned char>(0));
  double remaining = b;
  // Each pass distributes the remaining budget proportionally among the
  // uncapped apps; apps hitting their cap are frozen and the surplus
  // redistributed. Terminates in at most n passes.
  for (std::size_t pass = 0; pass < n && remaining > 1e-15; ++pass) {
    double active_weight = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (capped[i] == 0) active_weight += weights[i];
    }
    if (active_weight <= 0.0) break;
    bool newly_capped = false;
    const double budget = remaining;
    for (std::size_t i = 0; i < n; ++i) {
      if (capped[i] != 0) continue;
      const double offer = budget * weights[i] / active_weight;
      const double headroom = caps[i] - out[i];
      if (offer >= headroom) {
        out[i] = caps[i];
        remaining -= headroom;
        capped[i] = 1;
        newly_capped = true;
      }
    }
    if (!newly_capped) {
      // Nobody capped: hand out the proportional offers and finish.
      for (std::size_t i = 0; i < n; ++i) {
        if (capped[i] != 0) continue;
        out[i] += budget * weights[i] / active_weight;
        remaining -= budget * weights[i] / active_weight;
      }
      break;
    }
  }
}

std::vector<double> waterfill(std::span<const double> weights,
                              std::span<const double> caps, double b) {
  std::vector<double> alloc(weights.size(), 0.0);
  std::vector<unsigned char> capped(weights.size(), 0);
  waterfill_into(weights, caps, b, alloc, capped);
  return alloc;
}

void compute_shares_into(Scheme s, std::span<const AppParams> apps, double b,
                         std::span<double> out, SolveWorkspace& ws) {
  BWPART_ASSERT(!apps.empty(), "empty workload");
  BWPART_ASSERT(out.size() == apps.size(), "out arity mismatch");
  if (is_priority_scheme(s)) {
    BWPART_ASSERT(b > 0.0, "priority shares need the bandwidth budget");
    ws.alloc.resize(apps.size());
    analytic_allocation_into(s, apps, b, ws.alloc, ws);
    const double sum =
        std::accumulate(ws.alloc.begin(), ws.alloc.end(), 0.0);
    BWPART_ASSERT(sum > 0.0, "knapsack allocated nothing");
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = ws.alloc[i] / sum;
    check::share_vector(out, "compute_shares(priority)");
    return;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    out[i] = scheme_weight(s, apps[i]);
    sum += out[i];
  }
  BWPART_ASSERT(sum > 0.0, "weights must have positive sum");
  for (double& x : out) x /= sum;
  check::share_vector(out, "compute_shares");
}

std::vector<double> compute_shares(Scheme s, std::span<const AppParams> apps,
                                   double b) {
  std::vector<double> beta(apps.size());
  SolveWorkspace ws;
  compute_shares_into(s, apps, b, beta, ws);
  return beta;
}

void analytic_allocation_into(Scheme s, std::span<const AppParams> apps,
                              double b, std::span<double> out,
                              SolveWorkspace& ws) {
  BWPART_ASSERT(!apps.empty(), "empty workload");
  BWPART_ASSERT(b > 0.0, "bandwidth must be positive");
  BWPART_ASSERT(out.size() == apps.size(), "out arity mismatch");
  const std::size_t n = apps.size();
  ws.caps.clear();
  for (const AppParams& a : apps) ws.caps.push_back(a.apc_alone);
  if (is_priority_scheme(s)) {
    ws.keys.clear();
    for (const AppParams& a : apps) {
      ws.keys.push_back(s == Scheme::PriorityApc ? a.apc_alone : a.api);
    }
    ws.ranks.resize(n);
    ws.order.resize(n);
    ranks_by_key_into(ws.keys, ws.ranks, ws.order);
    knapsack_allocate_into(ws.caps, ws.ranks, b, out, ws.order);
  } else {
    ws.weights.clear();
    for (const AppParams& a : apps) ws.weights.push_back(scheme_weight(s, a));
    ws.flags.resize(n);
    waterfill_into(ws.weights, ws.caps, b, out, ws.flags);
  }
  check::allocation(out, ws.caps, b, 1e-9 * std::max(1.0, b),
                    "analytic_allocation");
}

std::vector<double> analytic_allocation(Scheme s,
                                        std::span<const AppParams> apps,
                                        double b) {
  std::vector<double> alloc(apps.size());
  SolveWorkspace ws;
  analytic_allocation_into(s, apps, b, alloc, ws);
  return alloc;
}

}  // namespace bwpart::core
