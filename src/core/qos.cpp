#include "core/qos.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"
#include "common/check.hpp"

namespace bwpart::core {

void qos_allocate_into(std::span<const AppParams> apps,
                       std::span<const QosRequirement> requirements, double b,
                       Scheme best_effort_scheme, QosPlan& plan,
                       SolveWorkspace& ws) {
  BWPART_ASSERT(!apps.empty(), "empty workload");
  BWPART_ASSERT(b > 0.0, "bandwidth must be positive");
  BWPART_ASSERT(!is_priority_scheme(best_effort_scheme) ||
                    best_effort_scheme == Scheme::PriorityApc ||
                    best_effort_scheme == Scheme::PriorityApi,
                "unexpected scheme");

  plan.feasible = false;
  plan.b_qos = 0.0;
  plan.b_best_effort = 0.0;
  plan.apc_shared.assign(apps.size(), 0.0);
  plan.beta.clear();

  ws.flags.assign(apps.size(), 0);  // is-QoS marker per app
  for (const QosRequirement& req : requirements) {
    BWPART_ASSERT(req.app_index < apps.size(), "QoS index out of range");
    BWPART_ASSERT(ws.flags[req.app_index] == 0, "duplicate QoS requirement");
    ws.flags[req.app_index] = 1;
    const AppParams& a = apps[req.app_index];
    // Reservation per Section III-G: B_QoS = IPC_target * API.
    const double reserve = req.ipc_target * a.api;
    if (reserve > a.apc_alone) return;  // target unreachable
    plan.apc_shared[req.app_index] = reserve;
    plan.b_qos += reserve;
  }
  if (plan.b_qos > b) return;  // reservations exceed total bandwidth
  plan.b_best_effort = b - plan.b_qos;

  // Best-effort sub-workload allocation over the remaining bandwidth,
  // gathered by index — no AppParams copy.
  ws.index.clear();
  ws.caps.clear();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (ws.flags[i] == 0) {
      ws.index.push_back(static_cast<std::uint32_t>(i));
      ws.caps.push_back(apps[i].apc_alone);
    }
  }
  const std::size_t m = ws.index.size();
  if (m > 0 && plan.b_best_effort > 0.0) {
    ws.alloc.resize(m);
    if (is_priority_scheme(best_effort_scheme)) {
      ws.keys.clear();
      for (std::uint32_t idx : ws.index) {
        ws.keys.push_back(best_effort_scheme == Scheme::PriorityApc
                              ? apps[idx].apc_alone
                              : apps[idx].api);
      }
      ws.ranks.resize(m);
      ws.order.resize(m);
      ranks_by_key_into(ws.keys, ws.ranks, ws.order);
      knapsack_allocate_into(ws.caps, ws.ranks, plan.b_best_effort, ws.alloc,
                             ws.order);
    } else {
      ws.weights.clear();
      for (std::uint32_t idx : ws.index) {
        ws.weights.push_back(scheme_weight(best_effort_scheme, apps[idx]));
      }
      // flags doubles as the waterfill capped scratch now that the is-QoS
      // marks have been folded into ws.index.
      ws.flags.assign(m, 0);
      waterfill_into(ws.weights, ws.caps, plan.b_best_effort, ws.alloc,
                     std::span<unsigned char>(ws.flags.data(), m));
    }
    check::allocation(ws.alloc, ws.caps, plan.b_best_effort,
                      1e-9 * std::max(1.0, plan.b_best_effort),
                      "analytic_allocation");
    for (std::size_t k = 0; k < m; ++k) {
      plan.apc_shared[ws.index[k]] = ws.alloc[k];
    }
  }

  const double total =
      std::accumulate(plan.apc_shared.begin(), plan.apc_shared.end(), 0.0);
  BWPART_ASSERT(total > 0.0, "QoS plan allocated nothing");
  plan.beta.resize(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    plan.beta[i] = plan.apc_shared[i] / total;
  }
  plan.feasible = true;
}

QosPlan qos_allocate(std::span<const AppParams> apps,
                     std::span<const QosRequirement> requirements, double b,
                     Scheme best_effort_scheme) {
  QosPlan plan;
  SolveWorkspace ws;
  qos_allocate_into(apps, requirements, b, best_effort_scheme, plan, ws);
  return plan;
}

}  // namespace bwpart::core
