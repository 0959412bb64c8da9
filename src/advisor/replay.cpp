#include "advisor/replay.hpp"

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "advisor/solver.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"

namespace bwpart::advisor {

namespace {

using harness::ChurnEvent;
using harness::ChurnKind;
using harness::ChurnSchedule;

/// Minimal JSON string escaping for the echoed request id (the parser
/// guarantees printable, whitespace-free characters, but quotes and
/// backslashes are printable).
std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// One re-solve over the live subset of the superset request, scattered
/// back to superset arity. Mirrors the churn engine's resolve_shares:
/// requirements are filtered to live apps and remapped to live-subset
/// positions; dormant apps hold exactly zero share.
void solve_step(Solver& solver, const Request& base,
                const std::vector<std::uint8_t>& live,
                const std::vector<double>& api_override, Arena& arena,
                std::vector<double>& shares, Answer& answer) {
  std::vector<core::AppParams> apps;
  std::vector<double> weights;
  std::vector<std::string_view> names;
  std::vector<core::QosRequirement> qos;
  std::vector<std::size_t> origin;
  for (std::size_t i = 0; i < base.apps.size(); ++i) {
    if (live[i] == 0) continue;
    core::AppParams p = base.apps[i];
    if (api_override[i] > 0.0) p.api = api_override[i];
    origin.push_back(i);
    apps.push_back(p);
    weights.push_back(base.weights[i]);
    names.push_back(base.app_names[i]);
  }
  for (const core::QosRequirement& req : base.qos) {
    if (live[req.app_index] == 0) continue;
    core::QosRequirement remapped = req;
    for (std::size_t sub = 0; sub < origin.size(); ++sub) {
      if (origin[sub] == req.app_index) {
        remapped.app_index = static_cast<decltype(remapped.app_index)>(sub);
      }
    }
    qos.push_back(remapped);
  }

  Request sub = base;
  sub.apps = apps;
  sub.weights = weights;
  sub.app_names = names;
  sub.qos = qos;

  arena.reset();
  solver.solve(sub, arena, answer);

  shares.assign(base.apps.size(), 0.0);
  for (std::size_t sub_i = 0; sub_i < origin.size(); ++sub_i) {
    shares[origin[sub_i]] = answer.shares[sub_i];
  }
  check::share_vector_live(shares, live, "advisor replay");
}

void write_step(std::ostream& out, const Request& base, std::uint64_t step,
                Cycle cycle, std::span<const ChurnEvent> events,
                const std::vector<std::uint8_t>& live,
                const std::vector<double>& shares, const Answer& answer) {
  out << "{\"id\":\"" << escape(base.id) << "\",\"step\":" << step
      << ",\"cycle\":" << cycle << ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    out << (i == 0 ? "" : ",") << "{\"kind\":\""
        << harness::to_string(events[i].kind) << "\",\"app\":\""
        << escape(base.app_names[events[i].app]) << "\"}";
  }
  out << "],\"live\":[";
  for (std::size_t i = 0; i < live.size(); ++i) {
    out << (i == 0 ? "" : ",") << (live[i] != 0 ? "true" : "false");
  }
  out << "],\"feasible\":" << (answer.feasible ? "true" : "false")
      << ",\"value\":" << answer.value << ",\"shares\":[";
  char buf[32];
  for (std::size_t i = 0; i < shares.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", shares[i]);
    out << (i == 0 ? "" : ",") << buf;
  }
  out << "]}\n";
}

}  // namespace

ReplayStats replay_churn(const Request& base, const ChurnSchedule& schedule,
                         std::ostream& out) {
  schedule.validate(base.apps.size());

  std::vector<std::uint8_t> live(base.apps.size(), 1);
  for (AppId app : schedule.initially_dormant) live[app] = 0;
  std::vector<double> api_override(base.apps.size(), -1.0);

  Solver solver;
  Arena arena;
  Answer answer;
  std::vector<double> shares;
  ReplayStats stats;

  // Step 0: the initial install over the post-dormancy live set.
  solve_step(solver, base, live, api_override, arena, shares, answer);
  write_step(out, base, stats.steps, 0, {}, live, shares, answer);
  ++stats.steps;
  ++stats.resolves;
  if (!answer.feasible) ++stats.infeasible;

  // One re-solve per churn instant: events at the same cycle coalesce into
  // a single step, mirroring the engine's re-solve batching.
  std::size_t i = 0;
  while (i < schedule.events.size()) {
    std::size_t j = i;
    while (j < schedule.events.size() &&
           schedule.events[j].at == schedule.events[i].at) {
      const ChurnEvent& ev = schedule.events[j];
      switch (ev.kind) {
        case ChurnKind::kArrive:
          live[ev.app] = 1;
          break;
        case ChurnKind::kDepart:
          live[ev.app] = 0;
          break;
        case ChurnKind::kPhase:
          if (ev.knobs.api > 0.0) api_override[ev.app] = ev.knobs.api;
          break;
      }
      ++j;
    }
    solve_step(solver, base, live, api_override, arena, shares, answer);
    write_step(out, base, stats.steps, schedule.events[i].at,
               std::span<const ChurnEvent>(schedule.events.data() + i, j - i),
               live, shares, answer);
    ++stats.steps;
    ++stats.resolves;
    if (!answer.feasible) ++stats.infeasible;
    i = j;
  }
  return stats;
}

}  // namespace bwpart::advisor
