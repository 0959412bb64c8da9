#include "harness/churn.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "harness/differential.hpp"

namespace bwpart::harness {

const char* to_string(ChurnKind k) {
  switch (k) {
    case ChurnKind::kArrive: return "arrive";
    case ChurnKind::kDepart: return "depart";
    case ChurnKind::kPhase: return "phase";
  }
  BWPART_ASSERT(false, "unknown churn kind");
  return "?";
}

// ---------------------------------------------------------------------------
// Schedule builders

ChurnSchedule& ChurnSchedule::dormant(AppId app) {
  initially_dormant.push_back(app);
  return *this;
}

ChurnSchedule& ChurnSchedule::arrive(Cycle at, AppId app) {
  events.push_back({at, ChurnKind::kArrive, app, {}});
  return *this;
}

ChurnSchedule& ChurnSchedule::depart(Cycle at, AppId app) {
  events.push_back({at, ChurnKind::kDepart, app, {}});
  return *this;
}

ChurnSchedule& ChurnSchedule::phase(Cycle at, AppId app,
                                    const PhaseKnobs& knobs) {
  events.push_back({at, ChurnKind::kPhase, app, knobs});
  return *this;
}

// ---------------------------------------------------------------------------
// Grammar

namespace {

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("churn schedule line " + std::to_string(line_no) +
                           ": " + why);
}

std::vector<std::string> split_tokens(std::string_view line) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!cur.empty()) out.push_back(std::move(cur)), cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

// Field ranges. Event cycles stay far from wrapping `measure start + at`;
// the knob bounds keep SyntheticTraceGenerator::next()'s float-to-integer
// casts and its cluster-period product in range.
constexpr Cycle kMaxEventCycle = 1'000'000'000'000'000'000;
constexpr double kMinApi = 1e-9;
constexpr double kMaxMeanCluster = 1e6;
constexpr std::uint64_t kMaxKnobCount = 1'000'000'000;

/// `text` as a number in [lo, hi]; otherwise a parse failure naming the
/// field and the token.
template <typename T>
T parse_field(std::string_view text, std::type_identity_t<T> lo,
              std::type_identity_t<T> hi, std::size_t line_no,
              const std::string& what) {
  T v{};
  const std::string problem = cli::parse_number<T>(text, lo, hi, v);
  if (!problem.empty()) parse_fail(line_no, what + " " + problem);
  return v;
}

AppId parse_app(std::string_view text, std::size_t line_no) {
  return parse_field<AppId>(text, 0, std::numeric_limits<AppId>::max(),
                            line_no, "app id");
}

void parse_knob(const std::string& tok, PhaseKnobs& knobs,
                std::size_t line_no) {
  const std::size_t eq = tok.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == tok.size()) {
    parse_fail(line_no, "phase knob '" + tok + "' is not key=value");
  }
  const std::string key = tok.substr(0, eq);
  const std::string_view val = std::string_view(tok).substr(eq + 1);
  if (key == "api") {
    knobs.api = parse_field<double>(val, kMinApi, 1.0, line_no, key);
  } else if (key == "mean_cluster") {
    knobs.mean_cluster =
        parse_field<double>(val, 1.0, kMaxMeanCluster, line_no, key);
  } else if (key == "write_fraction") {
    knobs.write_fraction = parse_field<double>(val, 0.0, 1.0, line_no, key);
  } else if (key == "dependent_fraction") {
    knobs.dependent_fraction =
        parse_field<double>(val, 0.0, 1.0, line_no, key);
  } else if (key == "seq_run_lines") {
    knobs.seq_run_lines =
        parse_field<std::uint64_t>(val, 1, kMaxKnobCount, line_no, key);
  } else if (key == "intra_cluster_gap") {
    knobs.intra_cluster_gap =
        parse_field<std::uint64_t>(val, 0, kMaxKnobCount, line_no, key);
  } else {
    parse_fail(line_no, "unknown phase knob '" + key + "'");
  }
}

/// ` key=v` with the fewest significant digits, at least the stream's
/// default six, that parse back to the same double, so a built schedule
/// round-trips through its text (and its fingerprint sees every bit).
void append_double(std::ostringstream& os, const char* key, double v) {
  char buf[32];
  for (int digits = 6;; ++digits) {
    const int len = std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    double back = 0.0;
    std::from_chars(buf, buf + len, back);
    if (back == v || digits == 17) break;
  }
  os << ' ' << key << '=' << buf;
}

void append_knobs(std::ostringstream& os, const PhaseKnobs& k) {
  if (k.api >= 0.0) append_double(os, "api", k.api);
  if (k.mean_cluster >= 0.0) append_double(os, "mean_cluster", k.mean_cluster);
  if (k.write_fraction >= 0.0) {
    append_double(os, "write_fraction", k.write_fraction);
  }
  if (k.dependent_fraction >= 0.0) {
    append_double(os, "dependent_fraction", k.dependent_fraction);
  }
  if (k.seq_run_lines != PhaseKnobs::kKeep) {
    os << " seq_run_lines=" << k.seq_run_lines;
  }
  if (k.intra_cluster_gap != PhaseKnobs::kKeep) {
    os << " intra_cluster_gap=" << k.intra_cluster_gap;
  }
}

}  // namespace

ChurnSchedule ChurnSchedule::parse(std::string_view text) {
  ChurnSchedule s;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find_first_of("\n;", pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    const std::size_t hash = line.find('#');
    const auto tokens =
        split_tokens(hash == std::string_view::npos ? line
                                                    : line.substr(0, hash));
    if (tokens.empty()) continue;
    if (tokens[0] == "dormant") {
      if (tokens.size() != 2) {
        parse_fail(line_no, "expected 'dormant <app>[,<app>...]'");
      }
      std::size_t p = 0;
      const std::string& list = tokens[1];
      while (p < list.size()) {
        const std::size_t comma = list.find(',', p);
        const std::string item =
            list.substr(p, comma == std::string::npos ? comma : comma - p);
        if (item.empty()) parse_fail(line_no, "empty app id in dormant list");
        s.initially_dormant.push_back(parse_app(item, line_no));
        p = comma == std::string::npos ? list.size() : comma + 1;
      }
      continue;
    }
    if (tokens[0].size() < 2 || tokens[0][0] != '@') {
      parse_fail(line_no, "expected '@<cycle> <verb> <app> ...' or "
                          "'dormant <apps>', got '" + tokens[0] + "'");
    }
    if (tokens.size() < 3) {
      parse_fail(line_no, "expected '@<cycle> <verb> <app> ...'");
    }
    ChurnEvent ev;
    ev.at = parse_field<Cycle>(std::string_view(tokens[0]).substr(1), 0,
                               kMaxEventCycle, line_no, "cycle");
    ev.app = parse_app(tokens[2], line_no);
    const std::string& verb = tokens[1];
    if (verb == "arrive") {
      ev.kind = ChurnKind::kArrive;
    } else if (verb == "depart") {
      ev.kind = ChurnKind::kDepart;
    } else if (verb == "phase") {
      ev.kind = ChurnKind::kPhase;
    } else {
      parse_fail(line_no, "unknown verb '" + verb + "'");
    }
    if (ev.kind != ChurnKind::kPhase && tokens.size() != 3) {
      parse_fail(line_no, "'" + verb + "' takes exactly one app id");
    }
    for (std::size_t t = 3; t < tokens.size(); ++t) {
      parse_knob(tokens[t], ev.knobs, line_no);
    }
    s.events.push_back(ev);
  }
  return s;
}

std::string ChurnSchedule::to_text() const {
  std::ostringstream os;
  if (!initially_dormant.empty()) {
    os << "dormant ";
    for (std::size_t i = 0; i < initially_dormant.size(); ++i) {
      if (i != 0) os << ',';
      os << initially_dormant[i];
    }
    os << '\n';
  }
  for (const ChurnEvent& ev : events) {
    os << '@' << ev.at << ' ' << to_string(ev.kind) << ' ' << ev.app;
    if (ev.kind == ChurnKind::kPhase) append_knobs(os, ev.knobs);
    os << '\n';
  }
  return os.str();
}

std::string ChurnSchedule::to_compact() const {
  std::string text = to_text();
  while (!text.empty() && text.back() == '\n') text.pop_back();
  std::replace(text.begin(), text.end(), '\n', ';');
  return text;
}

std::uint64_t ChurnSchedule::fingerprint() const {
  if (empty()) return 0;
  const std::string text = to_text();
  return hash_bytes(text.data(), text.size());
}

void ChurnSchedule::validate(std::size_t num_apps) const {
  const auto fail = [](const std::string& why) {
    throw std::runtime_error("churn schedule: " + why);
  };
  std::vector<std::uint8_t> live(num_apps, 1);
  for (const AppId a : initially_dormant) {
    if (a >= num_apps) {
      fail("dormant app " + std::to_string(a) + " out of range (superset " +
           std::to_string(num_apps) + ")");
    }
    if (live[a] == 0) {
      fail("app " + std::to_string(a) + " listed dormant twice");
    }
    live[a] = 0;
  }
  std::size_t num_live =
      num_apps - static_cast<std::size_t>(std::count(live.begin(), live.end(),
                                                     std::uint8_t{0}));
  if (num_live == 0) fail("every app starts dormant; nothing to run");
  Cycle prev = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChurnEvent& ev = events[i];
    if (ev.at < prev) {
      fail("event " + std::to_string(i) + " at cycle " + std::to_string(ev.at) +
           " is out of order (previous fires at " + std::to_string(prev) + ")");
    }
    prev = ev.at;
    if (ev.app >= num_apps) {
      fail("event " + std::to_string(i) + " targets app " +
           std::to_string(ev.app) + ", out of range (superset " +
           std::to_string(num_apps) + ")");
    }
    switch (ev.kind) {
      case ChurnKind::kArrive:
        if (live[ev.app] != 0) {
          fail("arrival of app " + std::to_string(ev.app) + " at cycle " +
               std::to_string(ev.at) + " but it is already live");
        }
        live[ev.app] = 1;
        ++num_live;
        break;
      case ChurnKind::kDepart:
        if (live[ev.app] == 0) {
          fail("departure of app " + std::to_string(ev.app) + " at cycle " +
               std::to_string(ev.at) + " but it is already dormant");
        }
        if (num_live == 1) {
          fail("departure of app " + std::to_string(ev.app) + " at cycle " +
               std::to_string(ev.at) + " would leave no live app");
        }
        live[ev.app] = 0;
        --num_live;
        break;
      case ChurnKind::kPhase: {
        if (live[ev.app] == 0) {
          fail("phase change for dormant app " + std::to_string(ev.app) +
               " at cycle " + std::to_string(ev.at));
        }
        const PhaseKnobs& k = ev.knobs;
        const bool any = k.api >= 0.0 || k.mean_cluster >= 0.0 ||
                         k.write_fraction >= 0.0 ||
                         k.dependent_fraction >= 0.0 ||
                         k.seq_run_lines != PhaseKnobs::kKeep ||
                         k.intra_cluster_gap != PhaseKnobs::kKeep;
        if (!any) {
          fail("phase change at cycle " + std::to_string(ev.at) +
               " sets no knob");
        }
        if (k.api >= 0.0 && (k.api < kMinApi || k.api >= 1.0)) {
          fail("phase api must be in [1e-9, 1)");
        }
        if (k.mean_cluster >= 0.0 &&
            !(k.mean_cluster >= 1.0 && k.mean_cluster <= kMaxMeanCluster)) {
          fail("phase mean_cluster must be in [1, 1e6]");
        }
        if (k.write_fraction > 1.0 || k.dependent_fraction > 1.0) {
          fail("phase fractions must be <= 1");
        }
        if (k.seq_run_lines != PhaseKnobs::kKeep && k.seq_run_lines == 0) {
          fail("phase seq_run_lines must be >= 1");
        }
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Result fingerprint

std::uint64_t fingerprint(const ChurnRunResult& r) {
  std::uint64_t h = fingerprint(r.base);
  h = hash_doubles(r.ipc_live, h);
  h = hash_doubles(r.apc_live, h);
  h = hash_bytes(r.live_cycles.data(), r.live_cycles.size() * sizeof(Cycle),
                 h);
  for (const ChurnEventOutcome& o : r.outcomes) {
    const std::uint8_t kind = static_cast<std::uint8_t>(o.event.kind);
    h = hash_bytes(&kind, 1, h);
    const std::uint64_t fields[] = {o.event.at, o.event.app, o.applied_at,
                                    o.resolved_at, o.adaptation_lag};
    h = hash_bytes(fields, sizeof(fields), h);
  }
  const std::uint64_t tail[] = {r.qos_violation_cycles,
                                r.objective_violation_cycles, r.resolves};
  return hash_bytes(tail, sizeof(tail), h);
}

// ---------------------------------------------------------------------------
// Engine

ChurnEngine::ChurnEngine(CmpSystem& sys, const ChurnSchedule& schedule,
                         const ChurnRunConfig& cfg, Cycle measure_cycles,
                         std::vector<core::AppParams> params, double profiled_b,
                         double row_hit_window)
    : sys_(sys),
      schedule_(schedule),
      cfg_(cfg),
      measure_cycles_(measure_cycles),
      row_hit_window_(row_hit_window),
      params_(std::move(params)),
      profiled_b_(profiled_b) {
  BWPART_ASSERT(measure_cycles_ > 0, "measure window must be positive");
  BWPART_ASSERT(cfg_.eval_epoch > 0, "eval epoch must be positive");
  BWPART_ASSERT(params_.size() == sys_.num_apps(),
                "params arity differs from the app superset");
  schedule_.validate(sys_.num_apps());
}

Cycle ChurnEngine::rel_now() const { return sys_.now() - measure_start_; }

void ChurnEngine::snapshot_marks() {
  const std::size_t n = sys_.num_apps();
  mark_cycle_ = sys_.now();
  mark_counters_ = sys_.profiler_counters();
  mark_live_window_.resize(n);
  eval_served_.resize(n);
  eval_instructions_.resize(n);
  eval_live_window_.resize(n);
  for (AppId a = 0; a < n; ++a) {
    mark_live_window_[a] = sys_.live_window(a);
    eval_served_[a] = sys_.controller_for(a).app_stats(a).served();
    eval_instructions_[a] = sys_.core(a).stats().instructions;
    eval_live_window_[a] = sys_.live_window(a);
  }
}

void ChurnEngine::start() {
  BWPART_ASSERT(!started_, "ChurnEngine::start called twice");
  started_ = true;
  for (const AppId a : schedule_.initially_dormant) {
    sys_.set_app_live(a, false);
  }
  resolve_shares(/*initial=*/true);
  sys_.reset_measurement();
  measure_start_ = sys_.now();
  last_eval_ = measure_start_;
  snapshot_marks();
  // Events scheduled at relative cycle 0 fire before any simulation.
  while (next_event_ < schedule_.events.size() &&
         schedule_.events[next_event_].at == 0) {
    apply_event(schedule_.events[next_event_], next_event_);
    ++next_event_;
  }
}

bool ChurnEngine::done() const {
  return started_ && sys_.now() >= measure_start_ + measure_cycles_;
}

bool ChurnEngine::step() {
  BWPART_ASSERT(started_, "ChurnEngine::step before start");
  const Cycle end = measure_start_ + measure_cycles_;
  if (sys_.now() >= end) return false;
  // Next boundary strictly after now: the next unapplied event, the pending
  // re-solve, the next evaluation-epoch edge, or the window end.
  Cycle next = end;
  if (next_event_ < schedule_.events.size()) {
    next = std::min(next, measure_start_ + schedule_.events[next_event_].at);
  }
  if (resolve_due_ != kNoCycle) next = std::min(next, resolve_due_);
  next = std::min(next, measure_start_ + (rel_now() / cfg_.eval_epoch + 1) *
                                             cfg_.eval_epoch);
  BWPART_ASSERT(next > sys_.now(), "stuck churn boundary");
  sys_.run(next - sys_.now());
  // Score the span that just ran (under the pre-boundary regime), then
  // apply whatever fell due at this cycle: events first, then the re-solve
  // (which sees their liveness changes).
  evaluate_span(last_eval_, sys_.now());
  while (next_event_ < schedule_.events.size() &&
         measure_start_ + schedule_.events[next_event_].at <= sys_.now()) {
    apply_event(schedule_.events[next_event_], next_event_);
    ++next_event_;
  }
  if (resolve_due_ != kNoCycle && sys_.now() >= resolve_due_) {
    resolve_shares(/*initial=*/false);
    resolve_due_ = kNoCycle;
  }
  return sys_.now() < end;
}

void ChurnEngine::apply_event(const ChurnEvent& ev, std::size_t index) {
  (void)index;
  switch (ev.kind) {
    case ChurnKind::kArrive:
      sys_.set_app_live(ev.app, true);
      break;
    case ChurnKind::kDepart:
      sys_.set_app_live(ev.app, false);
      break;
    case ChurnKind::kPhase: {
      workload::SyntheticTraceGenerator::Params p = sys_.app_phase(ev.app);
      const PhaseKnobs& k = ev.knobs;
      if (k.api >= 0.0) p.api = k.api;
      if (k.mean_cluster >= 0.0) p.mean_cluster = k.mean_cluster;
      if (k.write_fraction >= 0.0) p.write_fraction = k.write_fraction;
      if (k.dependent_fraction >= 0.0) {
        p.dependent_fraction = k.dependent_fraction;
      }
      if (k.seq_run_lines != PhaseKnobs::kKeep) {
        p.seq_run_lines = k.seq_run_lines;
      }
      if (k.intra_cluster_gap != PhaseKnobs::kKeep) {
        p.intra_cluster_gap = k.intra_cluster_gap;
      }
      sys_.set_app_phase(ev.app, p);
      break;
    }
  }
  sys_.note_churn_event(to_string(ev.kind), ev.app);
  ChurnEventOutcome outcome;
  outcome.event = ev;
  outcome.applied_at = sys_.now();
  if (cfg_.resolve_on_churn) {
    // (Re)open the re-profiling window; back-to-back events coalesce into
    // one re-solve after the last event's window.
    resolve_due_ = sys_.now() + cfg_.reprofile_window;
    mark_cycle_ = sys_.now();
    mark_counters_ = sys_.profiler_counters();
    for (AppId a = 0; a < sys_.num_apps(); ++a) {
      mark_live_window_[a] = sys_.live_window(a);
    }
  } else {
    // Static-once: shares stay frozen, so the event is "resolved" the
    // moment it lands — adaptation lag then measures how long the frozen
    // shares take to re-meet the objective (possibly never).
    outcome.resolved_at = sys_.now();
  }
  outcomes_.push_back(outcome);
}

void ChurnEngine::resolve_shares(bool initial) {
  const std::size_t n = sys_.num_apps();
  const std::span<const std::uint8_t> live = sys_.liveness();

  if (!initial) {
    // Refresh the estimates of every app that was live across the whole
    // re-profiling window; the others keep their previous estimates.
    const Cycle window = sys_.now() - mark_cycle_;
    if (window > 0) {
      const auto counters = sys_.profiler_counters();
      for (AppId a = 0; a < n; ++a) {
        if (live[a] == 0) continue;
        if (sys_.live_window(a) - mark_live_window_[a] != window) continue;
        profile::AppCounters delta;
        delta.accesses = counters[a].accesses - mark_counters_[a].accesses;
        delta.instructions =
            counters[a].instructions - mark_counters_[a].instructions;
        delta.interference_cycles = counters[a].interference_cycles -
                                    mark_counters_[a].interference_cycles;
        // A silent window yields a degenerate (zero-APC) estimate the
        // solver rejects; keep the stale one.
        if (delta.instructions == 0 || delta.accesses == 0) continue;
        params_[a] = profile::estimate_alone(delta, window);
      }
    }
  }

  // Gather the live sub-workload.
  std::vector<core::AppParams> live_params;
  std::vector<AppId> live_ids;
  live_params.reserve(n);
  live_ids.reserve(n);
  for (AppId a = 0; a < n; ++a) {
    if (live[a] != 0) {
      live_params.push_back(params_[a]);
      live_ids.push_back(a);
    }
  }
  BWPART_ASSERT(!live_ids.empty(), "re-solve with no live app");

  // The scheme's enforcement over the live sub-workload: the QoS plan's
  // shares, else the scheme's own rule over the live parameters.
  Enforcement live_e;
  if (!cfg_.qos.empty()) {
    // Remap the surviving requirements into the live sub-workload.
    std::vector<core::QosRequirement> live_reqs;
    for (const core::QosRequirement& req : cfg_.qos) {
      if (req.app_index < n && live[req.app_index] != 0) {
        const auto it =
            std::find(live_ids.begin(), live_ids.end(), req.app_index);
        core::QosRequirement r = req;
        r.app_index =
            static_cast<std::uint32_t>(it - live_ids.begin());
        live_reqs.push_back(r);
      }
    }
    // B: the profile-phase bandwidth initially (exactly as run_qos plans),
    // the re-profiling window's measured bandwidth afterwards.
    double b = profiled_b_;
    if (!initial) {
      const Cycle window = sys_.now() - mark_cycle_;
      if (window > 0) {
        const auto counters = sys_.profiler_counters();
        std::uint64_t served = 0;
        for (AppId a = 0; a < n; ++a) {
          served += counters[a].accesses - mark_counters_[a].accesses;
        }
        // A silent window (can happen around a mass departure) carries no
        // bandwidth signal; plan on the profile-phase estimate instead.
        if (served > 0) {
          b = static_cast<double>(served) / static_cast<double>(window);
        }
      }
    }
    const core::QosPlan plan =
        core::qos_allocate(live_params, live_reqs, b, cfg_.scheme);
    if (initial) {
      BWPART_ASSERT(plan.feasible,
                    "QoS targets infeasible at measured bandwidth");
    } else if (!plan.feasible) {
      // Keep the incumbent shares; the outcome still records the resolve
      // (the violation accounting shows what the infeasibility cost).
      ++resolves_;
      for (ChurnEventOutcome& o : outcomes_) {
        if (o.resolved_at == kNoCycle) o.resolved_at = sys_.now();
      }
      return;
    }
    live_e.beta = plan.beta;
  } else {
    live_e = enforcement_for(cfg_.scheme, live_params);
  }
  // Onto the superset. Shares: dormant apps exactly 0 (they issue nothing;
  // DSTF clamps zero shares internally, so a stale dormant entry cannot
  // starve anyone on re-arrival either — but Eq. 2 conservation wants them
  // exactly zero). Ranks: live apps keep their scheme order among
  // themselves; dormant apps are parked behind them in app order (they
  // issue nothing, but the rank vector must cover the superset).
  Enforcement e;
  if (!live_e.beta.empty()) {
    e.beta.assign(n, 0.0);
    for (std::size_t i = 0; i < live_ids.size(); ++i) {
      e.beta[live_ids[i]] = live_e.beta[i];
    }
    BWPART_CHECK_RUN(
        check::share_vector_live(e.beta, live, "ChurnEngine::resolve_shares"));
  } else if (!live_e.ranks.empty()) {
    e.ranks.assign(n, 0);
    for (std::size_t i = 0; i < live_ids.size(); ++i) {
      e.ranks[live_ids[i]] = live_e.ranks[i];
    }
    std::uint32_t next_rank = static_cast<std::uint32_t>(live_ids.size());
    for (AppId a = 0; a < n; ++a) {
      if (live[a] == 0) e.ranks[a] = next_rank++;
    }
  }

  if (initial) {
    // The measure phase's own install, so an empty schedule reproduces the
    // fixed-mix path bit-for-bit.
    install_enforcement(sys_, e, row_hit_window_);
  } else {
    // Re-solve: mutate the installed schedulers in place (virtual clocks
    // carry over, exactly like the rolling re-profiler).
    for (std::size_t c = 0; c < sys_.num_controllers(); ++c) {
      apply_enforcement(sys_.controller(c).scheduler(), e);
    }
  }
  ++resolves_;
  if (!initial) {
    for (ChurnEventOutcome& o : outcomes_) {
      if (o.resolved_at == kNoCycle) o.resolved_at = sys_.now();
    }
  }
}

void ChurnEngine::evaluate_span(Cycle span_start, Cycle span_end) {
  if (span_end <= span_start) return;
  const Cycle span = span_end - span_start;
  const double dspan = static_cast<double>(span);
  const std::size_t n = sys_.num_apps();
  const std::span<const std::uint8_t> live = sys_.liveness();

  // Per-app deltas over the span; an app only participates in the verdict
  // when it was live for the whole span (a partial tenant's rate over the
  // span denominator would be meaningless).
  std::vector<std::uint64_t> d_served(n), d_instr(n);
  std::vector<std::uint8_t> fully_live(n, 0);
  std::uint64_t total_served = 0;
  for (AppId a = 0; a < n; ++a) {
    const std::uint64_t served = sys_.controller_for(a).app_stats(a).served();
    const std::uint64_t instr = sys_.core(a).stats().instructions;
    d_served[a] = served - eval_served_[a];
    d_instr[a] = instr - eval_instructions_[a];
    total_served += d_served[a];
    fully_live[a] =
        live[a] != 0 && sys_.live_window(a) - eval_live_window_[a] == span
            ? 1
            : 0;
    eval_served_[a] = served;
    eval_instructions_[a] = instr;
    eval_live_window_[a] = sys_.live_window(a);
  }
  last_eval_ = span_end;

  bool met = true;
  bool qos_violated = false;
  bool obj_violated = false;
  if (!cfg_.qos.empty()) {
    for (const core::QosRequirement& req : cfg_.qos) {
      if (req.app_index >= n || fully_live[req.app_index] == 0) continue;
      const double ipc =
          static_cast<double>(d_instr[req.app_index]) / dspan;
      if (ipc < (1.0 - cfg_.qos_tolerance) * req.ipc_target) {
        qos_violated = true;
        met = false;
      }
    }
  } else if (cfg_.scheme != core::Scheme::NoPartitioning) {
    // Score against the scheme's analytic allocation (Eq. 2) over the
    // fully-live sub-workload at the bandwidth the span actually carried.
    std::vector<core::AppParams> sub_params;
    std::vector<AppId> sub_ids;
    for (AppId a = 0; a < n; ++a) {
      if (fully_live[a] != 0) {
        sub_params.push_back(params_[a]);
        sub_ids.push_back(a);
      }
    }
    // A span where nothing was served carries no bandwidth to misallocate
    // (and Eq. 2 needs B > 0), so it scores as trivially met.
    if (!sub_ids.empty() && total_served > 0) {
      const double b = static_cast<double>(total_served) / dspan;
      const auto alloc =
          core::analytic_allocation(cfg_.scheme, sub_params, b);
      for (std::size_t i = 0; i < sub_ids.size(); ++i) {
        const double apc = static_cast<double>(d_served[sub_ids[i]]) / dspan;
        if (apc < (1.0 - cfg_.alloc_tolerance) * alloc[i]) {
          obj_violated = true;
          met = false;
        }
      }
    }
  }
  if (qos_violated) qos_violation_cycles_ += span;
  if (obj_violated) objective_violation_cycles_ += span;
  if (met) {
    // First clean span fully after a resolve closes that event's loop.
    for (ChurnEventOutcome& o : outcomes_) {
      if (o.adaptation_lag == kNoCycle && o.resolved_at != kNoCycle &&
          o.resolved_at <= span_start) {
        o.adaptation_lag = span_end - o.applied_at;
      }
    }
  }
}

ChurnRunResult ChurnEngine::finish() {
  BWPART_ASSERT(done(), "ChurnEngine::finish before the window completed");
  sys_.check_conservation("ChurnEngine::finish");
  const std::size_t n = sys_.num_apps();
  ChurnRunResult r;
  // The fixed-run shape, scored exactly as Experiment::measure_phase does
  // (the empty-schedule bit-identity contract).
  r.base = score_window(sys_, cfg_.scheme, params_);

  r.ipc_live = sys_.measured_ipc_live();
  r.apc_live = sys_.measured_apc_live();
  r.live_cycles.resize(n);
  for (AppId a = 0; a < n; ++a) r.live_cycles[a] = sys_.live_window(a);
  r.outcomes = outcomes_;
  r.qos_violation_cycles = qos_violation_cycles_;
  r.objective_violation_cycles = objective_violation_cycles_;
  r.resolves = resolves_;
  return r;
}

void ChurnEngine::save_state(snap::Writer& w) const {
  snap::Io io(w);
  const_cast<ChurnEngine*>(this)->transfer(io);  // a writing Io stores nothing
}

void ChurnEngine::restore_state(snap::Reader& r) {
  snap::Io io(r);
  transfer(io);
}

void ChurnEngine::transfer(snap::Io& io) {
  constexpr const char* kApps = "app count differs from the snapshot's";
  io.tag("CHRN");
  io.b(started_);
  io.u64(measure_start_);
  io.sz(next_event_);
  snap::require(next_event_ <= schedule_.events.size(),
                "churn event cursor past the end of the schedule");
  io.u64(resolve_due_);
  io.u64(last_eval_);
  io.fixed(params_, "params arity differs from the snapshot's",
           [&io](core::AppParams& p) { harness::transfer(io, p); });
  io.f64(profiled_b_);
  io.u64(mark_cycle_);
  if (io.reading()) {
    const std::size_t n = sys_.num_apps();
    mark_counters_.resize(n);
    mark_live_window_.resize(n);
    eval_served_.resize(n);
    eval_instructions_.resize(n);
    eval_live_window_.resize(n);
  }
  io.fixed(mark_counters_, kApps, [&io](profile::AppCounters& c) {
    io.u64(c.accesses);
    io.u64(c.instructions);
    io.u64(c.interference_cycles);
  });
  io.fixed(mark_live_window_, kApps);
  io.arity(eval_served_.size(), kApps);
  for (std::uint64_t& v : eval_served_) io.u64(v);
  for (std::uint64_t& v : eval_instructions_) io.u64(v);
  for (Cycle& v : eval_live_window_) io.u64(v);
  // An outcome: cycle, kind, app, four double and two integer knobs, then
  // the applied and resolved cycles and the lag.
  io.list(outcomes_, 8 + 1 + 4 + 6 * 8 + 3 * 8,
          [&io](ChurnEventOutcome& o) {
            io.u64(o.event.at);
            io.enum8(o.event.kind, ChurnKind::kPhase,
                     "churn-kind byte out of range");
            io.u32(o.event.app);
            io.f64(o.event.knobs.api);
            io.f64(o.event.knobs.mean_cluster);
            io.f64(o.event.knobs.write_fraction);
            io.f64(o.event.knobs.dependent_fraction);
            io.u64(o.event.knobs.seq_run_lines);
            io.u64(o.event.knobs.intra_cluster_gap);
            io.u64(o.applied_at);
            io.u64(o.resolved_at);
            io.u64(o.adaptation_lag);
          });
  io.u64(qos_violation_cycles_);
  io.u64(objective_violation_cycles_);
  io.u64(resolves_);
}

ChurnRunResult run_churn(CmpSystem& sys, const ChurnSchedule& schedule,
                         const ChurnRunConfig& cfg, Cycle measure_cycles,
                         std::vector<core::AppParams> params, double profiled_b,
                         double row_hit_window) {
  ChurnEngine engine(sys, schedule, cfg, measure_cycles, std::move(params),
                     profiled_b, row_hit_window);
  engine.start();
  while (engine.step()) {
  }
  return engine.finish();
}

}  // namespace bwpart::harness
