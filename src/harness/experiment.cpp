#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "harness/churn.hpp"
#include "profile/alone_profiler.hpp"

namespace bwpart::harness {

double RunResult::metric(core::Metric m) const {
  switch (m) {
    case core::Metric::HarmonicWeightedSpeedup: return hsp;
    case core::Metric::MinFairness: return min_fairness;
    case core::Metric::WeightedSpeedup: return wsp;
    case core::Metric::IpcSum: return ipcsum;
  }
  BWPART_ASSERT(false, "unknown metric");
  return 0.0;
}

Experiment::Experiment(const SystemConfig& cfg,
                       std::span<const workload::BenchmarkSpec> apps,
                       const PhaseConfig& phases)
    : cfg_(cfg), apps_(apps.begin(), apps.end()), phases_(phases) {
  BWPART_ASSERT(!apps_.empty(), "experiment needs at least one app");
  BWPART_ASSERT(phases.profile_cycles > 0 && phases.measure_cycles > 0,
                "profile/measure windows must be positive");
}

namespace {

/// Phase span on the system trace track, or a dormant span when no hub is
/// attached/enabled (ScopedSpan tolerates a null emitter).
obs::ScopedSpan phase_span(const CmpSystem& sys, std::string name) {
  obs::Hub* hub = sys.observability();
  obs::TraceEmitter* em =
      (obs::kEnabled && hub != nullptr && hub->enabled()) ? &hub->trace()
                                                          : nullptr;
  return obs::ScopedSpan(em, std::move(name), obs::TraceEmitter::kSystemTrack,
                         sys.cycle_clock());
}

/// Accumulates this scope's wall-clock time into a hub counter (so hosts
/// like bench/perf_regression can attribute wall time to warmup / profile /
/// measure). Dormant when the hub is absent, disabled or compiled out.
class PhaseTimer {
 public:
  PhaseTimer(obs::Hub* hub, const char* key) : key_(key) {
    if constexpr (obs::kEnabled) {
      if (hub != nullptr && hub->enabled()) {
        hub_ = hub;
        start_ = std::chrono::steady_clock::now();
      }
    }
  }
  ~PhaseTimer() {
    if constexpr (obs::kEnabled) {
      if (hub_ != nullptr) {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
        hub_->metrics().counter(key_).add(static_cast<std::uint64_t>(ns));
      }
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  obs::Hub* hub_ = nullptr;
  const char* key_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

std::vector<core::AppParams> Experiment::profile_phase(CmpSystem& sys) const {
  // Interference is attributed only over windows whose counters are read:
  // reset_measurement() discards the warm-up's, the profile window's feed
  // Eq. 12-13.
  sys.set_interference_attribution(false);
  {
    obs::ScopedSpan span = phase_span(sys, "warmup");
    PhaseTimer timer(hub_, "harness.wall_ns.warmup");
    sys.run(phases_.warmup_cycles);
  }
  sys.reset_measurement();
  sys.set_interference_attribution(true);
  {
    obs::ScopedSpan span = phase_span(sys, "profile");
    PhaseTimer timer(hub_, "harness.wall_ns.profile");
    sys.run(phases_.profile_cycles);
  }
  if (phases_.oracle_alone) return profile_alone_oracle();
  const auto counters = sys.profiler_counters();
  std::vector<core::AppParams> params;
  params.reserve(counters.size());
  for (const profile::AppCounters& c : counters) {
    params.push_back(profile::estimate_alone(c, phases_.profile_cycles));
  }
  return params;
}

void install_enforcement(CmpSystem& sys, const Enforcement& e,
                         double row_hit_window) {
  const bool partitioned = !e.beta.empty() || !e.ranks.empty();
  for (std::size_t c = 0; c < sys.num_controllers(); ++c) {
    sys.controller(c).replace_scheduler(
        make_scheduler(e, sys.num_apps(), row_hit_window));
    sys.controller(c).set_admission_mode(partitioned
                                             ? mem::AdmissionMode::PerApp
                                             : mem::AdmissionMode::Shared);
  }
}

RunResult score_window(const CmpSystem& sys, core::Scheme scheme,
                       std::vector<core::AppParams> params) {
  RunResult r;
  r.scheme = scheme;
  r.params = std::move(params);
  r.ipc_shared = sys.measured_ipc();
  r.apc_shared = sys.measured_apc();
  r.total_apc = sys.measured_total_apc();
  r.bus_utilization = sys.bus_utilization();

  std::vector<double> ipc_alone;
  ipc_alone.reserve(r.params.size());
  for (const core::AppParams& p : r.params) {
    ipc_alone.push_back(p.ipc_alone());
  }
  const bool starved = std::any_of(r.ipc_shared.begin(), r.ipc_shared.end(),
                                   [](double x) { return x <= 0.0; });
  r.hsp = starved ? 0.0
                  : core::harmonic_weighted_speedup(r.ipc_shared, ipc_alone);
  r.wsp = core::weighted_speedup(r.ipc_shared, ipc_alone);
  r.ipcsum = core::ipc_sum(r.ipc_shared);
  r.min_fairness = core::min_fairness(r.ipc_shared, ipc_alone);
  return r;
}

RunResult Experiment::measure_phase(
    CmpSystem& sys, core::Scheme scheme, std::vector<core::AppParams> params,
    std::span<const double> shares_override) const {
  const std::size_t n = apps_.size();
  // An explicit share vector (QoS) wins; otherwise the scheme's own rule
  // over the profiled parameters.
  install_enforcement(
      sys,
      shares_override.empty()
          ? enforcement_for(scheme, params)
          : Enforcement{{shares_override.begin(), shares_override.end()}, {}},
      cfg_.dstf_row_hit_window);
  // Only the rolling re-profiler reads the interference counters here; a
  // fixed-share measure phase runs without attribution.
  const bool reprofile =
      phases_.reprofile_period > 0 && shares_override.empty();
  sys.set_interference_attribution(reprofile);
  sys.reset_measurement();
  {
    obs::ScopedSpan span =
        phase_span(sys, "measure:" + core::to_string(scheme));
    PhaseTimer timer(hub_, "harness.wall_ns.measure");
    if (reprofile) {
      profile::RollingProfiler rolling(
          static_cast<std::uint32_t>(n), phases_.reprofile_period);
      rolling.set_observability(sys.observability());
      Cycle done = 0;
      while (done < phases_.measure_cycles) {
        const Cycle chunk =
            std::min<Cycle>(phases_.reprofile_period,
                            phases_.measure_cycles - done);
        sys.run(chunk);
        done += chunk;
        if (auto fresh = rolling.update(done, sys.profiler_counters())) {
          const Enforcement e = enforcement_for(scheme, *fresh);
          for (std::size_t c = 0; c < sys.num_controllers(); ++c) {
            apply_enforcement(sys.controller(c).scheduler(), e);
          }
          params = std::move(*fresh);
        }
      }
    } else {
      sys.run(phases_.measure_cycles);
    }
  }

  sys.check_conservation("Experiment::measure_phase");
  return score_window(sys, scheme, std::move(params));
}

RunResult Experiment::run(core::Scheme scheme) const {
  CmpSystem sys(cfg_, apps_, phases_.seed);
  sys.set_observability(hub_);
  sys.set_obs_track(core::to_string(scheme));
  std::vector<core::AppParams> params = profile_phase(sys);
  return measure_phase(sys, scheme, std::move(params), {});
}

RunResult Experiment::run_qos(
    std::span<const core::QosRequirement> requirements,
    core::Scheme best_effort_scheme) const {
  CmpSystem sys(cfg_, apps_, phases_.seed);
  sys.set_observability(hub_);
  sys.set_obs_track("qos:" + core::to_string(best_effort_scheme));
  std::vector<core::AppParams> params = profile_phase(sys);
  // B: the bandwidth actually utilized during the profile window.
  const double b = sys.measured_total_apc();
  const core::QosPlan plan =
      core::qos_allocate(params, requirements, b, best_effort_scheme);
  BWPART_ASSERT(plan.feasible, "QoS targets infeasible at measured bandwidth");
  return measure_phase(sys, best_effort_scheme, std::move(params), plan.beta);
}

ChurnRunResult Experiment::run_churn(const ChurnSchedule& schedule,
                                     const ChurnRunConfig& churn_cfg) const {
  CmpSystem sys(cfg_, apps_, phases_.seed);
  sys.set_observability(hub_);
  sys.set_obs_track("churn:" + core::to_string(churn_cfg.scheme));
  std::vector<core::AppParams> params = profile_phase(sys);
  const double b = sys.measured_total_apc();
  return harness::run_churn(sys, schedule, churn_cfg, phases_.measure_cycles,
                            std::move(params), b, cfg_.dstf_row_hit_window);
}

ChurnRunResult Experiment::measure_churn_from(
    const ProfileSnapshot& snapshot, const ChurnSchedule& schedule,
    const ChurnRunConfig& churn_cfg) const {
  CmpSystem sys(cfg_, apps_, phases_.seed);
  sys.set_observability(hub_);
  sys.set_obs_track("churn:" + core::to_string(churn_cfg.scheme));
  restore_into(sys, snapshot);
  return harness::run_churn(sys, schedule, churn_cfg, phases_.measure_cycles,
                            snapshot.params, snapshot.profiled_b,
                            cfg_.dstf_row_hit_window);
}

ProfileSnapshot Experiment::capture_profile() const {
  CmpSystem sys(cfg_, apps_, phases_.seed);
  sys.set_observability(hub_);
  sys.set_obs_track("profile");
  ProfileSnapshot snap;
  snap.config_fp = config_fingerprint();
  snap.params = profile_phase(sys);
  // The bandwidth utilized during the profile window, exactly as run_qos()
  // measures it before allocating — stored so QoS forks plan identically.
  snap.profiled_b = sys.measured_total_apc();
  snap::Writer w;
  sys.save_state(w);
  snap.state = w.take();
  return snap;
}

void Experiment::restore_into(CmpSystem& sys,
                              const ProfileSnapshot& snapshot) const {
  snap::require(snapshot.config_fp == config_fingerprint(),
                "snapshot was captured under a different configuration "
                "(machine, workload, phases or seed differ)");
  snap::Reader r(snapshot.state);
  sys.restore_state(r);
  snap::require(r.at_end(), "trailing bytes after the system state blob");
}

RunResult Experiment::measure_from(const ProfileSnapshot& snapshot,
                                   core::Scheme scheme) const {
  CmpSystem sys(cfg_, apps_, phases_.seed);
  sys.set_observability(hub_);
  sys.set_obs_track(core::to_string(scheme));
  restore_into(sys, snapshot);
  return measure_phase(sys, scheme, snapshot.params, {});
}

RunResult Experiment::measure_qos_from(
    const ProfileSnapshot& snapshot,
    std::span<const core::QosRequirement> requirements,
    core::Scheme best_effort_scheme) const {
  CmpSystem sys(cfg_, apps_, phases_.seed);
  sys.set_observability(hub_);
  sys.set_obs_track("qos:" + core::to_string(best_effort_scheme));
  restore_into(sys, snapshot);
  const core::QosPlan plan = core::qos_allocate(
      snapshot.params, requirements, snapshot.profiled_b, best_effort_scheme);
  BWPART_ASSERT(plan.feasible, "QoS targets infeasible at measured bandwidth");
  return measure_phase(sys, best_effort_scheme, snapshot.params, plan.beta);
}

std::vector<RunResult> Experiment::run_all(
    std::span<const core::Scheme> schemes, std::size_t threads) const {
  std::vector<RunResult> results(schemes.size());
  if (snapshot_reuse_) {
    const ProfileSnapshot snapshot = capture_profile();
    parallel_for(
        schemes.size(),
        [&](std::size_t i) { results[i] = measure_from(snapshot, schemes[i]); },
        threads);
  } else {
    parallel_for(
        schemes.size(),
        [&](std::size_t i) { results[i] = run(schemes[i]); }, threads);
  }
  return results;
}

std::uint64_t Experiment::config_fingerprint() const {
  return harness::config_fingerprint(cfg_, apps_, phases_);
}

std::vector<core::AppParams> Experiment::profile_alone_oracle() const {
  std::vector<core::AppParams> out;
  out.reserve(apps_.size());
  for (const workload::BenchmarkSpec& bench : apps_) {
    out.push_back(profile_standalone(cfg_, bench, phases_));
  }
  return out;
}

core::AppParams profile_standalone(const SystemConfig& cfg,
                                   const workload::BenchmarkSpec& bench,
                                   const PhaseConfig& phases) {
  const workload::BenchmarkSpec one[] = {bench};
  CmpSystem sys(cfg, one, phases.seed);
  sys.set_interference_attribution(false);  // reads only IPC and APC
  sys.run(phases.warmup_cycles);
  sys.reset_measurement();
  sys.run(phases.profile_cycles);
  core::AppParams p;
  p.apc_alone = sys.measured_apc()[0];
  const double ipc = sys.measured_ipc()[0];
  p.api = ipc > 0.0 ? p.apc_alone / ipc : 0.0;
  return p;
}

}  // namespace bwpart::harness
