// Online estimation of APC_alone (paper Eq. 12-13).
//
// For each application, three counters are maintained while it runs in the
// shared CMP: N_accesses (served reads+writes), T_cyc,shared (elapsed
// cycles) and T_cyc,interference (from InterferenceCounters). Then
//
//     T_cyc,alone = T_cyc,shared - T_cyc,interference       (Eq. 13)
//     APC_alone   = N_accesses / T_cyc,alone                (Eq. 12)
//
// API is measured directly (accesses / instructions) — it is invariant
// under partitioning so the shared-mode measurement is the standalone one.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/app_params.hpp"
#include "obs/hub.hpp"

namespace bwpart::profile {

/// Cumulative raw counters for one application at one instant.
struct AppCounters {
  std::uint64_t accesses = 0;      ///< served off-chip reads + writes
  std::uint64_t instructions = 0;  ///< retired instructions
  Cycle interference_cycles = 0;   ///< accumulated T_cyc,interference
};

/// Point-estimate from a counter delta over `shared_cycles` elapsed cycles.
core::AppParams estimate_alone(const AppCounters& delta, Cycle shared_cycles);

/// Periodic re-profiling (Section IV-C: "APC_alone is profiled periodically
/// (e.g., every 10 million cycles)"). Feed cumulative counters every cycle
/// or at any coarser cadence; when a period boundary is crossed the profiler
/// differentiates the counters, re-estimates every app and returns the new
/// parameter vector. Estimates are smoothed with an exponential moving
/// average so one noisy window does not swing the partitioning.
class RollingProfiler {
 public:
  RollingProfiler(std::uint32_t num_apps, Cycle period,
                  double smoothing = 0.5);

  /// Returns new estimates when `now` crosses a period boundary.
  std::optional<std::vector<core::AppParams>> update(
      Cycle now, std::span<const AppCounters> cumulative);

  Cycle period() const { return period_; }

  /// Attaches the observability hub: each re-profiling boundary then emits
  /// an instant trace event and refreshes per-app APC_alone/API estimate
  /// gauges. Telemetry only — never read back.
  void set_observability(obs::Hub* hub) { obs_ = hub; }

 private:
  obs::Hub* obs_ = nullptr;
  Cycle period_;
  double smoothing_;
  Cycle next_boundary_;
  std::vector<AppCounters> last_;
  std::vector<core::AppParams> estimate_;
  bool has_estimate_ = false;
  Cycle last_cycle_ = 0;
};

}  // namespace bwpart::profile
