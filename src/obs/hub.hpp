// The observability hub: one owner-supplied object aggregating the metrics
// registry, the epoch time-series and the Chrome-trace emitter, plus the
// runtime off-switch.
//
// Components hold a Hub* that is nullptr until attached, and a disabled hub
// (set_enabled(false)) is treated exactly like an absent one. Either way the
// simulation's results are bit-identical with observability on or off:
// instrumentation only ever *reads* simulator state (the zero-overhead
// differential test enforces this).
#pragma once

#include <ostream>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"

namespace bwpart::obs {

class Hub {
 public:
  explicit Hub(std::size_t trace_capacity = std::size_t{1} << 16)
      : trace_(trace_capacity) {}

  Registry& metrics() { return registry_; }
  const Registry& metrics() const { return registry_; }
  TraceEmitter& trace() { return trace_; }
  const TraceEmitter& trace() const { return trace_; }
  EpochSeries& series() { return series_; }
  const EpochSeries& series() const { return series_; }

  /// Runtime off-switch: a disabled hub records nothing and (because every
  /// producer checks enabled()) costs one predictable branch per cold-path
  /// hook.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Epoch length for the time-series sampler; 0 disables epoch sampling
  /// (the harness then never chunks its run loop).
  void set_epoch_cycles(Cycle epoch) { epoch_cycles_ = epoch; }
  Cycle epoch_cycles() const { return epoch_cycles_; }

  /// Combined metrics document: {"schema": 1, "metrics": {registry},
  /// "epochs": [series rows]}.
  void write_metrics_json(std::ostream& os) const;

 private:
  bool enabled_ = true;
  Cycle epoch_cycles_ = 0;
  Registry registry_;
  TraceEmitter trace_;
  EpochSeries series_;
};

}  // namespace bwpart::obs
