#include "profile/alone_profiler.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"

namespace bwpart::profile {

core::AppParams estimate_alone(const AppCounters& delta, Cycle shared_cycles) {
  BWPART_ASSERT(shared_cycles > 0, "estimate over empty window");
  core::AppParams p;
  // Interference cannot exceed the window; clamp against accounting noise
  // and keep at least one cycle so the estimate stays finite.
  const Cycle interference =
      std::min(delta.interference_cycles, shared_cycles - 1);
  const Cycle alone_cycles = shared_cycles - interference;
  p.apc_alone = static_cast<double>(delta.accesses) /
                static_cast<double>(alone_cycles);
  p.api = delta.instructions == 0
              ? 0.0
              : static_cast<double>(delta.accesses) /
                    static_cast<double>(delta.instructions);
  return p;
}

RollingProfiler::RollingProfiler(std::uint32_t num_apps, Cycle period,
                                 double smoothing)
    : period_(period),
      smoothing_(smoothing),
      next_boundary_(period),
      last_(num_apps),
      estimate_(num_apps) {
  BWPART_ASSERT(num_apps > 0, "need at least one app");
  BWPART_ASSERT(period > 0, "period must be positive");
  BWPART_ASSERT(smoothing > 0.0 && smoothing <= 1.0,
                "smoothing must be in (0, 1]");
}

std::optional<std::vector<core::AppParams>> RollingProfiler::update(
    Cycle now, std::span<const AppCounters> cumulative) {
  BWPART_ASSERT(cumulative.size() == last_.size(), "counter arity mismatch");
  BWPART_ASSERT(now >= last_cycle_, "time went backwards");
  if (now < next_boundary_) return std::nullopt;
  const Cycle window = now - last_cycle_;
  for (std::size_t i = 0; i < last_.size(); ++i) {
    AppCounters delta;
    BWPART_ASSERT(cumulative[i].accesses >= last_[i].accesses &&
                      cumulative[i].instructions >= last_[i].instructions &&
                      cumulative[i].interference_cycles >=
                          last_[i].interference_cycles,
                  "cumulative counters must be monotone");
    delta.accesses = cumulative[i].accesses - last_[i].accesses;
    delta.instructions = cumulative[i].instructions - last_[i].instructions;
    delta.interference_cycles =
        cumulative[i].interference_cycles - last_[i].interference_cycles;
    const core::AppParams fresh = estimate_alone(delta, window);
    if (!has_estimate_) {
      estimate_[i] = fresh;
    } else {
      estimate_[i].apc_alone = smoothing_ * fresh.apc_alone +
                               (1.0 - smoothing_) * estimate_[i].apc_alone;
      estimate_[i].api =
          smoothing_ * fresh.api + (1.0 - smoothing_) * estimate_[i].api;
    }
    last_[i] = cumulative[i];
  }
  has_estimate_ = true;
  last_cycle_ = now;
  while (next_boundary_ <= now) next_boundary_ += period_;
  if (obs_ != nullptr && obs_->enabled()) {
    obs_->trace().instant("reprofile", obs::TraceEmitter::kSystemTrack, now);
    obs_->metrics().counter("profile.reprofiles").add();
    for (std::size_t i = 0; i < estimate_.size(); ++i) {
      const std::string app = "profile.app" + std::to_string(i);
      obs_->metrics().gauge(app + ".apc_alone_est").set(estimate_[i].apc_alone);
      obs_->metrics().gauge(app + ".api_est").set(estimate_[i].api);
    }
  }
  return estimate_;
}

}  // namespace bwpart::profile
