#include "profile/interference.hpp"

#include "common/assert.hpp"

namespace bwpart::profile {

InterferenceCounters::InterferenceCounters(std::uint32_t num_apps)
    : counters_(num_apps, 0) {
  BWPART_ASSERT(num_apps > 0, "need at least one app");
}

void InterferenceCounters::on_interference(AppId victim, Cycle cpu_cycles) {
  BWPART_ASSERT(victim < counters_.size(), "victim app out of range");
  counters_[victim] += cpu_cycles;
}

Cycle InterferenceCounters::interference_cycles(AppId app) const {
  BWPART_ASSERT(app < counters_.size(), "app out of range");
  return counters_[app];
}

void InterferenceCounters::reset() {
  for (Cycle& c : counters_) c = 0;
}

void InterferenceCounters::transfer(snap::Io& io) {
  io.tag("INTF");
  io.fixed(counters_,
           "interference counter arity differs from the snapshot's");
}

}  // namespace bwpart::profile
