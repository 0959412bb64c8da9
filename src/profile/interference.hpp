// Per-application interference accounting (paper Section IV-C).
//
// The controller attributes each bus tick on which an application's oldest
// request is delayed by another application (bus or bank conflict) and
// reports it here weighted in CPU cycles; accumulating those weights
// reproduces the paper's per-cycle T_cyc,interference counter. The counters
// advance only while attached as a controller's observer: CmpSystem attaches
// them while interference attribution is on (set_interference_attribution),
// which Experiment limits to the windows whose counters it reads.
#pragma once

#include <vector>

#include "common/snapshot_io.hpp"
#include "common/types.hpp"
#include "mem/controller.hpp"

namespace bwpart::profile {

class InterferenceCounters final : public mem::InterferenceObserver {
 public:
  explicit InterferenceCounters(std::uint32_t num_apps);

  void on_interference(AppId victim, Cycle cpu_cycles) override;

  Cycle interference_cycles(AppId app) const;
  void reset();

  /// Snapshot hook: one counter per app.
  void transfer(snap::Io& io);
  std::uint32_t num_apps() const {
    return static_cast<std::uint32_t>(counters_.size());
  }

 private:
  std::vector<Cycle> counters_;
};

}  // namespace bwpart::profile
