// Shared option handling for the figure/table regeneration benches: every
// bench takes --quick, --paper-scale and --seed (and --out when it writes a
// report), declared once below.
#pragma once

#include <cstdint>
#include <string>

#include "common/cli.hpp"
#include "harness/experiment.hpp"

namespace bwpart::bench {

struct Options {
  harness::PhaseConfig phases;
  bool quick = false;
  bool paper_scale = false;
};

/// Parses the shared flags; `out_path`, when given, adds --out FILE with
/// its current value as the default for a full run. A --quick run writes
/// no report unless --out names one, so a smoke run from the repository
/// root leaves the committed full-run report alone: `out_path` comes back
/// empty, and the bench skips the write.
inline Options parse_options(int argc, char** argv,
                             Cycle default_window = 1'500'000,
                             std::string* out_path = nullptr) {
  Options opt;
  opt.phases.warmup_cycles = default_window / 5;
  opt.phases.profile_cycles = default_window;
  opt.phases.measure_cycles = default_window;
  cli::Parser cli(argv[0]);
  cli.flag("--quick", opt.quick, "4x shorter windows (smoke testing)");
  cli.flag("--paper-scale", opt.paper_scale,
           "the paper's 10M-cycle profile + 10M-cycle measurement");
  cli.number("--seed", opt.phases.seed, 0, UINT64_MAX, "trace seed");
  std::string out_given;
  if (out_path != nullptr) {
    cli.text("--out", out_given, "FILE",
             "JSON report (default " + *out_path +
                 "; a --quick run writes none unless given)");
  }
  cli.parse(argc, argv);
  if (out_path != nullptr && (!out_given.empty() || opt.quick)) {
    *out_path = out_given;
  }
  if (opt.paper_scale) {
    opt.phases = harness::PhaseConfig::paper_scale();
  } else if (opt.quick) {
    opt.phases.warmup_cycles /= 4;
    opt.phases.profile_cycles /= 4;
    opt.phases.measure_cycles /= 4;
  }
  return opt;
}

/// Percent change helper for "improvement over baseline" lines.
inline double pct(double value, double baseline) {
  return 100.0 * (value / baseline - 1.0);
}

}  // namespace bwpart::bench
