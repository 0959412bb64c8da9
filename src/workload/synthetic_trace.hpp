// Synthetic trace generators.
//
// SyntheticTraceGenerator emits the *off-chip miss stream* of a benchmark
// directly (miss-stream mode): clustered misses with calibrated API,
// spatial locality and read/write mix. This is the mode used for the paper
// experiments, because it makes API exactly controllable — the quantity the
// paper's model treats as the application's invariant.
//
// AddressStreamGenerator emits raw load/store addresses with a tunable
// working set and is run through the modeled L1/L2 hierarchy
// (address-stream mode); used by cache-focused tests and examples.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "cpu/trace.hpp"
#include "workload/spec_table.hpp"

namespace bwpart::workload {

class SyntheticTraceGenerator final : public cpu::TraceSource {
 public:
  struct Params {
    double api = 0.01;             ///< off-chip accesses per instruction
    double mean_cluster = 2.0;     ///< mean misses per burst (>= 1)
    double write_fraction = 0.15;  ///< fraction of accesses that are writes
    /// Fraction of reads that are data-dependent on the previous load
    /// (pointer chasing); throttles effective memory-level parallelism.
    double dependent_fraction = 0.0;
    std::uint64_t seq_run_lines = 8;  ///< lines touched before a jump
    std::uint64_t intra_cluster_gap = 2;  ///< instrs between clustered misses
    Addr region_base = 0;          ///< start of this app's address region
    std::uint64_t footprint_lines = 1ull << 22;  ///< region size in lines
    std::uint32_t line_bytes = 64;
  };

  SyntheticTraceGenerator(const Params& params, std::uint64_t seed);

  /// Convenience: generator for one Table III benchmark, placed in a
  /// disjoint per-application address region so distinct apps never alias
  /// the same lines (they still contend for ranks and banks via the
  /// low-order interleaving bits).
  static SyntheticTraceGenerator from_benchmark(const BenchmarkSpec& spec,
                                                AppId app, std::uint64_t seed);

  cpu::TraceOp next() override;

  const Params& params() const { return params_; }

  /// Piecewise phase change (churn engine): swaps the demand-shaping knobs
  /// (api, mean_cluster, write_fraction, dependent_fraction, seq_run_lines,
  /// intra_cluster_gap) mid-stream while the RNG stream and the locality
  /// walk continue unbroken — the address region (region_base,
  /// footprint_lines, line_bytes) is an identity, not a phase, and must not
  /// change. An in-progress burst finishes under the old knobs; the next
  /// cluster is drawn under the new ones.
  void set_phase(const Params& next);

  /// Snapshot hook: RNG stream, the burst/locality walk state, and the
  /// phase-changeable knobs (churn schedules mutate them mid-run), so a
  /// restored generator emits the identical remaining op sequence.
  void transfer(snap::Io& io);

 private:
  Addr next_address();

  Params params_;
  Rng rng_;
  std::uint64_t cluster_remaining_ = 0;
  std::uint64_t long_gap_ = 0;
  std::uint64_t seq_remaining_ = 0;
  std::uint64_t current_line_ = 0;
};

class AddressStreamGenerator final : public cpu::TraceSource {
 public:
  struct Params {
    double mem_fraction = 0.3;  ///< fraction of instructions that access memory
    double write_fraction = 0.3;
    std::uint64_t footprint_bytes = 1ull << 20;  ///< working-set size
    double sequential_prob = 0.7;  ///< chance the next access is +1 line
    Addr region_base = 0;
    std::uint32_t line_bytes = 64;
  };

  AddressStreamGenerator(const Params& params, std::uint64_t seed);

  cpu::TraceOp next() override;

 private:
  Params params_;
  Rng rng_;
  std::uint64_t lines_;
  std::uint64_t current_line_ = 0;
};

}  // namespace bwpart::workload
