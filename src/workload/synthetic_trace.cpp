#include "workload/synthetic_trace.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace bwpart::workload {

SyntheticTraceGenerator::SyntheticTraceGenerator(const Params& params,
                                                 std::uint64_t seed)
    : params_(params), rng_(seed) {
  BWPART_ASSERT(params.api > 0.0 && params.api < 1.0, "api out of range");
  BWPART_ASSERT(params.mean_cluster >= 1.0, "mean cluster below 1");
  BWPART_ASSERT(params.write_fraction >= 0.0 && params.write_fraction <= 1.0,
                "write fraction out of range");
  BWPART_ASSERT(params.footprint_lines > 1, "footprint too small");
  BWPART_ASSERT(params.seq_run_lines >= 1, "sequential run below 1");
  current_line_ = rng_.next_below(params_.footprint_lines);
  seq_remaining_ = params_.seq_run_lines;
}

SyntheticTraceGenerator SyntheticTraceGenerator::from_benchmark(
    const BenchmarkSpec& spec, AppId app, std::uint64_t seed) {
  Params p;
  p.api = spec.api;
  p.mean_cluster = spec.mean_cluster;
  p.write_fraction = spec.write_fraction;
  p.dependent_fraction = spec.dependent_fraction;
  p.seq_run_lines = spec.seq_run_lines;
  // 256 MiB footprint in a disjoint 256 MiB slice of the physical space,
  // so up to 16 apps fit in the 4 GiB the baseline DRAM decodes while still
  // sharing every rank/bank through the low-order interleaving bits.
  p.region_base = static_cast<Addr>(app) << 28;
  p.footprint_lines = 1ull << 22;
  // Distinct seeds per (benchmark, app) so replicated copies in the Fig. 4
  // scaling study produce independent streams.
  return SyntheticTraceGenerator(p, seed ^ (0x9e37ull * (app + 1)));
}

Addr SyntheticTraceGenerator::next_address() {
  if (seq_remaining_ == 0) {
    current_line_ = rng_.next_below(params_.footprint_lines);
    seq_remaining_ = params_.seq_run_lines;
  } else {
    current_line_ = (current_line_ + 1) % params_.footprint_lines;
  }
  --seq_remaining_;
  return params_.region_base + current_line_ * params_.line_bytes;
}

cpu::TraceOp SyntheticTraceGenerator::next() {
  cpu::TraceOp op;
  if (cluster_remaining_ == 0) {
    // Start a new cluster: size floor(m) plus one with prob frac(m).
    const double m = params_.mean_cluster;
    const auto base = static_cast<std::uint64_t>(m);
    cluster_remaining_ = base + (rng_.next_bool(m - std::floor(m)) ? 1 : 0);
    if (cluster_remaining_ == 0) cluster_remaining_ = 1;
    // Instructions in this cluster period chosen so API converges to the
    // target: period = k / api, spent as (k-1) intra-cluster gaps plus one
    // long inter-cluster gap.
    const auto period = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(cluster_remaining_) / params_.api));
    const std::uint64_t intra =
        (cluster_remaining_ - 1) * params_.intra_cluster_gap;
    long_gap_ = period > intra + cluster_remaining_
                    ? period - intra - cluster_remaining_
                    : 0;
    op.gap_nonmem = long_gap_;
  } else {
    op.gap_nonmem = params_.intra_cluster_gap;
  }
  --cluster_remaining_;
  op.addr = next_address();
  op.type = rng_.next_bool(params_.write_fraction) ? AccessType::Write
                                                   : AccessType::Read;
  if (op.type == AccessType::Read && params_.dependent_fraction > 0.0) {
    op.dependent = rng_.next_bool(params_.dependent_fraction);
  }
  return op;
}

AddressStreamGenerator::AddressStreamGenerator(const Params& params,
                                               std::uint64_t seed)
    : params_(params),
      rng_(seed),
      lines_(params.footprint_bytes / params.line_bytes) {
  BWPART_ASSERT(params.mem_fraction > 0.0 && params.mem_fraction <= 1.0,
                "mem fraction out of range");
  BWPART_ASSERT(lines_ > 1, "footprint too small");
  current_line_ = rng_.next_below(lines_);
}

void SyntheticTraceGenerator::set_phase(const Params& next) {
  BWPART_ASSERT(next.api > 0.0 && next.api < 1.0, "phase api out of range");
  BWPART_ASSERT(next.mean_cluster >= 1.0, "phase mean cluster below 1");
  BWPART_ASSERT(next.write_fraction >= 0.0 && next.write_fraction <= 1.0,
                "phase write fraction out of range");
  BWPART_ASSERT(next.dependent_fraction >= 0.0 &&
                    next.dependent_fraction <= 1.0,
                "phase dependent fraction out of range");
  BWPART_ASSERT(next.seq_run_lines >= 1, "phase sequential run below 1");
  BWPART_ASSERT(next.region_base == params_.region_base &&
                    next.footprint_lines == params_.footprint_lines &&
                    next.line_bytes == params_.line_bytes,
                "phase change must not move the address region");
  params_ = next;
}

void SyntheticTraceGenerator::transfer(snap::Io& io) {
  io.tag("TRCE");
  rng_.transfer(io);
  io.u64(cluster_remaining_);
  io.u64(long_gap_);
  io.u64(seq_remaining_);
  io.u64(current_line_);
  // Phase-changeable knobs: a churn schedule may have mutated them since
  // construction, so the resume path cannot rebuild them from the config.
  io.f64(params_.api);
  io.f64(params_.mean_cluster);
  io.f64(params_.write_fraction);
  io.f64(params_.dependent_fraction);
  io.u64(params_.seq_run_lines);
  io.u64(params_.intra_cluster_gap);
}

cpu::TraceOp AddressStreamGenerator::next() {
  cpu::TraceOp op;
  // Geometric gaps give a Bernoulli memory-instruction process with rate
  // mem_fraction.
  op.gap_nonmem = rng_.next_geometric(params_.mem_fraction);
  if (rng_.next_bool(params_.sequential_prob)) {
    current_line_ = (current_line_ + 1) % lines_;
  } else {
    current_line_ = rng_.next_below(lines_);
  }
  op.addr = params_.region_base + current_line_ * params_.line_bytes;
  op.type = rng_.next_bool(params_.write_fraction) ? AccessType::Write
                                                   : AccessType::Read;
  return op;
}

}  // namespace bwpart::workload
