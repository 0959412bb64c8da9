// The snapshot/fork phase-reuse engine's data model and on-disk format.
//
// A scheme sweep re-executes the identical warmup + No_partitioning profile
// phases once per scheme — with the same seed the traces are identical, so
// roughly two thirds of the simulated cycles in a 14-mix x 7-scheme sweep
// are redundant. A ProfileSnapshot captures the complete CmpSystem state at
// the measure-phase boundary (via CmpSystem::save_state) together with the
// profiled AppParams and the measured bandwidth B; Experiment::run_all()
// forks every scheme's measure phase from it. Same contract as the
// fast-forward engine: an optimization, never an approximation — a forked
// measure phase is bit-identical to a straight-through run(scheme), proven
// by tests/property/test_sweep_differential and the tests/golden corpus.
//
// The optional on-disk form ("BWPS", versioned, checksummed) lets an
// interrupted paper-scale sweep resume from the profile checkpoint
// (bwpart_sim --snapshot-out / --resume). Corrupt or truncated files fail
// loudly with snap::SnapshotError; a snapshot only restores into an
// identically configured experiment (config_fp binds machine + workload +
// phases + seed).
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/snapshot_io.hpp"
#include "core/app_params.hpp"
#include "workload/spec_table.hpp"

namespace bwpart::harness {

struct SystemConfig;
struct PhaseConfig;

/// Experiment's default for snapshot reuse in run_all(); the straight
/// per-scheme path is switched on at run time
/// (Experiment::set_snapshot_reuse), and test_golden runs both.
inline constexpr bool kSnapshotEnabled = true;

/// The one "BWPS" format version this build writes and reads; snapshot.cpp
/// records why each older version no longer decodes.
inline constexpr std::uint32_t kSnapshotFormatVersion = 7;

/// Everything the warmup + profile phases produced, shared by every forked
/// measure phase of a sweep.
struct ProfileSnapshot {
  /// Fingerprint of (machine config, workload, phase config, seed); a
  /// snapshot restores only into an experiment with the same fingerprint.
  std::uint64_t config_fp = 0;
  /// The profiled per-app estimates (online Eq. 12-13, or the oracle).
  std::vector<core::AppParams> params;
  /// Bandwidth utilized during the profile window (the model's B), as
  /// run_qos() would measure it — stored so QoS forks allocate identically.
  double profiled_b = 0.0;
  /// CmpSystem::save_state byte stream at the measure-phase boundary.
  std::vector<std::uint8_t> state;
};

/// One profiled AppParams record, as the BWPS payload, the BWRR result
/// shard and the churn engine's cursor all store it: two doubles.
inline constexpr std::size_t kAppParamsBytes = 8 + 8;
inline void transfer(snap::Io& io, core::AppParams& p) {
  io.f64(p.apc_alone);
  io.f64(p.api);
}

/// Fingerprint binding a snapshot to its configuration (every SystemConfig
/// field, every benchmark spec, the whole PhaseConfig including the seed).
std::uint64_t config_fingerprint(const SystemConfig& cfg,
                                 std::span<const workload::BenchmarkSpec> apps,
                                 const PhaseConfig& phases);

/// Writes `snapshot` to `path` in the versioned "BWPS" container (magic,
/// format version, config fingerprint, length-prefixed payload, FNV-1a
/// checksum over everything before it). Throws snap::SnapshotError on I/O
/// failure.
void write_profile_snapshot(const std::string& path,
                            const ProfileSnapshot& snapshot);

/// Reads a "BWPS" file back. Throws snap::SnapshotError naming the problem
/// on a bad magic, an unsupported version, truncation, trailing bytes or a
/// checksum mismatch — corruption is never silently restored.
ProfileSnapshot read_profile_snapshot(const std::string& path);

/// Reads a whole file in one sized read (snapshot and spool files alike).
/// Throws snap::SnapshotError naming the path when it cannot be opened or
/// yields fewer bytes than its size.
std::vector<std::uint8_t> read_whole_file(const std::filesystem::path& path);

}  // namespace bwpart::harness
