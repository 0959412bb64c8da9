// Process-level sharded sweep engine over BWPS profile snapshots.
//
// A sweep portfolio (config x scheme matrix) is broken into deterministic
// work units, each unit being one scheme's measure phase forked from a
// shared post-profile snapshot. Units are distributed to worker processes
// through a filesystem work-stealing queue rooted at a spool directory:
//
//   <spool>/manifest.txt          portfolio name + config lines (humans/resume)
//   <spool>/snapshots/<fp>.bwps   one profile snapshot per config fingerprint
//   <spool>/units/<key>.unit      unclaimed work units (text spec, see below)
//   <spool>/claims/<key>.unit     leased units; mtime is the worker heartbeat
//   <spool>/results/<key>.bwrr    completed units (checksummed binary shard)
//   <spool>/marks/steal.*         one marker per lease steal (telemetry only)
//
// The claim protocol is rename(2)-based and therefore atomic on POSIX:
// a worker claims a unit by renaming units/<key>.unit to claims/<key>.unit
// (exactly one concurrent rename of the same source succeeds), refreshes the
// lease file's mtime while working, and completes by writing the result
// shard to a temp name, renaming it into results/, then removing the lease.
// A lease whose mtime is older than the lease interval marks a dead (or
// wedged) worker: anyone may steal it by renaming the lease back into
// units/. Steals can race a slow-but-alive worker; that is deliberate and
// benign — units are deterministic, so duplicate executions produce
// byte-identical result shards and the last rename wins with the same
// bytes. Correctness never depends on leases, only liveness does.
//
// Crash model: SIGKILL of any process at any instruction. Every file that
// another process may read is created write-to-temp-then-rename, so readers
// only ever observe absent or complete files; completed units are never
// re-run on resume because publishing skips keys that already have results.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace bwpart::harness::shard {

/// Upper bound on ShardConfig::copies and ::controllers, shared by the
/// command line and the unit spec parser.
inline constexpr std::uint64_t kMaxApps = 1'024;

/// One machine + workload + phase configuration of a sweep portfolio. The
/// DRAM grade travels by name so the on-disk unit spec round-trips exactly
/// (no floating-point text parsing anywhere in the protocol).
struct ShardConfig {
  std::string mix = "hetero-5";      ///< Table IV mix name
  std::uint32_t copies = 1;          ///< workload replication (Fig. 4 style)
  std::string dram = "ddr2_400";     ///< any registered DRAM generation
  std::size_t controllers = 1;       ///< independent memory controllers
  Cycle warmup_cycles = 400'000;
  Cycle profile_cycles = 2'000'000;
  Cycle measure_cycles = 2'000'000;
  std::uint64_t seed = 42;
  /// Optional churn schedule in the ChurnSchedule compact grammar
  /// (';'-separated directives). Empty = a plain fixed-mix measure phase;
  /// the on-disk unit spec omits the field entirely in that case, so
  /// churn-free spools stay byte-identical to their pre-churn encoding.
  /// Non-empty units replay the schedule through the churn engine (default
  /// re-solve cadence) and ship the run's base RunResult.
  std::string churn;
};

/// Builds the machine/workload/phases this config describes. The DRAM
/// grade resolves through the dram::DramGeneration registry. Throws
/// std::invalid_argument on an unknown mix or DRAM generation name.
SystemConfig shard_machine(const ShardConfig& cfg);
std::vector<workload::BenchmarkSpec> shard_apps(const ShardConfig& cfg);
PhaseConfig shard_phases(const ShardConfig& cfg);
Experiment make_experiment(const ShardConfig& cfg);

/// A config x scheme cell of the portfolio matrix.
struct ShardUnit {
  ShardConfig cfg;
  core::Scheme scheme = core::Scheme::NoPartitioning;
  std::uint64_t config_fp = 0;  ///< harness::config_fingerprint of cfg
  std::string key;              ///< "<fp hex16>-<scheme>", the on-disk id
};

std::string fp_hex(std::uint64_t fp);
/// "<config_fp hex16>-<scheme>", gaining a "-c<churn_fp hex16>" suffix only
/// when churn_fp != 0 (a ChurnSchedule::fingerprint; empty schedules hash
/// to 0) — so a churned unit can never collide with its fixed-run sibling
/// while churn-free keys keep their historical shape.
std::string unit_key(std::uint64_t config_fp, core::Scheme scheme,
                     std::uint64_t churn_fp = 0);

/// The completed measurement a worker ships back through the spool.
struct UnitResult {
  std::string key;
  std::uint64_t config_fp = 0;
  std::string dram_gen;  ///< DRAM generation the unit was measured under
  RunResult result;
  std::uint64_t fingerprint = 0;  ///< harness::fingerprint(result)
};

struct Portfolio {
  std::string name;
  std::vector<ShardConfig> configs;
  std::vector<core::Scheme> schemes;
};

/// Built-in portfolios:
///   quick       2 mixes, short windows — CI smoke (14 units)
///   quick@GEN   quick with both configs on DRAM generation GEN (any
///               registered name, e.g. quick@ddr4_2400)
///   table4      all 14 Table IV mixes at golden-corpus phases (98 units)
///   portfolio64 64 apps (16x hetero-5) on 4 controllers, DDR2-1600 (7 units)
/// Throws std::invalid_argument on an unknown name or generation.
Portfolio make_portfolio(const std::string& name);

/// Expands the config x scheme matrix in deterministic order (configs outer,
/// schemes inner), computing each unit's config fingerprint and key.
std::vector<ShardUnit> enumerate_units(const Portfolio& portfolio);

/// A unit this process holds the lease on.
struct ClaimedUnit {
  ShardUnit unit;
  std::filesystem::path lease;  ///< claims/<key>.unit
};

/// Filesystem work-stealing queue over one spool directory. Safe for any
/// number of concurrent orchestrator/worker processes on one host.
class Spool {
 public:
  explicit Spool(std::filesystem::path root);

  const std::filesystem::path& root() const { return root_; }

  /// Creates the spool directory tree (idempotent).
  void init() const;

  /// Writes/overwrites the manifest (portfolio name + one line per config).
  void write_manifest(const Portfolio& portfolio) const;

  // --- snapshots ---
  std::filesystem::path snapshot_path(std::uint64_t config_fp) const;
  bool has_snapshot(std::uint64_t config_fp) const;
  /// Atomic (temp + rename) snapshot publication.
  void put_snapshot(std::uint64_t config_fp,
                    const ProfileSnapshot& snapshot) const;
  ProfileSnapshot get_snapshot(std::uint64_t config_fp) const;

  // --- units / claims ---
  /// Publishes a unit into units/ unless it already has a result, a live
  /// claim, or a pending todo (idempotent across orchestrator restarts).
  /// Returns true when a new todo file was written.
  bool publish(const ShardUnit& unit) const;

  /// Claims any available unit by atomic rename into claims/. Units whose
  /// result already exists are retired on sight (their stray todo removed).
  /// Returns nullopt when no todo could be claimed.
  std::optional<ClaimedUnit> claim() const;

  /// Refreshes the lease mtime; no-op if the lease was stolen meanwhile.
  void heartbeat(const ClaimedUnit& claim) const;

  /// Ships the result shard (temp + rename) and releases the lease.
  void complete(const ClaimedUnit& claim, const UnitResult& result) const;

  /// Returns the lease to units/ without a result (worker shutting down).
  void abandon(const ClaimedUnit& claim) const;

  /// Renames every lease older than `lease` back into units/ and drops a
  /// steal marker per theft. Returns the number of leases stolen.
  std::size_t steal_stale(std::chrono::milliseconds lease) const;

  // --- results / inspection ---
  bool has_result(const std::string& key) const;
  UnitResult read_result(const std::string& key) const;
  std::vector<std::string> todo_keys() const;
  std::vector<std::string> claimed_keys() const;
  std::vector<std::string> result_keys() const;
  /// Number of steal markers dropped so far (telemetry).
  std::size_t steal_count() const;

 private:
  std::filesystem::path todo_path(const std::string& key) const;
  std::filesystem::path claim_path(const std::string& key) const;
  std::filesystem::path result_path(const std::string& key) const;

  std::filesystem::path root_;
};

// --- unit spec / result shard codecs (exposed for tests) ---

/// Text encoding of a ShardUnit ("bwpart-shard-unit v1" header + key/value
/// lines). parse_unit_spec throws snap::SnapshotError on malformed input.
std::string encode_unit_spec(const ShardUnit& unit);
ShardUnit parse_unit_spec(const std::string& text);

/// Checksummed binary result shard ("BWRR" container, version 2: carries
/// the DRAM generation the unit was measured under). read_result_shard
/// verifies the checksum and that the stored fingerprint matches a fresh
/// harness::fingerprint of the decoded RunResult, so any field drift or
/// corruption fails loudly; v1 shards (no generation) are rejected by
/// version.
std::vector<std::uint8_t> encode_result_shard(const UnitResult& result);
UnitResult decode_result_shard(std::span<const std::uint8_t> bytes);

/// Worker main loop: claim - measure - complete until the spool drains
/// (no todos and no outstanding claims). Blocks while other workers hold
/// claims, stealing stale leases so a dead sibling cannot wedge the sweep.
struct WorkerOptions {
  std::chrono::milliseconds lease{5'000};  ///< staleness threshold
  std::chrono::milliseconds poll{50};      ///< idle re-scan interval
};

struct WorkerReport {
  std::size_t completed = 0;  ///< units this worker measured
  std::size_t healed = 0;     ///< snapshots this worker had to re-capture
  std::size_t stolen = 0;     ///< stale leases this worker stole
};

WorkerReport run_worker(const std::filesystem::path& spool_root,
                        const WorkerOptions& options = {});

/// Deterministic merge of the spool's result shards in portfolio
/// enumeration order. Refuses (snap::SnapshotError) to merge a shard whose
/// recorded DRAM generation disagrees with its unit's — a spool cross-wired
/// between sweeps of different generations must fail loudly, not blend.
struct MergeRow {
  ShardUnit unit;
  UnitResult result;  ///< valid only when present
  bool present = false;
};

struct MergedPortfolio {
  std::vector<MergeRow> rows;
  /// Chained FNV over present unit fingerprints in enumeration order — two
  /// sweeps of the same portfolio agree iff every unit agrees bit-exactly.
  std::uint64_t portfolio_fp = 0;
  std::size_t missing = 0;
};

MergedPortfolio merge(const Spool& spool, const Portfolio& portfolio);

}  // namespace bwpart::harness::shard
