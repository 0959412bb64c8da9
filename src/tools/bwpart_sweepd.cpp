// bwpart_sweepd: sharded sweep orchestrator.
//
// Runs a named sweep portfolio (config x scheme matrix) by spooling one
// BWPS profile snapshot per configuration, publishing the matrix as work
// units into a filesystem work-stealing queue, fanning the measure phases
// out across N `bwpart_sim --shard-worker` processes, and merging the
// per-unit result shards into one portfolio report.
//
//   bwpart_sweepd --portfolio quick --spool /tmp/sweep --workers 4 --verify
//   bwpart_sweepd --portfolio table4 --spool spool
//       --scaling 1,2,4,8 --bench-out BENCH_sweep.json  (one line)
//
// Every flag, its range and its default are declared once in main()'s
// cli::Parser table; an unknown flag prints them.
//
// Resume: re-running with the same --spool never re-runs completed units —
// publishing skips keys that already have result shards, and workers retire
// stray todos whose results exist. Killing the orchestrator or any worker
// (SIGKILL included) at any point leaves the spool resumable; stale leases
// of dead workers are stolen back automatically.
//
// Oversubscription guard: each spawned worker inherits
// BWPART_SWEEP_THREADS = max(1, hardware_concurrency / workers) so that
// workers x internal parallel_for threads never exceeds the machine; a
// BWPART_SWEEP_THREADS already present in the environment wins.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "harness/differential.hpp"
#include "harness/shard.hpp"

namespace {

using namespace bwpart;
namespace fs = std::filesystem;
namespace shard = harness::shard;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Directory holding this executable (workers default to a sibling binary).
fs::path self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  return fs::path(buf).parent_path();
}

pid_t spawn_worker(const std::string& sim, const std::string& spool,
                   std::uint64_t lease_ms, std::size_t thread_cap) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // overwrite=0: a BWPART_SWEEP_THREADS set by the user overrides the
    // orchestrator's oversubscription guard.
    ::setenv("BWPART_SWEEP_THREADS", std::to_string(thread_cap).c_str(), 0);
    const std::string lease = std::to_string(lease_ms);
    ::execl(sim.c_str(), sim.c_str(), "--shard-worker", spool.c_str(),
            "--lease-ms", lease.c_str(), static_cast<char*>(nullptr));
    std::fprintf(stderr, "cannot exec worker '%s': %s\n", sim.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

struct RoundStats {
  std::size_t workers = 0;
  double wall_s = 0.0;
  double spool_s = 0.0;    ///< snapshot capture + unit publication
  double measure_s = 0.0;  ///< worker wave(s)
  double merge_s = 0.0;
  std::size_t resumed = 0;  ///< units already complete before this round
  std::size_t steals = 0;
  std::size_t waves = 1;  ///< worker respawn rounds (1 = no worker died)
};

/// Runs one complete sweep round (spool, fan out, merge) in `spool_dir`.
/// Returns the merged portfolio; fills `stats` with phase wall times.
shard::MergedPortfolio run_round(const shard::Portfolio& portfolio,
                                 const fs::path& spool_dir,
                                 std::size_t workers, const std::string& sim,
                                 std::uint64_t lease_ms, RoundStats& stats) {
  const Clock::time_point round0 = Clock::now();
  stats.workers = workers;

  const shard::Spool spool(spool_dir);
  spool.init();
  spool.write_manifest(portfolio);
  const std::size_t steals_before = spool.steal_count();

  // Spool phase: one warmup+profile per configuration, persisted as a BWPS
  // snapshot keyed by config fingerprint; then publish the unit matrix.
  // Both steps skip work that a previous (possibly killed) run finished.
  const Clock::time_point spool0 = Clock::now();
  const std::vector<shard::ShardUnit> units =
      shard::enumerate_units(portfolio);
  std::map<std::uint64_t, const shard::ShardConfig*> configs;
  for (const shard::ShardUnit& u : units) configs.emplace(u.config_fp, &u.cfg);
  for (const auto& [fp, cfg] : configs) {
    if (spool.has_snapshot(fp)) continue;
    spool.put_snapshot(fp, shard::make_experiment(*cfg).capture_profile());
  }
  for (const shard::ShardUnit& u : units) {
    if (spool.has_result(u.key)) ++stats.resumed;
    spool.publish(u);
  }
  stats.spool_s = seconds_since(spool0);

  // Measure phase: worker wave(s). Workers steal dead siblings' leases on
  // their own; the orchestrator only respawns a wave when every worker died
  // with units still outstanding.
  const Clock::time_point measure0 = Clock::now();
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t thread_cap =
      std::max<std::size_t>(1, (hw == 0 ? 1 : hw) / std::max<std::size_t>(
                                                       1, workers));
  for (std::size_t wave = 0; wave < 3; ++wave) {
    if (spool.todo_keys().empty() && spool.claimed_keys().empty() &&
        wave > 0) {
      break;
    }
    stats.waves = wave + 1;
    std::vector<pid_t> pids;
    for (std::size_t w = 0; w < workers; ++w) {
      pids.push_back(spawn_worker(sim, spool_dir.string(), lease_ms,
                                  thread_cap));
    }
    for (const pid_t pid : pids) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    if (spool.todo_keys().empty() && spool.claimed_keys().empty()) break;
    std::fprintf(stderr,
                 "worker wave %zu exited with units outstanding; "
                 "respawning\n",
                 wave + 1);
  }
  stats.measure_s = seconds_since(measure0);

  const Clock::time_point merge0 = Clock::now();
  shard::MergedPortfolio merged = shard::merge(spool, portfolio);
  stats.merge_s = seconds_since(merge0);

  stats.steals = spool.steal_count() - steals_before;
  stats.wall_s = seconds_since(round0);
  return merged;
}

std::string scheme_of(const shard::MergeRow& row) {
  return core::to_string(row.unit.scheme);
}

void write_report(const std::string& path, const shard::Portfolio& portfolio,
                  const shard::MergedPortfolio& merged) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open report file '%s'\n", path.c_str());
    return;
  }
  os << "{\n  \"portfolio\": \"" << portfolio.name << "\",\n"
     << "  \"portfolio_fp\": \"" << shard::fp_hex(merged.portfolio_fp)
     << "\",\n  \"units\": [\n";
  char num[64];
  for (std::size_t i = 0; i < merged.rows.size(); ++i) {
    const shard::MergeRow& row = merged.rows[i];
    os << "    {\"key\": \"" << row.unit.key << "\", \"mix\": \""
       << row.unit.cfg.mix << "\", \"copies\": " << row.unit.cfg.copies
       << ", \"controllers\": " << row.unit.cfg.controllers
       << ", \"scheme\": \"" << scheme_of(row) << "\"";
    if (row.present) {
      const harness::RunResult& r = row.result.result;
      const double metrics[] = {r.hsp, r.min_fairness, r.wsp, r.ipcsum,
                                r.total_apc};
      const char* names[] = {"hsp", "min_fairness", "wsp", "ipc_sum",
                             "total_apc"};
      for (std::size_t m = 0; m < 5; ++m) {
        std::snprintf(num, sizeof(num), "%.17g", metrics[m]);
        os << ", \"" << names[m] << "\": " << num;
      }
      os << ", \"fingerprint\": \"" << shard::fp_hex(row.result.fingerprint)
         << "\"";
    } else {
      os << ", \"missing\": true";
    }
    os << "}" << (i + 1 < merged.rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void write_bench(const std::string& path, const shard::Portfolio& portfolio,
                 std::size_t units, const std::vector<RoundStats>& rounds,
                 const shard::MergedPortfolio& merged, bool verified,
                 std::size_t verify_checked, std::size_t verify_equal) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open bench file '%s'\n", path.c_str());
    return;
  }
  char num[64];
  auto put = [&](double v) {
    std::snprintf(num, sizeof(num), "%.6f", v);
    return std::string(num);
  };
  os << "{\n  \"schema\": 1,\n  \"portfolio\": \"" << portfolio.name
     << "\",\n  \"units\": " << units << ",\n  \"rounds\": [\n";
  // Scaling efficiency is measured over the measure (worker) phase against
  // the smallest-worker-count round of this invocation: eff =
  // (w0*t0)/(w*t), i.e. 1.0 means perfectly linear scaling from the
  // baseline round.
  const double base = rounds.empty()
                          ? 0.0
                          : static_cast<double>(rounds.front().workers) *
                                rounds.front().measure_s;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundStats& r = rounds[i];
    const double denom = static_cast<double>(r.workers) * r.measure_s;
    const double eff = denom > 0.0 ? base / denom : 0.0;
    os << "    {\"workers\": " << r.workers << ", \"wall_seconds\": "
       << put(r.wall_s) << ", \"spool_seconds\": " << put(r.spool_s)
       << ", \"measure_seconds\": " << put(r.measure_s)
       << ", \"merge_seconds\": " << put(r.merge_s)
       << ", \"scaling_efficiency\": " << put(eff)
       << ", \"steals\": " << r.steals << ", \"resumed_units\": " << r.resumed
       << ", \"waves\": " << r.waves << "}"
       << (i + 1 < rounds.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"portfolio_fp\": \"" << shard::fp_hex(merged.portfolio_fp)
     << "\",\n  \"verify\": {\"enabled\": " << (verified ? "true" : "false")
     << ", \"checked\": " << verify_checked << ", \"equal\": " << verify_equal
     << "}\n}\n";
}

constexpr std::uint64_t kMaxWorkers = 1'024;

}  // namespace

int main(int argc, char** argv) {
  std::string portfolio_name;
  std::string spool_dir;
  std::size_t workers = 2;
  std::vector<std::uint64_t> scaling;
  std::string sim;
  std::uint64_t lease_ms = 5'000;
  bool verify = false;
  std::string report_path;
  std::string bench_path;

  cli::Parser cli("bwpart_sweepd");
  cli.text("--portfolio", portfolio_name, "NAME",
           "required: quick | quick@<dram-generation> | table4 | portfolio64");
  cli.text("--spool", spool_dir, "DIR",
           "required: spool directory (created; reusable for resume)");
  cli.number("--workers", workers, 1, kMaxWorkers, "worker processes");
  cli.uint_list("--scaling", scaling, 1, kMaxWorkers, "W1,W2,...",
                "one full round per worker count");
  cli.text("--sim", sim, "PATH",
           "worker binary (default: bwpart_sim next to this one)");
  cli.number("--lease-ms", lease_ms, 1, 86'400'000,
             "lease staleness threshold handed to workers");
  cli.flag("--verify", verify,
           "also run the portfolio in-process (run_all) and require "
           "bit-identical fingerprints per unit");
  cli.text("--report", report_path, "FILE", "merged portfolio JSON");
  cli.text("--bench-out", bench_path, "FILE", "BENCH_sweep.json (schema 1)");
  cli.parse(argc, argv);
  if (portfolio_name.empty()) cli.fail("--portfolio: required");
  if (spool_dir.empty()) cli.fail("--spool: required");
  if (sim.empty()) sim = (self_dir() / "bwpart_sim").string();

  shard::Portfolio portfolio;
  try {
    portfolio = shard::make_portfolio(portfolio_name);
  } catch (const std::exception& e) {
    cli.fail(std::string("--portfolio: ") + e.what());
  }
  const std::size_t unit_count =
      portfolio.configs.size() * portfolio.schemes.size();

  std::vector<RoundStats> rounds;
  shard::MergedPortfolio merged;
  try {
    if (scaling.empty()) {
      RoundStats stats;
      merged = run_round(portfolio, spool_dir, workers, sim, lease_ms, stats);
      rounds.push_back(stats);
    } else {
      // One independent round per worker count, each in its own sub-spool
      // so every round repeats the full measure fan-out.
      for (const std::uint64_t w : scaling) {
        RoundStats stats;
        std::string sub = "w";
        sub += std::to_string(w);
        merged = run_round(portfolio, fs::path(spool_dir) / sub, w, sim,
                           lease_ms, stats);
        rounds.push_back(stats);
        std::printf("round workers=%zu wall=%.2fs spool=%.2fs "
                    "measure=%.2fs merge=%.2fs steals=%zu resumed=%zu\n",
                    stats.workers, stats.wall_s, stats.spool_s,
                    stats.measure_s, stats.merge_s, stats.steals,
                    stats.resumed);
        if (merged.missing != 0) break;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep failed: %s\n", e.what());
    return 1;
  }

  if (merged.missing != 0) {
    std::fprintf(stderr,
                 "sweep incomplete: %zu of %zu units missing results "
                 "(re-run with the same --spool to resume)\n",
                 merged.missing, unit_count);
    return 1;
  }

  // Scaling rounds run the same deterministic portfolio, so every round
  // must agree bit-for-bit; merged holds the last round, and its
  // portfolio_fp is the cross-round contract.
  std::size_t verify_checked = 0;
  std::size_t verify_equal = 0;
  if (verify) {
    // Golden-fingerprint equality: the sharded sweep must reproduce the
    // in-process snapshot/fork sweep bit-for-bit, unit by unit.
    std::map<std::string, std::uint64_t> sharded;
    for (const shard::MergeRow& row : merged.rows) {
      sharded[row.unit.key] = row.result.fingerprint;
    }
    for (const shard::ShardConfig& cfg : portfolio.configs) {
      const harness::Experiment experiment = shard::make_experiment(cfg);
      const std::vector<harness::RunResult> results =
          experiment.run_all(portfolio.schemes, 1);
      for (std::size_t s = 0; s < portfolio.schemes.size(); ++s) {
        const std::string key = shard::unit_key(
            experiment.config_fingerprint(), portfolio.schemes[s]);
        ++verify_checked;
        if (sharded.count(key) != 0 &&
            sharded[key] == harness::fingerprint(results[s])) {
          ++verify_equal;
        } else {
          std::fprintf(stderr, "verify mismatch: unit %s\n", key.c_str());
        }
      }
    }
    std::printf("verify: %zu/%zu unit fingerprints identical to in-process "
                "run_all\n",
                verify_equal, verify_checked);
  }

  if (!report_path.empty()) write_report(report_path, portfolio, merged);
  if (!bench_path.empty()) {
    write_bench(bench_path, portfolio, unit_count, rounds, merged, verify,
                verify_checked, verify_equal);
  }

  const RoundStats& last = rounds.back();
  std::printf("portfolio %s: %zu units, portfolio_fp %s\n",
              portfolio.name.c_str(), unit_count,
              shard::fp_hex(merged.portfolio_fp).c_str());
  std::printf("last round: workers=%zu wall=%.2fs (spool %.2fs, measure "
              "%.2fs, merge %.2fs) steals=%zu resumed=%zu\n",
              last.workers, last.wall_s, last.spool_s, last.measure_s,
              last.merge_s, last.steals, last.resumed);
  return (verify && verify_equal != verify_checked) ? 1 : 0;
}
