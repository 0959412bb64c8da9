// End-to-end tests of the sharded sweep engine: the bwpart_sweepd
// orchestrator and bwpart_sim --shard-worker processes against a real
// spool directory, plus the Spool claim/lease/steal protocol in-process.
//
// The two binaries under test are passed as argv[1] (bwpart_sweepd) and
// argv[2] (bwpart_sim) by ctest, so the suite needs a custom main.
//
// The crash tests use SIGKILL — no destructors, no atexit, no signal
// handlers — the harshest interruption the resume contract must survive:
//   * a worker killed mid-unit leaves a stale lease that siblings steal;
//   * an orchestrator killed mid-sweep leaves a spool that a re-run
//     finishes without re-running any completed unit (asserted via result
//     file mtimes);
//   * either way the merged portfolio is bit-identical to an
//     uninterrupted in-process Experiment::run_all.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../obs/mini_json.hpp"
#include "common/snapshot_io.hpp"
#include "core/partition.hpp"
#include "harness/churn.hpp"
#include "harness/differential.hpp"
#include "harness/shard.hpp"

namespace {

using namespace bwpart;
namespace fs = std::filesystem;
namespace shard = harness::shard;
using bwpart::testjson::ValuePtr;

std::string g_sweepd_path;
std::string g_sim_path;

std::string tmp_dir(const std::string& name) {
  return testing::TempDir() + "sweep_shard_" + name;
}

/// Runs `cmd`; returns its exit code, with its stdout in `out` and the
/// first line of its stderr in `err_line` when given.
int run_cmd(const std::string& cmd, std::string* out = nullptr,
            std::string* err_line = nullptr) {
  const std::string capture = tmp_dir("stdout.txt");
  const std::string errors = tmp_dir("stderr.txt");
  const int status =
      std::system((cmd + " > " + capture + " 2> " + errors).c_str());
  if (out != nullptr) {
    std::ifstream in(capture);
    std::stringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
  }
  if (err_line != nullptr) {
    std::ifstream in(errors);
    std::getline(in, *err_line);
  }
  std::remove(capture.c_str());
  std::remove(errors.c_str());
  if (status == -1) return -1;
  return WEXITSTATUS(status);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Expected per-unit fingerprints of `portfolio` from an uninterrupted
/// in-process run_all — the baseline every sharded execution must hit
/// bit-for-bit.
std::map<std::string, std::uint64_t> run_all_baseline(
    const shard::Portfolio& portfolio) {
  std::map<std::string, std::uint64_t> expected;
  for (const shard::ShardConfig& cfg : portfolio.configs) {
    const harness::Experiment experiment = shard::make_experiment(cfg);
    const std::vector<harness::RunResult> results =
        experiment.run_all(portfolio.schemes, 1);
    for (std::size_t s = 0; s < portfolio.schemes.size(); ++s) {
      expected[shard::unit_key(experiment.config_fingerprint(),
                               portfolio.schemes[s])] =
          harness::fingerprint(results[s]);
    }
  }
  return expected;
}

/// Asserts the spool holds a complete, bit-identical result set for the
/// portfolio.
void expect_bit_identical(const shard::Spool& spool,
                          const shard::Portfolio& portfolio) {
  const std::map<std::string, std::uint64_t> expected =
      run_all_baseline(portfolio);
  const shard::MergedPortfolio merged = shard::merge(spool, portfolio);
  EXPECT_EQ(merged.missing, 0u);
  ASSERT_EQ(merged.rows.size(), expected.size());
  for (const shard::MergeRow& row : merged.rows) {
    ASSERT_TRUE(row.present) << row.unit.key;
    const auto it = expected.find(row.unit.key);
    ASSERT_NE(it, expected.end()) << row.unit.key;
    EXPECT_EQ(row.result.fingerprint, it->second)
        << "unit " << row.unit.key
        << " diverged from in-process run_all";
  }
}

/// Spools snapshots + units for `portfolio` into a fresh directory.
shard::Spool prepare_spool(const std::string& dir,
                           const shard::Portfolio& portfolio) {
  fs::remove_all(dir);
  shard::Spool spool{fs::path(dir)};
  spool.init();
  spool.write_manifest(portfolio);
  std::map<std::uint64_t, shard::ShardConfig> configs;
  for (const shard::ShardUnit& u : shard::enumerate_units(portfolio)) {
    configs.emplace(u.config_fp, u.cfg);
  }
  for (const auto& [fp, cfg] : configs) {
    spool.put_snapshot(fp, shard::make_experiment(cfg).capture_profile());
  }
  for (const shard::ShardUnit& u : shard::enumerate_units(portfolio)) {
    spool.publish(u);
  }
  return spool;
}

/// A single-config portfolio whose units take long enough (~100 ms+) that
/// SIGKILLing a worker reliably lands mid-unit.
shard::Portfolio slow_portfolio() {
  shard::Portfolio p;
  p.name = "slow";
  shard::ShardConfig c;
  c.mix = "hetero-5";
  c.warmup_cycles = 20'000;
  c.profile_cycles = 100'000;
  c.measure_cycles = 1'000'000;
  p.configs.push_back(c);
  p.schemes.assign(std::begin(core::kAllSchemes),
                   std::end(core::kAllSchemes));
  return p;
}

pid_t spawn(const std::vector<std::string>& argv) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<char*> cargv;
    for (const std::string& a : argv) {
      cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);
    // Quiet the child; its output is not under test here.
    std::freopen("/dev/null", "w", stdout);
    std::freopen("/dev/null", "w", stderr);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  return pid;
}

// --- spool protocol (in-process) ---

TEST(SpoolProtocol, UnitSpecRoundTrips) {
  shard::Portfolio p = shard::make_portfolio("portfolio64");
  for (const shard::ShardUnit& u : shard::enumerate_units(p)) {
    const shard::ShardUnit back =
        shard::parse_unit_spec(shard::encode_unit_spec(u));
    EXPECT_EQ(back.key, u.key);
    EXPECT_EQ(back.cfg.mix, u.cfg.mix);
    EXPECT_EQ(back.cfg.copies, u.cfg.copies);
    EXPECT_EQ(back.cfg.dram, u.cfg.dram);
    EXPECT_EQ(back.cfg.controllers, u.cfg.controllers);
    EXPECT_EQ(back.cfg.seed, u.cfg.seed);
    EXPECT_EQ(back.scheme, u.scheme);
    EXPECT_EQ(back.config_fp, u.config_fp);
  }
  // Decimal fields are strict and take the command line's ranges.
  const std::string spec =
      shard::encode_unit_spec(shard::enumerate_units(p).front());
  for (const std::string line :
       {"copies 0", "controllers 1025", "seed -1", "measure 2e6"}) {
    const std::string key = "\n" + line.substr(0, line.find(' ') + 1);
    std::string bad = spec;
    const std::size_t at = bad.find(key) + 1;
    ASSERT_NE(at, 0u) << line;
    bad.replace(at, bad.find('\n', at) - at, line);
    EXPECT_THROW((void)shard::parse_unit_spec(bad), snap::SnapshotError)
        << line;
  }
}

// Churned units: the compact schedule rides in the unit spec (omitted when
// empty, so churn-free specs stay byte-identical to the pre-churn
// encoding), the key gains a schedule-fingerprint suffix, and a worker
// measures the unit through the churn engine bit-identically to a direct
// measure_churn_from.
TEST(SpoolProtocol, ChurnUnitsCarryTheScheduleAndStayDistinct) {
  shard::ShardConfig cfg;
  cfg.mix = "hetero-5";
  cfg.warmup_cycles = 20'000;
  cfg.profile_cycles = 100'000;
  cfg.measure_cycles = 100'000;
  shard::Portfolio p;
  p.name = "churn";
  p.schemes = {core::Scheme::SquareRoot};
  p.configs.push_back(cfg);               // fixed
  cfg.churn = "@25000 depart 1; @60000 arrive 1";
  p.configs.push_back(cfg);               // churned twin
  const std::vector<shard::ShardUnit> units = shard::enumerate_units(p);
  ASSERT_EQ(units.size(), 2u);
  // Same config fingerprint (the snapshot is shared), different unit keys.
  EXPECT_EQ(units[0].config_fp, units[1].config_fp);
  EXPECT_NE(units[0].key, units[1].key);
  EXPECT_EQ(units[1].key.find(units[0].key), 0u);

  // The churn-free spec has no churn line; the churned one round-trips,
  // and a multi-line spelling of the same schedule lands on the same key.
  EXPECT_EQ(shard::encode_unit_spec(units[0]).find("churn"),
            std::string::npos);
  const shard::ShardUnit back =
      shard::parse_unit_spec(shard::encode_unit_spec(units[1]));
  EXPECT_EQ(back.key, units[1].key);
  EXPECT_EQ(back.cfg.churn,
            harness::ChurnSchedule::parse(cfg.churn).to_compact());
  shard::Portfolio multiline = p;
  multiline.configs[1].churn = "@25000 depart 1\n@60000 arrive 1";
  EXPECT_EQ(shard::enumerate_units(multiline)[1].key, units[1].key);

  // A malformed schedule fails at enumeration, naming the directive.
  shard::Portfolio bad = p;
  bad.configs[1].churn = "@25000 vanish 1";
  EXPECT_THROW((void)shard::enumerate_units(bad), std::runtime_error);

  // End-to-end: publish both units, drain the spool in-process, and check
  // the churned shard is bit-identical to a direct churn-engine run.
  const fs::path dir = tmp_dir("churn_units");
  fs::remove_all(dir);
  const shard::Spool spool(dir);
  spool.init();
  const harness::Experiment exp = shard::make_experiment(p.configs[0]);
  spool.put_snapshot(exp.config_fingerprint(), exp.capture_profile());
  for (const shard::ShardUnit& u : units) spool.publish(u);
  const shard::WorkerReport report = shard::run_worker(dir);
  EXPECT_EQ(report.completed, 2u);

  harness::ChurnRunConfig churn_cfg;
  churn_cfg.scheme = core::Scheme::SquareRoot;
  const harness::ChurnRunResult direct = exp.measure_churn_from(
      exp.capture_profile(), harness::ChurnSchedule::parse(cfg.churn),
      churn_cfg);
  EXPECT_EQ(spool.read_result(units[1].key).fingerprint,
            harness::fingerprint(direct.base));
  EXPECT_EQ(spool.read_result(units[0].key).fingerprint,
            harness::fingerprint(exp.run(core::Scheme::SquareRoot)));
  fs::remove_all(dir);
}

TEST(SpoolProtocol, CorruptResultShardIsRejected) {
  shard::UnitResult r;
  r.key = "k";
  r.config_fp = 7;
  r.dram_gen = "ddr3_1600";
  r.result.scheme = core::Scheme::Equal;
  r.result.hsp = 1.5;
  r.fingerprint = harness::fingerprint(r.result);
  std::vector<std::uint8_t> bytes = shard::encode_result_shard(r);
  const shard::UnitResult back = shard::decode_result_shard(bytes);
  EXPECT_EQ(back.key, "k");
  EXPECT_EQ(back.dram_gen, "ddr3_1600");
  EXPECT_EQ(back.result.hsp, 1.5);
  bytes[bytes.size() / 2] ^= 0x01;
  EXPECT_THROW(shard::decode_result_shard(bytes), snap::SnapshotError);
}

// quick@<generation> portfolios: the generation is carried on every unit,
// bogus generations are rejected at portfolio-construction time, and the
// sweep is bit-identical to an in-process run_all under that generation.
TEST(SpoolProtocol, GenerationPortfolioSweepsUnderThatGeneration) {
  EXPECT_THROW(shard::make_portfolio("quick@ddr9_bogus"),
               std::invalid_argument);
  shard::Portfolio p = shard::make_portfolio("quick@ddr4_2400");
  for (const shard::ShardConfig& cfg : p.configs) {
    EXPECT_EQ(cfg.dram, "ddr4_2400");
  }
  p.configs.resize(1);
  p.schemes.resize(2);
  const std::string dir = tmp_dir("gen_portfolio");
  const shard::Spool spool = prepare_spool(dir, p);
  const shard::WorkerReport report = shard::run_worker(dir);
  EXPECT_EQ(report.completed, p.schemes.size());
  expect_bit_identical(spool, p);
  // Every shard on disk records the generation it was measured under.
  for (const std::string& key : spool.result_keys()) {
    const std::string raw =
        read_file((fs::path(dir) / "results" / (key + ".bwrr")).string());
    const shard::UnitResult r = shard::decode_result_shard(
        {reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()});
    EXPECT_EQ(r.dram_gen, "ddr4_2400") << key;
  }
  fs::remove_all(dir);
}

// A result shard measured under one generation must never be merged into a
// portfolio expecting another — e.g. a spool directory reused across sweeps
// of different generations. The shard itself is intact (checksum valid), so
// only the recorded generation can tell the merge it is looking at foreign
// data.
TEST(SpoolProtocol, MergeRefusesShardsFromAnotherGeneration) {
  shard::Portfolio p = shard::make_portfolio("quick@ddr3_1600");
  p.configs.resize(1);
  p.schemes.resize(1);
  const std::string dir = tmp_dir("gen_mismatch");
  const shard::Spool spool = prepare_spool(dir, p);
  ASSERT_EQ(shard::run_worker(dir).completed, 1u);
  EXPECT_NO_THROW(shard::merge(spool, p));

  // Rewrite the completed shard as if it had been measured under DDR4:
  // decode, swap the recorded generation, re-encode (fresh checksum).
  const std::string key = shard::enumerate_units(p)[0].key;
  const fs::path shard_path = fs::path(dir) / "results" / (key + ".bwrr");
  const std::string raw = read_file(shard_path.string());
  shard::UnitResult r = shard::decode_result_shard(
      {reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()});
  r.dram_gen = "ddr4_2400";
  const std::vector<std::uint8_t> forged = shard::encode_result_shard(r);
  std::ofstream os(shard_path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(forged.data()),
           static_cast<std::streamsize>(forged.size()));
  os.close();

  try {
    (void)shard::merge(spool, p);
    FAIL() << "mixed-generation shard was merged";
  } catch (const snap::SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ddr4_2400"), std::string::npos) << what;
    EXPECT_NE(what.find("ddr3_1600"), std::string::npos) << what;
  }
  fs::remove_all(dir);
}

TEST(SpoolProtocol, ClaimIsExclusiveAndStealRequiresStaleness) {
  shard::Portfolio p = shard::make_portfolio("quick");
  p.configs.resize(1);
  p.schemes.resize(1);
  const std::string dir = tmp_dir("protocol");
  fs::remove_all(dir);
  shard::Spool spool{fs::path(dir)};
  spool.init();
  const shard::ShardUnit unit = shard::enumerate_units(p)[0];
  EXPECT_TRUE(spool.publish(unit));
  EXPECT_FALSE(spool.publish(unit));  // idempotent while pending

  std::optional<shard::ClaimedUnit> first = spool.claim();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->unit.key, unit.key);
  EXPECT_FALSE(spool.claim().has_value());   // exclusive
  EXPECT_FALSE(spool.publish(unit));         // claimed units stay claimed
  EXPECT_EQ(spool.steal_stale(std::chrono::hours(1)), 0u);  // fresh lease

  // Backdate the lease as if its worker died 10 s ago: now it is stealable,
  // and the stolen unit is claimable again.
  fs::last_write_time(first->lease, fs::file_time_type::clock::now() -
                                        std::chrono::seconds(10));
  EXPECT_EQ(spool.steal_stale(std::chrono::seconds(1)), 1u);
  EXPECT_EQ(spool.steal_count(), 1u);
  EXPECT_TRUE(spool.claim().has_value());
  fs::remove_all(dir);
}

TEST(SpoolProtocol, InFlightTempFilesAreNeverListedOrClaimed) {
  shard::Portfolio p = shard::make_portfolio("quick");
  p.configs.resize(1);
  p.schemes.resize(1);
  const std::string dir = tmp_dir("temp_files");
  fs::remove_all(dir);
  shard::Spool spool{fs::path(dir)};
  spool.init();
  const shard::ShardUnit unit = shard::enumerate_units(p)[0];
  // Partial files left by a publisher and a worker SIGKILLed mid-write.
  const std::string stray = ".tmp.12345." + unit.key;
  const fs::path stray_unit = fs::path(dir) / "units" / (stray + ".unit");
  const fs::path stray_result = fs::path(dir) / "results" / (stray + ".bwrr");
  std::ofstream(stray_unit) << "partial";
  std::ofstream(stray_result) << "partial";
  EXPECT_TRUE(spool.todo_keys().empty());
  EXPECT_TRUE(spool.result_keys().empty());
  EXPECT_FALSE(spool.claim().has_value());
  EXPECT_TRUE(spool.claimed_keys().empty());

  // The real unit publishes and claims normally next to the strays, which
  // stay where they are.
  EXPECT_TRUE(spool.publish(unit));
  EXPECT_EQ(spool.todo_keys(), std::vector<std::string>{unit.key});
  const std::optional<shard::ClaimedUnit> claimed = spool.claim();
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->unit.key, unit.key);
  EXPECT_TRUE(fs::exists(stray_unit));
  EXPECT_TRUE(fs::exists(stray_result));
  fs::remove_all(dir);
}

TEST(SpoolProtocol, CompletedUnitsAreNeverRepublishedOrReclaimed) {
  shard::Portfolio p = shard::make_portfolio("quick");
  p.configs.resize(1);
  const std::string dir = tmp_dir("complete");
  const shard::Spool spool = prepare_spool(dir, p);
  const shard::WorkerReport report = shard::run_worker(dir);
  EXPECT_EQ(report.completed, p.schemes.size());
  EXPECT_EQ(report.healed, 0u);
  for (const shard::ShardUnit& u : shard::enumerate_units(p)) {
    EXPECT_TRUE(spool.has_result(u.key));
    EXPECT_FALSE(spool.publish(u)) << "completed unit republished";
  }
  EXPECT_TRUE(spool.todo_keys().empty());
  EXPECT_FALSE(spool.claim().has_value());
  expect_bit_identical(spool, p);
  fs::remove_all(dir);
}

TEST(SpoolProtocol, WorkerSelfHealsAMissingSnapshot) {
  shard::Portfolio p = shard::make_portfolio("quick");
  p.configs.resize(1);
  const std::string dir = tmp_dir("heal");
  const shard::Spool spool = prepare_spool(dir, p);
  // Simulate an orchestrator killed between publishing units and spooling
  // the snapshot.
  fs::remove(spool.snapshot_path(
      shard::enumerate_units(p)[0].config_fp));
  const shard::WorkerReport report = shard::run_worker(dir);
  EXPECT_EQ(report.completed, p.schemes.size());
  EXPECT_GE(report.healed, 1u);
  expect_bit_identical(spool, p);
  fs::remove_all(dir);
}

// --- end-to-end through the binaries ---

TEST(SweepShard, OrchestratedSweepIsBitIdenticalToRunAll) {
  const std::string dir = tmp_dir("e2e");
  fs::remove_all(dir);
  const std::string bench = tmp_dir("e2e_bench.json");
  const std::string report = tmp_dir("e2e_report.json");
  const int rc = run_cmd(g_sweepd_path + " --portfolio quick --spool " + dir +
                         " --workers 2 --sim " + g_sim_path + " --verify" +
                         " --bench-out " + bench + " --report " + report);
  ASSERT_EQ(rc, 0);

  const shard::Spool spool{fs::path(dir)};
  expect_bit_identical(spool, shard::make_portfolio("quick"));

  // BENCH_sweep.json carries the agreed schema: workers, wall seconds,
  // scaling efficiency, steal/resume counts, and the verify verdict.
  const ValuePtr bdoc = bwpart::testjson::parse(read_file(bench));
  ASSERT_TRUE(bdoc->is_object());
  EXPECT_EQ(bdoc->at("schema").num, 1.0);
  EXPECT_EQ(bdoc->at("units").num, 14.0);
  ASSERT_TRUE(bdoc->at("rounds").is_array());
  ASSERT_EQ(bdoc->at("rounds").size(), 1u);
  const auto& round = bdoc->at("rounds")[0];
  EXPECT_EQ(round.at("workers").num, 2.0);
  EXPECT_TRUE(round.has("wall_seconds"));
  EXPECT_TRUE(round.has("scaling_efficiency"));
  EXPECT_TRUE(round.has("steals"));
  EXPECT_TRUE(round.has("resumed_units"));
  EXPECT_EQ(bdoc->at("verify").at("checked").num, 14.0);
  EXPECT_EQ(bdoc->at("verify").at("equal").num, 14.0);

  const ValuePtr rdoc = bwpart::testjson::parse(read_file(report));
  ASSERT_TRUE(rdoc->is_object());
  EXPECT_EQ(rdoc->at("units").size(), 14u);
  fs::remove_all(dir);
  std::remove(bench.c_str());
  std::remove(report.c_str());
}

TEST(SweepShard, WorkerSigkillMidUnitIsStolenAndSweepStillBitIdentical) {
  const shard::Portfolio p = slow_portfolio();
  const std::string dir = tmp_dir("kill_worker");
  const shard::Spool spool = prepare_spool(dir, p);

  const pid_t worker = spawn({g_sim_path, "--shard-worker", dir,
                              "--lease-ms", "60000"});
  ASSERT_GT(worker, 0);
  // Wait until the worker holds a lease (it is then inside a ~150 ms
  // measure phase), then SIGKILL it mid-unit.
  for (int i = 0; i < 500 && spool.claimed_keys().empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(spool.claimed_keys().empty()) << "worker never claimed";
  ASSERT_EQ(::kill(worker, SIGKILL), 0);
  int status = 0;
  ::waitpid(worker, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));

  // A sibling worker with a short lease must steal the dead worker's unit
  // and finish the sweep; the merged portfolio must still be bit-identical
  // to an uninterrupted in-process run_all.
  shard::WorkerOptions opt;
  opt.lease = std::chrono::milliseconds(250);
  const shard::WorkerReport report = shard::run_worker(dir, opt);
  EXPECT_GE(report.stolen, 1u) << "stale lease was never stolen";
  EXPECT_TRUE(spool.claimed_keys().empty());
  expect_bit_identical(spool, p);
  fs::remove_all(dir);
}

TEST(SweepShard, OrchestratorSigkillMidSweepResumesWithoutRerunningUnits) {
  const std::string dir = tmp_dir("kill_orch");
  fs::remove_all(dir);
  const pid_t orch =
      spawn({g_sweepd_path, "--portfolio", "table4", "--spool", dir,
             "--workers", "2", "--sim", g_sim_path, "--lease-ms", "500"});
  ASSERT_GT(orch, 0);
  // Kill it mid-sweep: as soon as the first unit's result shard lands
  // (renamed into place; in-flight temp files are not listed). A fixed
  // delay is no proxy for that, since the whole sweep can finish within it
  // on an idle host.
  const shard::Spool spool{fs::path(dir)};
  const auto any_result = [&] { return !spool.result_keys().empty(); };
  for (int i = 0; i < 10'000 && !any_result(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(any_result()) << "the sweep never completed a unit";
  ASSERT_EQ(::kill(orch, SIGKILL), 0);
  int status = 0;
  ::waitpid(orch, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  // The orchestrator's workers are separate processes; let them drain or
  // die on their own before resuming (they exit once the queue empties).
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  // Record what the killed sweep completed: these units must NOT be re-run
  // by the resume (asserted via unchanged mtimes — a re-run would rename a
  // fresh shard over the file).
  std::map<std::string, fs::file_time_type> done_before;
  for (const std::string& key : spool.result_keys()) {
    done_before[key] =
        fs::last_write_time(fs::path(dir) / "results" / (key + ".bwrr"));
  }

  const int rc = run_cmd(g_sweepd_path + " --portfolio table4 --spool " +
                         dir + " --workers 2 --sim " + g_sim_path +
                         " --lease-ms 500 --verify");
  ASSERT_EQ(rc, 0);
  for (const auto& [key, mtime] : done_before) {
    EXPECT_EQ(fs::last_write_time(fs::path(dir) / "results" /
                                  (key + ".bwrr")),
              mtime)
        << "completed unit " << key << " was re-run on resume";
  }
  expect_bit_identical(spool, shard::make_portfolio("table4"));
  fs::remove_all(dir);
}

// Malformed worker counts exit 2 with a first stderr line naming the flag.
// "--scaling 0" used to skip every round and then segfault on the empty
// round list; "--workers abc" read as 0 and printed only the usage.
TEST(SweepShard, MalformedFlagValuesExitTwoNamingTheFlag) {
  const std::string dir = tmp_dir("bad_flags");
  fs::remove_all(dir);
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      {" --scaling 0", "--scaling"},
      {" --workers abc", "--workers"},
  };
  for (const auto& c : cases) {
    std::string line;
    EXPECT_EQ(run_cmd(g_sweepd_path + " --portfolio quick --spool " + dir +
                          " --sim " + g_sim_path + c.args,
                      nullptr, &line),
              2)
        << c.args;
    EXPECT_EQ(line.rfind(std::string("bwpart_sweepd: ") + c.flag + ": ", 0),
              0u)
        << c.args << " -> " << line;
  }
  fs::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <bwpart_sweepd path> <bwpart_sim path>\n",
                 argv[0]);
    return 2;
  }
  g_sweepd_path = argv[1];
  g_sim_path = argv[2];
  return RUN_ALL_TESTS();
}
