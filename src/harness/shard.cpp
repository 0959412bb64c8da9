#include "harness/shard.hpp"

#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "common/cli.hpp"
#include "dram/config.hpp"
#include "harness/churn.hpp"
#include "harness/differential.hpp"

namespace bwpart::harness::shard {

namespace fs = std::filesystem;

namespace {

constexpr char kUnitHeader[] = "bwpart-shard-unit v1";
// v2: the shard records the DRAM generation it was measured under, and
// merge() refuses shards whose generation disagrees with their unit's.
constexpr std::uint32_t kResultVersion = 2;
constexpr char kUnitExt[] = ".unit";
constexpr char kResultExt[] = ".bwrr";
/// Spool files are written under `.tmp.<pid>.<name>` in their target
/// directory and renamed onto `<name>` once complete.
constexpr std::string_view kTempPrefix = ".tmp.";

core::Scheme parse_scheme(const std::string& name) {
  for (core::Scheme s : core::kAllSchemes) {
    if (core::to_string(s) == name) return s;
  }
  throw snap::SnapshotError("unit spec names unknown scheme '" + name + "'");
}

std::uint64_t parse_hex64(const std::string& text, const char* field) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 16);
  if (end == text.c_str() || *end != '\0') {
    throw snap::SnapshotError(std::string("unit spec field '") + field +
                              "' is not a hex integer: '" + text + "'");
  }
  return v;
}

/// Lists the keys (stems) of every regular file in `dir` carrying `ext`,
/// skipping in-flight temp files: a partial file left by a writer killed
/// mid-write is never listed, claimed or merged. Entries may vanish
/// mid-scan (another process renamed them); those are simply skipped.
std::vector<std::string> list_keys(const fs::path& dir, const char* ext) {
  std::vector<std::string> keys;
  std::error_code ec;
  // A directory that cannot be opened yields the end iterator: no keys.
  for (const fs::directory_entry& entry :
       fs::directory_iterator(dir, ec)) {
    const fs::path& p = entry.path();
    if (p.extension() != ext) continue;
    std::string key = p.stem().string();
    if (!key.starts_with(kTempPrefix)) keys.push_back(std::move(key));
  }
  return keys;
}

/// The in-flight name `final_path` is written under before its rename.
fs::path temp_path(const fs::path& final_path) {
  return final_path.parent_path() /
         (std::string(kTempPrefix) + std::to_string(::getpid()) + "." +
          final_path.filename().string());
}

void write_file_atomically(const fs::path& final_path,
                           const void* data, std::size_t size) {
  const fs::path tmp = temp_path(final_path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    snap::require(out.good(), "cannot open spool temp file for writing");
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    out.flush();
    snap::require(out.good(), "write to spool temp file failed");
  }
  fs::rename(tmp, final_path);
}

/// Refreshes a file's mtime; ignores failure (the file may have been
/// renamed away by a concurrent steal — benign, see the claim protocol).
void touch(const fs::path& path) {
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

std::uint64_t hash_u64(std::uint64_t v, std::uint64_t h) {
  return hash_bytes(&v, sizeof(v), h);
}

}  // namespace

SystemConfig shard_machine(const ShardConfig& cfg) {
  SystemConfig machine;
  // Resolves through the DramGeneration registry; throws
  // std::invalid_argument listing every registered name when unknown.
  machine.dram = dram::dram_config_for_generation(cfg.dram);
  machine.num_controllers = cfg.controllers;
  return machine;
}

std::vector<workload::BenchmarkSpec> shard_apps(const ShardConfig& cfg) {
  for (const workload::MixSpec& m : workload::paper_mixes()) {
    if (m.name == cfg.mix) return workload::resolve_mix(m, cfg.copies);
  }
  throw std::invalid_argument("unknown mix '" + cfg.mix + "'");
}

PhaseConfig shard_phases(const ShardConfig& cfg) {
  PhaseConfig ph;
  ph.warmup_cycles = cfg.warmup_cycles;
  ph.profile_cycles = cfg.profile_cycles;
  ph.measure_cycles = cfg.measure_cycles;
  ph.seed = cfg.seed;
  return ph;
}

Experiment make_experiment(const ShardConfig& cfg) {
  return Experiment(shard_machine(cfg), shard_apps(cfg), shard_phases(cfg));
}

std::string fp_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fp);
  return buf;
}

std::string unit_key(std::uint64_t config_fp, core::Scheme scheme,
                     std::uint64_t churn_fp) {
  // Keys double as file names, so the paper's "2/3_power" scheme name must
  // lose its slash.
  std::string slug = core::to_string(scheme);
  for (char& c : slug) {
    if (c == '/') c = '_';
  }
  std::string key = fp_hex(config_fp) + "-" + slug;
  if (churn_fp != 0) key += "-c" + fp_hex(churn_fp);
  return key;
}

Portfolio make_portfolio(const std::string& name) {
  Portfolio p;
  p.name = name;
  p.schemes.assign(std::begin(core::kAllSchemes),
                   std::end(core::kAllSchemes));
  auto mix_cfg = [](std::string_view mix) {
    ShardConfig c;
    c.mix = mix;
    return c;
  };
  if (name == "quick" || name.rfind("quick@", 0) == 0) {
    // CI smoke scale: two contrasting mixes, short windows. The
    // "quick@<generation>" form pins both configs to a registered DRAM
    // generation (the CI generation-matrix job sweeps these).
    std::string gen = "ddr2_400";
    if (name != "quick") {
      gen = name.substr(std::string("quick@").size());
      // Validate eagerly so an unknown generation fails here, naming the
      // registered set, not deep inside the first snapshot capture.
      (void)dram::dram_config_for_generation(gen);
    }
    for (const char* mix : {"hetero-5", "homo-1"}) {
      ShardConfig c = mix_cfg(mix);
      c.dram = gen;
      c.warmup_cycles = 20'000;
      c.profile_cycles = 100'000;
      c.measure_cycles = 100'000;
      p.configs.push_back(std::move(c));
    }
  } else if (name == "table4") {
    // All 14 Table IV mixes at exactly the golden-corpus phase settings
    // (tests/golden/fingerprints.json), so the 98 merged fingerprints are
    // directly comparable against the committed corpus.
    for (const workload::MixSpec& m : workload::paper_mixes()) {
      ShardConfig c = mix_cfg(m.name);
      c.warmup_cycles = 20'000;
      c.profile_cycles = 100'000;
      c.measure_cycles = 100'000;
      p.configs.push_back(std::move(c));
    }
  } else if (name == "portfolio64") {
    // Scale-out headline: 64 applications (16 copies of the Fig. 1 mix) on
    // 4 independent memory controllers of DDR2-1600.
    ShardConfig c = mix_cfg("hetero-5");
    c.copies = 16;
    c.controllers = 4;
    c.dram = "ddr2_1600";
    c.warmup_cycles = 20'000;
    c.profile_cycles = 100'000;
    c.measure_cycles = 100'000;
    p.configs.push_back(std::move(c));
  } else {
    throw std::invalid_argument(
        "unknown portfolio '" + name +
        "' (expect quick|quick@<generation>|table4|portfolio64)");
  }
  return p;
}

namespace {

/// Parses and structurally validates a config's churn schedule against its
/// app superset; returns the schedule's canonical fingerprint (0 when the
/// config is churn-free). Throws std::runtime_error naming the offending
/// directive on a malformed or structurally invalid schedule.
std::uint64_t shard_churn_fp(const ShardConfig& cfg) {
  if (cfg.churn.empty()) return 0;
  const ChurnSchedule schedule = ChurnSchedule::parse(cfg.churn);
  schedule.validate(shard_apps(cfg).size());
  return schedule.fingerprint();
}

}  // namespace

std::vector<ShardUnit> enumerate_units(const Portfolio& portfolio) {
  std::vector<ShardUnit> units;
  units.reserve(portfolio.configs.size() * portfolio.schemes.size());
  for (const ShardConfig& cfg : portfolio.configs) {
    const std::uint64_t fp = config_fingerprint(
        shard_machine(cfg), shard_apps(cfg), shard_phases(cfg));
    // Parse + validate the churn schedule up front so a malformed spec
    // fails here, naming the offending line, not inside a worker; canonical
    // fingerprints guarantee equal schedules written differently (compact
    // vs multi-line) land on the same unit key.
    const std::uint64_t churn_fp = shard_churn_fp(cfg);
    for (core::Scheme scheme : portfolio.schemes) {
      ShardUnit u;
      u.cfg = cfg;
      u.scheme = scheme;
      u.config_fp = fp;
      u.key = unit_key(fp, scheme, churn_fp);
      units.push_back(std::move(u));
    }
  }
  return units;
}

std::string encode_unit_spec(const ShardUnit& unit) {
  std::ostringstream os;
  os << kUnitHeader << '\n'
     << "mix " << unit.cfg.mix << '\n'
     << "copies " << unit.cfg.copies << '\n'
     << "dram " << unit.cfg.dram << '\n'
     << "controllers " << unit.cfg.controllers << '\n'
     << "warmup " << unit.cfg.warmup_cycles << '\n'
     << "profile " << unit.cfg.profile_cycles << '\n'
     << "measure " << unit.cfg.measure_cycles << '\n'
     << "seed " << unit.cfg.seed << '\n'
     << "scheme " << core::to_string(unit.scheme) << '\n'
     << "config_fp " << fp_hex(unit.config_fp) << '\n';
  // Canonical compact form, so two spellings of the same schedule encode
  // identically. Churn-free units omit the field: their specs stay
  // byte-identical to the pre-churn encoding.
  if (!unit.cfg.churn.empty()) {
    os << "churn " << ChurnSchedule::parse(unit.cfg.churn).to_compact()
       << '\n';
  }
  return os.str();
}

ShardUnit parse_unit_spec(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  snap::require(static_cast<bool>(std::getline(is, line)) &&
                    line == kUnitHeader,
                "unit spec missing its header line");
  std::map<std::string, std::string> fields;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.find(' ');
    snap::require(space != std::string::npos && space + 1 < line.size(),
                  "unit spec line is not 'key value'");
    fields[line.substr(0, space)] = line.substr(space + 1);
  }
  auto want = [&](const char* key) -> const std::string& {
    const auto it = fields.find(key);
    if (it == fields.end()) {
      throw snap::SnapshotError(std::string("unit spec missing field '") +
                                key + "'");
    }
    return it->second;
  };
  auto number = [&](const char* key, std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t v = 0;
    const std::string problem = cli::parse_number(want(key), lo, hi, v);
    if (!problem.empty()) {
      throw snap::SnapshotError(std::string("unit spec field '") + key +
                                "': " + problem);
    }
    return v;
  };

  ShardUnit u;
  u.cfg.mix = want("mix");
  u.cfg.copies = static_cast<std::uint32_t>(number("copies", 1, kMaxApps));
  u.cfg.dram = want("dram");
  u.cfg.controllers = number("controllers", 1, kMaxApps);
  u.cfg.warmup_cycles = number("warmup", 0, UINT64_MAX);
  u.cfg.profile_cycles = number("profile", 0, UINT64_MAX);
  u.cfg.measure_cycles = number("measure", 0, UINT64_MAX);
  u.cfg.seed = number("seed", 0, UINT64_MAX);
  u.scheme = parse_scheme(want("scheme"));
  u.config_fp = parse_hex64(want("config_fp"), "config_fp");
  if (const auto it = fields.find("churn"); it != fields.end()) {
    u.cfg.churn = it->second;
    try {
      u.key = unit_key(u.config_fp, u.scheme,
                       ChurnSchedule::parse(u.cfg.churn).fingerprint());
    } catch (const std::runtime_error& e) {
      throw snap::SnapshotError(std::string("unit spec churn schedule: ") +
                                e.what());
    }
  } else {
    u.key = unit_key(u.config_fp, u.scheme);
  }
  return u;
}

std::vector<std::uint8_t> encode_result_shard(const UnitResult& result) {
  snap::Writer w;
  w.tag("BWRR");
  w.u32(kResultVersion);
  w.str(result.key);
  w.u64(result.config_fp);
  w.str(result.dram_gen);
  const RunResult& r = result.result;
  w.str(core::to_string(r.scheme));
  w.sz(r.params.size());
  for (const core::AppParams& p : r.params) {
    w.f64(p.apc_alone);
    w.f64(p.api);
  }
  w.sz(r.ipc_shared.size());
  for (double v : r.ipc_shared) w.f64(v);
  w.sz(r.apc_shared.size());
  for (double v : r.apc_shared) w.f64(v);
  w.f64(r.total_apc);
  w.f64(r.bus_utilization);
  w.f64(r.hsp);
  w.f64(r.wsp);
  w.f64(r.ipcsum);
  w.f64(r.min_fairness);
  w.u64(result.fingerprint);
  const std::span<const std::uint8_t> body = w.bytes();
  w.u64(hash_bytes(body.data(), body.size()));
  return w.take();
}

UnitResult decode_result_shard(std::span<const std::uint8_t> bytes) {
  snap::require(bytes.size() > 8, "result shard too short for a checksum");
  const std::uint64_t want =
      hash_bytes(bytes.data(), bytes.size() - 8);
  {
    // Verify the trailing checksum before interpreting any field, so a
    // corrupted length prefix fails as "checksum mismatch" instead of an
    // absurd allocation.
    snap::Reader tail(bytes.subspan(bytes.size() - 8));
    snap::require(tail.u64() == want,
                  "result shard checksum mismatch (file corrupted)");
  }

  snap::Reader r(bytes);
  r.expect_tag("BWRR");
  const std::uint32_t version = r.u32();
  if (version != kResultVersion) {
    throw snap::SnapshotError(
        "unsupported result shard version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kResultVersion) +
        "; v1 shards predate the DRAM-generation field — re-run the sweep "
        "in a fresh spool)");
  }
  UnitResult out;
  out.key = r.str();
  out.config_fp = r.u64();
  out.dram_gen = r.str();
  RunResult& res = out.result;
  res.scheme = parse_scheme(r.str());
  res.params.resize(r.sz());
  for (core::AppParams& p : res.params) {
    p.apc_alone = r.f64();
    p.api = r.f64();
  }
  res.ipc_shared.resize(r.sz());
  for (double& v : res.ipc_shared) v = r.f64();
  res.apc_shared.resize(r.sz());
  for (double& v : res.apc_shared) v = r.f64();
  res.total_apc = r.f64();
  res.bus_utilization = r.f64();
  res.hsp = r.f64();
  res.wsp = r.f64();
  res.ipcsum = r.f64();
  res.min_fairness = r.f64();
  out.fingerprint = r.u64();
  snap::require(r.u64() == want,
                "result shard checksum mismatch (file corrupted)");
  snap::require(r.at_end(), "trailing bytes after result shard checksum");
  snap::require(out.fingerprint == fingerprint(res),
                "result shard fingerprint disagrees with its decoded fields "
                "(encoding drift or corruption)");
  return out;
}

// --- Spool ---

Spool::Spool(fs::path root) : root_(std::move(root)) {}

void Spool::init() const {
  for (const char* sub : {"snapshots", "units", "claims", "results",
                          "marks"}) {
    fs::create_directories(root_ / sub);
  }
}

void Spool::write_manifest(const Portfolio& portfolio) const {
  std::ostringstream os;
  os << "bwpart-shard-spool v1\nportfolio " << portfolio.name << '\n';
  for (const ShardConfig& cfg : portfolio.configs) {
    os << "config " << cfg.mix << " x" << cfg.copies << " " << cfg.dram
       << " controllers=" << cfg.controllers << " warmup=" << cfg.warmup_cycles
       << " profile=" << cfg.profile_cycles
       << " measure=" << cfg.measure_cycles << " seed=" << cfg.seed;
    if (!cfg.churn.empty()) os << " churn=\"" << cfg.churn << "\"";
    os << '\n';
  }
  const std::string text = os.str();
  write_file_atomically(root_ / "manifest.txt", text.data(), text.size());
}

fs::path Spool::snapshot_path(std::uint64_t config_fp) const {
  return root_ / "snapshots" / (fp_hex(config_fp) + ".bwps");
}

bool Spool::has_snapshot(std::uint64_t config_fp) const {
  std::error_code ec;
  return fs::exists(snapshot_path(config_fp), ec);
}

void Spool::put_snapshot(std::uint64_t config_fp,
                         const ProfileSnapshot& snapshot) const {
  const fs::path final_path = snapshot_path(config_fp);
  const fs::path tmp = temp_path(final_path);
  write_profile_snapshot(tmp.string(), snapshot);
  fs::rename(tmp, final_path);
}

ProfileSnapshot Spool::get_snapshot(std::uint64_t config_fp) const {
  return read_profile_snapshot(snapshot_path(config_fp).string());
}

fs::path Spool::todo_path(const std::string& key) const {
  return root_ / "units" / (key + kUnitExt);
}

fs::path Spool::claim_path(const std::string& key) const {
  return root_ / "claims" / (key + kUnitExt);
}

fs::path Spool::result_path(const std::string& key) const {
  return root_ / "results" / (key + kResultExt);
}

bool Spool::publish(const ShardUnit& unit) const {
  std::error_code ec;
  if (fs::exists(result_path(unit.key), ec) ||
      fs::exists(claim_path(unit.key), ec) ||
      fs::exists(todo_path(unit.key), ec)) {
    return false;
  }
  const std::string spec = encode_unit_spec(unit);
  write_file_atomically(todo_path(unit.key), spec.data(), spec.size());
  return true;
}

std::optional<ClaimedUnit> Spool::claim() const {
  for (const std::string& key : list_keys(root_ / "units", kUnitExt)) {
    std::error_code ec;
    if (has_result(key)) {
      // A stolen-then-finished unit can leave a stray todo behind; retire
      // it instead of re-running work that already has a result.
      fs::remove(todo_path(key), ec);
      continue;
    }
    fs::rename(todo_path(key), claim_path(key), ec);
    if (ec) continue;  // lost the race to another worker
    // rename(2) preserves mtime, so a freshly claimed unit stolen from a
    // stale lease would instantly look stale again without this touch.
    touch(claim_path(key));
    const std::vector<std::uint8_t> spec = read_whole_file(claim_path(key));
    ClaimedUnit c;
    c.unit = parse_unit_spec(
        std::string(reinterpret_cast<const char*>(spec.data()), spec.size()));
    c.lease = claim_path(key);
    return c;
  }
  return std::nullopt;
}

void Spool::heartbeat(const ClaimedUnit& claim) const { touch(claim.lease); }

void Spool::complete(const ClaimedUnit& claim,
                     const UnitResult& result) const {
  const std::vector<std::uint8_t> shard = encode_result_shard(result);
  write_file_atomically(result_path(result.key), shard.data(), shard.size());
  std::error_code ec;
  fs::remove(claim.lease, ec);  // may already be stolen — benign
}

void Spool::abandon(const ClaimedUnit& claim) const {
  std::error_code ec;
  fs::rename(claim.lease, todo_path(claim.unit.key), ec);
}

std::size_t Spool::steal_stale(std::chrono::milliseconds lease) const {
  static std::atomic<unsigned> steal_seq{0};
  std::size_t stolen = 0;
  const auto now = fs::file_time_type::clock::now();
  for (const std::string& key : list_keys(root_ / "claims", kUnitExt)) {
    std::error_code ec;
    const auto mtime = fs::last_write_time(claim_path(key), ec);
    if (ec) continue;  // completed or stolen meanwhile
    if (now - mtime <= lease) continue;
    fs::rename(claim_path(key), todo_path(key), ec);
    if (ec) continue;  // lost the race to another stealer
    ++stolen;
    const fs::path mark =
        root_ / "marks" /
        ("steal." + key + "." + std::to_string(::getpid()) + "." +
         std::to_string(steal_seq.fetch_add(1)));
    std::ofstream(mark).put('\n');
  }
  return stolen;
}

bool Spool::has_result(const std::string& key) const {
  std::error_code ec;
  return fs::exists(result_path(key), ec);
}

UnitResult Spool::read_result(const std::string& key) const {
  return decode_result_shard(read_whole_file(result_path(key)));
}

std::vector<std::string> Spool::todo_keys() const {
  return list_keys(root_ / "units", kUnitExt);
}

std::vector<std::string> Spool::claimed_keys() const {
  return list_keys(root_ / "claims", kUnitExt);
}

std::vector<std::string> Spool::result_keys() const {
  return list_keys(root_ / "results", kResultExt);
}

std::size_t Spool::steal_count() const {
  std::error_code ec;
  std::size_t n = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(root_ / "marks", ec)) {
    (void)entry;
    ++n;
  }
  return n;
}

// --- worker loop ---

namespace {

/// Touches the lease every quarter-interval until told to stop, so a
/// healthy worker's lease never looks stale however long one measure phase
/// takes.
class LeaseHeartbeat {
 public:
  LeaseHeartbeat(const Spool& spool, const ClaimedUnit& claim,
                 std::chrono::milliseconds lease)
      : thread_([this, &spool, &claim, lease] {
          std::unique_lock<std::mutex> lock(mu_);
          while (!cv_.wait_for(lock, lease / 4, [this] { return done_; })) {
            spool.heartbeat(claim);
          }
        }) {}
  ~LeaseHeartbeat() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Runs one claimed unit: load (or self-heal) the config's snapshot, fork
/// the scheme's measure phase from it, ship the result shard.
void run_unit(const Spool& spool, const ClaimedUnit& claim,
              WorkerReport& report, std::chrono::milliseconds lease) {
  const ShardUnit& unit = claim.unit;
  const Experiment experiment = make_experiment(unit.cfg);
  snap::require(experiment.config_fingerprint() == unit.config_fp,
                "unit spec fingerprint disagrees with its rebuilt "
                "configuration (spec drift between builds)");

  LeaseHeartbeat heartbeat(spool, claim, lease);

  std::optional<ProfileSnapshot> snapshot;
  if (spool.has_snapshot(unit.config_fp)) {
    try {
      snapshot = spool.get_snapshot(unit.config_fp);
      if (snapshot->config_fp != unit.config_fp) snapshot.reset();
    } catch (const snap::SnapshotError&) {
      snapshot.reset();  // truncated/corrupt — self-heal below
    }
  }
  if (!snapshot) {
    // The orchestrator died before spooling this config's snapshot (or the
    // file is damaged): re-capture it here. Deterministic, so the healed
    // snapshot is byte-equivalent to the one the orchestrator would have
    // written.
    snapshot = experiment.capture_profile();
    try {
      spool.put_snapshot(unit.config_fp, *snapshot);
    } catch (...) {
      // Publication is an optimization for sibling workers; measuring from
      // the in-memory snapshot needs no file.
    }
    ++report.healed;
  }

  UnitResult result;
  result.key = unit.key;
  result.config_fp = unit.config_fp;
  result.dram_gen = unit.cfg.dram;
  if (unit.cfg.churn.empty()) {
    result.result = experiment.measure_from(*snapshot, unit.scheme);
  } else {
    // Churned unit: replay the schedule through the churn engine at its
    // default re-solve cadence and ship the run's global-window RunResult.
    // The shard format is unchanged — the churn identity lives in the unit
    // key's schedule-fingerprint suffix.
    ChurnRunConfig churn_cfg;
    churn_cfg.scheme = unit.scheme;
    result.result =
        experiment
            .measure_churn_from(*snapshot,
                                ChurnSchedule::parse(unit.cfg.churn),
                                churn_cfg)
            .base;
  }
  result.fingerprint = fingerprint(result.result);
  spool.complete(claim, result);
  ++report.completed;
}

}  // namespace

WorkerReport run_worker(const fs::path& spool_root,
                        const WorkerOptions& options) {
  const Spool spool(spool_root);
  WorkerReport report;
  for (;;) {
    if (std::optional<ClaimedUnit> claim = spool.claim()) {
      run_unit(spool, *claim, report, options.lease);
      continue;
    }
    // Nothing claimable. Re-arm dead siblings' units, then decide whether
    // the spool has drained or we should wait for outstanding claims.
    report.stolen += spool.steal_stale(options.lease);
    if (!spool.todo_keys().empty()) continue;
    if (spool.claimed_keys().empty()) break;
    std::this_thread::sleep_for(options.poll);
  }
  return report;
}

MergedPortfolio merge(const Spool& spool, const Portfolio& portfolio) {
  MergedPortfolio merged;
  merged.portfolio_fp = 0xcbf29ce484222325ULL;
  for (ShardUnit& unit : enumerate_units(portfolio)) {
    MergeRow row;
    row.unit = std::move(unit);
    if (spool.has_result(row.unit.key)) {
      row.result = spool.read_result(row.unit.key);
      snap::require(row.result.key == row.unit.key &&
                        row.result.config_fp == row.unit.config_fp,
                    "result shard identity disagrees with its unit");
      if (row.result.dram_gen != row.unit.cfg.dram) {
        throw snap::SnapshotError(
            "refusing to merge result shard '" + row.unit.key +
            "': it was measured under DRAM generation '" +
            row.result.dram_gen + "' but the portfolio unit expects '" +
            row.unit.cfg.dram + "' (mixed-generation spool)");
      }
      row.present = true;
      merged.portfolio_fp = hash_u64(row.result.fingerprint,
                                     merged.portfolio_fp);
    } else {
      ++merged.missing;
    }
    merged.rows.push_back(std::move(row));
  }
  return merged;
}

}  // namespace bwpart::harness::shard
