// The three benchmark workloads and the timed loop they share.
//
// Every workload is one process with a single solving thread: table4 runs
// in-process forks, portfolio64 runs the on-disk spool pipeline with one
// worker loop (shard::run_worker keeps a sleeping lease-heartbeat thread
// per unit), advisor runs the service with threads = 1.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "advisor/request.hpp"
#include "advisor/service.hpp"
#include "advisor/solver.hpp"
#include "bench.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "core/predict.hpp"
#include "harness/differential.hpp"
#include "harness/shard.hpp"
#include "obs/hub.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace harness = bwpart::harness;
namespace shard = bwpart::harness::shard;
namespace core = bwpart::core;
namespace advisor = bwpart::advisor;
using bwpart::obs::Hub;

namespace {

/// One workload: set-up, a pass over its fixed input, post-run checks.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and runs one untimed warm-up unit per config.
  virtual void setup() = 0;
  /// One pass over the workload's fixed input; returns its wall time.
  /// Traced passes get a span log and an observability hub; plain passes
  /// get null for both and append per-op latencies (seconds) to `ops`.
  virtual double pass(Result& r, SpanLog* spans, Hub* hub,
                      std::vector<double>* ops) = 0;
  /// Untimed output checks and workload-specific report lines.
  virtual void finish(Result& r, double pass_s) = 0;
  virtual LayerInputs layer_inputs() const = 0;

  /// Passes run even past --seconds, so every median spans several.
  std::size_t min_passes = 10;
  /// Tail percentile of the per-op latency.
  double tail_q = 0.99;
};

/// op_p50_us is the mean of a pass's op latencies from p40 to p60. table4's
/// 98 units fall into a fast-forwarded and a slower cluster that meet at the
/// median, so a plain median jumps between them from run to run.
constexpr double kOpMedianHalfwidth = 0.1;

/// Nominal simulated cycles per pass: warm-up + profile + measure for every
/// unit, whatever the engine actually executes.
double nominal_cycles(const shard::Portfolio& p) {
  double c = 0.0;
  for (const shard::ShardConfig& cfg : p.configs) {
    c += static_cast<double>(cfg.warmup_cycles + cfg.profile_cycles +
                             cfg.measure_cycles) *
         static_cast<double>(p.schemes.size());
  }
  return c;
}

shard::Portfolio seeded_portfolio(const std::string& name,
                                  std::uint64_t seed) {
  shard::Portfolio p = shard::make_portfolio(name);
  for (shard::ShardConfig& cfg : p.configs) cfg.seed = seed;
  return p;
}

/// Mean per-app relative error of core::predict against the measured IPC.
double model_ipc_err(const harness::RunResult& r) {
  const core::Prediction pred = core::predict(r.scheme, r.params, r.total_apc);
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t a = 0; a < r.ipc_shared.size(); ++a) {
    if (r.ipc_shared[a] <= 0.0) continue;
    sum += std::abs(pred.ipc_shared[a] - r.ipc_shared[a]) / r.ipc_shared[a];
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double mean_model_err(const std::vector<harness::RunResult>& results) {
  std::vector<double> errs;
  for (const harness::RunResult& r : results) errs.push_back(model_ipc_err(r));
  return mean(errs);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Reads the "mixes" section of the golden corpus: for every config's mix
/// the seven scheme fingerprints, in portfolio scheme order.
std::vector<std::vector<std::uint64_t>> load_golden(
    const fs::path& path, const shard::Portfolio& p) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::size_t mixes = text.find("\"mixes\"");
  if (mixes == std::string::npos) {
    throw std::runtime_error(path.string() + " has no \"mixes\" section");
  }
  std::vector<std::vector<std::uint64_t>> out;
  for (const shard::ShardConfig& cfg : p.configs) {
    const std::size_t at = text.find("\"" + cfg.mix + "\"", mixes);
    const std::size_t end = text.find('}', at);
    if (at == std::string::npos || end == std::string::npos) {
      throw std::runtime_error("golden corpus lacks mix " + cfg.mix);
    }
    const std::string row = text.substr(at, end - at);
    std::vector<std::uint64_t> fps;
    for (core::Scheme s : p.schemes) {
      const std::string key = "\"" + core::to_string(s) + "\": \"";
      const std::size_t k = row.find(key);
      if (k == std::string::npos) {
        throw std::runtime_error("golden corpus lacks " + cfg.mix + "/" +
                                 core::to_string(s));
      }
      fps.push_back(std::strtoull(row.c_str() + k + key.size(), nullptr, 16));
    }
    out.push_back(std::move(fps));
  }
  return out;
}

// --- table4 ----------------------------------------------------------------

/// The paper's Table IV sweep in-process: per mix one capture_profile and
/// one measure_from per scheme, serially.
class Table4 final : public Workload {
 public:
  explicit Table4(const Options& opt) : opt_(opt) {
    tail_q = 0.90;  // p99 would track the one slowest of 98 units
  }

  void setup() override {
    p_ = seeded_portfolio("table4", opt_.seed);
    for (const shard::ShardConfig& cfg : p_.configs) {
      exps_.push_back(shard::make_experiment(cfg));
    }
    if (opt_.seed == kGoldenSeed) golden_ = load_golden(kGoldenCorpus, p_);
    for (const harness::Experiment& e : exps_) {
      (void)e.measure_from(e.capture_profile(), p_.schemes.front());
    }
  }

  double pass(Result& r, SpanLog* spans, Hub* hub,
              std::vector<double>* ops) override {
    const bool first = first_.empty();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < exps_.size(); ++i) {
      harness::Experiment& e = exps_[i];
      e.set_observability(hub);
      harness::ProfileSnapshot snap;
      {
        Scope s(spans, "harness.capture_profile");
        snap = e.capture_profile();
      }
      if (first) first_.emplace_back();
      for (std::size_t k = 0; k < p_.schemes.size(); ++k) {
        const Clock::time_point u0 = Clock::now();
        harness::RunResult res;
        {
          Scope s(spans, "harness.measure_from");
          res = e.measure_from(snap, p_.schemes[k]);
        }
        if (ops != nullptr) ops->push_back(seconds_since(u0));
        const std::uint64_t fp = harness::fingerprint(res);
        if (!golden_.empty()) {
          r.check(fp == golden_[i][k]);
        } else if (first) {
          r.check(true);
        } else {
          r.check(fp == first_[i][k]);
        }
        if (first) {
          first_.back().push_back(fp);
          results_.push_back(std::move(res));
        }
      }
      e.set_observability(nullptr);
    }
    return seconds_since(t0);
  }

  void finish(Result& r, double pass_s) override {
    std::string check = "\"98 units per pass vs " + std::string(kGoldenCorpus) +
                        "\"";
    if (golden_.empty()) {
      // Off the corpus seed: one unit per config re-run straight through
      // Experiment::run must match the first pass's fork.
      for (std::size_t i = 0; i < exps_.size(); ++i) {
        const std::size_t k = (opt_.seed + i) % p_.schemes.size();
        r.check(harness::fingerprint(exps_[i].run(p_.schemes[k])) ==
                first_[i][k]);
      }
      check =
          "\"every pass vs the first; one unit per config vs "
          "Experiment::run\"";
    }
    r.note("check", check);
    r.note("op", "\"one Experiment::measure_from fork\"");
    r.note("sim_mcycles_per_s", json_number(nominal_cycles(p_) / 1e6 / pass_s));
    r.note("model_ipc_err", json_number(mean_model_err(results_)));
  }

  LayerInputs layer_inputs() const override {
    LayerInputs in;
    in.portfolio = p_;
    in.advisor_lines = requests_for_portfolio(p_, 20'000);
    return in;
  }

 private:
  Options opt_;
  shard::Portfolio p_;
  std::vector<harness::Experiment> exps_;
  std::vector<std::vector<std::uint64_t>> golden_;
  std::vector<std::vector<std::uint64_t>> first_;
  std::vector<harness::RunResult> results_;
};

// --- portfolio64 -----------------------------------------------------------

/// 64 apps on 4 controllers through the on-disk spool: capture + publish,
/// the worker loop, merge. run_worker is called once per published unit so
/// each unit's latency through the spool can be timed from outside.
class Portfolio64 final : public Workload {
 public:
  explicit Portfolio64(const Options& opt) : opt_(opt) {
    tail_q = 0.90;  // 7 units per pass
  }

  void setup() override {
    p_ = seeded_portfolio("portfolio64", opt_.seed);
    exp_ = std::make_unique<harness::Experiment>(
        shard::make_experiment(p_.configs.front()));
    units_ = shard::enumerate_units(p_);
    spool_dir_ = opt_.scratch / ("spool-" + std::to_string(::getpid()));
    fs::remove_all(spool_dir_);
    (void)exp_->measure_from(exp_->capture_profile(), p_.schemes.front());
  }

  double pass(Result&, SpanLog* spans, Hub* hub,
              std::vector<double>* ops) override {
    exp_->set_observability(hub);
    const shard::Spool spool(spool_dir_);
    const Clock::time_point t0 = Clock::now();
    {
      Scope s(spans, "harness.shard.spool");
      spool.init();
      harness::ProfileSnapshot snap;
      {
        Scope c(spans, "harness.capture_profile");
        snap = exp_->capture_profile();
      }
      spool.put_snapshot(exp_->config_fingerprint(), snap);
    }
    {
      Scope s(spans, "harness.shard.worker");
      for (const shard::ShardUnit& u : units_) {
        const Clock::time_point u0 = Clock::now();
        spool.publish(u);
        shard::run_worker(spool_dir_);
        if (ops != nullptr) ops->push_back(seconds_since(u0));
      }
    }
    shard::MergedPortfolio merged;
    {
      Scope s(spans, "harness.shard.merge");
      merged = shard::merge(spool, p_);
    }
    const double secs = seconds_since(t0);
    exp_->set_observability(nullptr);
    std::vector<std::uint64_t> fps;
    for (const shard::MergeRow& row : merged.rows) {
      fps.push_back(row.present ? row.result.fingerprint : 0);
    }
    pass_fps_.push_back(std::move(fps));
    pass_portfolio_fp_.push_back(merged.portfolio_fp);
    fs::remove_all(spool_dir_);
    return secs;
  }

  void finish(Result& r, double pass_s) override {
    // Reference: in-process run_all of the same config, serial.
    const std::vector<harness::RunResult> ref = exp_->run_all(p_.schemes, 1);
    std::uint64_t ref_portfolio_fp = 0xcbf29ce484222325ULL;
    std::vector<std::uint64_t> ref_fps;
    for (const harness::RunResult& res : ref) {
      const std::uint64_t fp = harness::fingerprint(res);
      ref_fps.push_back(fp);
      ref_portfolio_fp = harness::hash_bytes(&fp, sizeof(fp), ref_portfolio_fp);
    }
    for (std::size_t p = 0; p < pass_fps_.size(); ++p) {
      for (std::size_t k = 0; k < ref_fps.size(); ++k) {
        r.check(k < pass_fps_[p].size() && pass_fps_[p][k] == ref_fps[k]);
      }
      r.check(pass_portfolio_fp_[p] == ref_portfolio_fp);
    }
    r.note("check", "\"merged units and portfolio_fp vs in-process run_all\"");
    r.note("op", "\"one unit through the spool (publish + run_worker)\"");
    r.note("portfolio_fp", hex(ref_portfolio_fp));
    r.note("sim_mcycles_per_s", json_number(nominal_cycles(p_) / 1e6 / pass_s));
    r.note("model_ipc_err", json_number(mean_model_err(ref)));
  }

  LayerInputs layer_inputs() const override {
    LayerInputs in;
    in.portfolio = p_;
    in.advisor_lines = requests_for_portfolio(p_, 20'000);
    return in;
  }

 private:
  Options opt_;
  shard::Portfolio p_;
  std::unique_ptr<harness::Experiment> exp_;
  std::vector<shard::ShardUnit> units_;
  fs::path spool_dir_;
  std::vector<std::vector<std::uint64_t>> pass_fps_;
  std::vector<std::uint64_t> pass_portfolio_fp_;
};

// --- advisor ---------------------------------------------------------------

/// Discards output, counting lines (responses are JSONL).
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t lines = 0;

 protected:
  int overflow(int c) override {
    if (c == '\n') ++lines;
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) lines += s[i] == '\n';
    return n;
  }
};

/// One synthetic request with 2-8 apps, objective cycling wsp/fair/qos.
/// Magnitudes follow the simulator's Table III/IV ranges (APC_alone in
/// [0.02, 0.6], API in [0.05, 0.9]); qos requests carry one guaranteed app
/// with a loose target, every fifth wsp request carries weights.
std::string make_request(std::uint64_t id, bwpart::Rng& rng) {
  static constexpr const char* kObjectives[] = {"wsp", "fair", "qos"};
  const char* objective = kObjectives[id % 3];
  const std::size_t napps = 2 + rng.next_below(7);
  auto uniform = [&](double lo, double hi) {
    return lo + rng.next_double() * (hi - lo);
  };
  char buf[96];
  std::snprintf(buf, sizeof(buf), "r%llu %s b=%.6f",
                static_cast<unsigned long long>(id), objective,
                uniform(0.3, 1.6));
  std::string out = buf;
  const bool weighted = id % 3 == 0 && rng.next_below(5) == 0;
  for (std::size_t a = 0; a < napps; ++a) {
    const double apc = uniform(0.02, 0.6);
    const double api = uniform(0.05, 0.9);
    if (id % 3 == 2 && a == 0) {
      std::snprintf(buf, sizeof(buf), " a%zu=%.6f,%.6f,1,%.6f", a, apc, api,
                    0.5 * apc / api);
    } else if (weighted) {
      std::snprintf(buf, sizeof(buf), " a%zu=%.6f,%.6f,%.3f", a, apc, api,
                    uniform(0.5, 4.0));
    } else {
      std::snprintf(buf, sizeof(buf), " a%zu=%.6f,%.6f", a, apc, api);
    }
    out += buf;
  }
  return out;
}

/// Pulls the doubles of `"key":<number>` or `"key":[...]` out of a JSONL
/// response. Numbers were written shortest-round-trip, so from_chars
/// recovers them bit-exactly.
std::vector<double> json_doubles(const std::string& line, const char* key) {
  std::vector<double> out;
  const std::string k = std::string("\"") + key + "\":";
  std::size_t at = line.find(k);
  if (at == std::string::npos) return out;
  at += k.size();
  const bool array = line[at] == '[';
  if (array) ++at;
  for (;;) {
    double v = 0.0;
    const auto res =
        std::from_chars(line.data() + at, line.data() + line.size(), v);
    if (res.ec != std::errc()) break;
    out.push_back(v);
    at = static_cast<std::size_t>(res.ptr - line.data());
    if (!array || line[at] != ',') break;
    ++at;
  }
  return out;
}

bool same_bits(std::span<const double> a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The advisor service over a seeded request corpus (threads = 1), plus a
/// per-request parse + solve pass for latency.
class Advisor final : public Workload {
 public:
  static constexpr std::size_t kRequests = 100'000;
  static constexpr std::size_t kLatencyRequests = 20'000;

  explicit Advisor(const Options& opt) : opt_(opt) {}

  void setup() override {
    bwpart::Rng rng(opt_.seed);
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      lines_.push_back(make_request(i, rng));
      corpus_ += lines_.back();
      corpus_ += '\n';
    }
    // Warm-up: one service batch and one latency sweep, untimed.
    std::string head;
    for (std::size_t i = 0; i < 4096; ++i) head += lines_[i] + '\n';
    std::istringstream in(head);
    CountingBuf sink;
    std::ostream out(&sink);
    advisor::ServiceConfig cfg;
    cfg.threads = 1;
    advisor::AdvisorService(cfg).run(in, out);
    latency_sweep(nullptr, nullptr);
  }

  double pass(Result& r, SpanLog* spans, Hub* hub,
              std::vector<double>* ops) override {
    advisor::ServiceConfig cfg;
    cfg.threads = 1;
    cfg.hub = hub;
    advisor::AdvisorService service(cfg);
    std::istringstream in(corpus_);
    CountingBuf sink;
    std::ostream out(&sink);
    const Clock::time_point t0 = Clock::now();
    advisor::ServiceStats stats;
    {
      Scope s(spans, "advisor.service_run");
      stats = service.run(in, out);
    }
    const double secs = seconds_since(t0);
    // Every request must get exactly one ok response.
    const bool all = stats.requests == kRequests && stats.parse_errors == 0;
    const std::uint64_t good =
        all ? std::min<std::uint64_t>({stats.ok, sink.lines, kRequests}) : 0;
    r.attempted += kRequests;
    r.failed += kRequests - good;
    if (ops != nullptr) latency_sweep(&r, ops);
    return secs;
  }

  void finish(Result& r, double pass_s) override {
    // A fixed sample of service answers must bit-match a direct solve.
    std::string sample;
    std::vector<std::size_t> picked;
    for (std::size_t i = 0; i < kRequests; i += 499) {
      picked.push_back(i);
      sample += lines_[i] + '\n';
    }
    advisor::ServiceConfig cfg;
    cfg.threads = 1;
    std::istringstream in(sample);
    std::ostringstream out;
    advisor::AdvisorService(cfg).run(in, out);
    std::istringstream responses(out.str());
    bwpart::Arena arena;
    advisor::Solver solver;
    std::string line, error;
    for (std::size_t j = 0; j < picked.size(); ++j) {
      bool ok = static_cast<bool>(std::getline(responses, line));
      advisor::Request req;
      advisor::Answer ans;
      ok = ok && advisor::parse_request_line(lines_[picked[j]], j + 1, arena,
                                             req, error);
      if (ok) {
        solver.solve(req, arena, ans);
        const std::vector<double> value = json_doubles(line, "value");
        ok = line.find("\"ok\":true") != std::string::npos &&
             line.find(ans.feasible ? "\"feasible\":true"
                                    : "\"feasible\":false") !=
                 std::string::npos &&
             value.size() == 1 &&
             same_bits(std::span<const double>(&ans.value, 1), value) &&
             same_bits(ans.shares, json_doubles(line, "shares")) &&
             same_bits(ans.alloc, json_doubles(line, "alloc")) &&
             same_bits(ans.ipc, json_doubles(line, "ipc"));
      }
      r.check(ok);
    }
    r.note("check", "\"one ok response per request; " +
                        std::to_string(picked.size()) +
                        " sampled answers bit-match a direct Solver::solve\"");
    r.note("op", "\"parse_request_line + Solver::solve of one request\"");
    r.note("advisor_req_per_s",
           json_number(static_cast<double>(kRequests) / pass_s));
  }

  LayerInputs layer_inputs() const override {
    LayerInputs in;
    in.portfolio = seeded_portfolio("quick", opt_.seed);
    in.advisor_lines.assign(lines_.begin(),
                            lines_.begin() + kLatencyRequests);
    in.advisor_ledger = true;
    return in;
  }

 private:
  /// parse_request_line + Solver::solve per request, timed together. The
  /// untimed warm-up passes null for both outputs.
  void latency_sweep(Result* r, std::vector<double>* ops) {
    bwpart::Arena arena;
    advisor::Solver solver;
    std::string error;
    for (std::size_t i = 0; i < kLatencyRequests; ++i) {
      const Clock::time_point t0 = Clock::now();
      advisor::Request req;
      const bool ok =
          advisor::parse_request_line(lines_[i], i + 1, arena, req, error);
      advisor::Answer ans;
      if (ok) solver.solve(req, arena, ans);
      const double dt = seconds_since(t0);
      if (ops != nullptr) ops->push_back(dt);
      if (r != nullptr) r->check(ok);
      if (i % 4096 == 4095) arena.reset();  // the service's batch reset
    }
  }

  Options opt_;
  std::vector<std::string> lines_;
  std::string corpus_;
};

/// What was measured: the build's type and feature switches, the host's
/// processor count, and the workload's process/thread shape.
std::string build_record() {
#if defined(BWPART_CHECK)
  constexpr bool kCheck = true;
#else
  constexpr bool kCheck = false;
#endif
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  return std::string("{\"build_type\": \"") + BWPART_BUILD_TYPE +
         "\", \"BWPART_CHECK\": " + flag(kCheck) +
         ", \"BWPART_OBS\": " + flag(bwpart::obs::kEnabled) +
         ", \"BWPART_SNAPSHOT\": " + flag(harness::kSnapshotEnabled) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"processes\": 1, \"solving_threads\": 1}";
}

/// Runs set-up, the timed passes and the checks shared by every workload.
Result drive(Workload& w, const Options& opt) {
  Result r;
  w.setup();
  const double setup_raw_s = seconds_since(process_start());
  // Hosts shared with other tenants run the program up to 60% slower in
  // phases of ten seconds to minutes; the phases slow the reference loop
  // too (by less, but in step), so every time metric is divided by the
  // host slowdown it measured: the median reference-loop time over its
  // nominal time. Set-up takes its own few reference samples.
  std::vector<double> setup_ref;
  for (int i = 0; i < kSetupReferenceSamples; ++i) {
    setup_ref.push_back(reference_loop_s());
  }
  r.setup_s = setup_raw_s / (median(setup_ref) / kReferenceNominalS);
  r.note("setup_raw_s", json_number(setup_raw_s));
  if (opt.setup_only) return r;

  // Per-pass wall time and per-op latencies, each reported as its median
  // over the run's passes: a run's fastest passes differ between runs more
  // than its typical ones. One reference-loop sample follows every plain
  // pass.
  std::vector<double> plain, traced, op_p50, op_tail, ref;
  std::size_t op_samples = 0;
  SpanLog spans(process_start());
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < opt.seconds || plain.size() < w.min_passes) {
    std::vector<double> ops;
    plain.push_back(w.pass(r, nullptr, nullptr, &ops));
    op_p50.push_back(quantile(ops, 0.5, kOpMedianHalfwidth));
    op_tail.push_back(quantile(ops, w.tail_q));
    op_samples += ops.size();
    ref.push_back(reference_loop_s());
    if (opt.trace) {
      Hub hub;
      traced.push_back(w.pass(r, &spans, &hub, nullptr));
    }
  }
  const double host_slowdown = median(ref) / kReferenceNominalS;
  const double pass_s = median(plain) / host_slowdown;
  w.finish(r, pass_s);
  r.note("build", build_record());
  r.note("passes", std::to_string(plain.size()));
  const auto [lo, hi] = std::minmax_element(plain.begin(), plain.end());
  r.note("pass_s_min_q1_q3_max",
         "[" + json_number(*lo) + ", " + json_number(quantile(plain, 0.25)) +
             ", " + json_number(quantile(plain, 0.75)) + ", " +
             json_number(*hi) + "]");
  r.note("reference_loop_s", json_number(median(ref)));
  r.note("host_slowdown", json_number(host_slowdown));
  r.note("op_samples", std::to_string(op_samples));
  r.note("op_tail_quantile", json_number(w.tail_q));

  r.add("setup_s", r.setup_s, "s");
  r.add("pass_s", pass_s, "s");
  r.add("op_p50_us", median(op_p50) / host_slowdown * 1e6, "us");
  r.add("op_tail_us", median(op_tail) / host_slowdown * 1e6, "us");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  if (opt.trace) {
    r.add("trace_overhead_frac", median(traced) / median(plain) - 1.0,
          "ratio");
    LayerInputs in = w.layer_inputs();
    in.scratch = opt.scratch;
    measure_layers(in, spans, r);
    spans.write_chrome_trace(opt.scratch / ("spans-" + opt.workload + ".json"));
  }
  return r;
}

}  // namespace

Result run_table4(const Options& opt) {
  Table4 w(opt);
  return drive(w, opt);
}

Result run_portfolio64(const Options& opt) {
  Portfolio64 w(opt);
  return drive(w, opt);
}

Result run_advisor(const Options& opt) {
  Advisor w(opt);
  return drive(w, opt);
}

}  // namespace perfbench
