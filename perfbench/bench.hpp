// Shared plumbing of the bwpart benchmark driver: options, timing, sample
// statistics, the span log the traced run records around layer calls, and
// the result record main() prints as JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "harness/shard.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  /// Directory for the benchmark's own scratch files (spools, span dumps).
  std::filesystem::path scratch = ".bench_build/perfbench/tmp";
};

/// The committed golden corpus, read-only, relative to the repository root.
inline constexpr const char* kGoldenCorpus = "tests/golden/fingerprints.json";

/// Seed of the golden corpus: at this seed the table4 workload compares
/// every unit against tests/golden/fingerprints.json.
inline constexpr std::uint64_t kGoldenSeed = 42;

/// Sample statistics. quantile(v, q) is the mean of the order statistics
/// within `halfwidth` of q (half a percentile point by default), so a
/// figure built from integer-nanosecond samples still carries all its
/// digits.
double quantile(std::vector<double> v, double q, double halfwidth = 0.005);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
double mean(const std::vector<double>& v);

/// One span per call into a layer's public API, kept in memory and written
/// out (Chrome trace-event JSON) when the run ends. `parent` is the index
/// of the enclosing span, or -1.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int open(std::string name);
  void close(int id);
  /// Durations (seconds) of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log makes it free.
class Scope {
 public:
  Scope(SpanLog* log, std::string name)
      : log_(log), id_(log ? log->open(std::move(name)) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one process run produces. `report` holds extra key/value pairs
/// (values are JSON text) printed for humans ahead of the result line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> report;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string json) {
    report.emplace_back(std::move(key), std::move(json));
  }
  /// Records one checked operation; a false `ok` counts it as failed.
  void check(bool ok, std::uint64_t n = 1) {
    attempted += n;
    if (!ok) failed += n;
  }
};

/// Process start (main() entry), the origin of setup_s.
Clock::time_point process_start();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Runs a fixed reference loop that shares no code with the program (a
/// branchy read-modify-write probe over a 256 KiB table, then a sort of
/// 200k integers) and returns its wall time. Its time is what the host's
/// current contention costs work of this kind, so the benchmark reports
/// every time metric at the nominal host speed below.
double reference_loop_s();

/// reference_loop_s() on an uncontended host (a 4-vCPU VM of a Xeon
/// host). Only the scale of the time metrics depends on it.
inline constexpr double kReferenceNominalS = 0.022;

/// Reference-loop samples taken after set-up in every process.
inline constexpr int kSetupReferenceSamples = 5;

std::string json_number(double v);
std::string json_string(const std::string& s);

// --- workloads (workloads.cpp) ---------------------------------------------

Result run_table4(const Options& opt);
Result run_portfolio64(const Options& opt);
Result run_advisor(const Options& opt);

// --- per-layer probes (layers.cpp) -----------------------------------------

/// What the traced run's layer probes run on. `portfolio` is the simulator
/// portfolio (for advisor, which has no simulator in its path, the
/// repository's `quick` smoke portfolio, a stated reference input);
/// `advisor_lines` feed the advisor probes.
struct LayerInputs {
  bwpart::harness::shard::Portfolio portfolio;
  std::vector<std::string> advisor_lines;
  /// True on the advisor workload: the ledger then closes over the advisor
  /// service instead of CmpSystem::run.
  bool advisor_ledger = false;
  std::filesystem::path scratch;  ///< where the shard probe may spool
};

/// Runs the layer probes and adds every per-layer metric to `out`; `spans`
/// already holds the traced passes' spans.
void measure_layers(const LayerInputs& in, SpanLog& spans, Result& out);

/// Advisor request lines describing the profiled configs of `portfolio`
/// (one wsp, one fair and one qos request per config), repeated to `n`
/// lines. This is what a user would send the advisor about that sweep.
std::vector<std::string> requests_for_portfolio(
    const bwpart::harness::shard::Portfolio& portfolio, std::size_t n);

}  // namespace perfbench
