// bwpart_perfbench: one process run of one benchmark workload.
//
//   bwpart_perfbench --workload table4|portfolio64|advisor [--seed N]
//                    [--seconds S] [--trace 0|1] [--setup-only]
//                    [--scratch DIR]
//
// Prints human-readable report lines, then one JSON object as the last
// line: {"correct", "attempted", "failed", "setup_s", "metrics", "report"}.
// --setup-only stops after set-up and prints {"setup_s": ...}. run.py
// builds this binary, repeats set-up in fresh processes for setup_s, and
// turns the object into the benchmark's result line. Exit status is nonzero
// only when the run could not complete (bad arguments, missing inputs, an
// exception); a run whose outputs are wrong exits 0 with "correct": false.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <numeric>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {

namespace {
const Clock::time_point g_start = Clock::now();
/// Keeps the reference loop's results observable, so neither of its loops
/// is optimised away.
volatile std::uint64_t g_reference_sink = 0;
}  // namespace

Clock::time_point process_start() { return g_start; }

double quantile(std::vector<double> v, double q, double halfwidth) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double last = static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(
      std::floor(std::max(0.0, q - halfwidth) * last));
  const auto hi = static_cast<std::size_t>(
      std::ceil(std::min(1.0, q + halfwidth) * last));
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

int SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = std::chrono::duration<double>(Clock::now() - origin_).count();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

void SpanLog::write_chrome_trace(const std::filesystem::path& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.name)
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << json_number(s.start_s * 1e6)
       << ",\"dur\":" << json_number((s.end_s - s.start_s) * 1e6)
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double reference_loop_s() {
  static const std::vector<std::uint64_t> kTable = [] {
    bwpart::Rng rng(11);
    std::vector<std::uint64_t> t(std::size_t{1} << 15);  // 256 KiB
    for (std::uint64_t& x : t) x = rng.next_u64();
    return t;
  }();
  static const std::vector<std::uint32_t> kKeys = [] {
    bwpart::Rng rng(5);
    std::vector<std::uint32_t> k(200'000);
    for (std::uint32_t& x : k) x = static_cast<std::uint32_t>(rng.next_u64());
    return k;
  }();
  // Fresh copies, so every call does exactly the same work.
  std::vector<std::uint64_t> table = kTable;
  std::vector<std::uint32_t> keys = kKeys;
  const std::size_t mask = table.size() - 1;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t h = 1;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 600'000; ++i) {
    h = h * 0x9e3779b97f4a7c15ULL + i;
    const std::uint64_t v = table[(h >> 20) & mask];
    if (((v ^ h) & 4) != 0) {
      acc += v >> 3;
    } else {
      acc ^= v * 3;
    }
    if ((v & 1) != 0) table[(v >> 7) & mask] += acc;
  }
  std::sort(keys.begin(), keys.end());
  const double secs = seconds_since(t0);
  g_reference_sink = acc + keys[keys.size() / 2];
  return secs;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload table4|portfolio64|advisor [--seed N] "
               "[--seconds S] [--trace 0|1] [--setup-only] [--scratch DIR]\n",
               argv0);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

void print_result(const Result& r) {
  for (const auto& [key, json] : r.report) {
    std::printf("%-28s %s\n", key.c_str(), json.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"setup_s\": %s, \"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              json_number(r.setup_s).c_str());
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s%s: {\"value\": %s, \"unit\": %s}", i ? ", " : "",
                json_string(m.name).c_str(), json_number(m.value).c_str(),
                json_string(m.unit).c_str());
  }
  std::printf("}, \"report\": {");
  for (std::size_t i = 0; i < r.report.size(); ++i) {
    std::printf("%s%s: %s", i ? ", " : "",
                json_string(r.report[i].first).c_str(),
                r.report[i].second.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (v == nullptr) {
      return usage(argv[0]);
    } else if (a == "--workload") {
      opt.workload = v;
      ++i;
    } else if (a == "--seed" && parse_u64(v, n)) {
      opt.seed = n;
      ++i;
    } else if (a == "--seconds" && parse_u64(v, n) && n > 0) {
      opt.seconds = static_cast<double>(n);
      ++i;
    } else if (a == "--trace" && parse_u64(v, n) && n <= 1) {
      opt.trace = n == 1;
      ++i;
    } else if (a == "--scratch") {
      opt.scratch = v;
      ++i;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    std::filesystem::create_directories(opt.scratch);
    Result r;
    if (opt.workload == "table4") {
      r = run_table4(opt);
    } else if (opt.workload == "portfolio64") {
      r = run_portfolio64(opt);
    } else if (opt.workload == "advisor") {
      r = run_advisor(opt);
    } else {
      return usage(argv[0]);
    }
    if (opt.setup_only) {
      std::printf("{\"setup_s\": %s}\n", json_number(r.setup_s).c_str());
    } else {
      print_result(r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bwpart_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
