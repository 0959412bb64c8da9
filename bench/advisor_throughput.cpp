// Advisor service throughput/latency bench -> BENCH_advisor.json.
//
//   advisor_throughput [--quick] [--threads N] [--out FILE]
//
// Three passes over synthetic profile-vector corpora (deterministic, seeded
// from Table IV-like magnitudes):
//   1. aggregate throughput — the full batched/sharded service against an
//      in-memory corpus, responses counted by a discarding streambuf
//      (reported as requests/second);
//   2. exact solve latency — single-threaded parse+solve with a per-request
//      steady_clock sample, reporting p50/p90/p99/mean nanoseconds;
//   3. audit mode — mix-tagged requests with sampled simulator forks,
//      reporting the model-vs-measured IPC error distribution.
// Exits nonzero only on a correctness failure (lost or failed responses);
// the performance numbers are recorded, not gated, so the JSON is the
// tracking artifact (CI archives it).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/request.hpp"
#include "advisor/service.hpp"
#include "advisor/solver.hpp"
#include "common/arena.hpp"
#include "common/cli.hpp"
#include "obs/hub.hpp"

namespace {

using namespace bwpart;

std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform(std::uint64_t& s, double lo, double hi) {
  const double u = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

/// One synthetic request line. Magnitudes follow the simulator's Table
/// III/IV ranges: APC_alone in [0.02, 0.6], API in [0.05, 0.9].
void append_request(std::string& out, std::uint64_t id, std::uint64_t& seed,
                    std::string_view mix) {
  const char* objective;
  switch (id % 3) {
    case 0: objective = "wsp"; break;
    case 1: objective = "fair"; break;
    default: objective = "qos"; break;
  }
  const std::size_t napps = mix.empty() ? 2 + id % 7 : 4;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "r%llu %s b=%.6f",
                static_cast<unsigned long long>(id), objective,
                uniform(seed, 0.3, 1.6));
  out += buf;
  for (std::size_t a = 0; a < napps; ++a) {
    const double apc = uniform(seed, 0.02, 0.6);
    const double api = uniform(seed, 0.05, 0.9);
    if (std::strcmp(objective, "qos") == 0 && a == 0) {
      // One guaranteed app with a deliberately loose target (half the
      // standalone IPC) so most plans stay feasible.
      std::snprintf(buf, sizeof(buf), " a%zu=%.6f,%.6f,1,%.6f", a, apc, api,
                    0.5 * apc / api);
    } else if (std::strcmp(objective, "wsp") == 0 && id % 5 == 0) {
      std::snprintf(buf, sizeof(buf), " a%zu=%.6f,%.6f,%.3f", a, apc, api,
                    uniform(seed, 0.5, 4.0));
    } else {
      std::snprintf(buf, sizeof(buf), " a%zu=%.6f,%.6f", a, apc, api);
    }
    out += buf;
  }
  if (!mix.empty()) {
    out += " mix=";
    out += mix;
  }
  out += '\n';
}

/// Discards everything, counting newlines (responses are JSONL).
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t lines = 0;

 protected:
  int overflow(int c) override {
    if (c == '\n') ++lines;
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      if (s[i] == '\n') ++lines;
    }
    return n;
  }
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::size_t threads = 0;
  std::string out_path = "BENCH_advisor.json";
  cli::Parser cli(argv[0]);
  cli.flag("--quick", quick, "reduced corpora (smoke testing)");
  cli.number("--threads", threads, 0, 1'024,
             "throughput-pass parallelism (0: auto)");
  cli.text("--out", out_path, "FILE", "JSON report");
  cli.parse(argc, argv);

  const std::uint64_t n_throughput = quick ? 250'000 : 1'000'000;
  const std::uint64_t n_latency = quick ? 50'000 : 200'000;
  const std::uint64_t n_audit_corpus = quick ? 2'000 : 4'000;
  const std::uint64_t audit_every = quick ? 100 : 50;
  int failures = 0;

  // Pass 1: aggregate throughput through the full service.
  std::string corpus;
  corpus.reserve(n_throughput * 64);
  std::uint64_t seed = 42;
  for (std::uint64_t i = 0; i < n_throughput; ++i) {
    append_request(corpus, i, seed, {});
  }
  advisor::ServiceConfig cfg;
  cfg.threads = threads;
  advisor::AdvisorService service(cfg);
  std::istringstream in(corpus);
  CountingBuf sink;
  std::ostream out(&sink);
  const auto t0 = std::chrono::steady_clock::now();
  const advisor::ServiceStats stats = service.run(in, out);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  const double qps = static_cast<double>(stats.requests) / seconds;
  if (stats.requests != n_throughput || stats.ok != n_throughput ||
      sink.lines != n_throughput || stats.parse_errors != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu requests -> %llu ok, %llu responses, "
                 "%llu parse errors\n",
                 static_cast<unsigned long long>(n_throughput),
                 static_cast<unsigned long long>(stats.ok),
                 static_cast<unsigned long long>(sink.lines),
                 static_cast<unsigned long long>(stats.parse_errors));
    ++failures;
  }
  std::printf("throughput: %llu requests in %.3f s -> %.0f req/s\n",
              static_cast<unsigned long long>(stats.requests), seconds, qps);

  // Pass 2: exact single-thread solve-latency percentiles.
  std::vector<std::string> lines;
  lines.reserve(n_latency);
  {
    std::string one;
    seed = 7;
    for (std::uint64_t i = 0; i < n_latency; ++i) {
      one.clear();
      append_request(one, i, seed, {});
      one.pop_back();  // getline would strip the newline too
      lines.push_back(one);
    }
  }
  std::vector<double> solve_ns;
  solve_ns.reserve(n_latency);
  {
    Arena arena;
    advisor::Solver solver;
    std::string error;
    std::uint64_t batch = 0;
    for (std::uint64_t i = 0; i < n_latency; ++i) {
      advisor::Request req;
      if (!advisor::parse_request_line(lines[i], i + 1, arena, req, error)) {
        std::fprintf(stderr, "FAIL: synthetic request rejected: %s\n",
                     error.c_str());
        ++failures;
        break;
      }
      advisor::Answer ans;
      const auto s0 = std::chrono::steady_clock::now();
      solver.solve(req, arena, ans);
      const auto s1 = std::chrono::steady_clock::now();
      solve_ns.push_back(
          std::chrono::duration<double, std::nano>(s1 - s0).count());
      if (++batch == 4096) {  // mirror the service's per-batch arena reset
        arena.reset();
        batch = 0;
      }
    }
  }
  std::sort(solve_ns.begin(), solve_ns.end());
  const double p50 = percentile(solve_ns, 0.50);
  const double p90 = percentile(solve_ns, 0.90);
  const double p99 = percentile(solve_ns, 0.99);
  double mean_ns = 0.0;
  for (double v : solve_ns) mean_ns += v;
  if (!solve_ns.empty()) mean_ns /= static_cast<double>(solve_ns.size());
  std::printf("solve latency: p50 %.0f ns, p90 %.0f ns, p99 %.0f ns "
              "(mean %.0f ns, n=%zu)\n",
              p50, p90, p99, mean_ns, solve_ns.size());

  // Pass 3: audit mode over mix-tagged requests.
  std::string audit_corpus;
  seed = 11;
  static constexpr std::string_view kMixes[] = {"homo-3", "hetero-5"};
  for (std::uint64_t i = 0; i < n_audit_corpus; ++i) {
    append_request(audit_corpus, i, seed, kMixes[i % 2]);
  }
  advisor::ServiceConfig audit_cfg;
  audit_cfg.threads = threads;
  audit_cfg.audit_every = audit_every;
  audit_cfg.audit_phases.warmup_cycles = quick ? 10'000 : 20'000;
  audit_cfg.audit_phases.profile_cycles = quick ? 50'000 : 100'000;
  audit_cfg.audit_phases.measure_cycles = quick ? 50'000 : 100'000;
  obs::Hub hub;
  audit_cfg.hub = &hub;
  advisor::AdvisorService audit_service(audit_cfg);
  std::istringstream audit_in(audit_corpus);
  CountingBuf audit_sink;
  std::ostream audit_out(&audit_sink);
  const auto a0 = std::chrono::steady_clock::now();
  const advisor::ServiceStats audit_stats =
      audit_service.run(audit_in, audit_out);
  const auto a1 = std::chrono::steady_clock::now();
  const double audit_seconds = std::chrono::duration<double>(a1 - a0).count();
  if (audit_stats.ok != n_audit_corpus || audit_stats.audits == 0) {
    std::fprintf(stderr, "FAIL: audit pass solved %llu/%llu, %llu audits\n",
                 static_cast<unsigned long long>(audit_stats.ok),
                 static_cast<unsigned long long>(n_audit_corpus),
                 static_cast<unsigned long long>(audit_stats.audits));
    ++failures;
  }
  // Infeasible-on-profile qos samples are counted as audit skips; anything
  // beyond those would be a correctness failure, which the service already
  // reflects in parse_errors/ok above.
  const obs::Histogram& err = hub.metrics().histogram("advisor.audit_rel_err_ppm");
  std::printf("audit: %llu audits (%llu skipped) in %.3f s; rel err ppm "
              "min %llu mean %.0f max %llu\n",
              static_cast<unsigned long long>(audit_stats.audits),
              static_cast<unsigned long long>(audit_stats.audit_failures),
              audit_seconds,
              static_cast<unsigned long long>(
                  err.count() ? err.min() : 0),
              err.mean(), static_cast<unsigned long long>(err.max()));

  std::ofstream js(out_path);
  if (!js) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", out_path.c_str());
    return 2;
  }
  js << "{\n"
     << "  \"schema\": 1,\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"requests\": " << stats.requests << ",\n"
     << "  \"seconds\": " << seconds << ",\n"
     << "  \"qps\": " << qps << ",\n"
     << "  \"solve_ns\": {\"p50\": " << p50 << ", \"p90\": " << p90
     << ", \"p99\": " << p99 << ", \"mean\": " << mean_ns << "},\n"
     << "  \"audit\": {\"count\": " << audit_stats.audits
     << ", \"skipped\": " << audit_stats.audit_failures
     << ", \"seconds\": " << audit_seconds
     << ", \"max_rel_err\": " << audit_stats.max_audit_rel_err
     << ", \"rel_err_ppm\": {\"min\": " << (err.count() ? err.min() : 0)
     << ", \"mean\": " << err.mean() << ", \"max\": " << err.max()
     << "}},\n"
     << "  \"failures\": " << failures << "\n"
     << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return failures == 0 ? 0 : 1;
}
