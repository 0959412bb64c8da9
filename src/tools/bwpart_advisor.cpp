// bwpart_advisor: the batch bandwidth-partitioning advisor service.
//
//   bwpart_advisor --in requests.txt --out answers.jsonl
//   generate_requests | bwpart_advisor --threads 8
//   bwpart_advisor --in reqs.txt --audit-every 1000 --audit-cycles 100000
//
// Reads line-delimited profile-vector requests (see src/advisor/request.hpp
// for the grammar), answers each with one JSON line carrying the optimal
// shares/allocation/predicted IPCs for the requested objective, and — in
// audit mode — cross-checks every Nth mix-tagged request against a forked
// simulator measure phase.
//
// Every flag, its range and its default are declared once in main()'s
// cli::Parser table; an unknown flag prints them.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "advisor/replay.hpp"
#include "advisor/service.hpp"
#include "common/cli.hpp"
#include "obs/hub.hpp"

namespace {

/// --churn-replay mode: one superset request from `in`, the schedule from
/// `path`, one JSONL line per re-solve step to `out`.
int run_churn_replay(const std::string& path, std::istream& in,
                     std::ostream& out, bool quiet) {
  using namespace bwpart;
  std::ifstream sched_file(path);
  if (!sched_file) {
    std::fprintf(stderr, "cannot open churn schedule '%s'\n", path.c_str());
    return 2;
  }
  std::stringstream sched_text;
  sched_text << sched_file.rdbuf();

  // The first non-blank, non-comment line is the superset request.
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t start = line.find_first_not_of(" \t");
    if (start != std::string::npos && line[start] != '#') break;
    line.clear();
  }
  if (line.empty()) {
    std::fprintf(stderr, "--churn-replay needs one request line on input\n");
    return 2;
  }
  bwpart::Arena arena;
  advisor::Request request;
  std::string error;
  if (!advisor::parse_request_line(line, line_no, arena, request, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  try {
    const harness::ChurnSchedule schedule =
        harness::ChurnSchedule::parse(sched_text.str());
    const advisor::ReplayStats stats =
        advisor::replay_churn(request, schedule, out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "write failure on output stream\n");
      return 2;
    }
    if (!quiet) {
      std::fprintf(stderr,
                   "advisor: churn replay of %zu events -> %llu re-solve "
                   "steps (%llu infeasible)\n",
                   schedule.events.size(),
                   static_cast<unsigned long long>(stats.steps),
                   static_cast<unsigned long long>(stats.infeasible));
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "churn schedule '%s': %s\n", path.c_str(), e.what());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bwpart;

  std::string in_path, out_path, metrics_path, churn_path;
  advisor::ServiceConfig cfg;
  std::uint64_t audit_cycles = 100'000;
  bool quiet = false;

  cli::Parser cli("bwpart_advisor");
  cli.text("--in", in_path, "FILE", "read requests from FILE (default stdin)");
  cli.text("--out", out_path, "FILE",
           "write JSONL answers to FILE (default stdout)");
  cli.number("--threads", cfg.threads, 0, 1'024,
             "solve parallelism (0: auto, 1: serial)");
  cli.number("--batch-lines", cfg.batch_lines, 1, 1u << 20, "lines per batch");
  cli.number("--audit-every", cfg.audit_every, 0, UINT64_MAX,
             "audit every Nth mix-tagged request (0: off)");
  cli.number("--audit-cycles", audit_cycles, 10'000, 1'000'000'000'000,
             "audit profile/measure window");
  cli.number("--audit-seed", cfg.audit_phases.seed, 0, UINT64_MAX,
             "audit trace seed");
  cli.text("--metrics-out", metrics_path, "FILE",
           "write the obs metrics registry JSON (enables obs)");
  // Shares are scattered over the superset, dormant apps pinned to zero.
  cli.text("--churn-replay", churn_path, "FILE",
           "replay a churn schedule against ONE superset request from --in: "
           "one JSONL line per re-solve step");
  cli.flag("--quiet", quiet, "suppress the stderr summary");
  cli.parse(argc, argv);

  // Audit forks run at golden-corpus scale by default: a 1/5 warmup plus
  // equal profile/measure windows.
  cfg.audit_phases.warmup_cycles = audit_cycles / 5;
  cfg.audit_phases.profile_cycles = audit_cycles;
  cfg.audit_phases.measure_cycles = audit_cycles;

  obs::Hub hub;
  if (!metrics_path.empty()) {
    hub.set_enabled(true);
    cfg.hub = &hub;
  }

  std::ifstream in_file;
  if (!in_path.empty()) {
    in_file.open(in_path);
    if (!in_file) {
      std::fprintf(stderr, "cannot open '%s'\n", in_path.c_str());
      return 2;
    }
  }
  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   out_path.c_str());
      return 2;
    }
  }
  std::istream& in = in_path.empty() ? std::cin : in_file;
  std::ostream& out = out_path.empty() ? std::cout : out_file;

  if (!churn_path.empty()) {
    return run_churn_replay(churn_path, in, out, quiet);
  }

  advisor::AdvisorService service(cfg);
  const advisor::ServiceStats stats = service.run(in, out);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "write failure on output stream\n");
    return 2;
  }

  if (!metrics_path.empty()) {
    std::ofstream ms(metrics_path);
    if (!ms) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   metrics_path.c_str());
      return 2;
    }
    hub.write_metrics_json(ms);
  }

  if (!quiet) {
    std::fprintf(stderr,
                 "advisor: %llu requests (%llu ok, %llu parse errors, "
                 "%llu infeasible) in %llu batches; %llu audits "
                 "(%llu skipped, max rel err %.3g)\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.ok),
                 static_cast<unsigned long long>(stats.parse_errors),
                 static_cast<unsigned long long>(stats.infeasible),
                 static_cast<unsigned long long>(stats.batches),
                 static_cast<unsigned long long>(stats.audits),
                 static_cast<unsigned long long>(stats.audit_failures),
                 stats.max_audit_rel_err);
  }
  return 0;
}
