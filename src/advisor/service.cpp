#include "advisor/service.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string>

#include "advisor/audit.hpp"
#include "advisor/request.hpp"
#include "advisor/solver.hpp"
#include "common/arena.hpp"
#include "common/parallel.hpp"

namespace bwpart::advisor {

namespace {

void append_double(std::string& out, double v) {
  char buf[32];
  // Shortest round-trip form: downstream consumers (and the golden corpus)
  // can reproduce answers bit-exactly from the JSON, and std::to_chars is
  // several times cheaper than snprintf("%.17g") — formatting dominates the
  // response path, so this is load-bearing for throughput.
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(res.ptr - buf));
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_array(std::string& out, std::span<const double> xs) {
  out.push_back('[');
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_double(out, xs[i]);
  }
  out.push_back(']');
}

bool is_blank_or_comment(std::string_view line) {
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') continue;
    return c == '#';
  }
  return true;
}

}  // namespace

/// Per-worker state: everything a shard touches while solving its slice of
/// a batch, reused across batches so the steady state allocates nothing.
struct AdvisorService::Shard {
  Arena arena;
  Solver solver;
  std::string out;    ///< this shard's slice of the batch's JSONL output
  std::string error;  ///< parse/audit error scratch

  // Batch-local stat deltas, merged by the coordinator after the barrier.
  std::uint64_t ok = 0, parse_errors = 0, infeasible = 0;
  std::uint64_t audits = 0, audit_failures = 0;
  double max_audit_rel_err = 0.0;

  void reset_for_batch() {
    arena.reset();
    out.clear();
    ok = parse_errors = infeasible = audits = audit_failures = 0;
    max_audit_rel_err = 0.0;
  }
};

AdvisorService::AdvisorService(const ServiceConfig& cfg) : cfg_(cfg) {
  if (cfg_.batch_lines == 0) cfg_.batch_lines = 1;
  if (cfg_.audit_every > 0) {
    audit_ =
        std::make_unique<AuditEngine>(cfg_.audit_machine, cfg_.audit_phases);
  }
}

AdvisorService::~AdvisorService() = default;

ServiceStats AdvisorService::run(std::istream& in, std::ostream& out) {
  ServiceStats stats;

  obs::Hub* hub = cfg_.hub;
  const bool observed = hub != nullptr && hub->enabled();
  obs::Counter* c_requests = nullptr;
  obs::Counter* c_errors = nullptr;
  obs::Counter* c_audits = nullptr;
  obs::Counter* c_audit_failures = nullptr;
  obs::Counter* c_batches = nullptr;
  obs::Histogram* h_solve_ns = nullptr;
  obs::Histogram* h_batch_fill = nullptr;
  obs::Histogram* h_audit_err = nullptr;
  if (observed) {
    obs::Registry& reg = hub->metrics();
    c_requests = &reg.counter("advisor.requests");
    c_errors = &reg.counter("advisor.parse_errors");
    c_audits = &reg.counter("advisor.audits");
    c_audit_failures = &reg.counter("advisor.audit_failures");
    c_batches = &reg.counter("advisor.batches");
    h_solve_ns = &reg.histogram("advisor.solve_ns");
    h_batch_fill = &reg.histogram("advisor.batch_fill");
    // Relative error is recorded in parts-per-million so the integer log2
    // buckets resolve the interesting 1e-6..1e0 range.
    h_audit_err = &reg.histogram("advisor.audit_rel_err_ppm");
  }

  std::vector<std::string> lines;
  std::vector<std::uint64_t> line_nos;
  lines.resize(cfg_.batch_lines);
  line_nos.resize(cfg_.batch_lines);

  const std::size_t nthreads =
      cfg_.threads == 0 ? default_parallelism(cfg_.batch_lines) : cfg_.threads;
  const std::size_t nshards = std::max<std::size_t>(1, nthreads);
  while (shards_.size() < nshards) {
    shards_.push_back(std::make_unique<Shard>());
  }

  std::uint64_t line_no = 0;
  bool eof = false;
  while (!eof) {
    // Fill a batch: physical line numbers keep counting through skipped
    // blank/comment lines so errors always name the real input line.
    std::size_t filled = 0;
    while (filled < cfg_.batch_lines) {
      if (!std::getline(in, lines[filled])) {
        eof = true;
        break;
      }
      ++line_no;
      if (is_blank_or_comment(lines[filled])) continue;
      line_nos[filled] = line_no;
      ++filled;
    }
    if (filled == 0) break;
    ++stats.batches;
    stats.requests += filled;
    if (observed) {
      c_requests->add(filled);
      c_batches->add(1);
      h_batch_fill->record(filled);
    }

    // Contiguous sharding preserves input order: shard s owns lines
    // [s*per, ...) and its buffer is flushed before shard s+1's.
    const std::size_t used =
        std::min(nshards, std::max<std::size_t>(1, filled));
    const std::size_t per = (filled + used - 1) / used;
    parallel_for(
        used,
        [&](std::size_t s) {
          Shard& shard = *shards_[s];
          shard.reset_for_batch();
          const std::size_t begin = s * per;
          const std::size_t end = std::min(filled, begin + per);
          for (std::size_t i = begin; i < end; ++i) {
            const std::uint64_t no = line_nos[i];
            Request req;
            if (!parse_request_line(lines[i], no, shard.arena, req,
                                    shard.error)) {
              ++shard.parse_errors;
              shard.out += "{\"line\":";
              shard.out += std::to_string(no);
              shard.out += ",\"ok\":false,\"error\":";
              append_json_string(shard.out, shard.error);
              shard.out += "}\n";
              continue;
            }

            Answer ans;
            if (h_solve_ns != nullptr) {
              const auto t0 = std::chrono::steady_clock::now();
              shard.solver.solve(req, shard.arena, ans);
              const auto t1 = std::chrono::steady_clock::now();
              h_solve_ns->record(static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                                       t0)
                      .count()));
            } else {
              shard.solver.solve(req, shard.arena, ans);
            }
            ++shard.ok;
            if (!ans.feasible) ++shard.infeasible;

            shard.out += "{\"id\":";
            append_json_string(shard.out, req.id);
            shard.out += ",\"line\":";
            shard.out += std::to_string(no);
            shard.out += ",\"ok\":true,\"objective\":\"";
            shard.out += to_string(req.objective);
            shard.out += "\",\"scheme\":\"";
            shard.out += core::to_string(ans.scheme);
            shard.out += "\",\"feasible\":";
            shard.out += ans.feasible ? "true" : "false";
            shard.out += ",\"value\":";
            append_double(shard.out, ans.value);
            shard.out += ",\"shares\":";
            append_array(shard.out, ans.shares);
            shard.out += ",\"alloc\":";
            append_array(shard.out, ans.alloc);
            shard.out += ",\"ipc\":";
            append_array(shard.out, ans.ipc);

            const bool sampled = audit_ != nullptr && !req.mix.empty() &&
                                 no % cfg_.audit_every == 0;
            if (sampled) {
              AuditRecord rec;
              if (audit_->audit(req, ans, shard.arena, rec, shard.error)) {
                ++shard.audits;
                shard.max_audit_rel_err =
                    std::max(shard.max_audit_rel_err, rec.max_rel_err);
                if (h_audit_err != nullptr) {
                  h_audit_err->record(
                      static_cast<std::uint64_t>(rec.max_rel_err * 1e6));
                }
                shard.out += ",\"audit\":{\"mix\":";
                append_json_string(shard.out, req.mix);
                shard.out += ",\"max_rel_err\":";
                append_double(shard.out, rec.max_rel_err);
                shard.out += ",\"mean_rel_err\":";
                append_double(shard.out, rec.mean_rel_err);
                char fp[32];
                std::snprintf(fp, sizeof(fp), "0x%016llx",
                              static_cast<unsigned long long>(
                                  rec.fingerprint));
                shard.out += ",\"fingerprint\":\"";
                shard.out += fp;
                shard.out += "\",\"predicted_ipc\":";
                append_array(shard.out, rec.predicted_ipc);
                shard.out += ",\"measured_ipc\":";
                append_array(shard.out, rec.measured_ipc);
                shard.out += "}";
              } else {
                ++shard.audit_failures;
                shard.out += ",\"audit_error\":";
                append_json_string(shard.out, shard.error);
              }
            }
            shard.out += "}\n";
          }
        },
        used);

    for (std::size_t s = 0; s < used; ++s) {
      const Shard& shard = *shards_[s];
      out << shard.out;
      stats.ok += shard.ok;
      stats.parse_errors += shard.parse_errors;
      stats.infeasible += shard.infeasible;
      stats.audits += shard.audits;
      stats.audit_failures += shard.audit_failures;
      stats.max_audit_rel_err =
          std::max(stats.max_audit_rel_err, shard.max_audit_rel_err);
    }
    if (observed) {
      std::uint64_t errs = 0, audits = 0, afail = 0;
      for (std::size_t s = 0; s < used; ++s) {
        errs += shards_[s]->parse_errors;
        audits += shards_[s]->audits;
        afail += shards_[s]->audit_failures;
      }
      c_errors->add(errs);
      c_audits->add(audits);
      c_audit_failures->add(afail);
    }
  }
  return stats;
}

}  // namespace bwpart::advisor
