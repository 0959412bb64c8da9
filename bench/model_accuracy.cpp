// Generation-aware model-accuracy sweep: how far the paper's analytic
// model (core::predict, Eq. 1 + the per-scheme allocations) drifts from
// the cycle-level simulator as the memory system leaves the DDR2 regime it
// was calibrated against.
//
// The sweep grid is app count (copies of hetero-5) x controller count x
// DRAM generation x all 7 schemes, executed through the sharded sweep
// engine (Spool + run_worker in-process — the same unit enumeration,
// snapshot forking and result shards bwpart_sweepd uses). For every unit
// the measured per-app IPCs are compared against predict(scheme, params, B)
// at the unit's own measured utilized bandwidth B, giving per-unit mean/max
// relative IPC error plus the Hsp error, aggregated per generation.
//
//   model_accuracy [--quick] [--verify] [--out BENCH_accuracy.json]
//
// --verify is the determinism gate CI archives alongside the numbers.
//
// Exit codes: 0 ok, 1 verify mismatch, 2 usage/setup failure.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/predict.hpp"
#include "dram/config.hpp"
#include "harness/differential.hpp"
#include "harness/shard.hpp"

namespace {

using namespace bwpart;
namespace fs = std::filesystem;
namespace shard = harness::shard;

struct Options {
  bool quick = false;
  bool verify = false;
  std::string out = "BENCH_accuracy.json";
};

shard::Portfolio accuracy_portfolio(bool quick) {
  shard::Portfolio p;
  p.name = quick ? "accuracy-quick" : "accuracy";
  const std::vector<std::string> gens =
      quick ? std::vector<std::string>{"ddr2_400", "ddr4_2400"}
            : std::vector<std::string>{"ddr2_400", "ddr3_1600", "ddr4_2400",
                                       "hbm_like"};
  const std::vector<std::uint32_t> copies =
      quick ? std::vector<std::uint32_t>{1}
            : std::vector<std::uint32_t>{1, 2, 4};
  const std::vector<std::size_t> controllers =
      quick ? std::vector<std::size_t>{1} : std::vector<std::size_t>{1, 2};
  for (const std::string& gen : gens) {
    for (const std::uint32_t copy : copies) {
      for (const std::size_t ctrl : controllers) {
        shard::ShardConfig c;
        c.mix = "hetero-5";
        c.copies = copy;
        c.controllers = ctrl;
        c.dram = gen;
        c.warmup_cycles = quick ? 20'000 : 50'000;
        c.profile_cycles = quick ? 100'000 : 200'000;
        c.measure_cycles = quick ? 100'000 : 200'000;
        p.configs.push_back(c);
      }
    }
  }
  p.schemes.assign(std::begin(core::kAllSchemes),
                   std::end(core::kAllSchemes));
  return p;
}

/// One unit's accuracy numbers.
struct Row {
  shard::ShardUnit unit;
  std::size_t apps = 0;
  double mean_rel_err_ipc = 0.0;
  double max_rel_err_ipc = 0.0;
  double rel_err_hsp = 0.0;
};

struct Agg {
  std::size_t units = 0;
  double sum_mean = 0.0, max_mean = 0.0;
  double sum_hsp = 0.0, max_hsp = 0.0;
  void add(const Row& r) {
    ++units;
    sum_mean += r.mean_rel_err_ipc;
    max_mean = std::max(max_mean, r.max_rel_err_ipc);
    sum_hsp += r.rel_err_hsp;
    max_hsp = std::max(max_hsp, r.rel_err_hsp);
  }
};

/// Runs the portfolio through a fresh spool exactly the way bwpart_sweepd
/// does (snapshots per config fingerprint, one unit per scheme, worker loop,
/// deterministic merge) and returns the merged result set.
shard::MergedPortfolio run_sweep(const shard::Portfolio& portfolio,
                                 const std::string& dir) {
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
  (void)shard::run_worker(dir);
  return shard::merge(spool, portfolio);
}

Row accuracy_of(const shard::ShardUnit& unit, const harness::RunResult& r) {
  Row row;
  row.unit = unit;
  row.apps = r.ipc_shared.size();
  const core::Prediction pred =
      core::predict(r.scheme, r.params, r.total_apc);
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < r.ipc_shared.size(); ++i) {
    if (r.ipc_shared[i] <= 0.0) continue;
    const double err =
        std::abs(pred.ipc_shared[i] - r.ipc_shared[i]) / r.ipc_shared[i];
    sum += err;
    row.max_rel_err_ipc = std::max(row.max_rel_err_ipc, err);
    ++counted;
  }
  row.mean_rel_err_ipc = counted > 0 ? sum / static_cast<double>(counted)
                                     : 0.0;
  row.rel_err_hsp =
      r.hsp > 0.0 ? std::abs(pred.hsp - r.hsp) / r.hsp : 0.0;
  return row;
}

std::string json_escape_free(const std::string& s) { return s; }  // keys are [a-z0-9_/-]

void write_json(const std::string& path, const Options& opt,
                const shard::MergedPortfolio& merged,
                const std::vector<Row>& rows, bool verify_ran,
                bool verify_ok, double wall_seconds) {
  // Per-generation and per-generation-per-scheme aggregates.
  std::vector<std::string> gen_order;
  std::map<std::string, Agg> by_gen;
  std::map<std::string, std::map<std::string, Agg>> by_gen_scheme;
  for (const Row& r : rows) {
    const std::string& gen = r.unit.cfg.dram;
    if (by_gen.find(gen) == by_gen.end()) gen_order.push_back(gen);
    by_gen[gen].add(r);
    by_gen_scheme[gen][core::to_string(r.unit.scheme)].add(r);
  }

  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
    std::exit(2);
  }
  char buf[64];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return std::string(buf);
  };
  os << "{\n  \"schema\": 1,\n  \"bench\": \"model_accuracy\",\n"
     << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
     << "  \"units\": " << rows.size() << ",\n"
     << "  \"wall_seconds\": " << num(wall_seconds) << ",\n"
     << "  \"portfolio_fp\": \"" << shard::fp_hex(merged.portfolio_fp)
     << "\",\n";
  if (verify_ran) {
    os << "  \"verify\": {\"reruns\": 1, \"bit_identical\": "
       << (verify_ok ? "true" : "false") << "},\n";
  }
  os << "  \"generations\": {\n";
  for (std::size_t g = 0; g < gen_order.size(); ++g) {
    const std::string& gen = gen_order[g];
    const Agg& a = by_gen[gen];
    os << "    \"" << json_escape_free(gen) << "\": {\n"
       << "      \"units\": " << a.units << ",\n"
       << "      \"mean_rel_err_ipc\": "
       << num(a.sum_mean / static_cast<double>(a.units)) << ",\n"
       << "      \"max_rel_err_ipc\": " << num(a.max_mean) << ",\n"
       << "      \"mean_rel_err_hsp\": "
       << num(a.sum_hsp / static_cast<double>(a.units)) << ",\n"
       << "      \"max_rel_err_hsp\": " << num(a.max_hsp) << ",\n"
       << "      \"by_scheme\": {";
    bool first = true;
    for (const auto& [scheme, sa] : by_gen_scheme[gen]) {
      os << (first ? "" : ", ") << "\"" << scheme << "\": "
         << num(sa.sum_mean / static_cast<double>(sa.units));
      first = false;
    }
    os << "}\n    }" << (g + 1 < gen_order.size() ? "," : "") << "\n";
  }
  os << "  },\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"gen\": \"" << r.unit.cfg.dram << "\", \"copies\": "
       << r.unit.cfg.copies << ", \"controllers\": "
       << r.unit.cfg.controllers << ", \"apps\": " << r.apps
       << ", \"scheme\": \"" << core::to_string(r.unit.scheme)
       << "\", \"mean_rel_err_ipc\": " << num(r.mean_rel_err_ipc)
       << ", \"max_rel_err_ipc\": " << num(r.max_rel_err_ipc)
       << ", \"rel_err_hsp\": " << num(r.rel_err_hsp) << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  cli::Parser cli(argv[0]);
  cli.flag("--quick", opt.quick,
           "CI-sized grid (2 generations, 1 copy, 1 controller)");
  cli.flag("--verify", opt.verify,
           "run the sweep twice in fresh spools and require bit-identical "
           "merged fingerprints");
  cli.text("--out", opt.out, "FILE", "JSON report");
  cli.parse(argc, argv);

  const shard::Portfolio portfolio = accuracy_portfolio(opt.quick);
  const std::string spool_base =
      (fs::temp_directory_path() /
       ("bwpart_accuracy_" + std::to_string(::getpid())))
          .string();

  const auto t0 = std::chrono::steady_clock::now();
  const shard::MergedPortfolio merged =
      run_sweep(portfolio, spool_base + "_a");
  if (merged.missing != 0) {
    std::fprintf(stderr, "sweep left %zu units unmeasured\n",
                 merged.missing);
    return 2;
  }

  bool verify_ok = true;
  if (opt.verify) {
    const shard::MergedPortfolio again =
        run_sweep(portfolio, spool_base + "_b");
    verify_ok = again.missing == 0 &&
                again.portfolio_fp == merged.portfolio_fp;
    if (!verify_ok) {
      std::fprintf(stderr,
                   "VERIFY FAILED: re-run portfolio fingerprint %s != %s\n",
                   shard::fp_hex(again.portfolio_fp).c_str(),
                   shard::fp_hex(merged.portfolio_fp).c_str());
    }
    fs::remove_all(spool_base + "_b");
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<Row> rows;
  rows.reserve(merged.rows.size());
  for (const shard::MergeRow& m : merged.rows) {
    rows.push_back(accuracy_of(m.unit, m.result.result));
  }
  fs::remove_all(spool_base + "_a");

  write_json(opt.out, opt, merged, rows, opt.verify, verify_ok, wall);

  // Human-readable per-generation summary (the EXPERIMENTS.md table).
  std::map<std::string, Agg> by_gen;
  std::vector<std::string> gen_order;
  for (const Row& r : rows) {
    if (by_gen.find(r.unit.cfg.dram) == by_gen.end()) {
      gen_order.push_back(r.unit.cfg.dram);
    }
    by_gen[r.unit.cfg.dram].add(r);
  }
  std::printf("%-12s %6s %14s %14s %14s\n", "generation", "units",
              "mean|dIPC|/IPC", "max|dIPC|/IPC", "mean|dHsp|/Hsp");
  for (const std::string& gen : gen_order) {
    const Agg& a = by_gen[gen];
    std::printf("%-12s %6zu %14.4f %14.4f %14.4f\n", gen.c_str(), a.units,
                a.sum_mean / static_cast<double>(a.units), a.max_mean,
                a.sum_hsp / static_cast<double>(a.units));
  }
  std::printf("%zu units, portfolio fp %s, %.1f s%s -> %s\n", rows.size(),
              shard::fp_hex(merged.portfolio_fp).c_str(), wall,
              opt.verify ? (verify_ok ? ", verify: bit-identical"
                                      : ", VERIFY FAILED")
                         : "",
              opt.out.c_str());
  return verify_ok ? 0 : 1;
}
