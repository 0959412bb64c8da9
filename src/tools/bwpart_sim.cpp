// bwpart_sim: command-line driver for the simulator + model.
//
//   bwpart_sim --mix hetero-5 --scheme Square_root --cycles 2000000
//   bwpart_sim --mix homo-3 --scheme all --csv
//   bwpart_sim --benchmarks lbm,gobmk,namd,hmmer --scheme Priority_API
//
// Every flag, its range and its default are declared once in main()'s
// cli::Parser table; an unknown flag prints them.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "harness/churn.hpp"
#include "harness/experiment.hpp"
#include "harness/shard.hpp"
#include "obs/hub.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace bwpart;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

/// "3=0.6,1=0.2" -> Eq. 11 requirements on apps [0, napps) into `reqs`;
/// returns "" or the problem.
std::string parse_qos(const std::string& spec, std::size_t napps,
                      std::vector<core::QosRequirement>& reqs) {
  for (const std::string& item : split_csv(spec)) {
    const std::size_t eq = std::min(item.find('='), item.size());
    std::uint64_t app = 0;
    double ipc = 0.0;
    std::string problem = cli::parse_number<std::uint64_t>(
        item.substr(0, eq), 0, napps - 1, app);
    if (problem.empty()) {
      problem = cli::parse_number<double>(
          item.substr(std::min(eq + 1, item.size())),
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::max(), ipc);
    }
    if (!problem.empty()) return "'" + item + "': " + problem;
    reqs.push_back({static_cast<std::uint32_t>(app), ipc});
  }
  return {};
}

/// Writes each observability document whose path is set: the metrics
/// registry, the Chrome trace and the epoch series. Returns the exit
/// status: 1 when a file cannot be opened.
int write_obs_outputs(const obs::Hub& hub, const std::string& metrics_out,
                      const std::string& trace_out,
                      const std::string& epochs_out) {
  const auto write = [](const std::string& path, const auto& emit) {
    if (path.empty()) return true;
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
      return false;
    }
    emit(os);
    return true;
  };
  const bool ok =
      write(metrics_out,
            [&](std::ostream& o) { hub.write_metrics_json(o); o << '\n'; }) &&
      write(trace_out,
            [&](std::ostream& o) { hub.trace().write_json(o); o << '\n'; }) &&
      write(epochs_out, [&](std::ostream& o) { hub.series().write_jsonl(o); });
  return ok ? 0 : 1;
}

constexpr Cycle kMinCycles = 10'000;  // shorter windows can profile no access
constexpr Cycle kMaxCycles = 1'000'000'000'000;
constexpr std::uint64_t kMaxLeaseMs = 86'400'000;  // one day

}  // namespace

int main(int argc, char** argv) {
  std::string mix_name = "hetero-5";
  std::string bench_list;
  std::string scheme_name = "all";
  Cycle cycles = 2'000'000;
  std::uint32_t copies = 1;
  double bandwidth = 3.2;
  std::string dram_gen;
  std::uint64_t seed = 42;
  bool oracle = false;
  bool csv = false;
  std::string metrics_out;
  std::string trace_out;
  std::string epochs_out;
  Cycle epoch_cycles = 100'000;
  std::string snapshot_out;
  std::string resume_path;
  std::size_t controllers = 1;
  std::string shard_spool;
  std::uint64_t lease_ms = 5'000;
  std::string churn_path;
  Cycle churn_reprofile = 50'000;
  Cycle churn_epoch = 25'000;
  bool churn_static = false;
  std::string qos_spec;

  cli::Parser cli("bwpart_sim");
  cli.text("--mix", mix_name, "NAME", "Table IV mix (homo-1..7, hetero-1..7)");
  cli.text("--benchmarks", bench_list, "A,B,...",
           "explicit benchmark list instead of a mix");
  cli.text("--scheme", scheme_name, "NAME|all",
           "partitioning scheme (paper names) or every scheme");
  cli.number("--cycles", cycles, kMinCycles, kMaxCycles,
             "profile and measure window (warm-up: a fifth of it)");
  cli.number("--copies", copies, 1, harness::shard::kMaxApps,
             "workload replication (Fig. 4)");
  cli.number("--bandwidth", bandwidth, 0.1, 100.0,
             "picks the Fig. 4 DDR2 grade: >= 12 DDR2-1600, >= 6 DDR2-800, "
             "else DDR2-400",
             "GBPS");
  cli.text("--dram-gen", dram_gen, "NAME",
           "any registered DRAM generation (README \"DRAM generations\"); "
           "overrides --bandwidth");
  cli.number("--seed", seed, 0, UINT64_MAX, "trace seed");
  cli.flag("--oracle", oracle, "ground-truth standalone profiling");
  cli.flag("--csv", csv, "machine-readable output");
  cli.text("--metrics-out", metrics_out, "FILE",
           "write metrics registry + epoch series JSON");
  cli.text("--trace-out", trace_out, "FILE",
           "write Chrome-trace JSON (chrome://tracing, Perfetto)");
  cli.text("--epochs-out", epochs_out, "FILE",
           "write the epoch series alone as JSONL (streaming)");
  cli.number("--epoch-cycles", epoch_cycles, 0, kMaxCycles,
             "time-series sampling epoch (0: none)");
  cli.text("--snapshot-out", snapshot_out, "FILE",
           "save the post-profile checkpoint (\"BWPS\" container)");
  // Results are bit-identical to a straight run; a file captured under any
  // other config/workload/seed is rejected loudly.
  cli.text("--resume", resume_path, "FILE",
           "fork the measure phases from a saved checkpoint instead of "
           "re-running warm-up + profile");
  cli.number("--controllers", controllers, 1, harness::shard::kMaxApps,
             "independent memory controllers (apps round-robin)");
  // The unit specs in the spool carry the configuration, so every
  // workload/machine flag is ignored in this mode.
  cli.text("--shard-worker", shard_spool, "DIR",
           "run as a sweep shard worker against spool DIR, then exit");
  cli.number("--lease-ms", lease_ms, 1, kMaxLeaseMs,
             "shard lease staleness threshold");
  cli.text("--churn", churn_path, "FILE",
           "replay a churn schedule (grammar: src/harness/churn.hpp) with "
           "online re-profiling + re-solves per scheme");
  cli.number("--churn-reprofile", churn_reprofile, 1, kMaxCycles,
             "re-profiling window after each churn event");
  cli.number("--churn-epoch", churn_epoch, 1, kMaxCycles,
             "objective-evaluation epoch");
  cli.flag("--churn-static", churn_static,
           "freeze the initial allocation (static-once baseline)");
  cli.text("--qos", qos_spec, "I=T[,I=T...]",
           "guarantee app I an IPC of T (Eq. 11) in churn runs; --scheme "
           "partitions the rest");
  cli.parse(argc, argv);

  // Shard-worker mode: drain the spool's work-stealing queue and exit.
  if (!shard_spool.empty()) {
    harness::shard::WorkerOptions opt;
    opt.lease = std::chrono::milliseconds(lease_ms);
    try {
      const harness::shard::WorkerReport report =
          harness::shard::run_worker(shard_spool, opt);
      std::printf("shard worker drained: completed=%zu healed=%zu "
                  "stolen=%zu\n",
                  report.completed, report.healed, report.stolen);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "shard worker failed: %s\n", e.what());
      return 1;
    }
  }

  // Workload.
  std::vector<workload::BenchmarkSpec> apps;
  if (!bench_list.empty()) {
    const std::vector<std::string> names = split_csv(bench_list);
    for (const std::string& name : names) {
      const auto table = workload::spec2006_table();
      if (std::none_of(table.begin(), table.end(),
                       [&](const auto& b) { return b.name == name; })) {
        cli.fail("--benchmarks: unknown benchmark '" + name + "'");
      }
    }
    for (std::uint32_t c = 0; c < copies; ++c) {
      for (const std::string& name : names) {
        apps.push_back(workload::find_benchmark(name));
      }
    }
  } else {
    const workload::MixSpec* mix = nullptr;
    for (const auto& m : workload::paper_mixes()) {
      if (m.name == mix_name) mix = &m;
    }
    if (mix == nullptr) cli.fail("--mix: unknown mix '" + mix_name + "'");
    apps = workload::resolve_mix(*mix, copies);
  }

  // Machine. --dram-gen picks any registered generation by name and wins
  // over the Fig. 4 --bandwidth -> DDR2-grade mapping.
  harness::SystemConfig machine;
  if (!dram_gen.empty()) {
    try {
      machine.dram = dram::dram_config_for_generation(dram_gen);
    } catch (const std::invalid_argument& e) {
      cli.fail(std::string("--dram-gen: ") + e.what());
    }
  } else if (bandwidth >= 12.0) {
    machine.dram = dram::DramConfig::ddr2_1600();
  } else if (bandwidth >= 6.0) {
    machine.dram = dram::DramConfig::ddr2_800();
  } else {
    machine.dram = dram::DramConfig::ddr2_400();
  }
  if (controllers > apps.size()) {
    cli.fail("--controllers: " + std::to_string(controllers) +
             " exceeds the " + std::to_string(apps.size()) + " apps");
  }
  machine.num_controllers = controllers;

  harness::PhaseConfig phases;
  phases.warmup_cycles = cycles / 5;
  phases.profile_cycles = cycles;
  phases.measure_cycles = cycles;
  phases.oracle_alone = oracle;
  phases.seed = seed;

  harness::Experiment experiment(machine, apps, phases);

  // Observability is opt-in: an output path enables the hub (compiled out
  // entirely under BWPART_OBS=OFF — the flags then produce empty documents).
  const bool want_obs =
      !metrics_out.empty() || !trace_out.empty() || !epochs_out.empty();
  obs::Hub hub;
  if (want_obs) {
    hub.set_epoch_cycles(epoch_cycles);
    experiment.set_observability(&hub);
  }

  std::vector<core::Scheme> schemes;
  std::string valid;
  for (core::Scheme s : core::kAllSchemes) {
    if (scheme_name == "all" || core::to_string(s) == scheme_name) {
      schemes.push_back(s);
    }
    valid += core::to_string(s) + " ";
  }
  if (schemes.empty()) {
    cli.fail("--scheme: unknown scheme '" + scheme_name + "'; valid: " +
             valid + "all");
  }

  // Profile checkpointing: --resume forks every measure phase from a saved
  // post-profile snapshot (skipping warmup+profile, bit-identically);
  // --snapshot-out captures one for later resumes. Both validate the BWPS
  // container and the config fingerprint, and fail loudly on mismatch.
  std::optional<harness::ProfileSnapshot> profile;
  if (!resume_path.empty()) {
    try {
      profile = harness::read_profile_snapshot(resume_path);
    } catch (const snap::SnapshotError& e) {
      std::fprintf(stderr, "cannot resume from '%s': %s\n",
                   resume_path.c_str(), e.what());
      return 1;
    }
    if (profile->config_fp != experiment.config_fingerprint()) {
      std::fprintf(stderr,
                   "cannot resume from '%s': snapshot was captured under a "
                   "different machine/workload/phase/seed configuration\n",
                   resume_path.c_str());
      return 1;
    }
  } else if (!snapshot_out.empty()) {
    profile = experiment.capture_profile();
    try {
      harness::write_profile_snapshot(snapshot_out, *profile);
    } catch (const snap::SnapshotError& e) {
      std::fprintf(stderr, "cannot write snapshot '%s': %s\n",
                   snapshot_out.c_str(), e.what());
      return 1;
    }
  }

  // Churn mode: replay the schedule per scheme and report the adaptation
  // story (violation clocks, re-solves, mean adaptation lag) alongside the
  // usual whole-window metrics.
  if (!churn_path.empty()) {
    harness::ChurnSchedule schedule;
    try {
      std::ifstream in(churn_path);
      if (!in) {
        std::fprintf(stderr, "cannot open churn schedule '%s'\n",
                     churn_path.c_str());
        return 1;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      schedule = harness::ChurnSchedule::parse(buf.str());
      schedule.validate(apps.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bwpart_sim: --churn: %s\n", e.what());
      return 1;
    }
    std::vector<core::QosRequirement> qos;
    if (!qos_spec.empty()) {
      const std::string problem = parse_qos(qos_spec, apps.size(), qos);
      if (!problem.empty()) cli.fail("--qos: " + problem);
    }
    if (csv) {
      std::printf("scheme,hsp,wsp,qos_violation_cycles,"
                  "objective_violation_cycles,resolves,mean_adaptation_lag\n");
    }
    TextTable table({"scheme", "Hsp", "Wsp", "QoS viol", "obj viol",
                     "re-solves", "mean lag"});
    for (core::Scheme s : schemes) {
      harness::ChurnRunConfig cc;
      cc.scheme = s;
      cc.qos = qos;
      cc.resolve_on_churn = !churn_static;
      cc.reprofile_window = churn_reprofile;
      cc.eval_epoch = churn_epoch;
      harness::ChurnRunResult r;
      try {
        r = profile ? experiment.measure_churn_from(*profile, schedule, cc)
                    : experiment.run_churn(schedule, cc);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bwpart_sim: churn run (%s): %s\n",
                     core::to_string(s).c_str(), e.what());
        return 1;
      }
      double lag_sum = 0.0;
      std::size_t lag_n = 0;
      for (const harness::ChurnEventOutcome& o : r.outcomes) {
        if (o.adaptation_lag != kNoCycle) {
          lag_sum += static_cast<double>(o.adaptation_lag);
          ++lag_n;
        }
      }
      const double mean_lag = lag_n == 0 ? 0.0
                                         : lag_sum / static_cast<double>(lag_n);
      if (csv) {
        std::printf("%s,%.6f,%.6f,%llu,%llu,%llu,%.0f\n",
                    core::to_string(s).c_str(), r.base.hsp, r.base.wsp,
                    static_cast<unsigned long long>(r.qos_violation_cycles),
                    static_cast<unsigned long long>(
                        r.objective_violation_cycles),
                    static_cast<unsigned long long>(r.resolves), mean_lag);
      } else {
        table.add_row({std::string(core::to_string(s)),
                       TextTable::num(r.base.hsp), TextTable::num(r.base.wsp),
                       std::to_string(r.qos_violation_cycles),
                       std::to_string(r.objective_violation_cycles),
                       std::to_string(r.resolves),
                       TextTable::num(mean_lag, 0)});
      }
    }
    if (!csv) {
      std::printf("churn schedule: %s (%zu events, fp %016llx)\n\n",
                  churn_path.c_str(), schedule.events.size(),
                  static_cast<unsigned long long>(schedule.fingerprint()));
      table.print(std::cout);
    }
    return write_obs_outputs(hub, metrics_out, trace_out, epochs_out);
  }

  if (csv) {
    std::printf("scheme,hsp,min_fairness,wsp,ipc_sum,total_apc,bus_util");
    for (std::size_t i = 0; i < apps.size(); ++i) {
      std::printf(",ipc_%s_%zu", apps[i].name.data(), i);
    }
    std::printf("\n");
  }
  TextTable table({"scheme", "Hsp", "MinF", "Wsp", "IPCsum", "B(APC)",
                   "bus util"});
  for (core::Scheme s : schemes) {
    const harness::RunResult r =
        profile ? experiment.measure_from(*profile, s) : experiment.run(s);
    if (csv) {
      std::printf("%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.4f",
                  core::to_string(s).c_str(), r.hsp, r.min_fairness, r.wsp,
                  r.ipcsum, r.total_apc, r.bus_utilization);
      for (double ipc : r.ipc_shared) std::printf(",%.6f", ipc);
      std::printf("\n");
    } else {
      table.add_row({std::string(core::to_string(s)), TextTable::num(r.hsp),
                     TextTable::num(r.min_fairness), TextTable::num(r.wsp),
                     TextTable::num(r.ipcsum), TextTable::num(r.total_apc, 5),
                     TextTable::num(r.bus_utilization, 2)});
    }
  }
  if (!csv) {
    std::printf("workload:");
    for (const auto& b : apps) std::printf(" %s", b.name.data());
    std::printf("  (%.1f GB/s, %zu cores)\n\n", machine.dram.peak_gbps(),
                apps.size());
    table.print(std::cout);
  }

  return write_obs_outputs(hub, metrics_out, trace_out, epochs_out);
}
