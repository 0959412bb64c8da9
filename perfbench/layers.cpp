// Per-layer measurements of the traced run, all taken from outside the
// program: spans around calls into each layer's public API, work counts
// read from public stats and the obs::Hub registry, and standalone loops
// that price one unit of a layer's work on the workload's own inputs.
//
// Each metric names the end-to-end figure it should move:
//   harness.*              pass_s (table4: capture/measure/skipped_frac;
//                          portfolio64: snapshot and shard stages, and
//                          peak_rss_mb through snapshot_bytes)
//   mem.tick_ns, dram.*    pass_s on portfolio64 (saturated controllers)
//   cpu.*, workload.*      pass_s on both simulator workloads
//   advisor.*              pass_s, op_p50_us, op_tail_us on advisor
// Modelled statistics (cpu.instructions, dram.cmd.*, mem.bus_util,
// mem.latency_cycles_mean) must not move under a speed-only change.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/request.hpp"
#include "advisor/service.hpp"
#include "advisor/solver.hpp"
#include "bench.hpp"
#include "common/arena.hpp"
#include "cpu/cache.hpp"
#include "dram/dram_system.hpp"
#include "harness/shard.hpp"
#include "harness/system.hpp"
#include "mem/controller.hpp"
#include "obs/hub.hpp"
#include "workload/synthetic_trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace harness = bwpart::harness;
namespace shard = bwpart::harness::shard;
namespace core = bwpart::core;
namespace advisor = bwpart::advisor;
namespace dram = bwpart::dram;
namespace mem = bwpart::mem;
namespace cpu = bwpart::cpu;
namespace workload = bwpart::workload;
using bwpart::AccessType;
using bwpart::AppId;
using bwpart::Cycle;

namespace {

double ns_per(double seconds, double n) {
  return n > 0 ? seconds * 1e9 / n : 0;
}

/// Keeps results of otherwise-unused loops observable to the optimizer.
volatile std::uint64_t g_sink = 0;

std::uint64_t cycles_of(const shard::ShardConfig& cfg) {
  return cfg.warmup_cycles + cfg.profile_cycles + cfg.measure_cycles;
}

/// The op stream of `app` in `cfg`, pre-generated so standalone loops time
/// the layer under test, not the generator.
std::vector<cpu::TraceOp> app_ops(const shard::ShardConfig& cfg, AppId app,
                                  std::size_t n) {
  const std::vector<workload::BenchmarkSpec> apps = shard::shard_apps(cfg);
  workload::SyntheticTraceGenerator gen =
      workload::SyntheticTraceGenerator::from_benchmark(apps[app], app,
                                                        cfg.seed);
  std::vector<cpu::TraceOp> ops(n);
  for (cpu::TraceOp& op : ops) op = gen.next();
  return ops;
}

// --- work counts: straight CmpSystem::run per config and scheme -----------

/// Deterministic work counts; two runs of the same code must compare equal.
struct Counts {
  std::uint64_t instructions = 0, core_cycles = 0, mem_stall_cycles = 0;
  std::uint64_t offchip = 0, l1_accesses = 0;
  std::uint64_t dram_ticks = 0, skip_events = 0, skipped_ticks = 0;
  std::uint64_t act = 0, rd = 0, wr = 0, pre = 0, ref = 0;
  std::uint64_t served = 0, queue_cycles = 0;
  std::uint64_t now = 0, skipped_cycles = 0;
  double bus_util_sum = 0.0;
  std::size_t runs = 0;
  /// Executed (not skipped) bus ticks per scheme, for the ledger.
  std::vector<std::uint64_t> executed_ticks;
  /// [config][scheme][app] mean requests in the memory system (Little's
  /// law: queue cycles / run cycles), the standalone controller's feed.
  std::vector<std::vector<std::vector<double>>> occupancy;

  bool operator==(const Counts&) const = default;
};

/// One straight run of the unit's full length (warm-up + profile +
/// measure) per config and scheme, the scheme's scheduler installed from
/// cycle 0 exactly as Experiment's measure phase installs it.
Counts straight_runs(const shard::Portfolio& p,
                     const std::vector<std::vector<core::AppParams>>& params,
                     SpanLog& spans, double& run_s) {
  Counts c;
  c.executed_ticks.assign(p.schemes.size(), 0);
  c.occupancy.resize(p.configs.size());
  for (std::size_t i = 0; i < p.configs.size(); ++i) {
    const shard::ShardConfig& cfg = p.configs[i];
    const harness::SystemConfig machine = shard::shard_machine(cfg);
    const std::vector<workload::BenchmarkSpec> apps = shard::shard_apps(cfg);
    for (std::size_t k = 0; k < p.schemes.size(); ++k) {
      const core::Scheme scheme = p.schemes[k];
      harness::CmpSystem sys(machine, apps, cfg.seed);
      for (std::size_t m = 0; m < sys.num_controllers(); ++m) {
        sys.controller(m).replace_scheduler(harness::make_scheduler(
            scheme, apps.size(), params[i], machine.dstf_row_hit_window));
        sys.controller(m).set_admission_mode(
            scheme == core::Scheme::NoPartitioning
                ? mem::AdmissionMode::Shared
                : mem::AdmissionMode::PerApp);
      }
      bwpart::obs::Hub hub;
      sys.set_observability(&hub);
      const Clock::time_point t0 = Clock::now();
      {
        Scope s(&spans, "harness.cmp_system_run");
        sys.run(cycles_of(cfg));
      }
      run_s += seconds_since(t0);
      std::vector<double>& occ = c.occupancy[i].emplace_back();
      for (AppId a = 0; a < sys.num_apps(); ++a) {
        const cpu::CoreStats& cs = sys.core(a).stats();
        c.instructions += cs.instructions;
        c.core_cycles += cs.cycles;
        c.mem_stall_cycles += cs.mem_stall_cycles;
        c.offchip += cs.offchip_accesses();
        c.l1_accesses += sys.core(a).l1().hits() + sys.core(a).l1().misses();
        const mem::AppMemStats& ms = sys.controller_for(a).app_stats(a);
        c.served += ms.served();
        c.queue_cycles += ms.sum_queue_cycles;
        occ.push_back(static_cast<double>(ms.sum_queue_cycles) /
                      static_cast<double>(sys.now()));
      }
      std::uint64_t ticks = 0;
      for (std::size_t m = 0; m < sys.num_controllers(); ++m) {
        const dram::DramStats& ds = sys.controller(m).dram().stats();
        ticks += ds.ticks;
        // Refreshes are issued inside the DRAM engine, not by the
        // controller, so they are read from its stats.
        c.ref += ds.refreshes;
      }
      bwpart::obs::Registry& reg = hub.metrics();
      const bwpart::obs::Histogram& skips = reg.histogram("mem.skip_ticks");
      c.dram_ticks += ticks;
      c.executed_ticks[k] += ticks - skips.sum();
      c.skip_events += skips.count();
      c.skipped_ticks += skips.sum();
      c.act += reg.counter("dram.cmd.act").value();
      c.rd += reg.counter("dram.cmd.rd").value() +
              reg.counter("dram.cmd.rda").value();
      c.wr += reg.counter("dram.cmd.wr").value() +
              reg.counter("dram.cmd.wra").value();
      c.pre += reg.counter("dram.cmd.pre").value();
      c.now += sys.now();
      c.skipped_cycles += sys.skipped_cycles();
      c.bus_util_sum += sys.bus_utilization();
      ++c.runs;
    }
  }
  return c;
}

// --- harness: capture, fork, snapshot save/restore -------------------------

struct HarnessProbe {
  std::uint64_t snapshot_bytes = 0;
  /// Profiled params per config (the controller probe's scheduler inputs).
  std::vector<std::vector<core::AppParams>> params;
};

/// Per config: capture_profile, measure_from per scheme, and five
/// restore_state/save_state round trips of the snapshot (timed by spans).
HarnessProbe harness_probe(const shard::Portfolio& p, SpanLog& spans) {
  HarnessProbe h;
  for (const shard::ShardConfig& cfg : p.configs) {
    const harness::Experiment e = shard::make_experiment(cfg);
    harness::ProfileSnapshot snap;
    {
      Scope s(&spans, "harness.capture_profile");
      snap = e.capture_profile();
    }
    h.snapshot_bytes += snap.state.size();
    h.params.push_back(snap.params);
    for (core::Scheme scheme : p.schemes) {
      Scope s(&spans, "harness.measure_from");
      (void)e.measure_from(snap, scheme);
    }
    for (int rep = 0; rep < 5; ++rep) {
      harness::CmpSystem sys(e.system_config(), e.apps(), cfg.seed);
      bwpart::snap::Reader reader(snap.state);
      {
        Scope s(&spans, "harness.restore_state");
        sys.restore_state(reader);
      }
      bwpart::snap::Writer writer;
      Scope s(&spans, "harness.save_state");
      sys.save_state(writer);
    }
  }
  return h;
}

// --- harness.shard: the spool pipeline with one worker loop ----------------

struct ShardProbe {
  std::uint64_t snapshot_bytes = 0;  ///< of the last repetition
  std::size_t missing = 0;
};

/// Three sweeps of the portfolio through a spool in `dir`: capture and
/// publish everything, one run_worker loop, merge (timed by spans).
ShardProbe shard_probe(const shard::Portfolio& p, const fs::path& dir,
                       SpanLog& spans) {
  ShardProbe out;
  const std::vector<shard::ShardUnit> units = shard::enumerate_units(p);
  for (int rep = 0; rep < 3; ++rep) {
    fs::remove_all(dir);
    const shard::Spool spool(dir);
    out.snapshot_bytes = 0;
    {
      Scope s(&spans, "harness.shard.spool");
      spool.init();
      for (const shard::ShardConfig& cfg : p.configs) {
        const harness::Experiment e = shard::make_experiment(cfg);
        const harness::ProfileSnapshot snap = e.capture_profile();
        out.snapshot_bytes += snap.state.size();
        spool.put_snapshot(e.config_fingerprint(), snap);
      }
      for (const shard::ShardUnit& u : units) spool.publish(u);
    }
    {
      Scope s(&spans, "harness.shard.worker");
      shard::run_worker(dir);
    }
    Scope s(&spans, "harness.shard.merge");
    out.missing += shard::merge(spool, p).missing;
  }
  fs::remove_all(dir);
  return out;
}

// --- standalone layer loops ------------------------------------------------

/// ns per SyntheticTraceGenerator::next over every app of the portfolio.
double trace_next_ns(const shard::Portfolio& p) {
  std::size_t apps = 0;
  for (const shard::ShardConfig& cfg : p.configs) {
    apps += shard::shard_apps(cfg).size();
  }
  const std::size_t per_app = std::max<std::size_t>(2'000, 1'000'000 / apps);
  std::uint64_t sink = 0, calls = 0;
  const Clock::time_point t0 = Clock::now();
  for (const shard::ShardConfig& cfg : p.configs) {
    const std::vector<workload::BenchmarkSpec> specs = shard::shard_apps(cfg);
    for (AppId a = 0; a < specs.size(); ++a) {
      workload::SyntheticTraceGenerator gen =
          workload::SyntheticTraceGenerator::from_benchmark(specs[a], a,
                                                            cfg.seed);
      for (std::size_t i = 0; i < per_app; ++i) sink += gen.next().addr;
      calls += per_app;
    }
  }
  const double secs = seconds_since(t0);
  g_sink = sink;
  return ns_per(secs, static_cast<double>(calls));
}

/// ns per cpu::Cache::access on the L1 geometry, fed the first config's
/// op streams (the address-stream mode's per-access cost).
double cache_access_ns(const shard::Portfolio& p) {
  const shard::ShardConfig& cfg = p.configs.front();
  std::vector<cpu::TraceOp> ops;
  for (AppId a = 0; a < shard::shard_apps(cfg).size(); ++a) {
    const std::vector<cpu::TraceOp> mine = app_ops(cfg, a, 50'000);
    ops.insert(ops.end(), mine.begin(), mine.end());
  }
  cpu::Cache l1(cpu::CacheGeometry::l1_default());
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < 4; ++rep) {
    for (const cpu::TraceOp& op : ops) (void)l1.access(op.addr, op.type);
  }
  return ns_per(seconds_since(t0), 4.0 * static_cast<double>(ops.size()));
}

/// ns per bus tick of a standalone DramSystem on the config's generation:
/// tick(), then the first of up to 32 pending requests whose next command
/// passes can_issue() is issued. Fed the op streams of the config's first
/// mix (its first four apps).
double dram_tick_ns(const shard::ShardConfig& cfg) {
  const harness::SystemConfig machine = shard::shard_machine(cfg);
  std::vector<cpu::TraceOp> ops;
  for (AppId a = 0; a < 4; ++a) {
    const std::vector<cpu::TraceOp> mine = app_ops(cfg, a, 20'000);
    ops.insert(ops.end(), mine.begin(), mine.end());
  }
  dram::DramSystem d(machine.dram);
  struct Pending {
    dram::Location loc;
    AccessType type;
  };
  std::vector<Pending> queue;
  std::size_t next = 0;
  constexpr dram::Tick kTicks = 200'000;
  const Clock::time_point t0 = Clock::now();
  for (dram::Tick t = 1; t <= kTicks; ++t) {
    while (queue.size() < 32) {
      const cpu::TraceOp& op = ops[next++ % ops.size()];
      queue.push_back({d.mapper().decode(op.addr), op.type});
    }
    d.tick(t);
    for (std::size_t i = 0; i < queue.size(); ++i) {
      dram::Command cmd;
      cmd.type = d.required_command(queue[i].loc, queue[i].type);
      cmd.loc = queue[i].loc;
      if (!d.can_issue(cmd, t)) continue;
      d.issue(cmd, t);
      if (dram::is_column_command(cmd.type)) {
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
      }
      break;
    }
  }
  return ns_per(seconds_since(t0), static_cast<double>(kTicks));
}

class SumObserver final : public mem::InterferenceObserver {
 public:
  void on_interference(AppId, Cycle cpu_cycles) override { sum += cpu_cycles; }
  Cycle sum = 0;
};

/// ns per executed bus tick of a standalone MemoryController (with its
/// DRAM engine and an interference observer attached) at one controller's
/// share of the config's apps, `scheme` and queue capacities. Each app is
/// fed its own op stream while it has fewer requests in the memory system
/// than the traced run's mean for it (`occupancy`, Little's law), so the
/// scheduler scans queues as deep as the workload's.
double mem_tick_ns(const shard::ShardConfig& cfg,
                   const std::vector<core::AppParams>& params,
                   core::Scheme scheme, const std::vector<double>& occupancy) {
  const harness::SystemConfig machine = shard::shard_machine(cfg);
  // Controller 0 serves apps 0, C, 2C, ... (round-robin assignment).
  std::vector<AppId> global;
  for (AppId a = 0; a < params.size(); a += machine.num_controllers) {
    global.push_back(a);
  }
  const auto n = static_cast<std::uint32_t>(global.size());
  std::vector<core::AppParams> local;
  std::vector<std::vector<cpu::TraceOp>> ops;
  std::vector<std::uint32_t> depth;
  for (AppId a : global) {
    local.push_back(params[a]);
    ops.push_back(app_ops(cfg, a, 8'000));
    depth.push_back(static_cast<std::uint32_t>(
        std::max<long long>(1, std::llround(occupancy[a]))));
  }
  mem::MemoryController mc(
      machine.dram, machine.cpu_clock, n,
      harness::make_scheduler(scheme, n, local, machine.dstf_row_hit_window),
      machine.queue_capacity_per_app, dram::MapScheme::ChanRowColBankRank,
      machine.queue_capacity_shared,
      scheme == core::Scheme::NoPartitioning ? mem::AdmissionMode::Shared
                                             : mem::AdmissionMode::PerApp);
  std::vector<std::uint32_t> inflight(n, 0);
  mc.set_completion_callback(
      [&](const mem::MemRequest& req, Cycle) { --inflight[req.app]; });
  SumObserver observer;
  mc.set_interference_observer(&observer);
  std::vector<std::size_t> cursor(n, 0);
  constexpr std::uint64_t kBusTicks = 20'000;
  const Clock::time_point t0 = Clock::now();
  while (mc.dram().stats().ticks < kBusTicks) {
    const Cycle now = mc.next_bus_activity_cpu_cycle();
    for (AppId a = 0; a < n; ++a) {
      if (inflight[a] >= depth[a] || !mc.can_accept(a)) continue;
      const cpu::TraceOp& op = ops[a][cursor[a]++ % ops[a].size()];
      mc.enqueue(a, op.addr, op.type, now);
      ++inflight[a];
    }
    mc.tick(now);
  }
  const double secs = seconds_since(t0);
  return ns_per(secs, static_cast<double>(mc.dram().stats().ticks));
}

// --- advisor ---------------------------------------------------------------

struct AdvisorProbe {
  std::vector<double> parse_ns;
  std::map<advisor::Objective, std::vector<double>> solve_ns;
  std::vector<double> all_solve_ns;
  double service_ns = 0.0;  ///< AdvisorService::run time per request
};

AdvisorProbe advisor_probe(const std::vector<std::string>& lines,
                           SpanLog& spans, Result& r) {
  AdvisorProbe a;
  bwpart::Arena arena;
  std::vector<advisor::Request> reqs(lines.size());
  std::string error;
  {
    Scope s(&spans, "advisor.parse_request_line");
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const bool ok =
          advisor::parse_request_line(lines[i], i + 1, arena, reqs[i], error);
      a.parse_ns.push_back(seconds_since(t0) * 1e9);
      r.check(ok);
    }
  }
  {
    Scope s(&spans, "advisor.solve");
    advisor::Solver solver;
    bwpart::Arena out;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      advisor::Answer ans;
      const Clock::time_point t0 = Clock::now();
      solver.solve(reqs[i], out, ans);
      const double ns = seconds_since(t0) * 1e9;
      a.solve_ns[reqs[i].objective].push_back(ns);
      a.all_solve_ns.push_back(ns);
      if (i % 4096 == 4095) out.reset();
    }
  }
  std::string corpus;
  for (const std::string& l : lines) corpus += l + '\n';
  std::vector<double> per_req;
  for (int rep = 0; rep < 3; ++rep) {
    advisor::ServiceConfig cfg;
    cfg.threads = 1;
    advisor::AdvisorService service(cfg);
    std::istringstream in(corpus);
    std::ostringstream out;
    const Clock::time_point t0 = Clock::now();
    advisor::ServiceStats stats;
    {
      Scope s(&spans, "advisor.service_run");
      stats = service.run(in, out);
    }
    per_req.push_back(
        ns_per(seconds_since(t0), static_cast<double>(lines.size())));
    r.check(stats.ok == lines.size() && stats.parse_errors == 0);
  }
  a.service_ns = median(per_req);
  return a;
}

}  // namespace

std::vector<std::string> requests_for_portfolio(const shard::Portfolio& p,
                                                std::size_t n) {
  std::vector<std::string> base;
  for (const shard::ShardConfig& cfg : p.configs) {
    const harness::ProfileSnapshot snap =
        shard::make_experiment(cfg).capture_profile();
    for (const char* objective : {"wsp", "fair", "qos"}) {
      std::ostringstream os;
      os.precision(17);
      os << cfg.mix << "-" << objective << " " << objective
         << " b=" << snap.profiled_b;
      for (std::size_t a = 0; a < snap.params.size(); ++a) {
        const core::AppParams& ap = snap.params[a];
        os << " a" << a << "=" << ap.apc_alone << "," << ap.api;
        if (a == 0 && std::string(objective) == "qos") {
          os << ",1," << 0.5 * ap.ipc_alone();
        }
      }
      base.push_back(os.str());
    }
  }
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(base[i % base.size()]);
  return out;
}

void measure_layers(const LayerInputs& in, SpanLog& spans, Result& out) {
  const shard::Portfolio& p = in.portfolio;

  HarnessProbe h;
  {
    Scope s(&spans, "probe.harness");
    h = harness_probe(p, spans);
  }
  ShardProbe sh;
  {
    Scope s(&spans, "probe.shard");
    sh = shard_probe(
        p, in.scratch / ("layer-spool-" + std::to_string(::getpid())), spans);
  }
  const bool bytes_repeat = sh.snapshot_bytes == h.snapshot_bytes;
  out.check(bytes_repeat && sh.missing == 0);
  out.note("snapshot_bytes_repeat", bytes_repeat ? "true" : "false");

  // Work counts, twice: they must repeat exactly. They come before the
  // standalone probes, which are fed the traced queue occupancy.
  Counts counts;
  double run_s = 0.0;  // host time of the first set of runs
  {
    Scope s(&spans, "probe.counts");
    counts = straight_runs(p, h.params, spans, run_s);
    double again_s = 0.0;
    const bool repeat =
        counts == straight_runs(p, h.params, spans, again_s);
    out.check(repeat);
    out.note("work_counts_repeat", repeat ? "true" : "false");
  }

  // Standalone per-unit costs, median of three repetitions each; the
  // controller cost is kept per scheme (mean over configs) for the ledger.
  std::vector<double> next_ns, cache_ns, dram_ns;
  std::vector<std::vector<double>> mem_ns(p.schemes.size());
  {
    Scope s(&spans, "probe.standalone");
    for (int rep = 0; rep < 3; ++rep) {
      next_ns.push_back(trace_next_ns(p));
      cache_ns.push_back(cache_access_ns(p));
      dram_ns.push_back(dram_tick_ns(p.configs.front()));
      for (std::size_t k = 0; k < p.schemes.size(); ++k) {
        std::vector<double> per_config;
        for (std::size_t c = 0; c < p.configs.size(); ++c) {
          per_config.push_back(mem_tick_ns(p.configs[c], h.params[c],
                                           p.schemes[k],
                                           counts.occupancy[c][k]));
        }
        mem_ns[k].push_back(mean(per_config));
      }
    }
  }
  std::vector<double> mem_scheme_ns;
  for (const std::vector<double>& v : mem_ns) {
    mem_scheme_ns.push_back(median(v));
  }

  AdvisorProbe a;
  {
    Scope s(&spans, "probe.advisor");
    a = advisor_probe(in.advisor_lines, spans, out);
  }

  const auto ratio = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(x) / static_cast<double>(y);
  };
  const auto count = [&](const char* name, std::uint64_t v) {
    out.add(name, static_cast<double>(v), "count");
  };
  // Span-timed figures pool the probes' spans with the traced passes' own.
  const auto span_median = [&](const char* name) {
    return median(spans.durations(name));
  };
  out.add("harness.capture_profile_s", span_median("harness.capture_profile"),
          "s");
  out.add("harness.measure_from_ms",
          span_median("harness.measure_from") * 1e3, "ms");
  out.add("harness.skipped_frac", ratio(counts.skipped_cycles, counts.now),
          "ratio");
  out.add("harness.snapshot_bytes", static_cast<double>(h.snapshot_bytes),
          "bytes");
  out.add("harness.snapshot_save_ms", span_median("harness.save_state") * 1e3,
          "ms");
  out.add("harness.snapshot_restore_ms",
          span_median("harness.restore_state") * 1e3, "ms");
  out.add("harness.shard.spool_s", span_median("harness.shard.spool"), "s");
  out.add("harness.shard.worker_s", span_median("harness.shard.worker"), "s");
  out.add("harness.shard.merge_s", span_median("harness.shard.merge"), "s");
  count("cpu.instructions", counts.instructions);
  out.add("cpu.stall_frac", ratio(counts.mem_stall_cycles, counts.core_cycles),
          "ratio");
  out.add("cpu.cache_access_ns", median(cache_ns), "ns");
  out.add("workload.trace_next_ns", median(next_ns), "ns");
  out.add("mem.tick_ns", mean(mem_scheme_ns), "ns");
  count("mem.skip_events", counts.skip_events);
  count("mem.skipped_ticks", counts.skipped_ticks);
  out.add("mem.bus_util",
          counts.bus_util_sum / static_cast<double>(counts.runs), "ratio");
  out.add("mem.latency_cycles_mean", ratio(counts.queue_cycles, counts.served),
          "cycles");
  out.add("dram.tick_ns", median(dram_ns), "ns");
  count("dram.ticks", counts.dram_ticks);
  count("dram.cmd.act", counts.act);
  count("dram.cmd.rd", counts.rd);
  count("dram.cmd.wr", counts.wr);
  count("dram.cmd.pre", counts.pre);
  count("dram.cmd.ref", counts.ref);

  const double parse_mean = mean(a.parse_ns);
  const double solve_mean = mean(a.all_solve_ns);
  out.add("advisor.parse_ns", median(a.parse_ns), "ns");
  out.add("advisor.solve_ns.wsp",
          median(a.solve_ns[advisor::Objective::WeightedSpeedup]), "ns");
  out.add("advisor.solve_ns.fair",
          median(a.solve_ns[advisor::Objective::Fairness]), "ns");
  out.add("advisor.solve_ns.qos",
          median(a.solve_ns[advisor::Objective::Qos]), "ns");
  out.add("advisor.format_ns", a.service_ns - parse_mean - solve_mean, "ns");

  // Ledger: standalone unit cost x traced work count, over the traced time
  // of the workload's own path.
  std::ostringstream terms;
  double explained = 0.0;
  if (in.advisor_ledger) {
    const double parse_f = parse_mean / a.service_ns;
    const double solve_f = solve_mean / a.service_ns;
    explained = parse_f + solve_f;
    terms << "{\"denominator\": \"AdvisorService::run\", \"advisor.parse\": "
          << json_number(parse_f)
          << ", \"advisor.solve\": " << json_number(solve_f)
          << ", \"unexplained\": " << json_number(1.0 - explained)
          << ", \"unexplained_is\": \"JSONL formatting, line batching and "
             "stream I/O\"}";
  } else {
    const double run_ns = run_s * 1e9;
    const double next_f =
        median(next_ns) * static_cast<double>(counts.offchip) / run_ns;
    const double cache_f =
        median(cache_ns) * static_cast<double>(counts.l1_accesses) / run_ns;
    double mem_f = 0.0;
    for (std::size_t k = 0; k < p.schemes.size(); ++k) {
      mem_f += mem_scheme_ns[k] *
               static_cast<double>(counts.executed_ticks[k]) / run_ns;
    }
    explained = next_f + cache_f + mem_f;
    terms << "{\"denominator\": \"CmpSystem::run\", \"run_s\": "
          << json_number(run_s)
          << ", \"workload.trace_next\": " << json_number(next_f)
          << ", \"cpu.cache_access\": " << json_number(cache_f)
          << ", \"mem.tick x executed bus ticks\": " << json_number(mem_f)
          << ", \"unexplained\": " << json_number(1.0 - explained)
          << ", \"unexplained_is\": \"core fetch/retire, det-window proofs "
             "and replays, controller skip path, system loop\"}";
  }
  out.add("ledger.explained_frac", explained, "ratio");
  out.note("ledger", terms.str());
  out.note("layer_portfolio", json_string(p.name));
}

}  // namespace perfbench
