// Differential properties of the event-driven fast-forward engine: the
// fast path (SystemConfig::fast_forward = true, the default) must be
// cycle-exact — bit-identical per-app controller stats, DRAM stats,
// interference attribution, core stats and IPC against the reference
// cycle-by-cycle loop — across random machines, mixes, schemes and seeds,
// including power-down and write-drain configurations that exercise every
// skip-bounding event source, and one- to four-controller topologies over
// up to eight apps (each controller is built over every global app id, but
// only its round-robin apps ever enqueue on it, and the fast engine runs
// each such partition on its own event loop), with interference
// attribution on or off in each phase (off, dead ranges are not cut at
// attribution flip ticks).
//
// Busy systems cut almost every controller skip to one bus tick, so the
// controller's own dead-range skip is also driven directly, the way the
// system loop drives it, by bursty enqueue streams with long idle gaps.
// Likewise the core's det-window replay is checked against tick() proof by
// proof, on core configurations the system-level cases never draw.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/pbt.hpp"
#include "common/snapshot_io.hpp"
#include "cpu/core.hpp"
#include "harness/differential.hpp"
#include "harness/experiment.hpp"
#include "harness/generators.hpp"
#include "harness/system.hpp"
#include "mem/controller.hpp"
#include "mem/scheduler.hpp"
#include "profile/interference.hpp"
#include "workload/mixes.hpp"

namespace bwpart::harness {
namespace {

struct FfCase {
  SystemConfig cfg;
  std::vector<workload::BenchmarkSpec> mix;
  std::vector<core::AppParams> params;  ///< knobs for the installed scheme
  PhaseConfig phases;
  core::Scheme scheme = core::Scheme::NoPartitioning;
  mem::WriteDrainConfig write_drain{};
  mem::AdmissionMode admission = mem::AdmissionMode::Shared;
  /// Interference attribution in the warm-up and the measure run.
  bool attribute_warmup = true;
  bool attribute_measure = true;
};

pbt::GenFn<FfCase> ff_case_gen() {
  return [](Rng& rng) {
    FfCase c;
    c.cfg = gen::system_config(rng);
    // The stock generator leaves power-down off; the skip logic has
    // dedicated event sources for it, so force coverage.
    c.cfg.dram.enable_powerdown = rng.next_bool(0.3);
    c.mix = gen::mix(rng, 2, 8);
    c.params = gen::workload(rng, c.mix.size(), c.mix.size());
    c.phases = gen::phase_config(rng);
    // Mixes past four apps run shorter windows, so a case costs about as
    // many core-cycles as a four-app one.
    const std::size_t scale = std::max<std::size_t>(4, c.mix.size());
    c.phases.profile_cycles = c.phases.profile_cycles * 4 / scale;
    c.phases.measure_cycles = c.phases.measure_cycles * 4 / scale;
    c.scheme = gen::scheme(rng);
    if (rng.next_bool(0.35)) {
      c.write_drain.enabled = true;
      c.write_drain.high_watermark = pbt::gen_uint(rng, 6, 24);
      c.write_drain.low_watermark =
          pbt::gen_uint(rng, 1, c.write_drain.high_watermark - 1);
    }
    c.admission = rng.next_bool(0.5) ? mem::AdmissionMode::PerApp
                                     : mem::AdmissionMode::Shared;
    // Up to four controllers over up to eight apps, so partitions of
    // uneven size occur (7 apps on 3 controllers: 3, 2 and 2 cores).
    c.cfg.num_controllers = static_cast<std::size_t>(
        pbt::gen_uint(rng, 1, std::min<std::size_t>(4, c.mix.size())));
    c.attribute_warmup = rng.next_bool(0.5);
    c.attribute_measure = rng.next_bool(0.5);
    return c;
  };
}

std::string print_ff_case(const FfCase& c) {
  std::ostringstream os;
  os << "scheme=" << core::to_string(c.scheme) << " seed=" << c.phases.seed
     << " measure=" << c.phases.measure_cycles << " mix={";
  for (const workload::BenchmarkSpec& b : c.mix) os << b.name << " ";
  os << "} ch=" << c.cfg.dram.channels << " ranks=" << c.cfg.dram.ranks
     << " banks=" << c.cfg.dram.banks_per_rank
     << " pd=" << c.cfg.dram.enable_powerdown
     << " refresh=" << c.cfg.dram.enable_refresh
     << " wdrain=" << c.write_drain.enabled
     << " perapp=" << (c.admission == mem::AdmissionMode::PerApp)
     << " window=" << c.cfg.dstf_row_hit_window
     << " controllers=" << c.cfg.num_controllers
     << " attribute=" << c.attribute_warmup << c.attribute_measure;
  return os.str();
}

/// Installs the scheme's scheduler plus the write-drain/admission knobs on
/// every controller of `sys`, then runs warmup + reset + measure.
void run_system(const FfCase& c, CmpSystem& sys) {
  for (std::size_t k = 0; k < sys.num_controllers(); ++k) {
    mem::MemoryController& mc = sys.controller(k);
    if (c.write_drain.enabled) mc.set_write_drain(c.write_drain);
    mc.set_admission_mode(c.admission);
    mc.replace_scheduler(make_scheduler(c.scheme, c.mix.size(), c.params,
                                        c.cfg.dstf_row_hit_window));
  }
  sys.set_interference_attribution(c.attribute_warmup);
  sys.run(c.phases.warmup_cycles);
  sys.reset_measurement();
  sys.set_interference_attribution(c.attribute_measure);
  sys.run(c.phases.measure_cycles);
}

/// Field-by-field bit comparison of everything the two systems measured.
/// Returns an empty string when identical.
std::string compare_systems(const CmpSystem& fast, const CmpSystem& ref) {
  std::ostringstream os;
  const std::uint32_t n = fast.num_apps();
  for (AppId a = 0; a < n; ++a) {
    const mem::AppMemStats& f = fast.controller_for(a).app_stats(a);
    const mem::AppMemStats& r = ref.controller_for(a).app_stats(a);
    if (f.enqueued != r.enqueued || f.served_reads != r.served_reads ||
        f.served_writes != r.served_writes ||
        f.sum_queue_cycles != r.sum_queue_cycles) {
      os << "AppMemStats diverge for app " << a << ": enqueued " << f.enqueued
         << "/" << r.enqueued << " reads " << f.served_reads << "/"
         << r.served_reads << " writes " << f.served_writes << "/"
         << r.served_writes << " queue-cycles " << f.sum_queue_cycles << "/"
         << r.sum_queue_cycles;
      return os.str();
    }
    const cpu::CoreStats& fc = fast.core(a).stats();
    const cpu::CoreStats& rc = ref.core(a).stats();
    if (fc.cycles != rc.cycles || fc.instructions != rc.instructions ||
        fc.offchip_reads != rc.offchip_reads ||
        fc.offchip_writes != rc.offchip_writes ||
        fc.rob_stall_cycles != rc.rob_stall_cycles ||
        fc.mem_stall_cycles != rc.mem_stall_cycles ||
        fc.queue_stall_cycles != rc.queue_stall_cycles) {
      os << "CoreStats diverge for app " << a << ": instr " << fc.instructions
         << "/" << rc.instructions << " rob-stall " << fc.rob_stall_cycles
         << "/" << rc.rob_stall_cycles << " mem-stall "
         << fc.mem_stall_cycles << "/" << rc.mem_stall_cycles
         << " queue-stall " << fc.queue_stall_cycles << "/"
         << rc.queue_stall_cycles;
      return os.str();
    }
    const Cycle fi = fast.interference().interference_cycles(a);
    const Cycle ri = ref.interference().interference_cycles(a);
    if (fi != ri) {
      os << "interference cycles diverge for app " << a << ": " << fi << "/"
         << ri;
      return os.str();
    }
  }
  for (std::size_t k = 0; k < fast.num_controllers(); ++k) {
    const dram::DramStats& fd = fast.controller(k).dram().stats();
    const dram::DramStats& rd = ref.controller(k).dram().stats();
    if (fd.activates != rd.activates || fd.reads != rd.reads ||
        fd.writes != rd.writes || fd.precharges != rd.precharges ||
        fd.refreshes != rd.refreshes ||
        fd.data_bus_busy_ticks != rd.data_bus_busy_ticks ||
        fd.ticks != rd.ticks ||
        fd.powerdown_rank_ticks != rd.powerdown_rank_ticks) {
      os << "DramStats diverge on controller " << k << ": act "
         << fd.activates << "/" << rd.activates << " rd " << fd.reads << "/"
         << rd.reads << " wr " << fd.writes << "/" << rd.writes << " pre "
         << fd.precharges << "/" << rd.precharges << " ref " << fd.refreshes
         << "/" << rd.refreshes << " bus " << fd.data_bus_busy_ticks << "/"
         << rd.data_bus_busy_ticks << " ticks " << fd.ticks << "/"
         << rd.ticks << " pd-ticks " << fd.powerdown_rank_ticks << "/"
         << rd.powerdown_rank_ticks;
      return os.str();
    }
  }
  const std::vector<double> f_ipc = fast.measured_ipc();
  const std::vector<double> r_ipc = ref.measured_ipc();
  for (std::size_t a = 0; a < f_ipc.size(); ++a) {
    if (hash_doubles({&f_ipc[a], 1}) != hash_doubles({&r_ipc[a], 1})) {
      os << "IPC diverges for app " << a << ": " << f_ipc[a] << " vs "
         << r_ipc[a];
      return os.str();
    }
  }
  return {};
}

// Fast vs reference at the CmpSystem level, field-by-field, over random
// machines including power-down, write-drain, per-app admission and every
// scheme's scheduler — configurations Experiment itself never sets — with
// attribution drawn on or off per phase (Experiment switches it at phase
// boundaries).
TEST(FastForwardDifferential, SystemStatsBitIdenticalAcrossRandomCases) {
  check::Recorder rec;
  const pbt::Result r = pbt::for_all<FfCase>(
      "fast-forward-differential", ff_case_gen(),
      [&rec](const FfCase& c) -> std::string {
        rec.clear();
        SystemConfig fast_cfg = c.cfg;
        fast_cfg.fast_forward = true;
        SystemConfig ref_cfg = c.cfg;
        ref_cfg.fast_forward = false;
        CmpSystem fast(fast_cfg, c.mix, c.phases.seed);
        CmpSystem ref(ref_cfg, c.mix, c.phases.seed);
        run_system(c, fast);
        run_system(c, ref);
        if (fast.now() != ref.now()) return "simulated time diverged";
        const std::string diff = compare_systems(fast, ref);
        if (!diff.empty()) return diff;
        if (!c.attribute_measure) {
          for (AppId a = 0; a < fast.num_apps(); ++a) {
            if (fast.interference().interference_cycles(a) != 0 ||
                ref.interference().interference_cycles(a) != 0) {
              return "interference attributed with attribution off";
            }
          }
        }
        if (rec.count() != 0) {
          return "invariant violation: " + rec.violations().front().what;
        }
        return {};
      },
      {}, nullptr, print_ff_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

// The full Experiment pipeline (profile -> partition -> measure, scheduler
// swaps at phase boundaries) fingerprinted fast vs reference.
TEST(FastForwardDifferential, ExperimentResultsBitIdenticalToReference) {
  const pbt::Result r = pbt::for_all<FfCase>(
      "fast-forward-experiment", ff_case_gen(),
      [](const FfCase& c) -> std::string {
        SystemConfig fast_cfg = c.cfg;
        fast_cfg.fast_forward = true;
        SystemConfig ref_cfg = c.cfg;
        ref_cfg.fast_forward = false;
        const Experiment fast_exp(fast_cfg, c.mix, c.phases);
        const Experiment ref_exp(ref_cfg, c.mix, c.phases);
        const RunResult fast = fast_exp.run(c.scheme);
        const RunResult ref = ref_exp.run(c.scheme);
        if (fingerprint(fast) != fingerprint(ref)) {
          return "fast-forward Experiment diverged from reference";
        }
        return {};
      },
      {}, nullptr, print_ff_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

// Every scheme on one substantial mix: scheduler decisions (and hence every
// derived stat) must match the reference loop exactly.
TEST(FastForwardDifferential, AllSevenSchemesMatchReference) {
  Rng rng(pbt::case_seed(pbt::base_seed(), 7177));
  const std::vector<workload::BenchmarkSpec> mix = gen::mix(rng, 3, 4);
  PhaseConfig phases;
  phases.warmup_cycles = 5'000;
  phases.profile_cycles = 60'000;
  phases.measure_cycles = 60'000;
  SystemConfig fast_cfg;
  fast_cfg.fast_forward = true;
  SystemConfig ref_cfg;
  ref_cfg.fast_forward = false;
  const Experiment fast_exp(fast_cfg, mix, phases);
  const Experiment ref_exp(ref_cfg, mix, phases);
  for (const core::Scheme s : core::kAllSchemes) {
    const RunResult fast = fast_exp.run(s);
    const RunResult ref = ref_exp.run(s);
    EXPECT_EQ(fingerprint(fast), fingerprint(ref)) << core::to_string(s);
  }
}

/// A det-window replay case: one core, varied in window size, issue width,
/// fetch rate and cache modelling, on its own controller, fed a random mix
/// of L1 hits, L2 hits and misses, and how often its run is sampled.
struct DetCase {
  SystemConfig machine;  ///< DRAM and clock
  cpu::CoreConfig core;
  std::uint64_t seed = 0;
  std::uint64_t max_gap = 0;    ///< non-memory instructions between ops
  double dependent_share = 0.0;  ///< of reads
  Cycle cycles = 0;
  Cycle stride = 0;
};

pbt::GenFn<DetCase> det_case_gen() {
  return [](Rng& rng) {
    DetCase c;
    c.machine = gen::system_config(rng);
    // Rates on the 0.01 grid in [0.30, 3.00]; cache hits put loads with
    // known future completion cycles in the window.
    c.core.issue_width = rng.next_bool(0.5) ? 4 : 8;
    c.core.nonmem_ipc_x100 =
        static_cast<std::uint32_t>(pbt::gen_uint(rng, 30, 300));
    c.core.mshrs = rng.next_bool(0.5) ? 4 : 16;
    c.core.model_caches = rng.next_bool(0.7);
    c.core.l1 = {4 * 1024, 64, 2};
    c.core.l2 = {32 * 1024, 64, 4};
    c.seed = rng.next_u64();
    if (rng.next_bool(0.5)) {
      // Sparse: a large window and no dependent reads keep fetch stall-free
      // for long stretches, so the load-free closed form runs whole proofs.
      c.core.rob_size = 1024;
      c.max_gap = 3'000;
      c.cycles = static_cast<Cycle>(pbt::gen_uint(rng, 40'000, 60'000));
      c.stride = static_cast<Cycle>(pbt::gen_uint(rng, 32, 128));
    } else {
      c.core.rob_size = rng.next_bool(0.5) ? 64 : 192;
      const std::uint64_t gaps[] = {2, 30, 300};
      c.max_gap = gaps[rng.next_below(3)];
      c.dependent_share = 0.1;
      c.cycles = static_cast<Cycle>(pbt::gen_uint(rng, 8'000, 16'000));
      c.stride = static_cast<Cycle>(pbt::gen_uint(rng, 8, 32));
    }
    return c;
  };
}

std::string print_det_case(const DetCase& c) {
  std::ostringstream os;
  os << "seed=" << c.seed << " cycles=" << c.cycles << " stride=" << c.stride
     << " max_gap=" << c.max_gap << " dependent=" << c.dependent_share
     << " width=" << c.core.issue_width
     << " ipc_x100=" << c.core.nonmem_ipc_x100
     << " rob=" << c.core.rob_size << " mshrs=" << c.core.mshrs
     << " caches=" << c.core.model_caches;
  return os.str();
}

/// Random memory ops: half to 8 hot lines (L1 hits once cached), a third of
/// the rest to 256 warm lines (L2 hits), the remainder to cold lines.
class MixedTrace final : public cpu::TraceSource {
 public:
  explicit MixedTrace(const DetCase& c)
      : rng_(c.seed), max_gap_(c.max_gap), dependent_(c.dependent_share) {}
  cpu::TraceOp next() override {
    cpu::TraceOp op;
    op.gap_nonmem = rng_.next_below(max_gap_ + 1);
    const double u = rng_.next_double();
    const std::uint64_t line = u < 0.5    ? rng_.next_below(8)
                               : u < 0.67 ? 64 + rng_.next_below(256)
                                          : 4'096 + rng_.next_below(1u << 24);
    op.addr = line * 64;
    op.type = rng_.next_bool(0.2) ? AccessType::Write : AccessType::Read;
    op.dependent = op.type == AccessType::Read && rng_.next_bool(dependent_);
    return op;
  }

 private:
  Rng rng_;
  std::uint64_t max_gap_;
  double dependent_;
};

/// Trace stub for core clones: a det-window replay never reaches a memory
/// operation, so the ops it would hand out are never read.
struct NoTrace : cpu::TraceSource {
  cpu::TraceOp next() override { return {}; }
};

// fast_forward_det() against tick(), proof by proof. One core runs with its
// controller cycle by cycle; every `stride` cycles it is cloned, and a clone
// that proves a deterministic window replays it whole (the full proved
// range, or past a frozen window's end, sometimes further than any proof
// walks) while a second replays a range cut short at a random cycle. Both
// must reach the state the same number of tick() calls reach. Clones use a
// controller of their own, so a faulty proof cannot touch the run they were
// taken from. Cache modelling puts loads with future completion cycles in
// the window, which a replay walk started one cycle late misreads.
TEST(FastForwardDifferential, DetReplayMatchesTicksAtEveryProof) {
  const pbt::Result r = pbt::for_all<DetCase>(
      "fast-forward-det-replay", det_case_gen(),
      [](const DetCase& c) -> std::string {
        const auto controller = [&c] {
          return std::make_unique<mem::MemoryController>(
              c.machine.dram, c.machine.cpu_clock, 1,
              std::make_unique<mem::FcfsScheduler>());
        };
        const std::unique_ptr<mem::MemoryController> mc = controller();
        const std::unique_ptr<mem::MemoryController> sandbox = controller();
        MixedTrace trace(c);
        cpu::OoOCore core(0, c.core, trace, *mc);
        mc->set_completion_callback(
            [&core](const mem::MemRequest& req, Cycle done) {
              core.on_mem_complete(req, done);
            });
        NoTrace no_trace;
        Rng pick(c.seed);
        const auto state = [](const cpu::OoOCore& k) {
          snap::Writer w;
          snap::save(k, w);
          return w.bytes();
        };
        for (Cycle t = 0; t < c.cycles; ++t) {
          core.tick(t);
          if (t % c.stride == 0) {
            const std::vector<std::uint8_t> saved = state(core);
            const auto clone = [&] {
              auto k = std::make_unique<cpu::OoOCore>(0, c.core, no_trace,
                                                      *sandbox);
              snap::Reader in(saved);
              snap::restore(*k, in);
              return k;
            };
            const std::unique_ptr<cpu::OoOCore> whole = clone();
            const cpu::WakeProof p = whole->prove_sleep(t);
            if (p.flavor == cpu::SleepFlavor::kDet) {
              // A frozen window replays 256 cycles, or one in sixteen times
              // past kDetLookahead, so the replay walk's cap exceeds the
              // proof's.
              constexpr Cycle kLong = cpu::OoOCore::kDetLookahead;
              const Cycle n = p.wake != kNoCycle ? p.wake - t - 1
                              : pick.next_below(16) == 0
                                  ? pbt::gen_uint(pick, kLong + 1, kLong + 512)
                                  : 256;
              const Cycle cut = pbt::gen_uint(pick, 1, n);
              const std::unique_ptr<cpu::OoOCore> partial = clone();
              const std::unique_ptr<cpu::OoOCore> ticked = clone();
              whole->fast_forward_det(t + 1, n);
              partial->fast_forward_det(t + 1, cut);
              for (Cycle i = 1; i <= n; ++i) {
                ticked->tick(t + i);
                if (i == cut && state(*partial) != state(*ticked)) {
                  return "after cycle " + std::to_string(t) + ": " +
                         std::to_string(cut) + "-cycle partial replay of " +
                         std::to_string(n) + " differs from tick()";
                }
              }
              if (state(*whole) != state(*ticked)) {
                return "after cycle " + std::to_string(t) + ": whole " +
                       std::to_string(n) + "-cycle replay differs from tick()";
              }
            }
          }
          mc->tick(t);
        }
        return {};
      },
      {.cases = 40}, nullptr, print_det_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_EQ(r.cases_run, 40);
}

/// One enqueue of the controller-level stream.
struct CtrlEnqueue {
  Cycle cycle = 0;
  AppId app = 0;
  Addr addr = 0;
  AccessType type = AccessType::Read;
};

struct CtrlCase {
  dram::DramConfig dram;
  std::uint32_t apps = 2;
  core::Scheme scheme = core::Scheme::NoPartitioning;
  std::vector<core::AppParams> params;
  double row_hit_window = 0.0;
  std::size_t per_app_capacity = 32;
  mem::WriteDrainConfig write_drain{};
  mem::AdmissionMode admission = mem::AdmissionMode::Shared;
  bool observer = false;
  std::vector<CtrlEnqueue> stream;  ///< non-decreasing cycles
  Cycle end = 0;                    ///< both controllers run [0, end)
};

pbt::GenFn<CtrlCase> ctrl_case_gen() {
  return [](Rng& rng) {
    CtrlCase c;
    const std::vector<dram::DramGeneration>& gens = dram::dram_generations();
    c.dram = gens[static_cast<std::size_t>(
                      pbt::gen_uint(rng, 0, gens.size() - 1))]
                 .config;
    c.dram.ranks = 1u << pbt::gen_uint(rng, 0, 2);
    c.dram.enable_refresh = rng.next_bool(0.5);
    c.dram.enable_powerdown = rng.next_bool(0.3);
    c.apps = static_cast<std::uint32_t>(pbt::gen_uint(rng, 2, 4));
    c.scheme = gen::scheme(rng);
    c.params = gen::workload(rng, c.apps, c.apps);
    c.row_hit_window = rng.next_bool(0.3) ? 4.0 : 0.0;
    c.per_app_capacity = static_cast<std::size_t>(pbt::gen_uint(rng, 8, 32));
    if (rng.next_bool(0.35)) {
      c.write_drain.enabled = true;
      c.write_drain.high_watermark = pbt::gen_uint(rng, 6, 24);
      c.write_drain.low_watermark =
          pbt::gen_uint(rng, 1, c.write_drain.high_watermark - 1);
    }
    c.admission = rng.next_bool(0.5) ? mem::AdmissionMode::PerApp
                                     : mem::AdmissionMode::Shared;
    c.observer = rng.next_bool(0.5);
    // Bursts of back-to-back enqueues (row-local runs and random lines)
    // separated by idle gaps of 10^3..10^5 CPU cycles, log-uniform.
    std::vector<Addr> next_line(c.apps);
    for (Addr& line : next_line) line = rng.next_below(1u << 18);
    Cycle now = pbt::gen_uint(rng, 0, 500);
    const std::uint64_t bursts = pbt::gen_uint(rng, 2, 5);
    for (std::uint64_t b = 0; b < bursts; ++b) {
      const std::uint64_t n = pbt::gen_uint(rng, 1, 48);
      for (std::uint64_t i = 0; i < n; ++i) {
        CtrlEnqueue e;
        e.cycle = now;
        e.app = static_cast<AppId>(rng.next_below(c.apps));
        Addr& line = next_line[e.app];
        line = rng.next_bool(0.6) ? line + 1 : rng.next_below(1u << 18);
        e.addr = (static_cast<Addr>(e.app) << 24) + line * 64;
        e.type = rng.next_bool(0.3) ? AccessType::Write
                                    : AccessType::Read;
        c.stream.push_back(e);
        now += pbt::gen_uint(rng, 0, 30);
      }
      now += static_cast<Cycle>(pbt::gen_log_double(rng, 1e3, 1e5));
    }
    // Usually drain the last burst; sometimes stop mid-flight.
    c.end = c.stream.back().cycle + pbt::gen_uint(rng, 1, 40'000);
    return c;
  };
}

std::string print_ctrl_case(const CtrlCase& c) {
  std::ostringstream os;
  os << "gen=" << c.dram.generation << " ranks=" << c.dram.ranks
     << " refresh=" << c.dram.enable_refresh
     << " pd=" << c.dram.enable_powerdown << " apps=" << c.apps
     << " scheme=" << core::to_string(c.scheme)
     << " window=" << c.row_hit_window << " cap=" << c.per_app_capacity
     << " wdrain=" << c.write_drain.enabled << "/"
     << c.write_drain.high_watermark << "/" << c.write_drain.low_watermark
     << " perapp=" << (c.admission == mem::AdmissionMode::PerApp)
     << " observer=" << c.observer << " enqueues=" << c.stream.size()
     << " end=" << c.end;
  return os.str();
}

/// One controller of a CtrlCase plus everything it reports.
struct CtrlRun {
  explicit CtrlRun(const CtrlCase& c, bool fast)
      : counters(c.apps),
        mc(c.dram, SystemConfig{}.cpu_clock, c.apps,
           make_scheduler(c.scheme, c.apps, c.params, c.row_hit_window),
           c.per_app_capacity, dram::MapScheme::ChanRowColBankRank,
           2 * c.per_app_capacity, c.admission) {
    mc.set_fast_forward(fast);
    if (c.write_drain.enabled) mc.set_write_drain(c.write_drain);
    if (c.observer) mc.set_interference_observer(&counters);
    mc.set_completion_callback([this](const mem::MemRequest& r, Cycle at) {
      completions.emplace_back(r.id, at);
    });
  }
  // The controller holds this object's address (callback, observer).
  CtrlRun(const CtrlRun&) = delete;
  CtrlRun& operator=(const CtrlRun&) = delete;

  /// Enqueues every stream entry at `cycle` from `next` on, dropping the
  /// ones backpressure refuses; returns the first entry past `cycle`.
  std::size_t enqueue_at(const CtrlCase& c, std::size_t next, Cycle cycle) {
    for (; next < c.stream.size() && c.stream[next].cycle == cycle; ++next) {
      const CtrlEnqueue& e = c.stream[next];
      if (mc.can_accept(e.app)) mc.enqueue(e.app, e.addr, e.type, cycle);
    }
    return next;
  }

  profile::InterferenceCounters counters;
  mem::MemoryController mc;
  std::vector<std::pair<std::uint64_t, Cycle>> completions;
};

/// Field-by-field comparison of two controllers' results; "" when equal.
std::string compare_controllers(const CtrlCase& c, const CtrlRun& fast,
                                const CtrlRun& ref) {
  std::ostringstream os;
  if (fast.completions != ref.completions) {
    std::size_t i = 0;
    while (i < fast.completions.size() && i < ref.completions.size() &&
           fast.completions[i] == ref.completions[i]) {
      ++i;
    }
    os << "completion " << i << " of " << fast.completions.size() << "/"
       << ref.completions.size() << " diverges";
    if (i < fast.completions.size() && i < ref.completions.size()) {
      os << ": id " << fast.completions[i].first << "/"
         << ref.completions[i].first << " at cycle "
         << fast.completions[i].second << "/" << ref.completions[i].second;
    }
    return os.str();
  }
  for (AppId a = 0; a < c.apps; ++a) {
    const mem::AppMemStats& f = fast.mc.app_stats(a);
    const mem::AppMemStats& r = ref.mc.app_stats(a);
    if (f.enqueued != r.enqueued || f.served_reads != r.served_reads ||
        f.served_writes != r.served_writes ||
        f.sum_queue_cycles != r.sum_queue_cycles) {
      os << "AppMemStats diverge for app " << a;
      return os.str();
    }
    if (fast.counters.interference_cycles(a) !=
        ref.counters.interference_cycles(a)) {
      os << "interference cycles diverge for app " << a << ": "
         << fast.counters.interference_cycles(a) << "/"
         << ref.counters.interference_cycles(a);
      return os.str();
    }
  }
  const dram::DramStats& fd = fast.mc.dram().stats();
  const dram::DramStats& rd = ref.mc.dram().stats();
  if (fd.activates != rd.activates || fd.reads != rd.reads ||
      fd.writes != rd.writes || fd.precharges != rd.precharges ||
      fd.refreshes != rd.refreshes ||
      fd.data_bus_busy_ticks != rd.data_bus_busy_ticks ||
      fd.ticks != rd.ticks ||
      fd.powerdown_rank_ticks != rd.powerdown_rank_ticks) {
    os << "DramStats diverge: act " << fd.activates << "/" << rd.activates
       << " ref " << fd.refreshes << "/" << rd.refreshes << " ticks "
       << fd.ticks << "/" << rd.ticks << " pd-ticks "
       << fd.powerdown_rank_ticks << "/" << rd.powerdown_rank_ticks;
    return os.str();
  }
  return {};
}

// The controller's dead-range skip against its reference loop, driven as
// the system loop drives it: the reference controller ticks every CPU
// cycle; the fast one only at enqueue cycles (catch up to c - 1, enqueue,
// tick c) and at its own next_event_cpu_cycle(). Bursty streams with long
// idle gaps give the skip long ranges over refresh, power-down entry and
// exit, and write drain. The idle gaps dominate the simulated cycles, so a
// controller that never looked past its next bus tick would be ticked on
// about one cycle in eight; the skip keeps the fast one under one in fifty.
TEST(FastForwardDifferential, ControllerSkipMatchesReferenceOverIdleGaps) {
  check::Recorder rec;
  std::uint64_t cycles = 0;
  std::uint64_t fast_ticks = 0;
  const pbt::Result r = pbt::for_all<CtrlCase>(
      "controller-skip-differential", ctrl_case_gen(),
      [&](const CtrlCase& c) -> std::string {
        rec.clear();
        CtrlRun ref(c, false);
        std::size_t next = 0;
        for (Cycle cycle = 0; cycle < c.end; ++cycle) {
          next = ref.enqueue_at(c, next, cycle);
          ref.mc.tick(cycle);
        }

        CtrlRun fast(c, true);
        next = 0;
        Cycle last = 0;  // the last cycle fast.mc was ticked at
        bool ticked = false;
        while (true) {
          const Cycle enq =
              next < c.stream.size() ? c.stream[next].cycle : kNoCycle;
          Cycle cycle = fast.mc.next_event_cpu_cycle();
          if (ticked && cycle <= last) cycle = last + 1;
          cycle = std::min(cycle, enq);
          if (cycle >= c.end) break;
          if (cycle == enq) {
            if (cycle > 0) fast.mc.tick(cycle - 1);
            next = fast.enqueue_at(c, next, cycle);
          }
          fast.mc.tick(cycle);
          ++fast_ticks;
          last = cycle;
          ticked = true;
        }
        fast.mc.tick(c.end - 1);
        cycles += c.end;

        const std::string diff = compare_controllers(c, fast, ref);
        if (!diff.empty()) return diff;
        if (rec.count() != 0) {
          return "invariant violation: " + rec.violations().front().what;
        }
        return {};
      },
      {}, nullptr, print_ctrl_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
  EXPECT_LE(fast_ticks * 50, cycles)
      << fast_ticks << " tick() calls over " << cycles << " cycles";
}

}  // namespace
}  // namespace bwpart::harness
