// Snapshot round-trip properties: CmpSystem::save_state / restore_state
// must be lossless — a system restored into a fresh instance continues
// bit-identically to the uninterrupted original, for random machines,
// mixes, schedulers, cut points (including mid-measure-phase, with requests
// in flight) and engines, through memory and through the on-disk "BWPS"
// container, with interference attribution on or off. Every stream's bytes
// are pinned. Corrupt or truncated files, and forged counts and indices
// behind a valid checksum, must fail with snap::SnapshotError, never
// undefined behavior; a result shard or a profile snapshot file with random
// byte edits behind a valid checksum decodes (restores) or fails the same
// way, and a restored system runs on without a violation.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/pbt.hpp"
#include "dram/config.hpp"
#include "harness/churn.hpp"
#include "harness/differential.hpp"
#include "harness/experiment.hpp"
#include "harness/generators.hpp"
#include "harness/shard.hpp"
#include "harness/snapshot.hpp"
#include "harness/system.hpp"
#include "mem/controller.hpp"
#include "mem/scheduler.hpp"
#include "workload/mixes.hpp"

namespace bwpart::harness {
namespace {

struct SnapCase {
  SystemConfig cfg;
  std::vector<workload::BenchmarkSpec> mix;
  std::vector<core::AppParams> params;
  PhaseConfig phases;
  core::Scheme scheme = core::Scheme::NoPartitioning;
  /// Cycles simulated before the snapshot is taken (mid-measure when the
  /// scheduler swap below happens first) and after it.
  Cycle prefix = 0;
  Cycle suffix = 0;
  /// Install the scheme's scheduler + per-app admission before the prefix
  /// (true simulates snapshotting mid-measure-phase; false snapshots the
  /// warmup/profile FCFS configuration).
  bool install_scheduler = false;
  /// Reset measurement counters between prefix and snapshot (a snapshot at
  /// a phase boundary, the sweep engine's exact use).
  bool reset_before_snap = false;
  bool disk_roundtrip = false;
  /// Interference attribution, the same on every system of a case (a
  /// restore does not carry it, so each restored system is switched too).
  bool attribute = true;
};

pbt::GenFn<SnapCase> snap_case_gen() {
  return [](Rng& rng) {
    SnapCase c;
    c.cfg = gen::system_config(rng);
    c.cfg.dram.enable_powerdown = rng.next_bool(0.25);
    // Modelled private caches: the only configuration whose snapshots
    // carry cache lines (untouched caches save as zero lines).
    c.cfg.core.model_caches = rng.next_bool(0.3);
    c.mix = gen::mix(rng, 2, 8);
    c.params = gen::workload(rng, c.mix.size(), c.mix.size());
    c.phases = gen::phase_config(rng);
    c.scheme = gen::scheme(rng);
    // Mixes past four apps run shorter spans, so a case costs about as
    // many core-cycles as a four-app one.
    const std::size_t scale = std::max<std::size_t>(4, c.mix.size());
    c.prefix = pbt::gen_uint(rng, 2'000, 40'000) * 4 / scale;
    c.suffix = pbt::gen_uint(rng, 2'000, 40'000) * 4 / scale;
    c.install_scheduler = rng.next_bool(0.6);
    c.reset_before_snap = rng.next_bool(0.4);
    c.disk_roundtrip = rng.next_bool(0.35);
    c.cfg.num_controllers = static_cast<std::size_t>(
        pbt::gen_uint(rng, 1, std::min<std::size_t>(4, c.mix.size())));
    c.attribute = rng.next_bool(0.5);
    return c;
  };
}

std::string print_snap_case(const SnapCase& c) {
  std::ostringstream os;
  os << "scheme=" << core::to_string(c.scheme) << " seed=" << c.phases.seed
     << " prefix=" << c.prefix << " suffix=" << c.suffix
     << " install=" << c.install_scheduler
     << " reset=" << c.reset_before_snap << " disk=" << c.disk_roundtrip
     << " mix={";
  for (const workload::BenchmarkSpec& b : c.mix) os << b.name << " ";
  os << "} ch=" << c.cfg.dram.channels << " ranks=" << c.cfg.dram.ranks
     << " ff=" << c.cfg.fast_forward << " caches=" << c.cfg.core.model_caches
     << " controllers=" << c.cfg.num_controllers
     << " attribute=" << c.attribute;
  return os.str();
}

void install(const SnapCase& c, CmpSystem& sys) {
  for (std::size_t k = 0; k < sys.num_controllers(); ++k) {
    sys.controller(k).replace_scheduler(make_scheduler(
        c.scheme, c.mix.size(), c.params, c.cfg.dstf_row_hit_window));
    sys.controller(k).set_admission_mode(mem::AdmissionMode::PerApp);
  }
}

/// Field-by-field comparison of everything the two systems measured, plus
/// their clocks. Empty string when bit-identical.
std::string compare_systems(const CmpSystem& a, const CmpSystem& b) {
  std::ostringstream os;
  if (a.now() != b.now()) {
    os << "clock diverged: " << a.now() << " vs " << b.now();
    return os.str();
  }
  for (AppId app = 0; app < a.num_apps(); ++app) {
    const mem::AppMemStats& fa = a.controller_for(app).app_stats(app);
    const mem::AppMemStats& fb = b.controller_for(app).app_stats(app);
    if (fa.enqueued != fb.enqueued || fa.served_reads != fb.served_reads ||
        fa.served_writes != fb.served_writes ||
        fa.sum_queue_cycles != fb.sum_queue_cycles) {
      os << "AppMemStats diverge for app " << app << ": enqueued "
         << fa.enqueued << "/" << fb.enqueued << " reads " << fa.served_reads
         << "/" << fb.served_reads << " writes " << fa.served_writes << "/"
         << fb.served_writes << " queue-cycles " << fa.sum_queue_cycles << "/"
         << fb.sum_queue_cycles;
      return os.str();
    }
    const cpu::CoreStats& ca = a.core(app).stats();
    const cpu::CoreStats& cb = b.core(app).stats();
    if (ca.cycles != cb.cycles || ca.instructions != cb.instructions ||
        ca.offchip_reads != cb.offchip_reads ||
        ca.offchip_writes != cb.offchip_writes ||
        ca.rob_stall_cycles != cb.rob_stall_cycles ||
        ca.mem_stall_cycles != cb.mem_stall_cycles ||
        ca.queue_stall_cycles != cb.queue_stall_cycles) {
      os << "CoreStats diverge for app " << app << ": instr "
         << ca.instructions << "/" << cb.instructions << " rob-stall "
         << ca.rob_stall_cycles << "/" << cb.rob_stall_cycles << " mem-stall "
         << ca.mem_stall_cycles << "/" << cb.mem_stall_cycles
         << " queue-stall " << ca.queue_stall_cycles << "/"
         << cb.queue_stall_cycles;
      return os.str();
    }
    const auto cache_diverges = [&](const char* level, const cpu::Cache& xa,
                                    const cpu::Cache& xb) {
      if (xa.hits() == xb.hits() && xa.misses() == xb.misses()) return false;
      os << level << " counters diverge for app " << app << ": hits "
         << xa.hits() << "/" << xb.hits() << " misses " << xa.misses() << "/"
         << xb.misses();
      return true;
    };
    if (cache_diverges("L1", a.core(app).l1(), b.core(app).l1()) ||
        cache_diverges("L2", a.core(app).l2(), b.core(app).l2())) {
      return os.str();
    }
    if (a.interference().interference_cycles(app) !=
        b.interference().interference_cycles(app)) {
      os << "interference cycles diverge for app " << app << ": "
         << a.interference().interference_cycles(app) << "/"
         << b.interference().interference_cycles(app);
      return os.str();
    }
  }
  for (std::size_t k = 0; k < a.num_controllers(); ++k) {
    const dram::DramStats& da = a.controller(k).dram().stats();
    const dram::DramStats& db = b.controller(k).dram().stats();
    if (da.activates != db.activates || da.reads != db.reads ||
        da.writes != db.writes || da.precharges != db.precharges ||
        da.refreshes != db.refreshes ||
        da.data_bus_busy_ticks != db.data_bus_busy_ticks ||
        da.ticks != db.ticks ||
        da.powerdown_rank_ticks != db.powerdown_rank_ticks) {
      os << "DramStats diverge on controller " << k << ": act "
         << da.activates << "/" << db.activates << " rd " << da.reads << "/"
         << db.reads << " wr " << da.writes << "/" << db.writes << " bus "
         << da.data_bus_busy_ticks << "/" << db.data_bus_busy_ticks
         << " ticks " << da.ticks << "/" << db.ticks;
      return os.str();
    }
  }
  const std::vector<double> ia = a.measured_ipc();
  const std::vector<double> ib = b.measured_ipc();
  for (std::size_t i = 0; i < ia.size(); ++i) {
    if (hash_doubles({&ia[i], 1}) != hash_doubles({&ib[i], 1})) {
      os << "IPC diverges for app " << i << ": " << ia[i] << " vs " << ib[i];
      return os.str();
    }
  }
  return {};
}

/// With attribution off, no system of the case may have attributed a cycle.
std::string check_unattributed(
    const SnapCase& c, std::initializer_list<const CmpSystem*> systems) {
  if (c.attribute) return {};
  for (const CmpSystem* sys : systems) {
    for (AppId app = 0; app < sys->num_apps(); ++app) {
      if (sys->interference().interference_cycles(app) != 0) {
        return "interference attributed with attribution off";
      }
    }
  }
  return {};
}

// save -> restore into a fresh system -> continue, against the same system
// running uninterrupted: every stat field and every measured double must be
// bit-identical after the suffix. Covers mid-measure-phase cut points (the
// scheme's scheduler installed, requests in flight), phase-boundary resets,
// both engines, and the on-disk BWPS container.
TEST(SnapshotRoundtrip, RestoredSystemContinuesBitIdentically) {
  const pbt::Result r = pbt::for_all<SnapCase>(
      "snapshot-roundtrip", snap_case_gen(),
      [](const SnapCase& c) -> std::string {
        CmpSystem original(c.cfg, c.mix, c.phases.seed);
        original.set_interference_attribution(c.attribute);
        if (c.install_scheduler) install(c, original);
        original.run(c.prefix);
        if (c.reset_before_snap) original.reset_measurement();

        snap::Writer w;
        original.save_state(w);
        std::vector<std::uint8_t> state = w.take();

        if (c.disk_roundtrip) {
          ProfileSnapshot snap;
          snap.config_fp = config_fingerprint(c.cfg, c.mix, c.phases);
          snap.params = c.params;
          snap.profiled_b = 1.0;
          snap.state = state;
          const std::string path = testing::TempDir() + "snap_roundtrip_" +
                                   std::to_string(c.phases.seed) + ".bwps";
          write_profile_snapshot(path, snap);
          const ProfileSnapshot back = read_profile_snapshot(path);
          std::remove(path.c_str());
          if (back.config_fp != snap.config_fp ||
              back.state != snap.state ||
              hash_doubles({&back.profiled_b, 1}) !=
                  hash_doubles({&snap.profiled_b, 1})) {
            return "on-disk round trip did not reproduce the snapshot";
          }
          state = back.state;
        }

        CmpSystem restored(c.cfg, c.mix, c.phases.seed);
        snap::Reader r2(state);
        restored.restore_state(r2);
        if (!r2.at_end()) return "restore left trailing state bytes";
        restored.set_interference_attribution(c.attribute);
        // The restored system's scheduler was rebuilt from the stream; the
        // suffix must evolve both systems identically.
        original.run(c.suffix);
        restored.run(c.suffix);
        const std::string diff = compare_systems(original, restored);
        if (!diff.empty()) return diff;
        return check_unattributed(c, {&original, &restored});
      },
      {}, nullptr, print_snap_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

// A snapshot taken by the fast-forward engine restores into the reference
// engine and vice versa: the serialized state carries no engine-specific
// bookkeeping (sleep proofs, event memos), so cross-engine restores are
// bit-identical too.
TEST(SnapshotRoundtrip, CrossEngineRestoreIsBitIdentical) {
  const pbt::Result r = pbt::for_all<SnapCase>(
      "snapshot-cross-engine", snap_case_gen(),
      [](const SnapCase& c) -> std::string {
        SystemConfig fast_cfg = c.cfg;
        fast_cfg.fast_forward = true;
        SystemConfig ref_cfg = c.cfg;
        ref_cfg.fast_forward = false;
        CmpSystem fast(fast_cfg, c.mix, c.phases.seed);
        CmpSystem ref(ref_cfg, c.mix, c.phases.seed);
        fast.set_interference_attribution(c.attribute);
        ref.set_interference_attribution(c.attribute);
        if (c.install_scheduler) {
          install(c, fast);
          install(c, ref);
        }
        fast.run(c.prefix);
        ref.run(c.prefix);

        // Swap states across engines.
        snap::Writer wf, wr;
        fast.save_state(wf);
        ref.save_state(wr);
        CmpSystem fast_from_ref(fast_cfg, c.mix, c.phases.seed);
        CmpSystem ref_from_fast(ref_cfg, c.mix, c.phases.seed);
        snap::Reader rf(wr.bytes());
        snap::Reader rr(wf.bytes());
        fast_from_ref.restore_state(rf);
        ref_from_fast.restore_state(rr);
        fast_from_ref.set_interference_attribution(c.attribute);
        ref_from_fast.set_interference_attribution(c.attribute);

        fast.run(c.suffix);
        fast_from_ref.run(c.suffix);
        ref_from_fast.run(c.suffix);
        const std::string d1 = compare_systems(fast, fast_from_ref);
        if (!d1.empty()) return "fast-from-ref: " + d1;
        const std::string d2 = compare_systems(fast, ref_from_fast);
        if (!d2.empty()) return d2;
        return check_unattributed(c,
                                  {&fast, &ref, &fast_from_ref, &ref_from_fast});
      },
      {}, nullptr, print_snap_case);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GE(r.cases_run, 200);
}

// Corruption must surface as snap::SnapshotError naming the problem — a
// truncation at every possible boundary and a flip of any byte both leave
// read_profile_snapshot throwing, never returning garbage or crashing.
TEST(SnapshotRoundtrip, CorruptAndTruncatedFilesFailLoudly) {
  Rng rng(pbt::case_seed(pbt::base_seed(), 4242));
  const std::vector<workload::BenchmarkSpec> mix =
      workload::resolve_mix(workload::paper_mixes()[10]);
  SystemConfig cfg;
  PhaseConfig phases;
  phases.warmup_cycles = 2'000;
  phases.profile_cycles = 10'000;
  phases.measure_cycles = 10'000;
  const Experiment ex(cfg, mix, phases);
  const ProfileSnapshot snap = ex.capture_profile();
  const std::string path = testing::TempDir() + "snap_corrupt.bwps";
  write_profile_snapshot(path, snap);

  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 32u);

  const auto write_variant = [&](const std::vector<char>& data) {
    const std::string vpath = testing::TempDir() + "snap_corrupt_variant.bwps";
    std::ofstream os(vpath, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
    os.close();
    return vpath;
  };

  // 64 random truncation points (plus the empty file).
  for (int t = 0; t < 64; ++t) {
    const std::size_t cut =
        t == 0 ? 0 : pbt::gen_uint(rng, 1, bytes.size() - 1);
    const std::vector<char> truncated(bytes.begin(),
                                      bytes.begin() + static_cast<long>(cut));
    const std::string vpath = write_variant(truncated);
    EXPECT_THROW(read_profile_snapshot(vpath), snap::SnapshotError)
        << "truncated at byte " << cut << " of " << bytes.size();
  }
  // 64 random single-byte flips anywhere in the file — the checksum covers
  // header and payload alike, so every flip must be caught.
  for (int t = 0; t < 64; ++t) {
    const std::size_t at = pbt::gen_uint(rng, 0, bytes.size() - 1);
    std::vector<char> flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
    const std::string vpath = write_variant(flipped);
    EXPECT_THROW(read_profile_snapshot(vpath), snap::SnapshotError)
        << "flipped byte " << at << " of " << bytes.size();
  }
  // Trailing garbage after a valid file.
  std::vector<char> extended = bytes;
  extended.push_back('x');
  EXPECT_THROW(read_profile_snapshot(write_variant(extended)),
               snap::SnapshotError);
  // Missing file.
  EXPECT_THROW(read_profile_snapshot(testing::TempDir() + "does_not_exist"),
               snap::SnapshotError);
  std::remove(path.c_str());
  std::remove((testing::TempDir() + "snap_corrupt_variant.bwps").c_str());
}

// A snapshot written by an older build (every format version below the
// current one) must be rejected by version — loudly, naming both versions
// and why the old one no longer reads — before any payload byte is
// interpreted under the new layout. The test forges old-version files from
// a valid current one (the version field lives at a fixed offset right
// after the magic; the trailing checksum covers it, so it is recomputed the
// same way write_profile_snapshot seals the file). A from-the-future
// version is rejected the same way. The whole drill runs once per shipped
// new DRAM generation plus the DDR2 baseline — the container must
// round-trip and version-reject identically whatever parameter set the
// snapshot was captured under.
TEST(SnapshotRoundtrip, OldFormatVersionRejectedLoudlyAcrossGenerations) {
  const std::vector<workload::BenchmarkSpec> mix =
      workload::resolve_mix(workload::paper_mixes()[0]);
  for (const char* gen :
       {"ddr2_400", "ddr3_1600", "ddr4_2400", "hbm_like"}) {
    SystemConfig cfg;
    cfg.dram = dram::dram_config_for_generation(gen);
    PhaseConfig phases;
    phases.warmup_cycles = 1'000;
    phases.profile_cycles = 5'000;
    phases.measure_cycles = 5'000;
    const Experiment ex(cfg, mix, phases);
    const ProfileSnapshot snap = ex.capture_profile();
    const std::string path =
        testing::TempDir() + "snap_version_" + gen + ".bwps";
    write_profile_snapshot(path, snap);

    // The untampered current-version file round-trips under this
    // generation.
    const ProfileSnapshot back = read_profile_snapshot(path);
    EXPECT_EQ(back.config_fp, snap.config_fp) << gen;
    EXPECT_EQ(back.state, snap.state) << gen;

    const std::vector<std::uint8_t> bytes = read_whole_file(path);
    ASSERT_GT(bytes.size(), 24u);

    const auto with_version = [&](std::uint32_t v) {
      std::vector<std::uint8_t> forged = bytes;
      for (std::size_t i = 0; i < 4; ++i) {
        forged[4 + i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
      const std::uint64_t sum =
          hash_bytes(forged.data(), forged.size() - 8);
      for (std::size_t i = 0; i < 8; ++i) {
        forged[forged.size() - 8 + i] =
            static_cast<std::uint8_t>(sum >> (8 * i));
      }
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(reinterpret_cast<const char*>(forged.data()),
               static_cast<std::streamsize>(forged.size()));
    };

    const std::string current =
        "version " + std::to_string(kSnapshotFormatVersion);
    for (std::uint32_t v = 1; v < kSnapshotFormatVersion; ++v) {
      with_version(v);
      try {
        (void)read_profile_snapshot(path);
        ADD_FAILURE() << "v" << v << " snapshot was accepted under " << gen;
      } catch (const snap::SnapshotError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("version " + std::to_string(v) + " "),
                  std::string::npos) << what;
        EXPECT_NE(what.find(current), std::string::npos) << what;
        // Every retired version carries its own rationale.
        EXPECT_NE(what.find("v" + std::to_string(v) + " "), std::string::npos)
            << what;
      }
    }
    with_version(99);
    EXPECT_THROW(read_profile_snapshot(path), snap::SnapshotError);
    std::remove(path.c_str());
  }
}

// Restoring into a mismatched system (different app count) or a mismatched
// experiment (different config fingerprint) fails loudly, not silently.
TEST(SnapshotRoundtrip, MismatchedTargetsAreRejected) {
  const std::vector<workload::BenchmarkSpec> mix2 =
      workload::resolve_mix(workload::paper_mixes()[0]);
  SystemConfig cfg;
  PhaseConfig phases;
  phases.warmup_cycles = 1'000;
  phases.profile_cycles = 5'000;
  phases.measure_cycles = 5'000;

  CmpSystem small(cfg, std::span(mix2).first(2), phases.seed);
  small.run(2'000);
  snap::Writer w;
  small.save_state(w);
  CmpSystem big(cfg, mix2, phases.seed);
  snap::Reader r(w.bytes());
  EXPECT_THROW(big.restore_state(r), snap::SnapshotError);

  const Experiment ex(cfg, mix2, phases);
  ProfileSnapshot snap = ex.capture_profile();
  snap.config_fp ^= 1;  // any config difference changes the fingerprint
  EXPECT_THROW((void)ex.measure_from(snap, core::Scheme::Equal),
               snap::SnapshotError);
}

// ---------------------------------------------------------------------------
// Pinned streams: the exact bytes every serialized record writes. Each
// stream is named by its FNV-1a hash and length, so a change to any
// record's field list or encoding fails here, however well it round-trips.
// Each stream is also read back and written again, which must reproduce
// it byte for byte: that pins the read side of every field too (enum
// bounds included, so the systems cover every scheduler and both
// admission modes).
// The values depend on libm, as the golden corpora do
// (tests/golden/README.md). A BWPART_CHECK=OFF build writes no
// protocol-checker section, so its system streams pin their own values.

struct StreamId {
  std::uint64_t hash = 0;
  std::uint64_t size = 0;
  bool operator==(const StreamId&) const = default;
};

StreamId stream_id(std::span<const std::uint8_t> bytes) {
  return {hash_bytes(bytes.data(), bytes.size()), bytes.size()};
}

/// Modelled caches, two ranks with power-down, two controllers: every
/// optional part of the system stream is present.
SystemConfig pinned_machine() {
  SystemConfig cfg;
  cfg.core.model_caches = true;
  cfg.dram.ranks = 2;
  cfg.dram.enable_powerdown = true;
  cfg.num_controllers = 2;
  return cfg;
}

std::vector<workload::BenchmarkSpec> pinned_mix() {
  return workload::resolve_mix(workload::paper_mixes()[7]);
}

/// A system under `policy` and `mode` with write drain on, whose app 3 went
/// dormant mid-run. (On the heap: the system's callbacks capture `this`.)
std::unique_ptr<CmpSystem> pinned_system(const std::string& policy,
                                         mem::AdmissionMode mode) {
  const std::vector<workload::BenchmarkSpec> mix = pinned_mix();
  auto owned = std::make_unique<CmpSystem>(pinned_machine(), mix, 42);
  CmpSystem& sys = *owned;
  const std::vector<double> shares = {0.5, 0.25, 0.125, 0.125};
  const std::vector<std::uint32_t> ranks = {2, 0, 3, 1};
  for (std::size_t k = 0; k < sys.num_controllers(); ++k) {
    std::unique_ptr<mem::Scheduler> sched =
        mem::make_scheduler_by_name(policy, mix.size());
    sched->set_shares(shares);
    sched->set_priority_ranks(ranks);
    mem::MemoryController& mc = sys.controller(k);
    mc.replace_scheduler(std::move(sched));
    mc.set_admission_mode(mode);
    mc.set_write_drain({true, 6, 2});
  }
  sys.run(6'000);
  sys.set_app_live(3, false);
  sys.run(14'000);
  return owned;
}

std::vector<std::uint8_t> system_blob(const CmpSystem& sys) {
  snap::Writer w;
  sys.save_state(w);
  return w.take();
}

const char* const kPolicies[] = {"FCFS",        "FR-FCFS", "PAR-BS",
                                 "StartTimeFair", "ClassicDSTF", "STFM",
                                 "ATLAS",       "TCM",     "StrictPriority"};

/// Arrivals, departures and phase changes all applied, re-solves run.
ChurnSchedule pinned_schedule() {
  ChurnSchedule s;
  PhaseKnobs knobs;
  knobs.api = 0.0123;
  knobs.write_fraction = 0.375;
  knobs.seq_run_lines = 3;
  s.dormant(3).arrive(6'000, 3).depart(12'000, 1).phase(18'000, 0, knobs);
  return s;
}

PhaseConfig pinned_phases() {
  PhaseConfig phases;
  phases.warmup_cycles = 2'000;
  phases.profile_cycles = 10'000;
  phases.measure_cycles = 40'000;
  return phases;
}

ChurnRunConfig pinned_churn_config() {
  ChurnRunConfig cc;
  cc.scheme = core::Scheme::SquareRoot;
  cc.reprofile_window = 3'000;
  cc.eval_epoch = 5'000;
  return cc;
}

shard::UnitResult pinned_unit_result() {
  shard::UnitResult u;
  u.key = "0123456789abcdef-Square_root";
  u.config_fp = 0x0123456789abcdefULL;
  u.dram_gen = "ddr3_1600";
  RunResult& r = u.result;
  r.scheme = core::Scheme::SquareRoot;
  r.params = {{0.0125, 0.004}, {0.03, 0.0091}, {0.0075, 0.0023}};
  r.ipc_shared = {1.25, 0.5, 2.0};
  r.apc_shared = {0.01, 0.02, 0.005};
  r.total_apc = 0.035;
  r.bus_utilization = 0.71875;
  r.hsp = 0.625;
  r.wsp = 2.375;
  r.ipcsum = 3.75;
  r.min_fairness = 0.4375;
  u.fingerprint = fingerprint(r);
  return u;
}

TEST(SnapshotRoundtrip, StreamBytesArePinned) {
  struct Pinned {
    std::string name;
    StreamId on;   // BWPART_CHECK build
    StreamId off;  // BWPART_CHECK=OFF build
  };
  const std::vector<Pinned> pinned = {
      {"system/FCFS/shared",
       {0x4e7d2e5cd4d0ee16ULL, 340050}, {0xc42bd4a8a49ab959ULL, 337932}},
      {"system/FCFS/per-app",
       {0x02cf8221391750d0ULL, 340050}, {0xc4371a3178a9d511ULL, 337932}},
      {"system/FR-FCFS/shared",
       {0x4daa040c5c4a4f67ULL, 340090}, {0xddfc9ea47601ed1cULL, 337972}},
      {"system/FR-FCFS/per-app",
       {0x2ce206733a4bfb91ULL, 340090}, {0x5641adc381cf41d4ULL, 337972}},
      {"system/PAR-BS/shared",
       {0xfa951d310ff05992ULL, 340225}, {0xbb35e3f9141f8df3ULL, 338107}},
      {"system/PAR-BS/per-app",
       {0xc7e961fa3d8ce3b4ULL, 340225}, {0xb9d7790fb882c9dfULL, 338107}},
      {"system/StartTimeFair/shared",
       {0xd6ba0fcf38e6ba78ULL, 340187}, {0xc63f856ba3ba9735ULL, 338069}},
      {"system/StartTimeFair/per-app",
       {0x5d255fdacae82f54ULL, 340187}, {0xf94d48c63cdf198fULL, 338069}},
      {"system/ClassicDSTF/shared",
       {0xc0e9fea7ee7c5411ULL, 340315}, {0x4be291736800cff8ULL, 338197}},
      {"system/ClassicDSTF/per-app",
       {0x4dc1c8a99fa0f241ULL, 340315}, {0xb10045160792292eULL, 338197}},
      {"system/STFM/shared",
       {0x8ae9133d3eeb9971ULL, 340146}, {0x3dbd055dcffce200ULL, 338028}},
      {"system/STFM/per-app",
       {0x1342a3fd7a9879cfULL, 340146}, {0xe982e4bf0b48d894ULL, 338028}},
      {"system/ATLAS/shared",
       {0x11c857aa3eb76a0dULL, 340255}, {0x1eccdb8b285fca78ULL, 338137}},
      {"system/ATLAS/per-app",
       {0xb4d2d33410554d69ULL, 340255}, {0x017c1f16debd5d42ULL, 338137}},
      {"system/TCM/shared",
       {0xc51921508b0697c6ULL, 340152}, {0x5c8f007b729be20fULL, 338034}},
      {"system/TCM/per-app",
       {0x9710adf8ff2c4d8eULL, 340152}, {0x033255857293a041ULL, 338034}},
      {"system/StrictPriority/shared",
       {0x58e6b70ba21b95c9ULL, 340168}, {0x1cc781b3f260a26fULL, 338050}},
      {"system/StrictPriority/per-app",
       {0x224a065fa50b9cc7ULL, 340168}, {0x67adb058ead177a3ULL, 338050}},
      {"churn-engine",
       {0x88d02f82c32fb0aaULL, 660}, {0x88d02f82c32fb0aaULL, 660}},
      {"bwrr",
       {0x24ce9b93103ebe02ULL, 272}, {0x24ce9b93103ebe02ULL, 272}},
      {"bwps",
       {0x02e73e2a2290bd4aULL, 339653}, {0xdd4c9fea54fab650ULL, 337535}},
  };
  std::vector<std::pair<std::string, StreamId>> got;
  for (const char* policy : kPolicies) {
    for (const mem::AdmissionMode mode :
         {mem::AdmissionMode::Shared, mem::AdmissionMode::PerApp}) {
      const std::string name =
          std::string("system/") + policy +
          (mode == mem::AdmissionMode::Shared ? "/shared" : "/per-app");
      const std::vector<std::uint8_t> blob =
          system_blob(*pinned_system(policy, mode));
      CmpSystem back(pinned_machine(), pinned_mix(), 42);
      snap::Reader r(blob);
      back.restore_state(r);
      EXPECT_TRUE(r.at_end()) << name;
      EXPECT_TRUE(system_blob(back) == blob) << name << " changed on restore";
      got.emplace_back(name, stream_id(blob));
    }
  }

  const SystemConfig cfg = pinned_machine();
  const std::vector<workload::BenchmarkSpec> mix = pinned_mix();
  const PhaseConfig phases = pinned_phases();
  const Experiment ex(cfg, mix, phases);
  const ProfileSnapshot profile = ex.capture_profile();
  {
    const ChurnSchedule schedule = pinned_schedule();
    CmpSystem sys(cfg, mix, phases.seed);
    snap::Reader pr(profile.state);
    sys.restore_state(pr);
    ChurnEngine engine(sys, schedule, pinned_churn_config(),
                       phases.measure_cycles, profile.params,
                       profile.profiled_b, cfg.dstf_row_hit_window);
    engine.start();
    const Cycle cut = sys.now() + 25'000;
    while (sys.now() < cut && engine.step()) {
    }
    snap::Writer w;
    engine.save_state(w);
    ChurnEngine back(sys, schedule, pinned_churn_config(),
                     phases.measure_cycles, profile.params,
                     profile.profiled_b, cfg.dstf_row_hit_window);
    snap::Reader r(w.bytes());
    back.restore_state(r);
    snap::Writer again;
    back.save_state(again);
    EXPECT_TRUE(again.bytes() == w.bytes()) << "churn cursor changed";
    got.emplace_back("churn-engine", stream_id(w.bytes()));
  }
  const std::vector<std::uint8_t> shard_bytes =
      shard::encode_result_shard(pinned_unit_result());
  EXPECT_TRUE(shard::encode_result_shard(shard::decode_result_shard(
                  shard_bytes)) == shard_bytes);
  got.emplace_back("bwrr", stream_id(shard_bytes));
  const std::string path = testing::TempDir() + "snap_pinned.bwps";
  write_profile_snapshot(path, profile);
  const std::vector<std::uint8_t> file = read_whole_file(path);
  write_profile_snapshot(path, read_profile_snapshot(path));
  EXPECT_TRUE(read_whole_file(path) == file);
  got.emplace_back("bwps", stream_id(file));
  std::remove(path.c_str());

  std::ostringstream table;
  table << std::hex;
  bool all = got.size() == pinned.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const StreamId want = i < pinned.size()
                              ? (check::kEnabled ? pinned[i].on : pinned[i].off)
                              : StreamId{};
    const bool ok = i < pinned.size() && pinned[i].name == got[i].first &&
                    want == got[i].second;
    all = all && ok;
    table << (ok ? "   " : "!! ") << got[i].first << " 0x" << got[i].second.hash
          << " " << std::dec << got[i].second.size << std::hex << "\n";
  }
  EXPECT_TRUE(all) << "streams changed (the build's hash and length):\n"
                   << table.str();
}

// ---------------------------------------------------------------------------
// Forged counts and indices: streams whose checksum (where they carry one)
// is intact but whose fields lie. Each must fail as SnapshotError before
// anything is allocated from the count or indexed by the field.

void put_le(std::vector<std::uint8_t>& bytes, std::size_t at,
            std::uint64_t value, std::size_t width) {
  ASSERT_LE(at + width, bytes.size());
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// Recomputes the trailing FNV-1a checksum of a BWPS file or BWRR shard.
void reseal(std::vector<std::uint8_t>& bytes) {
  put_le(bytes, bytes.size() - 8, hash_bytes(bytes.data(), bytes.size() - 8),
         8);
}

/// Where the first controller's index fields sit in a system blob (the
/// offset of each list's count, or of the first element of each
/// configuration-sized vector).
struct ControllerLayout {
  std::size_t first_request_app = 0;
  std::size_t first_pending_count = 0;
  std::size_t inflight_count = 0;
  std::size_t bank_last_user = 0;
  std::size_t bus_user = 0;
  std::size_t oldest_pending = 0;
};

ControllerLayout controller_layout(const std::vector<std::uint8_t>& blob) {
  // A pooled request: id, app, addr, type, channel, rank, bank, row,
  // column, arrival cpu/tick, start tag, in-flight flag, data finish.
  constexpr std::size_t kRequestBytes =
      8 + 4 + 8 + 1 + 4 + 4 + 4 + 8 + 4 + 8 + 8 + 8 + 1 + 8;
  const std::uint8_t tag[] = {'C', 'T', 'R', 'L'};
  const std::size_t base = static_cast<std::size_t>(
      std::search(blob.begin(), blob.end(), std::begin(tag), std::end(tag)) -
      blob.begin());
  snap::Reader r(std::span<const std::uint8_t>(blob).subspan(base));
  const auto at = [&] { return base + r.position(); };
  const auto skip_list = [&](std::size_t elem) { r.skip(r.u64() * elem); };
  ControllerLayout l;
  r.expect_tag("CTRL");
  r.skip(1 + 1 + 8 + 8 + 1 + 8 + 8);  // admission, write drain, pending
  const std::uint64_t pool = r.u64();
  l.first_request_app = at() + 8;
  r.skip(pool * kRequestBytes);
  skip_list(4);  // free list
  const std::uint64_t channels = r.u64();
  l.first_pending_count = at();
  for (std::uint64_t c = 0; c < channels; ++c) skip_list(4);
  l.inflight_count = at();
  skip_list(4);
  r.skip(8 + 8);  // active count, next completion
  skip_list(4);   // rank pending
  skip_list(8);   // per-app count
  skip_list(32);  // per-app stats
  l.bank_last_user = at() + 8;
  skip_list(4);
  l.bus_user = at() + 8;
  skip_list(4);
  skip_list(8);  // bus busy until
  r.skip(8 + 8 + 8 + 1 + 1);
  l.oldest_pending = at() + 8;
  return l;
}

std::uint64_t get_le(const std::vector<std::uint8_t>& bytes, std::size_t at,
                     std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
  }
  return v;
}

TEST(SnapshotRoundtrip, ForgedControllerCountsAndIndicesFailLoudly) {
  // Step to a cycle with requests both pending and in flight, so each
  // forged slot lands in a list that holds one.
  const std::unique_ptr<CmpSystem> sys =
      pinned_system("FR-FCFS", mem::AdmissionMode::PerApp);
  std::vector<std::uint8_t> blob = system_blob(*sys);
  ControllerLayout l = controller_layout(blob);
  for (int i = 0; i < 1'000 && (get_le(blob, l.first_pending_count, 8) == 0 ||
                                get_le(blob, l.inflight_count, 8) == 0);
       ++i) {
    sys->run(1);
    blob = system_blob(*sys);
    l = controller_layout(blob);
  }
  ASSERT_GT(get_le(blob, l.first_pending_count, 8), 0u);
  ASSERT_GT(get_le(blob, l.inflight_count, 8), 0u);
  const auto restores = [](const std::vector<std::uint8_t>& bytes) {
    CmpSystem target(pinned_machine(), pinned_mix(), 42);
    snap::Reader r(bytes);
    target.restore_state(r);
    return r.at_end();
  };
  ASSERT_TRUE(restores(blob));

  struct Forgery {
    const char* what;
    std::size_t at;
    std::uint64_t value;
    std::size_t width;
  };
  const Forgery forged[] = {
      {"pending-queue count 2^61", l.first_pending_count, 1ULL << 61, 8},
      {"pending slot 1000", l.first_pending_count + 8, 1000, 4},
      {"in-flight count 2^62", l.inflight_count, 1ULL << 62, 8},
      {"in-flight slot 1000", l.inflight_count + 8, 1000, 4},
      {"request owner 7 of 4 apps", l.first_request_app, 7, 4},
      {"bank last user 4 of 4 apps", l.bank_last_user, 4, 4},
      {"bus user 9 of 4 apps", l.bus_user, 9, 4},
      {"oldest pending slot 500", l.oldest_pending, 500, 4},
  };
  for (const Forgery& f : forged) {
    std::vector<std::uint8_t> bytes = blob;
    put_le(bytes, f.at, f.value, f.width);
    EXPECT_THROW(restores(bytes), snap::SnapshotError) << f.what;
  }
}

TEST(SnapshotRoundtrip, ForgedContainerCountsFailLoudly) {
  // A BWRR shard whose params count reads 2^60, checksum resealed.
  std::vector<std::uint8_t> shard_bytes =
      shard::encode_result_shard(pinned_unit_result());
  {
    snap::Reader r(shard_bytes);
    r.expect_tag("BWRR");
    (void)r.u32();  // version
    (void)r.str();  // key
    (void)r.u64();  // config fingerprint
    (void)r.str();  // DRAM generation
    (void)r.str();  // scheme
    put_le(shard_bytes, r.position(), 1ULL << 60, 8);
  }
  reseal(shard_bytes);
  EXPECT_THROW(shard::decode_result_shard(shard_bytes), snap::SnapshotError);

  // A BWPS file whose params count (the first payload field, after magic,
  // version, config fingerprint and payload length) reads 2^60.
  const Experiment ex(pinned_machine(), pinned_mix(), pinned_phases());
  const std::string path = testing::TempDir() + "snap_forged_count.bwps";
  write_profile_snapshot(path, ex.capture_profile());
  std::vector<std::uint8_t> file = read_whole_file(path);
  put_le(file, 24, 1ULL << 60, 8);
  reseal(file);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(file.data()),
             static_cast<std::streamsize>(file.size()));
  }
  EXPECT_THROW(read_profile_snapshot(path), snap::SnapshotError);
  std::remove(path.c_str());
}

/// Byte edits to a file body: (offset, new byte) pairs, applied in order.
using ByteEdits = std::vector<std::pair<std::size_t, std::uint8_t>>;

/// 1-8 edits at offsets in [lo, hi].
pbt::GenFn<ByteEdits> byte_edits_gen(std::size_t lo, std::size_t hi) {
  return [lo, hi](Rng& rng) {
    ByteEdits edits(pbt::gen_uint(rng, 1, 8));
    for (auto& [at, byte] : edits) {
      at = pbt::gen_uint(rng, lo, hi);
      // Saturated bytes forge huge counts and lengths more often.
      byte = rng.next_bool(0.25)
                 ? std::uint8_t{0xff}
                 : static_cast<std::uint8_t>(rng.next_below(256));
    }
    return edits;
  };
}

std::vector<ByteEdits> fewer_edits(const ByteEdits& edits) {
  std::vector<ByteEdits> fewer;
  for (std::size_t i = 0; edits.size() > 1 && i < edits.size(); ++i) {
    ByteEdits e = edits;
    e.erase(e.begin() + static_cast<std::ptrdiff_t>(i));
    fewer.push_back(std::move(e));
  }
  return fewer;
}

std::string print_edits(const ByteEdits& edits) {
  std::ostringstream os;
  for (const auto& [at, byte] : edits) {
    os << at << "=0x" << std::hex << int{byte} << std::dec << ' ';
  }
  return os.str();
}

/// `valid` with `edits` applied and its checksum resealed.
std::vector<std::uint8_t> edited(std::vector<std::uint8_t> valid,
                                 const ByteEdits& edits) {
  for (const auto& [at, byte] : edits) valid[at] = byte;
  reseal(valid);
  return valid;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

// A valid BWRR shard with 1-8 random byte edits, checksum resealed, either
// decodes or fails with snap::SnapshotError: never another exception, an
// abort or a sanitizer report (the sanitizer CI job runs this suite). A
// shard that decodes must re-encode to the same bytes.
TEST(SnapshotRoundtrip, EditedResultShardsDecodeOrFailLoudly) {
  const std::vector<std::uint8_t> valid =
      shard::encode_result_shard(pinned_unit_result());
  const std::size_t body = valid.size() - 8;  // reseal() rewrites the rest
  int decoded = 0;
  int rejected = 0;
  const pbt::Config cfg{pbt::base_seed(), 2'000, 100};
  const pbt::Result r = pbt::for_all<ByteEdits>(
      "edited BWRR shards decode or fail loudly", byte_edits_gen(0, body - 1),
      [&](const ByteEdits& edits) -> std::string {
        const std::vector<std::uint8_t> bytes = edited(valid, edits);
        try {
          const shard::UnitResult u = shard::decode_result_shard(bytes);
          ++decoded;
          if (shard::encode_result_shard(u) != bytes) {
            return "a decoded shard re-encodes to different bytes";
          }
        } catch (const snap::SnapshotError&) {
          ++rejected;
        } catch (const std::exception& e) {
          return std::string("decode threw a non-SnapshotError: ") + e.what();
        }
        return {};
      },
      cfg, fewer_edits, print_edits);
  EXPECT_TRUE(r.ok) << r.report();
  // Both outcomes occur, so the property is not vacuous either way.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// The bwpart_sim --resume path under hostile bytes: a valid BWPS file of the
// pinned machine with 1-8 random byte edits in its payload, checksum
// resealed, is read and restored into a fresh system the way
// Experiment::restore_into() does. Each file either restores or fails with
// snap::SnapshotError: never another exception, an abort or a sanitizer
// report. A restored system must save back to the same state bytes (the
// rest of the payload is copied verbatim), then run 20,000 cycles without
// an invariant or DRAM-protocol violation: an edit the restore accepts
// must not surface later as an abort of the resumed run.
TEST(SnapshotRoundtrip, EditedProfileSnapshotsRestoreOrFailLoudly) {
  const PhaseConfig phases = pinned_phases();
  const Experiment ex(pinned_machine(), pinned_mix(), phases);
  const std::string path = testing::TempDir() + "snap_edited.bwps";
  write_profile_snapshot(path, ex.capture_profile());
  const std::vector<std::uint8_t> valid = read_whole_file(path);
  // Magic, version, config fingerprint and payload length precede the
  // payload; the checksum follows it.
  constexpr std::size_t kHeader = 4 + 4 + 8 + 8;
  int restored = 0;
  int rejected = 0;
  check::Recorder rec;
  const pbt::Property<ByteEdits> restores_or_fails =
      [&](const ByteEdits& edits) -> std::string {
        const std::vector<std::uint8_t> bytes = edited(valid, edits);
        write_file(path, bytes);
        try {
          ProfileSnapshot s = read_profile_snapshot(path);
          snap::require(s.config_fp == ex.config_fingerprint(),
                        "snapshot was captured under a different "
                        "configuration");
          CmpSystem sys(pinned_machine(), pinned_mix(), phases.seed);
          snap::Reader in(s.state);
          sys.restore_state(in);
          snap::require(in.at_end(),
                        "trailing bytes after the system state blob");
          ++restored;
          if (system_blob(sys) != s.state) {
            return "a restored system saves back to different bytes";
          }
          rec.clear();
          sys.run(20'000);
          if (rec.count() != 0) {
            return "the resumed run broke an invariant: " +
                   rec.violations().front().what;
          }
        } catch (const snap::SnapshotError&) {
          ++rejected;
        } catch (const std::exception& e) {
          return std::string("restore threw a non-SnapshotError: ") +
                 e.what();
        }
        return {};
      };
  // A one-byte edit inside the first controller's protocol-checker section
  // (of a BWPART_CHECK build's file) that the restore once accepted; the
  // resumed run then flagged tFAW.
  EXPECT_EQ(restores_or_fails({{336'294, 0xff}}), "");
  const pbt::Config cfg{pbt::base_seed(), 150, 100};
  const pbt::Result r = pbt::for_all<ByteEdits>(
      "edited BWPS files restore or fail loudly",
      byte_edits_gen(kHeader, valid.size() - 9), restores_or_fails, cfg,
      fewer_edits, print_edits);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_GT(restored, 0);
  EXPECT_GT(rejected, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bwpart::harness
