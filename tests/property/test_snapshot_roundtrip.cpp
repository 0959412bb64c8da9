// Snapshot round-trip properties: CmpSystem::save_state / restore_state
// must be lossless — a system restored into a fresh instance continues
// bit-identically to the uninterrupted original, for random machines,
// mixes, schedulers, cut points (including mid-measure-phase, with requests
// in flight) and engines, through memory and through the on-disk "BWPS"
// container, with interference attribution on or off. Corrupt or truncated
// files must fail with snap::SnapshotError, never undefined behavior.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/pbt.hpp"
#include "dram/config.hpp"
#include "harness/differential.hpp"
#include "harness/experiment.hpp"
#include "harness/generators.hpp"
#include "harness/snapshot.hpp"
#include "harness/system.hpp"
#include "mem/controller.hpp"
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
    c.mix = gen::mix(rng, 2, 4);
    c.params = gen::workload(rng, c.mix.size(), c.mix.size());
    c.phases = gen::phase_config(rng);
    c.scheme = gen::scheme(rng);
    c.prefix = pbt::gen_uint(rng, 2'000, 40'000);
    c.suffix = pbt::gen_uint(rng, 2'000, 40'000);
    c.install_scheduler = rng.next_bool(0.6);
    c.reset_before_snap = rng.next_bool(0.4);
    c.disk_roundtrip = rng.next_bool(0.35);
    c.cfg.num_controllers = static_cast<std::size_t>(
        pbt::gen_uint(rng, 1, std::min<std::size_t>(2, c.mix.size())));
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

}  // namespace
}  // namespace bwpart::harness
