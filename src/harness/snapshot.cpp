#include "harness/snapshot.hpp"

#include <fstream>
#include <string>

#include "harness/differential.hpp"
#include "harness/experiment.hpp"

namespace bwpart::harness {

namespace {

constexpr char kMagic[4] = {'B', 'W', 'P', 'S'};
// kSnapshotFormatVersion history.
// v2: the DRAM hot-path overhaul moved controller queues into pooled SoA
// storage and the DRAM system onto cached next-legal-tick state, changing
// the serialized system-state layout. v1 files decode into garbage under
// the new layout, so they are rejected by version before any payload byte
// is interpreted.
// v3: the multi-controller scale-out generalization serializes a
// controller count plus one controller blob per controller (and
// SystemConfig::num_controllers joined the config fingerprint), so v2
// payloads no longer decode; same loud rejection.
// v4: the DRAM-generation registry added the generation name and the
// posted-CAS additive latency (tAL) to the config fingerprint, so a v3
// fingerprint no longer identifies the configuration it was captured
// under; same loud rejection.
// v5: the churn engine serializes per-app liveness and tenancy clocks in
// the system blob, per-app liveness in each controller blob, and the
// phase-changeable generator knobs in each trace blob (a churn schedule
// mutates them mid-run), so v4 payloads no longer decode; same loud
// rejection.
// v6: a private cache that was never accessed serializes as zero lines
// instead of sets x ways all-invalid lines. A v5 build would reject such a
// cache section as a geometry mismatch, so the bump makes an older build
// name the real cause. (This build could decode a v5 payload, but like
// every bump before it, it reads its own version only.)
// v7: the core's fetch budget is an integer count of 1/100 instruction (a
// u32, not an f64), the always-zero retire budget is gone, and the system
// blob no longer carries the engine's skipped-cycle counter, so v6
// payloads no longer decode; same loud rejection.

std::uint64_t hash_u64(std::uint64_t v, std::uint64_t h) {
  return hash_bytes(&v, sizeof(v), h);
}

std::uint64_t hash_u32(std::uint32_t v, std::uint64_t h) {
  return hash_u64(v, h);
}

std::uint64_t hash_f64(double v, std::uint64_t h) {
  return hash_doubles(std::span<const double>(&v, 1), h);
}

std::uint64_t hash_bool(bool v, std::uint64_t h) {
  return hash_u64(static_cast<std::uint64_t>(v), h);
}

std::uint64_t hash_str(std::string_view s, std::uint64_t h) {
  h = hash_u64(s.size(), h);
  return hash_bytes(s.data(), s.size(), h);
}

}  // namespace

std::uint64_t config_fingerprint(const SystemConfig& cfg,
                                 std::span<const workload::BenchmarkSpec> apps,
                                 const PhaseConfig& phases) {
  // Every field that influences simulation results is folded in, one by one
  // (never memcpy of whole structs — padding bytes are indeterminate). The
  // fast_forward flag is deliberately excluded: snapshots are
  // engine-independent, and cross-engine restores must be accepted.
  std::uint64_t h = hash_u64(cfg.cpu_clock.hz, 0xcbf29ce484222325ULL);

  const dram::DramConfig& d = cfg.dram;
  h = hash_str(d.generation, h);
  h = hash_u64(d.bus_clock.hz, h);
  h = hash_u32(d.bus_bytes, h);
  h = hash_u32(d.burst_beats, h);
  h = hash_u32(d.channels, h);
  h = hash_u32(d.ranks, h);
  h = hash_u32(d.banks_per_rank, h);
  h = hash_u64(d.rows_per_bank, h);
  h = hash_u32(d.columns_per_row, h);
  h = hash_u64(static_cast<std::uint64_t>(d.page_policy), h);
  h = hash_f64(d.t.trp, h);
  h = hash_f64(d.t.trcd, h);
  h = hash_f64(d.t.tcl, h);
  h = hash_f64(d.t.tcwl, h);
  h = hash_f64(d.t.tras, h);
  h = hash_f64(d.t.twr, h);
  h = hash_f64(d.t.twtr, h);
  h = hash_f64(d.t.trtp, h);
  h = hash_f64(d.t.tccd, h);
  h = hash_f64(d.t.trrd, h);
  h = hash_f64(d.t.tfaw, h);
  h = hash_f64(d.t.trfc, h);
  h = hash_f64(d.t.trefi, h);
  h = hash_f64(d.t.trtrs, h);
  h = hash_f64(d.t.txp, h);
  h = hash_f64(d.t.tal, h);
  h = hash_bool(d.enable_refresh, h);
  h = hash_bool(d.enable_powerdown, h);
  h = hash_f64(d.powerdown_idle_ns, h);

  const cpu::CoreConfig& c = cfg.core;
  h = hash_u32(c.rob_size, h);
  h = hash_u32(c.issue_width, h);
  h = hash_u32(c.nonmem_ipc_x100, h);
  h = hash_u32(c.mshrs, h);
  h = hash_u32(c.store_buffer, h);
  h = hash_u64(c.l1_latency, h);
  h = hash_u64(c.l2_latency, h);
  h = hash_bool(c.model_caches, h);
  h = hash_u32(c.l1.size_bytes, h);
  h = hash_u32(c.l1.line_bytes, h);
  h = hash_u32(c.l1.ways, h);
  h = hash_u32(c.l2.size_bytes, h);
  h = hash_u32(c.l2.line_bytes, h);
  h = hash_u32(c.l2.ways, h);

  h = hash_u64(cfg.queue_capacity_per_app, h);
  h = hash_u64(cfg.queue_capacity_shared, h);
  h = hash_f64(cfg.dstf_row_hit_window, h);
  h = hash_u64(cfg.num_controllers, h);

  h = hash_u64(apps.size(), h);
  for (const workload::BenchmarkSpec& b : apps) {
    h = hash_str(b.name, h);
    h = hash_bool(b.is_fp, h);
    h = hash_f64(b.paper_apkc, h);
    h = hash_f64(b.paper_apki, h);
    h = hash_f64(b.api, h);
    h = hash_f64(b.mean_cluster, h);
    h = hash_u32(cpu::ipc_x100(b.nonmem_ipc), h);
    h = hash_f64(b.write_fraction, h);
    h = hash_u64(b.seq_run_lines, h);
    h = hash_f64(b.dependent_fraction, h);
  }

  h = hash_u64(phases.warmup_cycles, h);
  h = hash_u64(phases.profile_cycles, h);
  h = hash_u64(phases.measure_cycles, h);
  h = hash_bool(phases.oracle_alone, h);
  h = hash_u64(phases.reprofile_period, h);
  h = hash_u64(phases.seed, h);
  return h;
}

namespace {

/// The payload (everything the checksum and length prefix cover beyond the
/// fixed header): params, profiled B, system state blob.
void transfer_payload(snap::Io& io, ProfileSnapshot& s) {
  io.list(s.params, kAppParamsBytes,
          [&io](core::AppParams& p) { transfer(io, p); });
  io.f64(s.profiled_b);
  io.bytes(s.state);
}

}  // namespace

void write_profile_snapshot(const std::string& path,
                            const ProfileSnapshot& snapshot) {
  snap::Writer pw;
  snap::Io pio(pw);
  transfer_payload(pio, const_cast<ProfileSnapshot&>(snapshot));  // no store
  const std::vector<std::uint8_t> payload = pw.take();

  snap::Writer w;
  for (const char m : kMagic) w.u8(static_cast<std::uint8_t>(m));
  w.u32(kSnapshotFormatVersion);
  w.u64(snapshot.config_fp);
  w.u64(payload.size());
  w.blob(payload);
  // The checksum covers everything before it (magic through payload), so a
  // flipped bit anywhere in the file — header included — fails the read.
  const std::span<const std::uint8_t> body = w.bytes();
  w.u64(hash_bytes(body.data(), body.size()));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  snap::require(out.good(), "cannot open snapshot file for writing");
  const std::span<const std::uint8_t> all = w.bytes();
  out.write(reinterpret_cast<const char*>(all.data()),
            static_cast<std::streamsize>(all.size()));
  out.flush();
  snap::require(out.good(), "write to snapshot file failed");
}

std::vector<std::uint8_t> read_whole_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.tellg();  // -1 when the open failed
  if (!in.good() || size < 0) {
    throw snap::SnapshotError("cannot open '" + path.string() +
                              "' for reading");
  }
  in.seekg(0);
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(raw.data()), size);
  if (in.gcount() != size) {
    throw snap::SnapshotError("read from '" + path.string() +
                              "' ended before its " + std::to_string(size) +
                              " bytes");
  }
  return raw;
}

ProfileSnapshot read_profile_snapshot(const std::string& path) {
  const std::vector<std::uint8_t> raw = read_whole_file(path);
  snap::Reader r(raw);
  for (const char m : kMagic) {
    snap::require(r.u8() == static_cast<std::uint8_t>(m),
                  "not a BWPS snapshot file (bad magic)");
  }
  const std::uint32_t version = r.u32();
  if (version != kSnapshotFormatVersion) {
    throw snap::SnapshotError(
        "unsupported BWPS snapshot format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kSnapshotFormatVersion) +
        "; v1 predates the SoA DRAM/controller state layout, v2 the "
        "multi-controller system layout, v3 the DRAM-generation "
        "registry's config fingerprint, v4 the churn engine's "
        "liveness/tenancy state, v5 zero-line snapshots of private "
        "caches that were never accessed, and v6 integer fetch budgets "
        "(it holds floating-point fetch and retire budgets and the "
        "skipped-cycle counter) — re-capture the snapshot with this "
        "build)");
  }

  ProfileSnapshot s;
  s.config_fp = r.u64();
  const std::size_t payload_len = r.sz();

  const std::size_t rest = raw.size() - r.position();
  snap::require(rest >= 8 && payload_len <= rest - 8,
                "truncated snapshot file (payload shorter than its header "
                "claims)");
  const std::size_t body_len = r.position() + payload_len;
  // Verify the checksum before interpreting any payload field, so a
  // corrupted count or length prefix fails as a checksum mismatch instead
  // of an absurd allocation.
  snap::Reader sum(std::span<const std::uint8_t>(raw).subspan(body_len, 8));
  snap::require(sum.u64() == hash_bytes(raw.data(), body_len),
                "snapshot checksum mismatch (file corrupted)");

  snap::Io io(r);
  transfer_payload(io, s);
  snap::require(r.position() == body_len,
                "snapshot payload length disagrees with its contents");
  r.skip(8);  // the checksum, verified above
  snap::require(r.at_end(), "trailing bytes after snapshot checksum");
  return s;
}

}  // namespace bwpart::harness
