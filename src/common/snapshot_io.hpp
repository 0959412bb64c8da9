// Byte-stream serialization primitives for full-system snapshots.
//
// Writer appends fixed-width little-endian fields to a byte vector; Reader
// parses them back with bounds checking. Every read failure — truncation, a
// section tag mismatch, an out-of-range enum byte — throws SnapshotError
// naming what went wrong, so a corrupt or truncated snapshot file fails
// loudly instead of silently restoring garbage state.
//
// The encoding is deliberately dumb: no varints, no alignment, no schema.
// Each component writes its mutable fields in declaration order inside a
// 4-byte section tag, and restore_state() reads them back in the same
// order. Doubles are serialized via bit_cast so a round trip is bit-exact
// (the snapshot/fork engine's bit-identity contract depends on this).
//
// Lives in common/ because every layer (cpu, mem, dram, workload, profile)
// implements save_state/restore_state hooks against it; the snapshot file
// format and the Experiment-level fork API live in harness/snapshot.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bwpart::snap {

/// Named failure for anything wrong with a snapshot byte stream or file.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot error: " + what) {}
};

/// Throws SnapshotError(what) unless `ok`. Components use this to validate
/// restored state against their immutable configuration (vector sizes,
/// geometry) — a snapshot taken under a different configuration must be
/// rejected, never partially applied.
inline void require(bool ok, const char* what) {
  if (!ok) throw SnapshotError(what);
}

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void b(bool v) { u8(v ? 1 : 0); }

  /// size_t fields travel as u64 so 32- and 64-bit hosts agree on layout.
  void sz(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }

  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) buf_.push_back(static_cast<std::uint8_t>(c));
  }

  /// Appends `bytes` verbatim (no length prefix; callers write their own).
  void blob(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// 4-character section marker; Reader::expect_tag() checks it, turning a
  /// misaligned stream into a named error at the section boundary instead
  /// of nonsense fields further in.
  void tag(const char (&t)[5]) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(t[i]));
    }
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1, "u8");
    return bytes_[pos_++];
  }

  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    }
    return v;
  }

  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    }
    return v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  bool b() {
    const std::uint8_t v = u8();
    require(v <= 1, "bool field holds a byte other than 0/1 (corrupt)");
    return v == 1;
  }

  std::size_t sz() { return static_cast<std::size_t>(u64()); }

  std::string str() {
    const std::uint64_t n = u64();
    need(n, "string body");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// The next `n` bytes, bounds-checked before anything is allocated or
  /// copied; the view lives as long as the stream's backing bytes.
  std::span<const std::uint8_t> blob(std::uint64_t n) {
    need(n, "blob");
    const std::span<const std::uint8_t> s =
        bytes_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  void expect_tag(const char (&t)[5]) {
    need(4, "section tag");
    for (int i = 0; i < 4; ++i) {
      if (bytes_[pos_ + static_cast<std::size_t>(i)] !=
          static_cast<std::uint8_t>(t[i])) {
        throw SnapshotError(std::string("expected section '") + t +
                            "' but stream holds different bytes (corrupt or "
                            "misaligned snapshot)");
      }
    }
    pos_ += 4;
  }

  /// Discards `n` bytes (an optional section this build does not consume).
  void skip(std::uint64_t n) {
    need(n, "skipped section");
    pos_ += static_cast<std::size_t>(n);
  }

  bool at_end() const { return pos_ == bytes_.size(); }
  std::size_t position() const { return pos_; }

 private:
  void need(std::uint64_t n, const char* what) {
    if (n > bytes_.size() - pos_) {
      throw SnapshotError(std::string("truncated stream: reading ") + what +
                          " at offset " + std::to_string(pos_) + " needs " +
                          std::to_string(n) + " bytes but only " +
                          std::to_string(bytes_.size() - pos_) + " remain");
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace bwpart::snap
