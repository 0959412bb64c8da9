// Byte-stream serialization primitives for full-system snapshots.
//
// Writer appends fixed-width little-endian fields to a byte vector; Reader
// parses them back with bounds checking. Every read failure — truncation, a
// section tag mismatch, an out-of-range enum byte — throws SnapshotError
// naming what went wrong, so a corrupt or truncated snapshot file fails
// loudly instead of silently restoring garbage state.
//
// The encoding is deliberately dumb: no varints, no alignment, no schema.
// Each component names its mutable fields once, in declaration order inside
// a 4-byte section tag, in one transfer(Io&) method: Io built over a Writer
// writes every field it is handed, and built over a Reader reads each one
// back in place and checks it. A save and a restore cannot drift apart,
// because there is only one field list. Doubles are serialized via
// bit_cast so a round trip is bit-exact (the snapshot/fork engine's
// bit-identity contract depends on this).
//
// Every stored count is checked before it sizes anything: a count of a
// configuration-sized vector must equal that size (Io::arity, Io::fixed),
// and the count of a variable-length list must fit in the bytes left at the
// element's smallest encoding (Io::list), so a forged count fails as a
// SnapshotError instead of an absurd allocation.
//
// Lives in common/ because every layer (cpu, mem, dram, workload, profile)
// implements its transfer() against it; the snapshot file format and the
// Experiment-level fork API live in harness/snapshot.
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
  std::size_t remaining() const { return bytes_.size() - pos_; }

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

/// One field list, two directions. Built over a Writer, each method writes
/// the field it is handed and never stores into it; built over a Reader, it
/// reads the field into the reference and checks it. Components keep one
/// `void transfer(snap::Io&)` and branch on reading() only for work that
/// restore alone does (resizing, rebuilding derived state), so saving
/// through it leaves the record untouched.
class Io {
 public:
  explicit Io(Writer& w) : w_(&w) {}
  explicit Io(Reader& r) : r_(&r) {}

  bool reading() const { return r_ != nullptr; }

  void u8(std::uint8_t& v) { r_ ? void(v = r_->u8()) : w_->u8(v); }
  void u32(std::uint32_t& v) { r_ ? void(v = r_->u32()) : w_->u32(v); }
  void u64(std::uint64_t& v) { r_ ? void(v = r_->u64()) : w_->u64(v); }
  void f64(double& v) { r_ ? void(v = r_->f64()) : w_->f64(v); }
  void b(bool& v) { r_ ? void(v = r_->b()) : w_->b(v); }
  void sz(std::size_t& v) { r_ ? void(v = r_->sz()) : w_->sz(v); }
  void str(std::string& s) { r_ ? void(s = r_->str()) : w_->str(s); }
  void tag(const char (&t)[5]) { r_ ? r_->expect_tag(t) : w_->tag(t); }

  /// A length-prefixed byte string, copied in bulk.
  void bytes(std::vector<std::uint8_t>& v) {
    if (r_ == nullptr) {
      w_->u64(v.size());
      w_->blob(v);
      return;
    }
    const std::span<const std::uint8_t> s = r_->blob(r_->u64());
    v.assign(s.begin(), s.end());
  }

  /// An enum stored as one byte; a read above `max` throws `what`.
  template <typename E>
  void enum8(E& e, E max, const char* what) {
    auto v = static_cast<std::uint8_t>(e);
    u8(v);
    if (r_ == nullptr) return;
    require(v <= static_cast<std::uint8_t>(max), what);
    e = static_cast<E>(v);
  }

  /// A stored u64 that must equal `n`, this build's configured size.
  void arity(std::size_t n, const char* what) {
    std::uint64_t stored = n;
    u64(stored);
    require(stored == n, what);
  }

  /// A configuration-sized container: its count, then each element.
  template <typename C, typename Field>
  void fixed(C& v, const char* what, Field&& field) {
    arity(v.size(), what);
    for (auto& x : v) field(x);
  }
  void fixed(std::vector<std::uint32_t>& v, const char* what) {
    fixed(v, what, [this](std::uint32_t& x) { u32(x); });
  }
  void fixed(std::vector<std::uint64_t>& v, const char* what) {
    fixed(v, what, [this](std::uint64_t& x) { u64(x); });
  }
  void fixed(std::vector<double>& v, const char* what) {
    fixed(v, what, [this](double& x) { f64(x); });
  }

  /// A variable-length list (any resizable container) of elements that
  /// take at least `min_bytes` each: its count, then each element. A read
  /// count must fit in the bytes left, checked before anything is resized.
  template <typename C, typename Field>
  void list(C& v, std::size_t min_bytes, Field&& field) {
    std::uint64_t n = v.size();
    u64(n);
    if (r_ != nullptr) {
      require(n <= r_->remaining() / min_bytes,
              "element count exceeds the bytes left in the stream");
      v.resize(static_cast<std::size_t>(n));
    }
    for (auto& x : v) field(x);
  }
  void list(std::vector<double>& v) {
    list(v, 8, [this](double& x) { f64(x); });
  }

 private:
  Writer* w_ = nullptr;
  Reader* r_ = nullptr;
};

/// Writes `rec` through its transfer(). A writing Io only reads the fields
/// it is handed, so the record is not modified.
template <typename T>
void save(const T& rec, Writer& w) {
  Io io(w);
  const_cast<T&>(rec).transfer(io);
}

/// Reads `rec` back through the same transfer().
template <typename T>
void restore(T& rec, Reader& r) {
  Io io(r);
  rec.transfer(io);
}

}  // namespace bwpart::snap
