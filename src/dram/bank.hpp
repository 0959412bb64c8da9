// Per-bank DRAM state in structure-of-arrays layout. Each parallel vector
// holds one field for every bank in the system ([channel][rank][bank]
// flattened), so the controller's scheduler scan and the event probes walk
// contiguous memory instead of striding over an array of bank objects. The
// update rules are the classic per-bank state machine: track the open row
// and the earliest tick at which each command class may next be issued; the
// channel engine layers rank- and bus-level constraints on top.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/snapshot_io.hpp"
#include "dram/command.hpp"
#include "dram/config.hpp"
#include "dram/timing_table.hpp"

namespace bwpart::dram {

/// open_row() of a closed bank. No address decodes to it.
inline constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

class BankArray {
 public:
  BankArray() = default;
  explicit BankArray(std::size_t n)
      : open_row_(n, kNoRow), row_(n, 0), ready_(n * kCmdClasses, 0) {}

  std::size_t size() const { return open_row_.size(); }

  bool row_open(std::size_t i) const { return open_row_[i] != kNoRow; }
  /// The open row, or kNoRow while the bank is closed.
  std::uint64_t open_row(std::size_t i) const { return open_row_[i]; }
  /// The last activated row, open or not (the protocol checker's precharge
  /// fold reads it right before closing; snapshots carry it).
  std::uint64_t row_value(std::size_t i) const { return row_[i]; }

  bool can_activate(std::size_t i, Tick now) const {
    return !row_open(i) && now >= next_activate_tick(i);
  }
  bool can_read(std::size_t i, Tick now) const {
    return row_open(i) && now >= next_read_tick(i);
  }
  bool can_write(std::size_t i, Tick now) const {
    return row_open(i) && now >= next_write_tick(i);
  }
  bool can_precharge(std::size_t i, Tick now) const {
    return row_open(i) && now >= next_precharge_tick(i);
  }

  /// Earliest tick an activate could be accepted (row must also be closed).
  Tick next_activate_tick(std::size_t i) const { return ticks(i)[kAct]; }
  /// Earliest tick a read could be accepted (a row must also be open).
  Tick next_read_tick(std::size_t i) const { return ticks(i)[kRd]; }
  /// Earliest tick a write could be accepted (a row must also be open).
  Tick next_write_tick(std::size_t i) const { return ticks(i)[kWr]; }
  /// Earliest tick a precharge could be accepted (a row must also be open).
  Tick next_precharge_tick(std::size_t i) const { return ticks(i)[kPre]; }

  /// The raw arrays behind the queries above, for loops that hoist them:
  /// the open row (or kNoRow) per bank, and the ready ticks per (bank,
  /// class): the earliest tick the bank accepts a command of that class,
  /// whether or not it is in the row state the command needs.
  const std::uint64_t* open_row_data() const { return open_row_.data(); }
  const Tick* ready_data() const { return ready_.data(); }

  void activate(std::size_t i, Tick now, std::uint64_t row,
                const CmdTimings& t) {
    BWPART_ASSERT(can_activate(i, now), "activate violates bank timing");
    BWPART_ASSERT(row != kNoRow, "row out of range");
    open_row_[i] = row;
    row_[i] = row;
    Tick* r = ticks(i);
    r[kRd] = now + t.act_to_col;
    r[kWr] = now + t.act_to_col;
    r[kPre] = now + t.act_to_pre;
  }

  /// Column read; with `auto_precharge` the bank closes itself as soon as
  /// tRTP and tRAS allow, and reopens after tRP.
  void read(std::size_t i, Tick now, bool auto_precharge,
            const CmdTimings& t) {
    BWPART_ASSERT(can_read(i, now), "read violates bank timing");
    Tick* r = ticks(i);
    r[kPre] = std::max(r[kPre], now + t.rd_to_pre);
    r[kRd] = now + t.col_to_col;
    r[kWr] = std::max(r[kWr], now + t.col_to_col);
    if (auto_precharge) close_at(i, r[kPre], t);
  }

  void write(std::size_t i, Tick now, bool auto_precharge,
             const CmdTimings& t) {
    BWPART_ASSERT(can_write(i, now), "write violates bank timing");
    // Precharge must wait for the write data plus recovery time.
    Tick* r = ticks(i);
    r[kPre] = std::max(r[kPre], now + t.wr_to_pre);
    r[kRd] = std::max(r[kRd], now + t.col_to_col);
    r[kWr] = now + t.col_to_col;
    if (auto_precharge) close_at(i, r[kPre], t);
  }

  void precharge(std::size_t i, Tick now, const CmdTimings& t) {
    BWPART_ASSERT(can_precharge(i, now), "precharge violates bank timing");
    close_at(i, now, t);
  }

  /// Refresh completion: bank is closed and unusable until now + tRFC.
  void refresh(std::size_t i, Tick now, const CmdTimings& t) {
    BWPART_ASSERT(!row_open(i), "refresh with open row");
    Tick* r = ticks(i);
    r[kAct] = std::max(r[kAct], now + t.rfc);
  }

  /// Snapshot hook: the bank count, then each bank's fields as one record
  /// (the order the scalar layout used).
  void transfer(snap::Io& io) {
    io.arity(size(), "DRAM bank count differs from the snapshot's");
    for (std::size_t i = 0; i < size(); ++i) {
      bool open = row_open(i);
      io.b(open);
      io.u64(row_[i]);
      snap::require(row_[i] != kNoRow, "bank row out of range");
      if (io.reading()) open_row_[i] = open ? row_[i] : kNoRow;
      for (const std::size_t c : {kAct, kRd, kWr, kPre}) io.u64(ticks(i)[c]);
    }
  }

 private:
  // Offsets of the classes in a bank's ready ticks.
  static constexpr auto kAct = static_cast<std::size_t>(CmdClass::Activate);
  static constexpr auto kPre = static_cast<std::size_t>(CmdClass::Precharge);
  static constexpr auto kRd = static_cast<std::size_t>(CmdClass::Read);
  static constexpr auto kWr = static_cast<std::size_t>(CmdClass::Write);

  Tick* ticks(std::size_t i) { return &ready_[i * kCmdClasses]; }
  const Tick* ticks(std::size_t i) const { return &ready_[i * kCmdClasses]; }

  void close_at(std::size_t i, Tick pre_start, const CmdTimings& t) {
    open_row_[i] = kNoRow;
    Tick* r = ticks(i);
    r[kAct] = std::max(r[kAct], pre_start + t.pre_to_act);
  }

  // Parallel per-bank vectors, index = flattened bank, except the ready
  // ticks, which are interleaved per bank: index = bank * kCmdClasses +
  // class. row_ keeps the last activated row after the bank closes.
  std::vector<std::uint64_t> open_row_;
  std::vector<std::uint64_t> row_;
  std::vector<Tick> ready_;
};

}  // namespace bwpart::dram
