#include "dram/bank.hpp"

#include <gtest/gtest.h>

#include "common/snapshot_io.hpp"
#include "dram/config.hpp"
#include "dram/timing_table.hpp"

namespace bwpart::dram {
namespace {

CmdTimings ticks() { return CmdTimings::build(DramConfig::ddr2_400().ticks()); }
// DDR2-400: rp=3 rcd=3 cl=3 cwl=2 ras=8 wr=3 rtp=2 ccd=2 burst=4.

TEST(BankArray, StartsClosedAndActivatable) {
  BankArray b(1);
  EXPECT_FALSE(b.row_open(0));
  EXPECT_TRUE(b.can_activate(0, 0));
  EXPECT_FALSE(b.can_read(0, 0));
  EXPECT_FALSE(b.can_write(0, 0));
  EXPECT_FALSE(b.can_precharge(0, 0));
}

TEST(BankArray, ActivateOpensRowAfterTrcd) {
  BankArray b(1);
  const CmdTimings t = ticks();
  b.activate(0, 10, 42, t);
  EXPECT_TRUE(b.row_open(0));
  EXPECT_EQ(b.open_row(0), 42u);
  EXPECT_FALSE(b.can_read(0, 10 + t.act_to_col - 1));
  EXPECT_TRUE(b.can_read(0, 10 + t.act_to_col));
  EXPECT_TRUE(b.can_write(0, 10 + t.act_to_col));
}

TEST(BankArray, PrechargeRespectsTras) {
  BankArray b(1);
  const CmdTimings t = ticks();
  b.activate(0, 0, 1, t);
  EXPECT_FALSE(b.can_precharge(0, t.act_to_pre - 1));
  EXPECT_TRUE(b.can_precharge(0, t.act_to_pre));
  b.precharge(0, t.act_to_pre, t);
  EXPECT_FALSE(b.row_open(0));
  EXPECT_FALSE(b.can_activate(0, t.act_to_pre + t.pre_to_act - 1));
  EXPECT_TRUE(b.can_activate(0, t.act_to_pre + t.pre_to_act));
}

TEST(BankArray, ReadExtendsPrechargeByTrtp) {
  BankArray b(1);
  const CmdTimings t = ticks();
  b.activate(0, 0, 1, t);
  const Tick rd = t.act_to_pre;  // read late, after tRAS satisfied
  b.read(0, rd, false, t);
  EXPECT_FALSE(b.can_precharge(0, rd + t.rd_to_pre - 1));
  EXPECT_TRUE(b.can_precharge(0, rd + t.rd_to_pre));
}

TEST(BankArray, ConsecutiveReadsSpacedByTccd) {
  BankArray b(1);
  const CmdTimings t = ticks();
  b.activate(0, 0, 1, t);
  b.read(0, t.act_to_col, false, t);
  EXPECT_FALSE(b.can_read(0, t.act_to_col + t.col_to_col - 1));
  EXPECT_TRUE(b.can_read(0, t.act_to_col + t.col_to_col));
}

TEST(BankArray, WriteRecoveryDelaysPrecharge) {
  BankArray b(1);
  const CmdTimings t = ticks();
  b.activate(0, 0, 1, t);
  const Tick wr = t.act_to_pre;  // past tRAS so only tWR matters
  b.write(0, wr, false, t);
  // wr_to_pre is the precomputed tCWL + burst + tWR composite.
  const Tick earliest = wr + t.wr_to_pre;
  EXPECT_FALSE(b.can_precharge(0, earliest - 1));
  EXPECT_TRUE(b.can_precharge(0, earliest));
}

TEST(BankArray, AutoPrechargeReadClosesRow) {
  BankArray b(1);
  const CmdTimings t = ticks();
  b.activate(0, 0, 7, t);
  b.read(0, t.act_to_col, true, t);
  EXPECT_FALSE(b.row_open(0));
  // The implicit precharge waits for max(tRAS from activate, read+tRTP).
  const Tick pre_start =
      std::max<Tick>(t.act_to_pre, t.act_to_col + t.rd_to_pre);
  EXPECT_FALSE(b.can_activate(0, pre_start + t.pre_to_act - 1));
  EXPECT_TRUE(b.can_activate(0, pre_start + t.pre_to_act));
}

TEST(BankArray, AutoPrechargeWriteClosesRow) {
  BankArray b(1);
  const CmdTimings t = ticks();
  b.activate(0, 0, 7, t);
  const Tick wr = t.act_to_col;
  b.write(0, wr, true, t);
  EXPECT_FALSE(b.row_open(0));
  const Tick pre_start = std::max<Tick>(t.act_to_pre, wr + t.wr_to_pre);
  EXPECT_TRUE(b.can_activate(0, pre_start + t.pre_to_act));
  EXPECT_FALSE(b.can_activate(0, pre_start + t.pre_to_act - 1));
}

TEST(BankArray, RefreshBlocksActivateForTrfc) {
  BankArray b(1);
  const CmdTimings t = ticks();
  b.refresh(0, 100, t);
  EXPECT_FALSE(b.can_activate(0, 100 + t.rfc - 1));
  EXPECT_TRUE(b.can_activate(0, 100 + t.rfc));
}

TEST(BankArray, ReopenDifferentRow) {
  BankArray b(1);
  const CmdTimings t = ticks();
  b.activate(0, 0, 1, t);
  b.precharge(0, t.act_to_pre, t);
  const Tick reopen = t.act_to_pre + t.pre_to_act;
  b.activate(0, reopen, 2, t);
  EXPECT_EQ(b.open_row(0), 2u);
}

TEST(BankArray, BanksAreIndependent) {
  BankArray b(4);
  const CmdTimings t = ticks();
  b.activate(2, 5, 9, t);
  EXPECT_TRUE(b.row_open(2));
  EXPECT_FALSE(b.row_open(0));
  EXPECT_FALSE(b.row_open(1));
  EXPECT_FALSE(b.row_open(3));
  EXPECT_TRUE(b.can_activate(3, 5));  // neighbours keep their own timing
  EXPECT_FALSE(b.can_activate(2, 5 + t.act_to_pre));
}

TEST(BankArray, SnapshotRoundTripPerBank) {
  BankArray b(2);
  const CmdTimings t = ticks();
  b.activate(0, 3, 11, t);
  b.read(0, 3 + t.act_to_col, false, t);
  b.refresh(1, 50, t);
  snap::Writer w;
  snap::save(b, w);
  BankArray restored(2);
  snap::Reader r(w.bytes());
  snap::restore(restored, r);
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(restored.row_open(0));
  EXPECT_EQ(restored.open_row(0), 11u);
  EXPECT_FALSE(restored.row_open(1));
  EXPECT_EQ(restored.next_read_tick(0), b.next_read_tick(0));
  EXPECT_EQ(restored.next_precharge_tick(0), b.next_precharge_tick(0));
  EXPECT_EQ(restored.next_activate_tick(1), b.next_activate_tick(1));
  // A snapshot of a different bank count is rejected.
  BankArray wider(3);
  snap::Reader again(w.bytes());
  EXPECT_THROW(snap::restore(wider, again), snap::SnapshotError);
}

}  // namespace
}  // namespace bwpart::dram
