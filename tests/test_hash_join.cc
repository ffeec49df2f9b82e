#include "exec/hash_join.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "mock_exec_context.h"

namespace rtq::exec {
namespace {

using rtq::testing::MockExecContext;

ExecParams Params() { return ExecParams{}; }

HashJoin::Inputs Inputs(PageCount r, PageCount s) {
  HashJoin::Inputs in;
  in.r_disk = 0;
  in.r_start = 0;
  in.r_pages = r;
  in.s_disk = 1;
  in.s_start = 50000;
  in.s_pages = s;
  return in;
}

TEST(HashJoin, MemoryDemandsMatchPaper) {
  // The paper's example: ||R|| = 1200 with F = 1.1 gives a maximum of
  // 1321 pages (F*||R|| + one I/O buffer) and a minimum near sqrt(F*||R||).
  HashJoin join(Params(), Inputs(1200, 6000));
  EXPECT_EQ(join.max_memory(), 1321);
  EXPECT_EQ(join.num_partitions(), 37);
  EXPECT_NEAR(static_cast<double>(join.min_memory()),
              std::sqrt(1.1 * 1200.0), 3.0);
  EXPECT_GE(join.min_memory(), join.num_partitions() + 1);
  EXPECT_LT(join.min_memory(), join.max_memory());
}

TEST(HashJoin, MaxMemoryRunReadsOperandsOnceNoSpill) {
  MockExecContext ctx;
  HashJoin join(Params(), Inputs(600, 3000));
  bool finished = false;
  join.on_finished = [&] { finished = true; };
  join.SetAllocation(join.max_memory());
  join.Start(&ctx);
  ctx.PumpAll();
  ASSERT_TRUE(finished);
  EXPECT_EQ(ctx.pages_read, 600 + 3000);
  EXPECT_EQ(ctx.pages_written, 0);
  EXPECT_EQ(ctx.temp_allocations, 0);
  EXPECT_EQ(join.spilled_r_pages(), 0);
}

TEST(HashJoin, MinMemoryRunIsTwoPass) {
  MockExecContext ctx;
  HashJoin join(Params(), Inputs(600, 3000));
  bool finished = false;
  join.on_finished = [&] { finished = true; };
  join.SetAllocation(join.min_memory());
  join.Start(&ctx);
  ctx.PumpAll();
  ASSERT_TRUE(finished);
  // Two-pass: everything written out once and read back once.
  EXPECT_NEAR(static_cast<double>(ctx.pages_written), 3600.0, 40.0);
  EXPECT_NEAR(static_cast<double>(ctx.pages_read), 2.0 * 3600.0, 80.0);
  // Temp extents were released at completion.
  EXPECT_EQ(ctx.live_temp_extents(), 0);
}

TEST(HashJoin, IntermediateMemorySpillsProportionally) {
  MockExecContext ctx;
  HashJoin join(Params(), Inputs(600, 3000));
  PageCount mid = (join.min_memory() + join.max_memory()) / 2;
  bool finished = false;
  join.on_finished = [&] { finished = true; };
  join.SetAllocation(mid);
  join.Start(&ctx);
  ctx.PumpAll();
  ASSERT_TRUE(finished);
  // Roughly half the partitions expanded: spill well below the full 3600
  // but clearly nonzero.
  EXPECT_GT(ctx.pages_written, 1000);
  EXPECT_LT(ctx.pages_written, 2600);
}

TEST(HashJoin, ContractionMidBuildSpools) {
  MockExecContext ctx;
  HashJoin join(Params(), Inputs(600, 3000));
  bool finished = false;
  join.on_finished = [&] { finished = true; };
  join.SetAllocation(join.max_memory());
  join.Start(&ctx);
  // Let part of the build run at max, then shrink to min.
  for (int i = 0; i < 40; ++i) ctx.Pump();
  join.SetAllocation(join.min_memory());
  ctx.PumpAll();
  ASSERT_TRUE(finished);
  // The hash tables built so far were spooled: writes exceed what a
  // min-memory run would have written for the remaining input alone.
  EXPECT_GT(ctx.pages_written, 0);
  EXPECT_EQ(join.expanded_partitions(), 0);
}

TEST(HashJoin, ExpansionMidProbeReloadsBuildPages) {
  MockExecContext ctx;
  ExecParams params = Params();
  HashJoin join(params, Inputs(600, 3000));
  bool finished = false;
  join.on_finished = [&] { finished = true; };
  join.SetAllocation(join.min_memory());
  join.Start(&ctx);
  // Run until early probe: build is 100 block-ish steps.
  for (int i = 0; i < 260; ++i) ctx.Pump();
  int64_t reads_before = ctx.reads;
  join.SetAllocation(join.max_memory());
  ctx.PumpAll();
  ASSERT_TRUE(finished);
  EXPECT_GT(ctx.reads, reads_before);
  // After expansion the join ends with every partition expanded.
  EXPECT_EQ(join.expanded_partitions(), join.num_partitions());
}

TEST(HashJoin, SuspensionStopsProgressAndResumeFinishes) {
  MockExecContext ctx;
  HashJoin join(Params(), Inputs(600, 3000));
  bool finished = false;
  join.on_finished = [&] { finished = true; };
  join.SetAllocation(join.max_memory());
  join.Start(&ctx);
  for (int i = 0; i < 30; ++i) ctx.Pump();
  join.SetAllocation(0);  // suspend
  ctx.PumpAll();
  EXPECT_FALSE(finished);  // idle, not done
  EXPECT_EQ(join.expanded_partitions(), 0);
  join.SetAllocation(join.min_memory());  // resume small
  ctx.PumpAll();
  EXPECT_TRUE(finished);
}

TEST(HashJoin, AbortReleasesTempSpace) {
  MockExecContext ctx;
  HashJoin join(Params(), Inputs(600, 3000));
  join.on_finished = [] {};
  join.SetAllocation(join.min_memory());
  join.Start(&ctx);
  for (int i = 0; i < 100; ++i) ctx.Pump();
  EXPECT_GT(ctx.live_temp_extents(), 0);
  join.Abort();
  EXPECT_EQ(ctx.live_temp_extents(), 0);
  EXPECT_FALSE(join.finished());
}

TEST(HashJoin, TinyRelationsWork) {
  MockExecContext ctx;
  HashJoin join(Params(), Inputs(1, 1));
  bool finished = false;
  join.on_finished = [&] { finished = true; };
  join.SetAllocation(join.max_memory());
  join.Start(&ctx);
  ctx.PumpAll();
  EXPECT_TRUE(finished);
  EXPECT_EQ(ctx.pages_read, 2);
}

TEST(HashJoin, CpuCostsScaleWithExpandedFraction) {
  // At max memory every R tuple is hash-inserted (100) and every S tuple
  // probed+copied (300); at min they are hash-copied (100 both sides)
  // plus reprocessed in cleanup. Totals must reflect Table 4.
  ExecParams params = Params();
  int64_t tpp = params.tuples.tuples_per_page();

  MockExecContext at_max;
  HashJoin jmax(params, Inputs(600, 3000));
  jmax.on_finished = [] {};
  jmax.SetAllocation(jmax.max_memory());
  jmax.Start(&at_max);
  at_max.PumpAll();
  Instructions expect_max = params.costs.initiate_op +
                            params.costs.terminate_op +
                            600 * tpp * params.costs.hash_insert +
                            3000 * tpp *
                                (params.costs.hash_probe +
                                 params.costs.hash_copy);
  EXPECT_NEAR(static_cast<double>(at_max.total_instructions),
              static_cast<double>(expect_max),
              static_cast<double>(expect_max) * 0.02);
}

// Temp exhaustion is fatal at its one site, Operator::EnsureTemp. At the
// minimum allocation the build spools R into the first extent and the
// probe spools S into the second.
TEST(HashJoinDeathTest, RSpillWithoutTempSpaceDies) {
  MockExecContext ctx;
  ctx.fail_temp = true;
  HashJoin join(Params(), Inputs(600, 3000));
  join.on_finished = [] {};
  join.SetAllocation(join.min_memory());
  join.Start(&ctx);
  EXPECT_DEATH(ctx.PumpAll(), "temp space exhausted");
}

TEST(HashJoinDeathTest, SSpillWithoutTempSpaceDies) {
  MockExecContext ctx;
  HashJoin join(Params(), Inputs(600, 3000));
  join.on_finished = [] {};
  join.SetAllocation(join.min_memory());
  join.Start(&ctx);
  while (ctx.temp_allocations == 0 && ctx.Pump()) {
  }
  ASSERT_EQ(ctx.temp_allocations, 1);  // R's extent
  ctx.fail_temp = true;
  EXPECT_DEATH(ctx.PumpAll(), "temp space exhausted");
}

/// Property: total pages read never falls below the operand size, writes
/// never exceed what was read, and temp is always released — across a
/// grid of relation sizes and allocations.
class HashJoinConservation
    : public ::testing::TestWithParam<std::tuple<PageCount, PageCount, int>> {
};

TEST_P(HashJoinConservation, IoInvariants) {
  auto [r, s, alloc_sel] = GetParam();
  MockExecContext ctx;
  HashJoin join(Params(), Inputs(r, s));
  PageCount alloc = alloc_sel == 0   ? join.min_memory()
                    : alloc_sel == 1 ? (join.min_memory() +
                                        join.max_memory()) /
                                           2
                                     : join.max_memory();
  bool finished = false;
  join.on_finished = [&] { finished = true; };
  join.SetAllocation(alloc);
  join.Start(&ctx);
  ctx.PumpAll();
  ASSERT_TRUE(finished);
  EXPECT_GE(ctx.pages_read, r + s);
  EXPECT_LE(ctx.pages_read, 3 * (r + s));
  EXPECT_LE(ctx.pages_written, r + s + 12);
  EXPECT_EQ(ctx.live_temp_extents(), 0);
  EXPECT_EQ(join.counters().pages_read, ctx.pages_read);
  EXPECT_EQ(join.counters().pages_written, ctx.pages_written);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HashJoinConservation,
    ::testing::Combine(::testing::Values<PageCount>(50, 600, 1800),
                       ::testing::Values<PageCount>(250, 3000),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace rtq::exec
