#include "exec/external_sort.h"

#include <gtest/gtest.h>

#include <tuple>

#include "mock_exec_context.h"

namespace rtq::exec {
namespace {

using rtq::testing::MockExecContext;

ExternalSort::Inputs Inputs(PageCount pages) {
  ExternalSort::Inputs in;
  in.disk = 0;
  in.start = 1000;
  in.pages = pages;
  return in;
}

TEST(ExternalSort, MemoryDemandsMatchPaper) {
  // "The maximum memory requirement of an external sort is the size of
  //  its operand relation ... it can run with as few as three pages."
  ExternalSort sort(ExecParams(), Inputs(1200));
  EXPECT_EQ(sort.max_memory(), 1200);
  EXPECT_EQ(sort.min_memory(), 3);
}

TEST(ExternalSort, InMemorySortHasNoTempIo) {
  MockExecContext ctx;
  ExternalSort sort(ExecParams(), Inputs(600));
  bool finished = false;
  sort.on_finished = [&] { finished = true; };
  sort.SetAllocation(600);
  sort.Start(&ctx);
  ctx.PumpAll();
  ASSERT_TRUE(finished);
  EXPECT_EQ(ctx.pages_read, 600);
  EXPECT_EQ(ctx.pages_written, 0);
  EXPECT_EQ(ctx.temp_allocations, 0);
  EXPECT_EQ(sort.runs_formed(), 0);  // never spilled
}

TEST(ExternalSort, SpillingSortWritesRunsAndMerges) {
  MockExecContext ctx;
  ExternalSort sort(ExecParams(), Inputs(600));
  bool finished = false;
  sort.on_finished = [&] { finished = true; };
  sort.SetAllocation(50);  // runs of ~96 pages -> ~7 runs, fan-in 49
  sort.Start(&ctx);
  ctx.PumpAll();
  ASSERT_TRUE(finished);
  EXPECT_GE(sort.runs_formed(), 5);
  EXPECT_EQ(sort.merge_steps(), 1);  // single final merge, fan-in >= runs
  // Run formation writes ~600; final merge reads them back, no writes.
  EXPECT_NEAR(static_cast<double>(ctx.pages_written), 600.0, 10.0);
  EXPECT_NEAR(static_cast<double>(ctx.pages_read), 1200.0, 10.0);
  EXPECT_EQ(ctx.live_temp_extents(), 0);
}

TEST(ExternalSort, MinMemoryDoesMultipleMergePasses) {
  MockExecContext ctx;
  ExternalSort sort(ExecParams(), Inputs(120));
  bool finished = false;
  sort.on_finished = [&] { finished = true; };
  sort.SetAllocation(3);  // 1-page heap; runs floor at one 6-page block
  sort.Start(&ctx);
  ctx.PumpAll();
  ASSERT_TRUE(finished);
  EXPECT_GE(sort.runs_formed(), 15);
  EXPECT_GT(sort.merge_steps(), 10);
  // Multi-pass merging re-reads pages many times.
  EXPECT_GT(ctx.pages_read, 3 * 120);
}

TEST(ExternalSort, RunLengthTracksAllocation) {
  MockExecContext ctx;
  ExternalSort sort(ExecParams(), Inputs(1000));
  sort.on_finished = [] {};
  sort.SetAllocation(52);  // heap 50 pages -> ~100-page runs
  sort.Start(&ctx);
  ctx.PumpAll();
  EXPECT_NEAR(static_cast<double>(sort.runs_formed()), 10.0, 2.0);
}

TEST(ExternalSort, ShrinkDuringFormationForcesSpill) {
  MockExecContext ctx;
  ExternalSort sort(ExecParams(), Inputs(600));
  bool finished = false;
  sort.on_finished = [&] { finished = true; };
  sort.SetAllocation(600);  // starts in-memory
  sort.Start(&ctx);
  for (int i = 0; i < 60; ++i) ctx.Pump();
  sort.SetAllocation(20);  // no longer fits: must spill
  ctx.PumpAll();
  ASSERT_TRUE(finished);
  EXPECT_GT(ctx.pages_written, 0);
  EXPECT_GE(sort.runs_formed(), 1);
}

TEST(ExternalSort, SuspensionAndResume) {
  MockExecContext ctx;
  ExternalSort sort(ExecParams(), Inputs(400));
  bool finished = false;
  sort.on_finished = [&] { finished = true; };
  sort.SetAllocation(30);
  sort.Start(&ctx);
  for (int i = 0; i < 50; ++i) ctx.Pump();
  sort.SetAllocation(0);
  ctx.PumpAll();
  EXPECT_FALSE(finished);
  sort.SetAllocation(30);
  ctx.PumpAll();
  EXPECT_TRUE(finished);
}

TEST(ExternalSort, GrowthDuringMergeIncreasesFanIn) {
  MockExecContext small_ctx, big_ctx;
  // Same relation, same formation memory; one sort gets a big boost for
  // the merge phase and must finish with fewer merge steps.
  ExternalSort slow(ExecParams(), Inputs(400));
  slow.on_finished = [] {};
  slow.SetAllocation(5);
  slow.Start(&small_ctx);
  small_ctx.PumpAll();

  ExternalSort fast(ExecParams(), Inputs(400));
  fast.on_finished = [] {};
  fast.SetAllocation(5);
  fast.Start(&big_ctx);
  for (int i = 0; i < 150; ++i) big_ctx.Pump();  // finish formation
  fast.SetAllocation(300);                        // merge with huge fan-in
  big_ctx.PumpAll();

  EXPECT_LT(fast.merge_steps(), slow.merge_steps());
  EXPECT_LT(big_ctx.pages_read, small_ctx.pages_read);
}

TEST(ExternalSort, AbortReleasesTempSpace) {
  MockExecContext ctx;
  ExternalSort sort(ExecParams(), Inputs(400));
  sort.on_finished = [] {};
  sort.SetAllocation(10);
  sort.Start(&ctx);
  for (int i = 0; i < 80; ++i) ctx.Pump();
  EXPECT_GT(ctx.live_temp_extents(), 0);
  sort.Abort();
  EXPECT_EQ(ctx.live_temp_extents(), 0);
}

TEST(ExternalSort, MergeReadsAreSinglePage) {
  MockExecContext ctx;
  ExternalSort sort(ExecParams(), Inputs(200));
  sort.on_finished = [] {};
  sort.SetAllocation(10);
  sort.Start(&ctx);
  // Drain formation (~34 reads + spools), then check merge read sizes.
  for (int i = 0; i < 120; ++i) ctx.Pump();
  // In the merge phase now: pump a few steps and observe page-sized reads.
  bool saw_merge_read = false;
  for (int i = 0; i < 40 && ctx.Pump(); ++i) {
    if (ctx.last_read_pages == 1) saw_merge_read = true;
  }
  EXPECT_TRUE(saw_merge_read);
}

// Temp exhaustion is fatal at its one site, Operator::EnsureTemp. A
// 3-page sort of 120 pages forms runs in the first extent and merges in
// many steps, whose output needs the second.
TEST(ExternalSortDeathTest, RunFormationWithoutTempSpaceDies) {
  MockExecContext ctx;
  ctx.fail_temp = true;
  ExternalSort sort(ExecParams(), Inputs(120));
  sort.on_finished = [] {};
  sort.SetAllocation(3);
  sort.Start(&ctx);
  EXPECT_DEATH(ctx.PumpAll(), "temp space exhausted");
}

TEST(ExternalSortDeathTest, MergeOutputWithoutTempSpaceDies) {
  MockExecContext ctx;
  ExternalSort sort(ExecParams(), Inputs(120));
  sort.on_finished = [] {};
  sort.SetAllocation(3);
  sort.Start(&ctx);
  while (ctx.temp_allocations == 0 && ctx.Pump()) {
  }
  ASSERT_EQ(ctx.temp_allocations, 1);  // the run extent
  ctx.fail_temp = true;
  EXPECT_DEATH(ctx.PumpAll(), "temp space exhausted");
}

/// Property grid: I/O conservation across sizes and allocations.
class SortConservation
    : public ::testing::TestWithParam<std::tuple<PageCount, PageCount>> {};

TEST_P(SortConservation, IoInvariants) {
  auto [pages, alloc] = GetParam();
  MockExecContext ctx;
  ExternalSort sort(ExecParams(), Inputs(pages));
  bool finished = false;
  sort.on_finished = [&] { finished = true; };
  sort.SetAllocation(std::min<PageCount>(alloc, pages));
  sort.Start(&ctx);
  ctx.PumpAll(5'000'000);
  ASSERT_TRUE(finished);
  EXPECT_GE(ctx.pages_read, pages);        // operand read at least once
  EXPECT_EQ(ctx.live_temp_extents(), 0);   // everything released
  if (alloc >= pages) {
    EXPECT_EQ(ctx.pages_written, 0);
  } else {
    EXPECT_GE(ctx.pages_written, pages - 12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SortConservation,
    ::testing::Combine(::testing::Values<PageCount>(60, 150, 600, 1800),
                       ::testing::Values<PageCount>(3, 10, 64, 2000)));

}  // namespace
}  // namespace rtq::exec
