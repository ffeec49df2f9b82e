#include "core/strategy.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "core/pmm_fair.h"

namespace rtq::core {
namespace {

MemRequest Q(QueryId id, SimTime deadline, PageCount min, PageCount max) {
  MemRequest r;
  r.id = id;
  r.deadline = deadline;
  r.min_memory = min;
  r.max_memory = max;
  return r;
}

PageCount Sum(const AllocationVector& v) {
  return std::accumulate(v.begin(), v.end(), PageCount{0});
}

// --- Max -------------------------------------------------------------------

TEST(MaxStrategy, AllOrNothing) {
  MaxStrategy strat;
  auto out = strat.Allocate({Q(1, 10, 40, 1300), Q(2, 20, 40, 1300),
                             Q(3, 30, 40, 1300)},
                            2560);
  EXPECT_EQ(out, (AllocationVector{1300, 1260 >= 1300 ? 1300 : 0, 0}));
  EXPECT_EQ(out[0], 1300);
  EXPECT_EQ(out[1], 0);  // 1260 left < 1300
  EXPECT_EQ(out[2], 0);
}

TEST(MaxStrategy, BypassAdmitsAroundBlockedQuery) {
  MaxStrategy bypass(/*bypass_blocked=*/true);
  auto out = bypass.Allocate(
      {Q(1, 10, 40, 2000), Q(2, 20, 40, 1000), Q(3, 30, 40, 500)}, 2560);
  EXPECT_EQ(out[0], 2000);
  EXPECT_EQ(out[1], 0);    // 560 left < 1000
  EXPECT_EQ(out[2], 500);  // bypasses query 2
}

TEST(MaxStrategy, StrictStopsAtBlockedQuery) {
  MaxStrategy strict(/*bypass_blocked=*/false);
  auto out = strict.Allocate(
      {Q(1, 10, 40, 2000), Q(2, 20, 40, 1000), Q(3, 30, 40, 500)}, 2560);
  EXPECT_EQ(out[0], 2000);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], 0);  // not allowed to jump over query 2
}

TEST(MaxStrategy, Names) {
  EXPECT_EQ(MaxStrategy(true).name(), "Max");
  EXPECT_EQ(MaxStrategy(false).name(), "Max(strict)");
}

// --- MinMax ----------------------------------------------------------------

TEST(MinMaxStrategy, UrgentGetsMaxRestGetMin) {
  MinMaxStrategy strat(-1);
  auto out = strat.Allocate(
      {Q(1, 10, 40, 1300), Q(2, 20, 40, 1300), Q(3, 30, 40, 1300)}, 2560);
  // Pass 1: 40 each (120). Pass 2 in ED order: q1 to 1300, q2 gets the
  // remaining 2560-1300-80 = 1180, q3 stays at min.
  EXPECT_EQ(out[0], 1300);
  EXPECT_EQ(out[1], 1220);
  EXPECT_EQ(out[2], 40);
  EXPECT_EQ(Sum(out), 2560);
}

TEST(MinMaxStrategy, MplLimitCapsAdmission) {
  MinMaxStrategy strat(2);
  auto out = strat.Allocate(
      {Q(1, 10, 40, 100), Q(2, 20, 40, 100), Q(3, 30, 40, 100)}, 2560);
  EXPECT_GT(out[0], 0);
  EXPECT_GT(out[1], 0);
  EXPECT_EQ(out[2], 0);  // beyond N=2
}

TEST(MinMaxStrategy, StopsWhenMinDoesNotFit) {
  MinMaxStrategy strat(-1);
  auto out = strat.Allocate(
      {Q(1, 10, 60, 80), Q(2, 20, 60, 80), Q(3, 30, 60, 80)}, 130);
  // Pass 1 admits q1 and q2 (120 <= 130); q3's min does not fit.
  EXPECT_EQ(out[2], 0);
  // Pass 2 tops q1 up with the leftover 10.
  EXPECT_EQ(out[0], 70);
  EXPECT_EQ(out[1], 60);
}

TEST(MinMaxStrategy, EveryoneAtMaxWhenMemoryAbounds) {
  MinMaxStrategy strat(-1);
  auto out = strat.Allocate({Q(1, 10, 40, 100), Q(2, 20, 40, 100)}, 10000);
  EXPECT_EQ(out, (AllocationVector{100, 100}));
}

TEST(MinMaxStrategy, Names) {
  EXPECT_EQ(MinMaxStrategy(-1).name(), "MinMax");
  EXPECT_EQ(MinMaxStrategy(10).name(), "MinMax-10");
}

// --- Proportional ------------------------------------------------------------

TEST(ProportionalStrategy, EqualFractionOfMax) {
  ProportionalStrategy strat(-1);
  auto out = strat.Allocate({Q(1, 10, 10, 1000), Q(2, 20, 10, 3000)}, 2000);
  // f = 0.5: allocations 500 and 1500.
  EXPECT_NEAR(static_cast<double>(out[0]), 500.0, 2.0);
  EXPECT_NEAR(static_cast<double>(out[1]), 1500.0, 2.0);
  EXPECT_LE(Sum(out), 2000);
}

TEST(ProportionalStrategy, FractionFlooredAtMinimum) {
  ProportionalStrategy strat(-1);
  auto out = strat.Allocate(
      {Q(1, 10, 300, 400), Q(2, 20, 10, 4000)}, 2000);
  // A plain fraction would give q1 less than its minimum; it is floored.
  EXPECT_GE(out[0], 300);
  EXPECT_LE(Sum(out), 2000);
  EXPECT_GT(out[1], out[0]);
}

TEST(ProportionalStrategy, FullFractionWhenMemoryAbounds) {
  ProportionalStrategy strat(-1);
  auto out = strat.Allocate({Q(1, 10, 10, 700), Q(2, 20, 10, 800)}, 10000);
  EXPECT_EQ(out, (AllocationVector{700, 800}));
}

TEST(ProportionalStrategy, AdmitsOnlyWhatMinimumsAllow) {
  ProportionalStrategy strat(-1);
  auto out = strat.Allocate(
      {Q(1, 10, 60, 80), Q(2, 20, 60, 80), Q(3, 30, 60, 80)}, 130);
  EXPECT_GT(out[0], 0);
  EXPECT_GT(out[1], 0);
  EXPECT_EQ(out[2], 0);
}

TEST(ProportionalStrategy, Names) {
  EXPECT_EQ(ProportionalStrategy(-1).name(), "Proportional");
  EXPECT_EQ(ProportionalStrategy(5).name(), "Proportional-5");
}

// --- shared invariants (property sweep) --------------------------------------

struct StrategyCase {
  const char* label;
  std::shared_ptr<AllocationStrategy> strategy;
};

class StrategyInvariants
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 public:
  static std::shared_ptr<AllocationStrategy> Make(int which) {
    switch (which) {
      case 0: return std::make_shared<MaxStrategy>(false);
      case 1: return std::make_shared<MaxStrategy>(true);
      case 2: return std::make_shared<MinMaxStrategy>(-1);
      case 3: return std::make_shared<MinMaxStrategy>(4);
      case 4: return std::make_shared<ProportionalStrategy>(-1);
      case 5: return std::make_shared<ProportionalStrategy>(4);
      default:
        return std::make_shared<FairOrderingStrategy>(
            std::make_unique<MinMaxStrategy>(4), std::vector<double>{1.0, 2.5});
    }
  }
};

TEST_P(StrategyInvariants, NeverOversubscribesAndRespectsBounds) {
  auto [which, seed] = GetParam();
  auto strategy = Make(which);
  Rng rng(static_cast<uint64_t>(seed) * 97 + 13);

  int n = static_cast<int>(rng.UniformInt(1, 25));
  std::vector<MemRequest> queries;
  for (int i = 0; i < n; ++i) {
    PageCount min = rng.UniformInt(1, 80);
    PageCount max = min + rng.UniformInt(0, 1900);
    queries.push_back(
        Q(static_cast<QueryId>(i), rng.Uniform(0.0, 1000.0), min, max));
  }
  std::sort(queries.begin(), queries.end(),
            [](const MemRequest& a, const MemRequest& b) {
              return a.deadline < b.deadline;
            });
  PageCount total = rng.UniformInt(100, 4000);

  AllocationVector out = strategy->Allocate(queries, total);
  ASSERT_EQ(out.size(), queries.size());
  PageCount sum = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i], 0);
    EXPECT_LE(out[i], queries[i].max_memory);
    // Admitted queries always receive at least their minimum.
    if (out[i] > 0) {
      EXPECT_GE(out[i], queries[i].min_memory);
    }
    sum += out[i];
  }
  EXPECT_LE(sum, total);
}

TEST_P(StrategyInvariants, EdPriorityIsRespected) {
  auto [which, seed] = GetParam();
  auto strategy = Make(which);
  Rng rng(static_cast<uint64_t>(seed) * 31 + 7);
  // Identical queries: an admitted query may never sit after a rejected
  // one with an earlier deadline (no starvation of seniors by juniors
  // with the same shape).
  std::vector<MemRequest> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(Q(static_cast<QueryId>(i), 10.0 * (i + 1), 40, 700));
  }
  PageCount total = rng.UniformInt(40, 3000);
  AllocationVector out = strategy->Allocate(queries, total);
  bool seen_zero = false;
  for (PageCount a : out) {
    if (a == 0) seen_zero = true;
    if (seen_zero) {
      EXPECT_EQ(a, 0);
    }
  }
}

TEST_P(StrategyInvariants, AllocateIntoReusedScratchMatchesAllocate) {
  auto [which, seed] = GetParam();
  auto strategy = Make(which);
  Rng rng(static_cast<uint64_t>(seed) * 53 + 29);

  int n = static_cast<int>(rng.UniformInt(1, 25));
  std::vector<MemRequest> queries;
  for (int i = 0; i < n; ++i) {
    PageCount min = rng.UniformInt(1, 80);
    PageCount max = min + rng.UniformInt(0, 1900);
    queries.push_back(
        Q(static_cast<QueryId>(i), rng.Uniform(0.0, 1000.0), min, max));
    queries.back().query_class = i % 2;
  }
  std::sort(queries.begin(), queries.end(),
            [](const MemRequest& a, const MemRequest& b) {
              return a.deadline < b.deadline;
            });
  PageCount total = rng.UniformInt(100, 4000);

  // The memory manager hands every recompute the previous one's vector:
  // a stale size (longer or shorter) and stale grants must not leak.
  size_t stale_size = seed % 2 == 0 ? queries.size() + 7 : queries.size() / 2;
  AllocationVector scratch(stale_size, 12345);
  StableTailHint hint;
  strategy->AllocateInto(queries, total, &scratch, &hint);
  EXPECT_EQ(scratch, strategy->Allocate(queries, total));
}

INSTANTIATE_TEST_SUITE_P(Sweep, StrategyInvariants,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Range(0, 8)));

}  // namespace
}  // namespace rtq::core
