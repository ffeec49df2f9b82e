// Contract tests for the predictive-admission layer: the
// progress-credited remaining-work estimate, the pmm-predict and select
// policies' lifecycle rules (tick requirements, degenerate identities),
// and the stable-tail hint edf-shed now forwards when nothing is shed.

#include <gtest/gtest.h>

#include <memory>

#include "core/memory_manager.h"
#include "core/memory_policy.h"
#include "core/policy_registry.h"
#include "core/strategy.h"
#include "engine/rtdbs.h"
#include "harness/paper_experiments.h"
#include "run_fingerprint.h"

namespace rtq::core {
namespace {

using test_util::Fingerprint;

// ---------------------------------------------------------------------------
// RemainingEstimate: the progress credit behind edf-shed and oracle-ed.
// ---------------------------------------------------------------------------

MemRequest Est(SimTime estimate, PageCount operand_pages,
               const PageCount* pages_read) {
  MemRequest r;
  r.standalone_estimate = estimate;
  r.operand_pages = operand_pages;
  r.pages_read = pages_read;
  return r;
}

TEST(RemainingEstimate, NoProgressSignalFallsBackToFullEstimate) {
  EXPECT_DOUBLE_EQ(RemainingEstimate(Est(40.0, 100, nullptr)), 40.0);
  PageCount read = 50;
  EXPECT_DOUBLE_EQ(RemainingEstimate(Est(40.0, 0, &read)), 40.0);
}

TEST(RemainingEstimate, ScalesByFractionOfPagesNotYetRead) {
  PageCount read = 0;
  MemRequest q = Est(40.0, 100, &read);
  EXPECT_DOUBLE_EQ(RemainingEstimate(q), 40.0);
  read = 25;
  EXPECT_DOUBLE_EQ(RemainingEstimate(q), 30.0);
  read = 90;
  EXPECT_DOUBLE_EQ(RemainingEstimate(q), 4.0);
}

TEST(RemainingEstimate, CompletedOrOvershotProgressCostsNothing) {
  PageCount read = 100;
  EXPECT_DOUBLE_EQ(RemainingEstimate(Est(40.0, 100, &read)), 0.0);
  read = 140;  // prefetch overshoot must not go negative
  EXPECT_DOUBLE_EQ(RemainingEstimate(Est(40.0, 100, &read)), 0.0);
}

// ---------------------------------------------------------------------------
// Tick requirements: time-driven policies must reject hosts that never
// tick instead of silently degenerating.
// ---------------------------------------------------------------------------

TEST(PredictivePolicies, PmmPredictRejectsHostsThatNeverTick) {
  engine::SystemConfig config =
      harness::BaselineConfig(0.06, {"pmm-predict"}, 42);
  config.mpl_sample_interval = 0.0;
  auto sys = engine::Rtdbs::Create(config);
  ASSERT_FALSE(sys.ok());
  EXPECT_EQ(sys.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PredictivePolicies, SelectNeedsTicksOnlyWithMultipleCandidates) {
  // The bandit advances on ticks; with one candidate there is nothing to
  // select and a tickless host is fine.
  engine::SystemConfig config = harness::BaselineConfig(
      0.06, {"select:candidates=pmm+pmm-predict"}, 42);
  config.mpl_sample_interval = 0.0;
  auto sys = engine::Rtdbs::Create(config);
  ASSERT_FALSE(sys.ok());
  EXPECT_EQ(sys.status().code(), StatusCode::kFailedPrecondition);

  config.policy = {"select:candidates=pmm"};
  EXPECT_TRUE(engine::Rtdbs::Create(config).ok());
}

// ---------------------------------------------------------------------------
// Degenerate identities: select with a single candidate is the candidate.
// ---------------------------------------------------------------------------

TEST(PredictivePolicies, SingleCandidateSelectIsTheCandidateBare) {
  // With one arm the bandit never runs: same events, same completions,
  // same misses, same timings as the candidate on its own. One
  // controller-driven candidate, one strategy-only candidate, and one
  // non-stationary scenario so the tick path is exercised too.
  EXPECT_EQ(
      Fingerprint(harness::BaselineConfig(0.06, {"pmm"}, 42), 1800.0),
      Fingerprint(
          harness::BaselineConfig(0.06, {"select:candidates=pmm"}, 42),
          1800.0));
  EXPECT_EQ(
      Fingerprint(harness::MulticlassConfig(0.8, {"edf-shed"}, 42), 1800.0),
      Fingerprint(harness::MulticlassConfig(
                      0.8, {"select:candidates=edf-shed"}, 42),
                  1800.0));
  const char* flash = "flash:at=600,dur=300,decay=150";
  EXPECT_EQ(
      Fingerprint(harness::ScenarioConfig(flash, {"pmm"}, 42), 1800.0),
      Fingerprint(
          harness::ScenarioConfig(flash, {"select:candidates=pmm"}, 42),
          1800.0));
}

TEST(PredictivePolicies, SelectCommaAndPlusFormsAreTheSamePolicy) {
  auto plus =
      PolicyRegistry::Global().Create("select:candidates=pmm+pmm-predict");
  auto comma =
      PolicyRegistry::Global().Create("select:candidates=pmm,pmm-predict");
  ASSERT_TRUE(plus.ok());
  ASSERT_TRUE(comma.ok());
  EXPECT_EQ(plus.value()->Describe(), comma.value()->Describe());
  EXPECT_EQ(plus.value()->Describe(),
            "select:candidates=pmm+pmm-predict,window=5");
  EXPECT_EQ(plus.value()->DisplayName(), "Select(PMM+PMM-Predict)");
}

TEST(PredictivePolicies, SelectCandidatesKeepInternalCommas) {
  // A candidate whose own spec contains commas survives both the select
  // arg grammar and the canonical round trip.
  auto policy = PolicyRegistry::Global().Create(
      "select:candidates=pmm-class:targets=6,10+pmm,window=3");
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(policy.value()->Describe(),
            "select:candidates=pmm-class:targets=6,10+pmm,window=3");
}

TEST(PredictivePolicies, SelectRejectsNestedSelect) {
  auto policy =
      PolicyRegistry::Global().Create("select:candidates=pmm+select");
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kInvalidArgument);
}

TEST(PredictivePolicies, SelectPropagatesUnknownCandidateErrors) {
  auto policy =
      PolicyRegistry::Global().Create("select:candidates=no-such-policy");
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kNotFound);
}

TEST(PredictivePolicies, PmmPredictDefaultsCollapseInDescribe) {
  // Explicitly spelling a default produces the bare canonical spec.
  auto policy =
      PolicyRegistry::Global().Create("pmm-predict:window=12,lead=2");
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(policy.value()->Describe(), "pmm-predict");
  EXPECT_EQ(policy.value()->DisplayName(), "PMM-Predict");

  auto tuned = PolicyRegistry::Global().Create(
      "pmm-predict:window=8,lead=3,band=0.2,conf=0.6");
  ASSERT_TRUE(tuned.ok());
  EXPECT_EQ(tuned.value()->Describe(),
            "pmm-predict:window=8,lead=3,band=0.2,conf=0.6");
  EXPECT_EQ(tuned.value()->DisplayName(),
            "PMM-Predict(window=8,lead=3,band=0.2,conf=0.6)");
}

// ---------------------------------------------------------------------------
// edf-shed stable-tail hint: when nothing is shed the inner MinMax proof
// must reach the MemoryManager, so denied-tail churn skips recomputes.
// ---------------------------------------------------------------------------

MemRequest Q(QueryId id, SimTime deadline, PageCount min, PageCount max,
             SimTime estimate) {
  MemRequest r;
  r.id = id;
  r.deadline = deadline;
  r.min_memory = min;
  r.max_memory = max;
  r.standalone_estimate = estimate;
  return r;
}

/// Builds a manager driven by the given edf-shed spec and loads it so the
/// admission frontier sits strictly inside the list: two admitted heads,
/// one denied blocker (its minimum exceeds the 200-page pass-1 leftover).
/// Returns the attached policy to keep the strategy alive.
std::unique_ptr<MemoryPolicy> AttachEdfShed(const std::string& spec,
                                            MemoryManager& mm) {
  auto policy = PolicyRegistry::Global().Create(spec);
  RTQ_CHECK(policy.ok());
  PolicyHost host;
  host.mm = &mm;
  host.now = [] { return 0.0; };
  Status st = policy.value()->Attach(host);
  RTQ_CHECK(st.ok());
  mm.AddQuery(Q(1, 100000.0, 400, 900, 1000.0));
  mm.AddQuery(Q(2, 200000.0, 400, 900, 1000.0));
  mm.AddQuery(Q(3, 300000.0, 300, 900, 1000.0));  // denied: min > spare
  // Q3's own insert can be absorbed by the two-query hint, which would
  // leave a stale frontier-at-end cache; one explicit recompute caches
  // the three-query proof the churn below is meant to exercise.
  mm.Reallocate();
  return std::move(policy).value();
}

TEST(PredictivePolicies, EdfShedForwardsHintWhenNothingIsShed) {
  // Default margin: every query is feasible (deadlines dwarf the 1000 s
  // estimates), the shed filter passes everyone through, and the inner
  // MinMax stable-tail proof absorbs the whole churn burst — zero
  // recomputes for ten add/remove pairs in the dead zone.
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(),
                   [](QueryId, PageCount) {});
  auto policy = AttachEdfShed("edf-shed", mm);
  int64_t base = mm.recomputes();
  for (QueryId id = 100; id < 110; ++id) {
    mm.AddQuery(Q(id, 400000.0 + static_cast<double>(id), 500, 900, 1000.0));
    EXPECT_EQ(mm.allocation_of(id), 0);
    mm.RemoveQuery(id);
  }
  EXPECT_EQ(mm.recomputes(), base);
}

TEST(PredictivePolicies, EdfShedInvalidatesHintWhenShedding) {
  // A margin so large everything is shed: the filter rejects every
  // query, the wrapper withholds the inner proof, and the same churn
  // burst pays a full recompute per membership change.
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(),
                   [](QueryId, PageCount) {});
  auto policy = AttachEdfShed("edf-shed:m=1000", mm);
  int64_t base = mm.recomputes();
  for (QueryId id = 100; id < 110; ++id) {
    mm.AddQuery(Q(id, 400000.0 + static_cast<double>(id), 500, 900, 1000.0));
    mm.RemoveQuery(id);
  }
  EXPECT_EQ(mm.recomputes(), base + 20);
}

}  // namespace
}  // namespace rtq::core
