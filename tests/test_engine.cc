#include "engine/rtdbs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "core/policy_registry.h"
#include "core/strategy.h"
#include "harness/paper_experiments.h"

namespace rtq::engine {
namespace {

SystemConfig SmallConfig(const std::string& spec, double rate = 0.05,
                         uint64_t seed = 42) {
  return harness::BaselineConfig(rate, {spec}, seed);
}

TEST(Engine, RejectsInvalidConfig) {
  SystemConfig config = SmallConfig("max");
  config.num_disks = 0;
  EXPECT_FALSE(Rtdbs::Create(config).ok());

  config = SmallConfig("minmax:0");  // -N policies need N >= 1
  EXPECT_FALSE(Rtdbs::Create(config).ok());

  config = SmallConfig("pmm-fair:w=1,2");  // one class only
  EXPECT_FALSE(Rtdbs::Create(config).ok());

  config = SmallConfig("no-such-policy");
  auto sys = Rtdbs::Create(config);
  ASSERT_FALSE(sys.ok());
  EXPECT_EQ(sys.status().code(), StatusCode::kNotFound);
}

TEST(Engine, RunsAndRecordsCompletions) {
  auto sys = Rtdbs::Create(SmallConfig("pmm"));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(3600.0);
  SystemSummary s = sys.value()->Summarize();
  EXPECT_GT(s.overall.completions, 100);
  EXPECT_GE(s.overall.misses, 0);
  EXPECT_GT(s.avg_mpl, 0.0);
  EXPECT_GT(s.cpu_utilization, 0.0);
  EXPECT_LT(s.cpu_utilization, 1.0);
  EXPECT_GT(s.avg_disk_utilization, 0.0);
  EXPECT_GE(s.max_disk_utilization, s.avg_disk_utilization);
  EXPECT_DOUBLE_EQ(s.simulated_time, 3600.0);
}

TEST(Engine, DeterministicForSameSeed) {
  auto run = [](uint64_t seed) {
    auto sys = Rtdbs::Create(SmallConfig("minmax", 0.06, seed));
    sys.value()->RunUntil(1800.0);
    SystemSummary s = sys.value()->Summarize();
    return std::make_tuple(s.overall.completions, s.overall.misses,
                           s.overall.avg_exec, s.events_dispatched);
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(99));
}

TEST(Engine, QueryConservation) {
  auto sys = Rtdbs::Create(SmallConfig("minmax"));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(3600.0);
  int64_t generated = sys.value()->arrivals().generated();
  int64_t finished =
      static_cast<int64_t>(sys.value()->metrics().records().size());
  int64_t live = sys.value()->live_queries();
  EXPECT_EQ(generated, finished + live);
}

TEST(Engine, PoolNeverOversubscribedAtEnd) {
  auto sys = Rtdbs::Create(SmallConfig("minmax", 0.08));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(1800.0);
  // BufferPool enforces the invariant on every reservation; reaching this
  // point without an abort means it held throughout. Check the final
  // state is consistent too.
  EXPECT_LE(sys.value()->buffer_pool().reserved(),
            sys.value()->buffer_pool().total());
  EXPECT_EQ(sys.value()->buffer_pool().reserved(),
            sys.value()->memory_manager().allocated_pages());
}

TEST(Engine, FirmDeadlinesAbortLateQueries) {
  // Overload the system so misses must occur; every missed record's
  // finish time equals its deadline (firm semantics: aborted exactly at
  // expiry, not after).
  auto sys = Rtdbs::Create(SmallConfig("max", 0.15));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(3600.0);
  int64_t misses = 0;
  for (const auto& rec : sys.value()->metrics().records()) {
    if (!rec.info.missed) {
      EXPECT_LE(rec.info.finish, rec.info.deadline + 1e-6);
      continue;
    }
    ++misses;
    EXPECT_NEAR(rec.info.finish, rec.info.deadline, 1e-6);
  }
  EXPECT_GT(misses, 10);
}

TEST(Engine, CompletedQueriesMeetDeadlines) {
  auto sys = Rtdbs::Create(SmallConfig("pmm", 0.06));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(3600.0);
  for (const auto& rec : sys.value()->metrics().records()) {
    if (rec.info.missed) continue;
    EXPECT_LE(rec.info.arrival + rec.info.admission_wait +
                  rec.info.execution_time,
              rec.info.deadline + 1e-6);
  }
}

TEST(Engine, EveryRegisteredPolicyRuns) {
  for (const std::string spec :
       {"max", "max:strict", "minmax", "minmax:4", "prop", "prop:4", "pmm",
        "pmm-fair:w=1", "none", "oracle-ed"}) {
    auto sys = Rtdbs::Create(SmallConfig(spec, 0.05));
    ASSERT_TRUE(sys.ok()) << spec;
    sys.value()->RunUntil(900.0);
    EXPECT_GT(sys.value()->metrics().records().size(), 10u) << spec;
    EXPECT_EQ(sys.value()->policy().Describe(), spec) << spec;
  }
}

TEST(Engine, PmmControllerIsExposedOnlyForPmmPolicies) {
  auto max_sys = Rtdbs::Create(SmallConfig("max"));
  EXPECT_EQ(max_sys.value()->pmm(), nullptr);
  auto pmm_sys = Rtdbs::Create(SmallConfig("pmm"));
  EXPECT_NE(pmm_sys.value()->pmm(), nullptr);
}

/// Live CountedPolicy instances. Atomic: the shards of a local-admission
/// cluster build and run theirs on worker threads.
std::atomic<int> g_counted_live{0};

/// Test-only plugin: Max allocation that counts its live instances.
class CountedPolicy : public core::StaticStrategyPolicy {
 public:
  CountedPolicy()
      : StaticStrategyPolicy("counted", "Counted",
                             [](const core::PolicyHost&) -> core::StrategyOr {
                               return {std::make_unique<core::MaxStrategy>()};
                             }) {
    ++g_counted_live;
  }
  ~CountedPolicy() override { --g_counted_live; }
};

RTQ_REGISTER(core::PolicyRegistry, "counted",
             "counted — test-only Max that counts its live instances",
             [](const Spec& spec)
                 -> StatusOr<std::unique_ptr<core::MemoryPolicy>> {
               RTQ_RETURN_IF_ERROR(SpecArgs(spec.args).Finish());
               return std::unique_ptr<core::MemoryPolicy>(new CountedPolicy());
             });

TEST(Engine, SwappedOutPoliciesAreDestroyed) {
  const int base = g_counted_live.load();
  auto sys = Rtdbs::Create(SmallConfig("counted", 0.08));
  ASSERT_TRUE(sys.ok());
  EXPECT_EQ(g_counted_live.load(), base + 1);
  for (int i = 1; i <= 5; ++i) {
    sys.value()->RunUntil(600.0 * i);
    ASSERT_TRUE(sys.value()->SwapPolicy("counted").ok());
    EXPECT_EQ(g_counted_live.load(), base + 1) << "after swap " << i;
  }
  ASSERT_TRUE(sys.value()->SwapPolicy("max").ok());
  EXPECT_EQ(g_counted_live.load(), base);
  sys.value()->RunUntil(3600.0);
  EXPECT_GT(sys.value()->Summarize().overall.completions, 0);
}

TEST(Engine, PmmAdaptsDuringRun) {
  auto sys = Rtdbs::Create(SmallConfig("pmm", 0.07));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(3600.0 * 2);
  const core::PmmController* pmm = sys.value()->pmm();
  ASSERT_NE(pmm, nullptr);
  EXPECT_GT(pmm->adaptations(), 5);
  // Under this memory-bottlenecked overload PMM must have left Max mode.
  EXPECT_EQ(pmm->mode(), core::PmmController::Mode::kMinMax);
}

TEST(Engine, MaxFluctuatesFarLessThanMinMax) {
  // Under Max a started query only ever toggles between its maximum and
  // zero (suspension by a more urgent arrival), so fluctuation counts
  // stay near zero; MinMax continually revises allocations (Figure 7).
  auto max_sys = Rtdbs::Create(SmallConfig("max", 0.06));
  ASSERT_TRUE(max_sys.ok());
  max_sys.value()->RunUntil(3600.0);
  auto mm_sys = Rtdbs::Create(SmallConfig("minmax", 0.06));
  ASSERT_TRUE(mm_sys.ok());
  mm_sys.value()->RunUntil(3600.0);
  double max_fluct = max_sys.value()->Summarize().overall.avg_fluctuations;
  double mm_fluct = mm_sys.value()->Summarize().overall.avg_fluctuations;
  EXPECT_LT(max_fluct, mm_fluct);
  EXPECT_LT(max_fluct, 1.0);
}

TEST(Engine, MinMaxProducesFluctuations) {
  auto sys = Rtdbs::Create(SmallConfig("minmax", 0.07));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(3600.0);
  SystemSummary s = sys.value()->Summarize();
  EXPECT_GT(s.overall.avg_fluctuations, 0.5);
}

TEST(Engine, RepeatedRunUntilComposes) {
  auto sys = Rtdbs::Create(SmallConfig("pmm"));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(600.0);
  size_t first = sys.value()->metrics().records().size();
  sys.value()->RunUntil(1800.0);
  EXPECT_GT(sys.value()->metrics().records().size(), first);
}

TEST(Engine, SourceActivationDrivesWorkloadChanges) {
  // The mixshift scenario offers only the Medium class over [0, 3600),
  // then only the Small class, whose 2.8 q/s floods the second segment.
  SystemConfig config = harness::ScenarioConfig(
      "mixshift:interval=3600,intervals=2", PolicyConfig{"pmm"});
  auto sys = Rtdbs::Create(config);
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(3600.0);
  int64_t medium_only =
      static_cast<int64_t>(sys.value()->metrics().records().size());
  EXPECT_GT(medium_only, 0);
  ClassSummary small_first = MetricsCollector::WindowSummary(
      sys.value()->metrics().records(), 0.0, 3600.0, /*class=*/1);
  EXPECT_EQ(small_first.completions, 0);
  sys.value()->RunUntil(7200.0);
  // The Small class at 2.8 q/s floods the record stream.
  int64_t after =
      static_cast<int64_t>(sys.value()->metrics().records().size());
  EXPECT_GT(after - medium_only, 2000);
  ClassSummary small_window = MetricsCollector::WindowSummary(
      sys.value()->metrics().records(), 3600.0, 7200.0, /*class=*/1);
  EXPECT_GT(small_window.completions, 2000);
}

}  // namespace
}  // namespace rtq::engine
