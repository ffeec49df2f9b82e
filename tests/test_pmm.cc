#include "core/pmm.h"

#include <gtest/gtest.h>

#include <deque>

#include "core/memory_manager.h"

namespace rtq::core {
namespace {

/// Scriptable probe: hands out pre-loaded readings.
class FakeProbe : public SystemProbe {
 public:
  Readings TakeReadings() override {
    Readings r = next_;
    r.now = now_;
    now_ += 100.0;
    return r;
  }
  void Set(double mpl, double cpu, double disk) {
    next_.realized_mpl = mpl;
    next_.cpu_utilization = cpu;
    next_.avg_disk_utilization = disk;
    next_.max_disk_utilization = disk;
  }

 private:
  Readings next_{};
  SimTime now_ = 0.0;
};

struct Fixture {
  explicit Fixture(PmmParams params = PmmParams())
      : mm(2560, std::make_unique<MaxStrategy>(), [](QueryId, PageCount) {}) {
    PolicyHost host;
    host.mm = &mm;
    host.probe = &probe;
    host.pmm = params;
    EXPECT_TRUE(controller.Attach(host).ok());
  }

  /// Feeds one batch of completions with the given shape.
  void FeedBatch(int64_t n, int64_t misses, double wait, double exec,
                 double tc, PageCount max_mem = 1300, int64_t ios = 1200) {
    for (int64_t i = 0; i < n; ++i) {
      CompletionInfo info;
      info.id = next_id++;
      info.query_class = 0;
      info.missed = i < misses;
      // Small jitter so large-sample tests have nonzero variance.
      double jitter = 0.01 * static_cast<double>(i % 7);
      info.admission_wait = wait + (wait > 0.0 ? jitter : 0.0);
      info.execution_time = exec + jitter;
      info.time_constraint = tc + jitter;
      info.max_memory = max_mem + (i % 5);
      info.operand_io_requests = ios + (i % 11);
      controller.OnQueryFinished(info);
    }
  }

  FakeProbe probe;
  MemoryManager mm;
  PmmController controller;
  QueryId next_id = 0;
};

TEST(PmmParams, Validation) {
  PmmParams p;
  EXPECT_TRUE(p.Validate().ok());
  p.sample_size = 1;
  EXPECT_FALSE(p.Validate().ok());
  p = PmmParams();
  p.util_low = 0.9;  // > util_high
  EXPECT_FALSE(p.Validate().ok());
  p = PmmParams();
  p.adapt_conf_level = 1.5;
  EXPECT_FALSE(p.Validate().ok());
  p = PmmParams();
  p.max_mpl = 0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(Pmm, StartsInMaxMode) {
  Fixture f;
  EXPECT_EQ(f.controller.mode(), PmmController::Mode::kMax);
  EXPECT_EQ(f.mm.strategy().name(), "Max");
}

TEST(Pmm, AdaptsOnlyAtBatchBoundaries) {
  Fixture f;
  f.probe.Set(1.5, 0.1, 0.1);
  f.FeedBatch(29, 5, 10.0, 40.0, 100.0);
  EXPECT_EQ(f.controller.adaptations(), 0);
  f.FeedBatch(1, 0, 10.0, 40.0, 100.0);
  EXPECT_EQ(f.controller.adaptations(), 1);
}

TEST(Pmm, SwitchesToMinMaxWhenAllConditionsHold) {
  Fixture f;
  // Misses, low utilizations, positive waits, feasible slack.
  f.probe.Set(1.5, 0.10, 0.15);
  f.FeedBatch(30, 5, /*wait=*/20.0, /*exec=*/40.0, /*tc=*/150.0);
  EXPECT_EQ(f.controller.mode(), PmmController::Mode::kMinMax);
  EXPECT_GE(f.controller.target_mpl(), 1);
  // The RU heuristic: (0.775 / 0.15) * 1.5 ~ 7-8.
  EXPECT_NEAR(static_cast<double>(f.controller.target_mpl()), 7.75, 1.5);
}

TEST(Pmm, NoSwitchWithoutMisses) {
  Fixture f;
  f.probe.Set(1.5, 0.10, 0.15);
  f.FeedBatch(30, 0, 20.0, 40.0, 150.0);
  EXPECT_EQ(f.controller.mode(), PmmController::Mode::kMax);
}

TEST(Pmm, NoSwitchWhenResourcesAreBusy) {
  Fixture f;
  f.probe.Set(1.5, 0.10, 0.80);  // disks above UtilLow
  f.FeedBatch(30, 5, 20.0, 40.0, 150.0);
  EXPECT_EQ(f.controller.mode(), PmmController::Mode::kMax);
}

TEST(Pmm, NoSwitchWithoutAdmissionWaits) {
  Fixture f;
  f.probe.Set(1.5, 0.10, 0.15);
  f.FeedBatch(30, 5, /*wait=*/0.0, 40.0, 150.0);
  EXPECT_EQ(f.controller.mode(), PmmController::Mode::kMax);
}

TEST(Pmm, NoSwitchWhenExecutionsExceedConstraints) {
  Fixture f;
  f.probe.Set(1.5, 0.10, 0.15);
  f.FeedBatch(30, 5, 20.0, /*exec=*/200.0, /*tc=*/150.0);
  EXPECT_EQ(f.controller.mode(), PmmController::Mode::kMax);
}

TEST(Pmm, ProjectionSteersTowardBowlMinimum) {
  PmmParams params;
  params.fit_realized_mpl = false;
  Fixture f(params);
  // Get into MinMax mode.
  f.probe.Set(2.0, 0.10, 0.10);
  f.FeedBatch(30, 5, 20.0, 40.0, 150.0);
  ASSERT_EQ(f.controller.mode(), PmmController::Mode::kMinMax);
  // Now feed batches whose miss ratios trace a bowl in the target MPL:
  // miss = 0.01 * (target - 12)^2 + 0.1. After enough samples the
  // projection should settle near 12.
  for (int i = 0; i < 40; ++i) {
    double t = static_cast<double>(f.controller.target_mpl());
    double miss = 0.01 * (t - 12.0) * (t - 12.0) + 0.1;
    int64_t misses = static_cast<int64_t>(miss * 30.0 + 0.5);
    f.probe.Set(t, 0.10, std::clamp(0.05 * t, 0.05, 0.9));
    f.FeedBatch(30, misses, 5.0, 40.0, 150.0);
  }
  EXPECT_NEAR(static_cast<double>(f.controller.target_mpl()), 12.0, 3.0);
  EXPECT_EQ(f.controller.mode(), PmmController::Mode::kMinMax);
}

TEST(Pmm, RevertsToMaxWhenTargetSinksToMaxModeMpl) {
  Fixture f;
  // Max mode realized MPL ~ 6.
  f.probe.Set(6.0, 0.10, 0.12);
  f.FeedBatch(30, 5, 20.0, 40.0, 150.0);
  ASSERT_EQ(f.controller.mode(), PmmController::Mode::kMinMax);
  // Feed steeply increasing miss-vs-MPL data so projection pushes the
  // target DOWN to (or below) the Max-mode MPL.
  // The descent is gradual (projection steps one MPL per batch when the
  // curve reads as increasing); allow plenty of batches.
  for (int i = 0; i < 150 && f.controller.mode() ==
                                 PmmController::Mode::kMinMax;
       ++i) {
    double t = static_cast<double>(f.controller.target_mpl());
    int64_t misses = std::clamp<int64_t>(static_cast<int64_t>(t), 1, 30);
    // Saturated disks: the RU heuristic's (0.775 / util) factor stays
    // below 1, pulling the target down each batch.
    f.probe.Set(t, 0.30, 0.95);
    f.FeedBatch(30, misses, 0.5, 40.0, 150.0);
  }
  EXPECT_EQ(f.controller.mode(), PmmController::Mode::kMax);
  EXPECT_EQ(f.mm.strategy().name(), "Max");
}

TEST(Pmm, WorkloadChangeTriggersRestart) {
  Fixture f;
  f.probe.Set(1.5, 0.10, 0.15);
  // Two stable batches establish the baseline characteristics.
  f.FeedBatch(30, 5, 20.0, 40.0, 150.0, /*max_mem=*/1300, /*ios=*/1200);
  f.FeedBatch(30, 5, 20.0, 40.0, 150.0, 1300, 1200);
  ASSERT_EQ(f.controller.mode(), PmmController::Mode::kMinMax);
  EXPECT_EQ(f.controller.workload_changes_detected(), 0);
  // Radically different class: small queries.
  f.FeedBatch(30, 5, 20.0, 5.0, 20.0, /*max_mem=*/110, /*ios=*/100);
  EXPECT_EQ(f.controller.workload_changes_detected(), 1);
  EXPECT_EQ(f.controller.mode(), PmmController::Mode::kMax);
}

TEST(Pmm, StableWorkloadDoesNotFalseAlarm) {
  Fixture f;
  f.probe.Set(1.5, 0.10, 0.15);
  for (int i = 0; i < 30; ++i) {
    f.FeedBatch(30, 2, 5.0, 40.0, 150.0);
  }
  EXPECT_EQ(f.controller.workload_changes_detected(), 0);
}

TEST(Pmm, TraceRecordsEveryAdaptation) {
  Fixture f;
  f.probe.Set(1.5, 0.1, 0.15);
  f.FeedBatch(90, 5, 20.0, 40.0, 150.0);
  ASSERT_EQ(f.controller.trace().size(), 3u);
  const auto& t0 = f.controller.trace()[0];
  EXPECT_NEAR(t0.batch_miss_ratio, 5.0 / 30.0, 1e-9);
  EXPECT_DOUBLE_EQ(t0.realized_mpl, 1.5);
  // Trace times come from the probe and increase.
  EXPECT_LT(f.controller.trace()[0].time, f.controller.trace()[2].time);
}

TEST(Pmm, DisabledHeuristicStillSwitches) {
  PmmParams params;
  params.disable_ru_heuristic = true;
  Fixture f(params);
  f.probe.Set(1.5, 0.10, 0.15);
  f.FeedBatch(30, 5, 20.0, 40.0, 150.0);
  EXPECT_EQ(f.controller.mode(), PmmController::Mode::kMinMax);
  EXPECT_GE(f.controller.target_mpl(), 2);
}

TEST(Pmm, TargetClampedToMaxMpl) {
  PmmParams params;
  params.max_mpl = 5;
  Fixture f(params);
  f.probe.Set(4.0, 0.02, 0.02);  // near-idle: RU would ask for ~150
  f.FeedBatch(30, 5, 20.0, 40.0, 150.0);
  ASSERT_EQ(f.controller.mode(), PmmController::Mode::kMinMax);
  EXPECT_LE(f.controller.target_mpl(), 5);
}

}  // namespace
}  // namespace rtq::core
