#include "core/pmm_fair.h"

#include <gtest/gtest.h>

namespace rtq::core {
namespace {

class FakeProbe : public SystemProbe {
 public:
  Readings TakeReadings() override {
    Readings r;
    r.now = now_;
    now_ += 100.0;
    r.realized_mpl = 2.0;
    r.cpu_utilization = 0.1;
    r.avg_disk_utilization = 0.15;
    r.max_disk_utilization = 0.2;
    return r;
  }

 private:
  SimTime now_ = 0.0;
};

MemRequest Q(QueryId id, SimTime arrival, SimTime deadline, int32_t cls,
             PageCount min, PageCount max) {
  MemRequest r;
  r.id = id;
  r.arrival = arrival;
  r.deadline = deadline;
  r.query_class = cls;
  r.min_memory = min;
  r.max_memory = max;
  return r;
}

TEST(FairOrderingStrategy, IdentityWhenUrgenciesEqual) {
  FairOrderingStrategy fair(std::make_unique<MinMaxStrategy>(-1),
                            {1.0, 1.0});
  std::vector<MemRequest> qs = {Q(1, 0, 100, 0, 40, 900),
                                Q(2, 0, 200, 1, 40, 900)};
  auto out = fair.Allocate(qs, 1000);
  EXPECT_EQ(out[0], 900);
  EXPECT_EQ(out[1], 100);
}

TEST(FairOrderingStrategy, UrgencyBoostReordersClasses) {
  // Class 1 is heavily boosted: its query sorts first despite the later
  // real deadline.
  FairOrderingStrategy fair(std::make_unique<MinMaxStrategy>(-1),
                            {1.0, 4.0});
  std::vector<MemRequest> qs = {Q(1, 0, 100, 0, 40, 900),
                                Q(2, 0, 200, 1, 40, 900)};
  auto out = fair.Allocate(qs, 1000);
  // vdeadline: q1 = 100, q2 = 50 -> q2 first.
  EXPECT_EQ(out[0], 100);
  EXPECT_EQ(out[1], 900);
}

TEST(FairOrderingStrategy, UnknownClassGetsNeutralUrgency) {
  FairOrderingStrategy fair(std::make_unique<MaxStrategy>(), {2.0});
  std::vector<MemRequest> qs = {Q(1, 0, 100, /*cls=*/7, 40, 400)};
  auto out = fair.Allocate(qs, 1000);
  EXPECT_EQ(out[0], 400);
}

TEST(FairOrderingStrategy, Name) {
  FairOrderingStrategy fair(std::make_unique<MinMaxStrategy>(3), {1.0});
  EXPECT_EQ(fair.name(), "Fair(MinMax-3)");
}

struct FairFixture {
  FairFixture()
      : mm(2560, std::make_unique<MaxStrategy>(), [](QueryId, PageCount) {}),
        controller({1.0, 1.0}) {
    PolicyHost host;
    host.mm = &mm;
    host.probe = &probe;
    host.num_classes = 2;
    EXPECT_TRUE(controller.Attach(host).ok());
  }

  void FeedBatch(int64_t n, int64_t misses_class0, int64_t misses_class1) {
    for (int64_t i = 0; i < n; ++i) {
      CompletionInfo info;
      info.id = next_id++;
      info.query_class = static_cast<int32_t>(i % 2);
      int64_t idx = i / 2;
      info.missed = info.query_class == 0 ? idx < misses_class0
                                          : idx < misses_class1;
      info.admission_wait = 5.0 + 0.01 * static_cast<double>(i % 5);
      info.execution_time = 40.0 + 0.01 * static_cast<double>(i % 5);
      info.time_constraint = 150.0 + 0.01 * static_cast<double>(i % 5);
      info.max_memory = 1000 + (i % 3);
      info.operand_io_requests = 1000 + (i % 7);
      controller.OnQueryFinished(info);
    }
  }

  FakeProbe probe;
  MemoryManager mm;
  PmmFairController controller;
  QueryId next_id = 0;
};

TEST(PmmFair, StartsWithNeutralUrgencies) {
  FairFixture f;
  for (double u : f.controller.class_urgency()) EXPECT_DOUBLE_EQ(u, 1.0);
}

TEST(PmmFair, BoostsTheUnderservedClass) {
  FairFixture f;
  // Class 1 misses far more than class 0 across several batches.
  for (int b = 0; b < 5; ++b) f.FeedBatch(30, 0, 10);
  EXPECT_GT(f.controller.class_urgency()[1],
            f.controller.class_urgency()[0]);
  EXPECT_DOUBLE_EQ(f.controller.class_urgency()[0], 1.0);
}

TEST(PmmFair, UrgencyDecaysWhenBalanceReturns) {
  FairFixture f;
  for (int b = 0; b < 4; ++b) f.FeedBatch(30, 0, 10);
  double boosted = f.controller.class_urgency()[1];
  ASSERT_GT(boosted, 1.0);
  // Now class 1 recovers; class 0 suffers instead.
  for (int b = 0; b < 8; ++b) f.FeedBatch(30, 10, 0);
  EXPECT_LT(f.controller.class_urgency()[1], boosted);
}

TEST(PmmFair, UrgencyIsClamped) {
  FairFixture f;
  for (int b = 0; b < 50; ++b) f.FeedBatch(30, 0, 15);
  EXPECT_LE(f.controller.class_urgency()[1], 8.0 + 1e-12);
  EXPECT_GE(f.controller.class_urgency()[0], 1.0 - 1e-12);
}

TEST(PmmFair, InstallsFairStrategies) {
  FairFixture f;
  EXPECT_EQ(f.mm.strategy().name(), "Fair(Max)");
}

}  // namespace
}  // namespace rtq::core
