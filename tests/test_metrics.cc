#include "engine/metrics.h"

#include <gtest/gtest.h>

namespace rtq::engine {
namespace {

CompletionRecord Rec(QueryId id, int32_t cls, bool missed, SimTime finish,
                     double wait, double exec, int64_t fluct = 0) {
  CompletionRecord r;
  r.info.id = id;
  r.info.query_class = cls;
  r.info.missed = missed;
  r.info.finish = finish;
  r.info.admission_wait = wait;
  r.info.execution_time = exec;
  r.mem_fluctuations = fluct;
  return r;
}

TEST(Metrics, SummarizeAggregates) {
  MetricsCollector m(2, 10);
  m.Record(Rec(1, 0, false, 10.0, 2.0, 8.0, 1));
  m.Record(Rec(2, 0, true, 20.0, 4.0, 10.0, 3));
  m.Record(Rec(3, 1, false, 30.0, 6.0, 12.0, 5));

  ClassSummary overall = m.Overall();
  std::vector<ClassSummary> per_class = m.PerClass();

  EXPECT_EQ(overall.completions, 3);
  EXPECT_EQ(overall.misses, 1);
  EXPECT_NEAR(overall.miss_ratio, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(overall.avg_wait, 4.0, 1e-12);
  EXPECT_NEAR(overall.avg_exec, 10.0, 1e-12);
  EXPECT_NEAR(overall.avg_response, 14.0, 1e-12);
  EXPECT_NEAR(overall.avg_fluctuations, 3.0, 1e-12);

  ASSERT_EQ(per_class.size(), 2u);
  EXPECT_EQ(per_class[0].completions, 2);
  EXPECT_EQ(per_class[0].misses, 1);
  EXPECT_EQ(per_class[1].completions, 1);
  EXPECT_EQ(per_class[1].misses, 0);
}

TEST(Metrics, EmptySummarize) {
  MetricsCollector m(1, 10);
  ClassSummary overall = m.Overall();
  EXPECT_EQ(overall.completions, 0);
  EXPECT_DOUBLE_EQ(overall.miss_ratio, 0.0);
  ASSERT_EQ(m.PerClass().size(), 1u);
  EXPECT_EQ(m.PerClass()[0].completions, 0);
}

TEST(Metrics, WindowSummaryFiltersByTimeAndClass) {
  MetricsCollector m(1, 10);
  m.Record(Rec(1, 0, true, 5.0, 0, 1));
  m.Record(Rec(2, 0, false, 15.0, 0, 1));
  m.Record(Rec(3, 1, true, 16.0, 0, 1));
  m.Record(Rec(4, 0, false, 25.0, 0, 1));

  ClassSummary w = MetricsCollector::WindowSummary(m.records(), 10.0, 20.0,
                                                   /*query_class=*/-1);
  EXPECT_EQ(w.completions, 2);
  EXPECT_EQ(w.misses, 1);

  ClassSummary c0 = MetricsCollector::WindowSummary(m.records(), 0.0, 30.0,
                                                    /*query_class=*/0);
  EXPECT_EQ(c0.completions, 3);
  EXPECT_EQ(c0.misses, 1);
}

TEST(Metrics, MplTimeAverage) {
  MetricsCollector m(1, 10);
  m.UpdateMpl(0.0, 0);
  m.UpdateMpl(10.0, 4);   // 0 for [0,10)
  m.UpdateMpl(30.0, 2);   // 4 for [10,30)
  // 2 for [30,40): average = (0*10 + 4*20 + 2*10) / 40 = 2.5.
  EXPECT_NEAR(m.AverageMpl(40.0), 2.5, 1e-12);
}

TEST(Metrics, MissCiReflectsStream) {
  MetricsCollector m(1, 5);
  for (int i = 0; i < 100; ++i) {
    m.Record(Rec(static_cast<QueryId>(i), 0, i % 4 == 0, i, 0, 1));
  }
  auto ci = m.MissRatioCi();
  EXPECT_EQ(ci.num_batches, 20);
  EXPECT_NEAR(ci.mean, 0.25, 0.05);
  EXPECT_GT(ci.half_width, 0.0);
}

TEST(Metrics, RecordsOutsideClassRangeFoldIntoOverallOnly) {
  MetricsCollector m(2, 10);
  m.Record(Rec(1, 5, false, 1.0, 0, 1));  // class 5 but only 2 tracked
  std::vector<ClassSummary> per_class = m.PerClass();
  EXPECT_EQ(m.Overall().completions, 1);
  ASSERT_EQ(per_class.size(), 2u);
  EXPECT_EQ(per_class[0].completions, 0);
  EXPECT_EQ(per_class[1].completions, 0);
}

}  // namespace
}  // namespace rtq::engine
