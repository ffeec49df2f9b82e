// The mixshift scenario is the Section 5.3 workload alternation: Medium
// joins on even intervals, Small joins on odd ones. Its trajectory is
// pinned: every query-level metric, overall, per class and per
// alternation interval, plus MPL, CPU utilization and event count, must
// equal these constants (seed 42, 6 x 600 s intervals), recorded when
// mixshift was shown equal to flipping the Poisson source's classes on
// and off at each boundary. The draw each scripted segment end drops is
// part of that trajectory, so a change there shows up here.

#include <gtest/gtest.h>

#include <string>

#include "engine/rtdbs.h"
#include "harness/paper_experiments.h"
#include "common/spec.h"

namespace rtq::engine {
namespace {

constexpr int kIntervals = 6;
constexpr SimTime kIntervalS = 600.0;

/// completions, misses, miss ratio, wait, exec, response, fluctuations.
struct Pinned {
  int64_t completions;
  int64_t misses;
  double miss_ratio;
  double avg_wait;
  double avg_exec;
  double avg_response;
  double avg_fluctuations;
};

// Per policy: the six interval windows in order, then the overall
// summary, then classes 0 (Medium) and 1 (Small).
constexpr Pinned kPmmRows[] = {
    {27, 13, 0.48148148148148145, 65.016139142005784, 46.246766570338224,
     111.26290571234401, 0.81481481481481477},
    {1556, 560, 0.35989717223650386, 1.7721530423072118, 8.0210112210173712,
     9.7931642633245968, 1.1503856041131093},
    {57, 13, 0.22807017543859648, 23.975327251204309, 25.62638551647775,
     49.601712767682059, 1.2631578947368423},
    {1683, 755, 0.44860368389780153, 1.7769409627608217, 7.8595602858981337,
     9.6365012486589485, 1.3404634581105173},
    {55, 12, 0.21818181818181817, 39.445419662370064, 29.797049664197974,
     69.242469326568042, 0.83636363636363642},
    {1715, 867, 0.50553935860058308, 2.3568207462302109, 8.0934803693358948,
     10.450301115566134, 1.448979591836733},
    {5093, 2220, 0.43589240133516594, 2.9612285186578564, 8.6269107908599736,
     11.588139309517851, 1.3098370312193217},
    {113, 50, 0.44247787610619471, 70.644057408068193, 39.269477976972489,
     109.91353538504073, 1.1061946902654871},
    {4980, 2170, 0.43574297188755018, 1.4254534856250463, 7.9316075595285218,
     9.3570610451535163, 1.3144578313253008},
};

constexpr Pinned kMaxRows[] = {
    {27, 13, 0.48148148148148145, 65.016139142005784, 46.246766570338224,
     111.26290571234401, 0.81481481481481477},
    {1556, 546, 0.35089974293059129, 1.6519272735720181, 8.1117192329681664,
     9.763646506540173, 1.1465295629820069},
    {57, 13, 0.22807017543859648, 23.976159517561364, 25.619807927770971,
     49.595967445332327, 1.2280701754385965},
    {1683, 752, 0.44682115270350564, 1.6768218332725575, 7.9349189910400746,
     9.6117408243126068, 1.3321449792038031},
    {55, 12, 0.21818181818181817, 39.451255881694316, 30.034856325853173,
     69.486112207547492, 0.94545454545454555},
    {1716, 861, 0.50174825174825177, 2.2933221841456928, 8.1272107350790552,
     10.420532919224733, 1.4603729603729581},
    {5094, 2197, 0.43129171574401254, 2.8699895512167473, 8.6932678164543393,
     11.563257367671103, 1.3105614448370657},
    {113, 50, 0.44247787610619471, 70.586794909731424, 39.33119859093388,
     109.91799350066529, 1.0619469026548669},
    {4981, 2147, 0.43103794418791408, 1.3337520476005791, 7.9982093588120859,
     9.3319614064126988, 1.3162015659506132},
};

struct Golden {
  const char* policy;
  const Pinned* rows;
  double avg_mpl;
  double cpu_utilization;
  uint64_t events;
};

const Golden kGolden[] = {
    {"pmm", kPmmRows, 11.011524500813016, 0.34840823788559039, 1554270},
    {"max", kMaxRows, 11.11957381733952, 0.34960148434952631, 1557025},
};

void ExpectPinned(const ClassSummary& s, const Pinned& p) {
  EXPECT_EQ(s.completions, p.completions);
  EXPECT_EQ(s.misses, p.misses);
  EXPECT_DOUBLE_EQ(s.miss_ratio, p.miss_ratio);
  EXPECT_DOUBLE_EQ(s.avg_wait, p.avg_wait);
  EXPECT_DOUBLE_EQ(s.avg_exec, p.avg_exec);
  EXPECT_DOUBLE_EQ(s.avg_response, p.avg_response);
  EXPECT_DOUBLE_EQ(s.avg_fluctuations, p.avg_fluctuations);
}

TEST(ScenarioEquivalence, MixshiftMatchesHandRolledAlternation) {
  const std::string spec =
      "mixshift:interval=" + FormatDouble(kIntervalS) +
      ",intervals=" + std::to_string(kIntervals);
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(g.policy);
    auto sys = Rtdbs::Create(
        harness::ScenarioConfig(spec, {g.policy}, /*seed=*/42));
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    Rtdbs& rtdbs = *sys.value();
    rtdbs.RunUntil(kIntervals * kIntervalS);
    for (int i = 0; i < kIntervals; ++i) {
      SCOPED_TRACE("interval " + std::to_string(i));
      ClassSummary window = MetricsCollector::WindowSummary(
          rtdbs.metrics().records(), i * kIntervalS, (i + 1) * kIntervalS,
          /*query_class=*/-1);
      ExpectPinned(window, g.rows[i]);
    }
    SystemSummary summary = rtdbs.Summarize();
    ExpectPinned(summary.overall, g.rows[kIntervals]);
    ASSERT_EQ(summary.per_class.size(), 2u);
    ExpectPinned(summary.per_class[0], g.rows[kIntervals + 1]);
    ExpectPinned(summary.per_class[1], g.rows[kIntervals + 2]);
    EXPECT_DOUBLE_EQ(summary.avg_mpl, g.avg_mpl);
    EXPECT_DOUBLE_EQ(summary.cpu_utilization, g.cpu_utilization);
    EXPECT_EQ(summary.events_dispatched, g.events);
  }
}

}  // namespace
}  // namespace rtq::engine
