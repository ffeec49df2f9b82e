#include "core/policy_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/spec.h"
#include "engine/rtdbs.h"
#include "harness/paper_experiments.h"
#include "run_fingerprint.h"

namespace rtq::core {
namespace {

using test_util::Fingerprint;

TEST(PolicySpec, ParsesNameAndArgs) {
  auto plain = Spec::Parse("pmm");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().name, "pmm");
  EXPECT_EQ(plain.value().args, "");

  auto with_args = Spec::Parse("pmm-fair:w=1,2");
  ASSERT_TRUE(with_args.ok());
  EXPECT_EQ(with_args.value().name, "pmm-fair");
  EXPECT_EQ(with_args.value().args, "w=1,2");
  EXPECT_EQ(with_args.value().ToString(), "pmm-fair:w=1,2");
}

TEST(PolicySpec, RejectsMalformedNames) {
  for (const char* bad : {"", ":5", "Max", "min max", "5minmax", "-x"}) {
    auto spec = Spec::Parse(bad);
    EXPECT_FALSE(spec.ok()) << bad;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(PolicyRegistry, BuiltinsAreRegistered) {
  auto& registry = PolicyRegistry::Global();
  for (const char* name :
       {"max", "minmax", "prop", "pmm", "pmm-fair", "none", "oracle-ed",
        "pmm-class", "edf-shed", "pmm-tick", "pmm-predict", "select"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
}

TEST(PolicyRegistry, IterationIsDeterministic) {
  auto names = PolicyRegistry::Global().Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names, PolicyRegistry::Global().Names());
  // Self-registered plugins from src/policies/ participate.
  EXPECT_NE(std::find(names.begin(), names.end(), "none"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "oracle-ed"), names.end());
}

TEST(PolicyRegistry, UnknownPolicyIsAStatusNotACheck) {
  auto policy = PolicyRegistry::Global().Create("definitely-not-registered");
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kNotFound);
}

TEST(PolicyRegistry, MalformedArgsAreStatusErrors) {
  for (const char* bad :
       {"minmax:abc", "minmax:0", "minmax:-3", "prop:0", "max:bogus",
        "pmm:5", "pmm-fair:x=1", "pmm-fair:w=", "pmm-fair:w=1,zero",
        "pmm-fair:w=0,1", "pmm-fair:w=nan,1", "pmm-fair:w=inf", "none:1",
        "oracle-ed:m=0", "oracle-ed:m=1,2", "oracle-ed:m=nan",
        "oracle-ed:w=2", "pmm-class:targets=", "pmm-class:targets=0",
        "pmm-class:targets=1.5", "pmm-class:targets=6,zero",
        "pmm-class:targets=inf", "pmm-class:targets=1e19",
        "pmm-class:w=1", "edf-shed:m=0", "edf-shed:m=1,2", "edf-shed:m=nan",
        "edf-shed:x=2", "pmm-tick:ms=", "pmm-tick:ms=-1", "pmm-tick:ms=abc",
        "pmm-tick:s=5", "pmm-predict:window=2", "pmm-predict:lead=0",
        "pmm-predict:band=1.5", "pmm-predict:band=0", "pmm-predict:conf=2",
        "pmm-predict:x=1", "pmm-predict:window=8,window=9",
        "select:window=0", "select:bogus", "select:window=3,window=4",
        "select:candidates=", "select:candidates=pmm+select"}) {
    auto policy = PolicyRegistry::Global().Create(bad);
    EXPECT_FALSE(policy.ok()) << bad;
    EXPECT_EQ(policy.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(PolicyRegistry, DuplicateRegistrationFails) {
  Status status = PolicyRegistry::Global().Register(
      "max", "again", [](const Spec&) {
        return StatusOr<std::unique_ptr<MemoryPolicy>>(
            Status::Internal("unreachable"));
      });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(PolicyRegistry, DescribeRoundTrips) {
  // Canonical specs reproduce themselves through Create -> Describe,
  // including numbers that need more than %g's six significant digits.
  for (const char* spec :
       {"max", "max:strict", "minmax", "minmax:5", "prop", "prop:10", "pmm",
        "pmm-fair:w=1,2", "pmm-fair:w=0.5,2.5", "pmm-fair:w=1.0000001,2",
        "none", "oracle-ed", "oracle-ed:m=1.5", "oracle-ed:m=0.123456789",
        "pmm-class", "pmm-class:targets=6,10", "edf-shed", "edf-shed:m=1.5",
        "edf-shed:m=1.0000001", "pmm-tick:ms=0", "pmm-tick:ms=60000",
        "pmm-predict", "pmm-predict:window=8,lead=3,band=0.2,conf=0.6",
        "pmm-predict:band=0.2000001,conf=0.61234567",
        "select:candidates=pmm+pmm-predict,window=4"}) {
    auto policy = PolicyRegistry::Global().Create(spec);
    ASSERT_TRUE(policy.ok()) << spec;
    EXPECT_EQ(policy.value()->Describe(), spec) << spec;
    // And the description is itself creatable (fixed point).
    auto again = PolicyRegistry::Global().Create(policy.value()->Describe());
    ASSERT_TRUE(again.ok()) << spec;
    EXPECT_EQ(again.value()->Describe(), policy.value()->Describe()) << spec;
  }
}

TEST(PolicySpec, NumbersPrintShortAndRoundTrip) {
  // %g where it parses back to the same double, so existing canonical
  // specs keep their text; the fewest more digits where it does not.
  EXPECT_EQ(FormatSpecDoubleList({10, 0.2, 1e6, 2.5e-7}),
            "10,0.2,1e+06,2.5e-07");
  EXPECT_EQ(FormatSpecDoubleList({1.0000001, 1234567, 1.0 / 3.0}),
            "1.0000001,1234567,0.3333333333333333");
}

TEST(PolicyRegistry, NonCanonicalSpecsNormalize) {
  const std::pair<const char*, const char*> cases[] = {
      {"pmm-fair:w=1.0,2.00", "pmm-fair:w=1,2"},
      // The candidates value keeps its commas: "lead=3+pmm" continues
      // the pmm-predict candidate, it does not open a select key.
      {"select:candidates=pmm-predict:window=8,lead=3+pmm",
       "select:candidates=pmm-predict:window=8,lead=3+pmm,window=5"},
      {"select:candidates=pmm,pmm-predict",
       "select:candidates=pmm+pmm-predict,window=5"},
  };
  for (const auto& [spec, canonical] : cases) {
    auto policy = PolicyRegistry::Global().Create(spec);
    ASSERT_TRUE(policy.ok()) << spec << ": " << policy.status().ToString();
    EXPECT_EQ(policy.value()->Describe(), canonical) << spec;
  }
}

TEST(ParsePolicyList, SplitsSpecsAndKeepsWeightLists) {
  auto simple = ParsePolicyList("pmm,none");
  ASSERT_TRUE(simple.ok());
  EXPECT_EQ(simple.value(),
            (std::vector<std::string>{"pmm", "none"}));

  auto weights = ParsePolicyList("minmax:5,pmm-fair:w=1,2,max");
  ASSERT_TRUE(weights.ok());
  EXPECT_EQ(weights.value(), (std::vector<std::string>{
                                 "minmax:5", "pmm-fair:w=1,2", "max"}));

  auto spaced = ParsePolicyList(" pmm , oracle-ed:m=1.5 ");
  ASSERT_TRUE(spaced.ok());
  EXPECT_EQ(spaced.value(),
            (std::vector<std::string>{"pmm", "oracle-ed:m=1.5"}));
}

TEST(ParsePolicyList, KeyValueSegmentsFoldIntoThePreviousSpec) {
  // A segment that is a bare key=value pair ('=' before any ':')
  // continues the previous spec — this is what lets a canonical select
  // spec survive inside a comma-separated RTQ_POLICIES list.
  auto select = ParsePolicyList(
      "pmm,select:candidates=pmm+pmm-predict,window=4,none");
  ASSERT_TRUE(select.ok());
  EXPECT_EQ(select.value(),
            (std::vector<std::string>{
                "pmm", "select:candidates=pmm+pmm-predict,window=4",
                "none"}));

  auto predict = ParsePolicyList(
      "pmm-predict:window=8,lead=3,band=0.2,edf-shed:m=1.5");
  ASSERT_TRUE(predict.ok());
  EXPECT_EQ(predict.value(),
            (std::vector<std::string>{"pmm-predict:window=8,lead=3,band=0.2",
                                      "edf-shed:m=1.5"}));

  // A segment with ':' before '=' is a new spec, not a continuation.
  auto boundary = ParsePolicyList("pmm,pmm-class:targets=6,10");
  ASSERT_TRUE(boundary.ok());
  EXPECT_EQ(boundary.value(),
            (std::vector<std::string>{"pmm", "pmm-class:targets=6,10"}));
}

TEST(ParsePolicyList, RejectsGarbage) {
  EXPECT_FALSE(ParsePolicyList("").ok());
  EXPECT_FALSE(ParsePolicyList(",,").ok());
  EXPECT_FALSE(ParsePolicyList("pmm,,none").ok());
  EXPECT_FALSE(ParsePolicyList("5,pmm").ok());  // leading continuation
}

// ---------------------------------------------------------------------------
// The spec strings the retired PolicyKind enum rendered, each pinned to
// the 1,200 s fingerprint it produced when the enum was removed.
// ---------------------------------------------------------------------------

engine::SystemConfig ShimConfig(engine::PolicyConfig policy) {
  return harness::BaselineConfig(0.06, policy, /*seed=*/42);
}

/// Simulated seconds of the runs whose trajectories are fingerprinted.
constexpr SimTime kHorizon = 1200.0;

TEST(PolicyKindShim, EnumAndSpecConfigsProduceIdenticalRuns) {
  struct Case {
    const char* spec;
    uint64_t events;
    int64_t completions;
    int64_t misses;
    double avg_exec;
  };
  const Case cases[] = {
      {"max", 195393, 57, 5, 38.618029047640015},
      {"max:strict", 177475, 56, 10, 27.067857094615803},
      {"minmax", 316921, 58, 2, 56.06827727800443},
      {"minmax:4", 344217, 58, 3, 68.577766693294748},
      {"prop", 362873, 58, 7, 69.341057348989665},
      {"prop:4", 351269, 58, 2, 66.798819002915806},
      {"pmm", 284861, 58, 5, 59.214984750657834},
      {"pmm-fair:w=1", 284861, 58, 5, 59.214984750657834},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec);
    const auto [events, completions, misses, avg_exec, avg_wait] =
        Fingerprint(ShimConfig({c.spec}), kHorizon);
    EXPECT_EQ(events, c.events);
    EXPECT_EQ(completions, c.completions);
    EXPECT_EQ(misses, c.misses);
    EXPECT_DOUBLE_EQ(avg_exec, c.avg_exec);
  }
}

TEST(PolicyKindShim, ExplicitSpecWinsOverEnumFields) {
  // A default config names PMM, which the default enum value resolved
  // to; an explicit spec string is carried verbatim.
  EXPECT_EQ(engine::PolicyConfig().ResolvedSpec(), "pmm");
  EXPECT_EQ(engine::PolicyConfig{"minmax"}.ResolvedSpec(), "minmax");
  EXPECT_EQ(engine::PolicyConfig{"pmm-fair:w=1,2"}.ResolvedSpec(),
            "pmm-fair:w=1,2");
}

// ---------------------------------------------------------------------------
// The two plugin policies (registered from src/policies/, zero engine
// edits): behavioural sanity.
// ---------------------------------------------------------------------------

TEST(PluginPolicies, NoneAdmitsImmediatelyFcfs) {
  // Light load: the pool never fills, so with admission control absent
  // every query is granted its maximum the moment it arrives.
  auto sys =
      engine::Rtdbs::Create(harness::BaselineConfig(0.01, {"none"}));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(3600.0);
  engine::SystemSummary s = sys.value()->Summarize();
  EXPECT_GT(s.overall.completions, 20);
  // A rare overlap of two large queries can still queue briefly, but
  // the mean wait stays far below any admission-controlled policy's.
  EXPECT_LT(s.overall.avg_wait, 1.0);
}

TEST(PluginPolicies, OracleNeverSpendsOnInfeasibleQueries) {
  // A margin so large that no query ever looks feasible: the oracle
  // admits nothing and every query ages out at its deadline.
  auto sys = engine::Rtdbs::Create(ShimConfig({"oracle-ed:m=1000"}));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(1800.0);
  engine::SystemSummary s = sys.value()->Summarize();
  EXPECT_GT(s.overall.misses, 0);
  EXPECT_EQ(s.overall.completions, s.overall.misses);
  EXPECT_DOUBLE_EQ(s.avg_mpl, 0.0);
}

TEST(PluginPolicies, PmmClassWithoutTargetsDegeneratesToPmm) {
  // No quotas installed: the wrapper strategy is bypassed entirely, so
  // the trajectory is bit-identical to plain PMM.
  auto config_pmm = harness::MulticlassConfig(0.8, {"pmm"}, 42);
  auto config_class = harness::MulticlassConfig(0.8, {"pmm-class"}, 42);
  EXPECT_EQ(Fingerprint(config_pmm, kHorizon),
            Fingerprint(config_class, kHorizon));
}

TEST(PluginPolicies, PmmClassQuotaBoundsTheRealizedMpl) {
  // targets=1,1 admits at most one query per class at a time, so the
  // time-averaged MPL can never exceed 2 no matter how hard PMM pushes.
  auto sys = engine::Rtdbs::Create(
      harness::MulticlassConfig(1.0, {"pmm-class:targets=1,1"}, 42));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(3600.0);
  engine::SystemSummary s = sys.value()->Summarize();
  EXPECT_GT(s.overall.completions, 100);
  EXPECT_LE(s.avg_mpl, 2.0 + 1e-9);
}

TEST(PluginPolicies, PmmClassRejectsTargetCountMismatch) {
  // Baseline has one class; two targets must fail at system build time.
  auto sys = engine::Rtdbs::Create(
      harness::BaselineConfig(0.06, {"pmm-class:targets=6,10"}));
  ASSERT_FALSE(sys.ok());
  EXPECT_EQ(sys.status().code(), StatusCode::kInvalidArgument);
}

TEST(PluginPolicies, EdfShedNeverSpendsOnInfeasibleQueries) {
  // A margin so large that nothing ever looks feasible: every query is
  // shed and ages out at its deadline, exactly like the oracle bound.
  auto sys = engine::Rtdbs::Create(ShimConfig({"edf-shed:m=1000"}));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(1800.0);
  engine::SystemSummary s = sys.value()->Summarize();
  EXPECT_GT(s.overall.misses, 0);
  EXPECT_EQ(s.overall.completions, s.overall.misses);
  EXPECT_DOUBLE_EQ(s.avg_mpl, 0.0);
}

TEST(PluginPolicies, OracleBeatsMaxUnderOverload) {
  // Under heavy overload the clairvoyant filter should waste no memory
  // on doomed queries, so it cannot do worse than plain Max.
  auto oracle =
      Fingerprint(harness::BaselineConfig(0.12, {"oracle-ed"}), kHorizon);
  auto max = Fingerprint(harness::BaselineConfig(0.12, {"max"}), kHorizon);
  EXPECT_LE(std::get<2>(oracle), std::get<2>(max));
}

}  // namespace
}  // namespace rtq::core
