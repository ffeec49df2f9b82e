// Registry-wide scenario-generator properties, mirroring
// test_policy_property.cc: these iterate ScenarioRegistry::Global()
// .Names(), so every future generator is covered the moment it
// registers:
//
//  1. every registered name is creatable bare (factories choose
//     sensible defaults);
//  2. the canonical name is a Create fixed point, so spec strings are
//     safe to persist in trace headers and BENCH_*.json;
//  3. generation is deterministic: same (spec, seed) renders a
//     byte-identical serialized trace;
//  4. the determinism gate: a live ScenarioSource run and a replay of
//     the RenderScenarioTrace trace produce bit-identical engine
//     trajectories — completions, misses, response times, and the exact
//     event count;
//  5. RunPool scheduling is irrelevant: jobs=1 and jobs=4 sweeps return
//     identical summaries.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "engine/rtdbs.h"
#include "harness/paper_experiments.h"
#include "harness/runner.h"
#include "run_fingerprint.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace rtq::workload {
namespace {

using test_util::Fingerprint;

constexpr SimTime kHorizon = 900.0;

/// Scenario parameterizations whose features fire inside the short test
/// horizon (bare defaults put e.g. the flash crowd at t=3600).
std::string ShortSpec(const std::string& name) {
  if (name == "diurnal") return "diurnal:period=600";
  if (name == "flash") return "flash:at=300,dur=120,decay=60";
  if (name == "burst") return "burst:tlo=300,thi=100";
  if (name == "mixshift") return "mixshift:interval=300,intervals=3";
  return name;
}

TEST(ScenarioRegistry, EveryRegisteredScenarioIsCreatableBare) {
  auto names = ScenarioRegistry::Global().Names();
  ASSERT_GE(names.size(), 5u);  // the built-in catalog
  for (const std::string& name : names) {
    auto scenario = ScenarioRegistry::Global().Create(name);
    EXPECT_TRUE(scenario.ok())
        << name << ": " << scenario.status().ToString();
  }
}

TEST(ScenarioRegistry, CanonicalNameIsACreateFixedPoint) {
  for (const std::string& name : ScenarioRegistry::Global().Names()) {
    auto scenario = ScenarioRegistry::Global().Create(name);
    ASSERT_TRUE(scenario.ok()) << name;
    std::string canonical = scenario.value().name;
    auto again = ScenarioRegistry::Global().Create(canonical);
    ASSERT_TRUE(again.ok()) << name << " -> " << canonical << ": "
                            << again.status().ToString();
    EXPECT_EQ(again.value().name, canonical) << name;
    ASSERT_EQ(again.value().classes.size(), scenario.value().classes.size());
  }
}

TEST(ScenarioRegistry, MalformedSpecsReturnStatusErrors) {
  const char* bad[] = {
      "",                          // empty name
      "Diurnal",                   // names are lowercase
      "no-such-scenario",          // unknown
      "diurnal:bogus=1",           // unknown key
      "diurnal:rate",              // not k=v
      "diurnal:rate=abc",          // non-numeric value
      "diurnal:rate=1,rate=2",     // duplicate key
      "diurnal:rate=0.1,bogus=5",  // unknown key after a scalar value
      "diurnal:amp=3",             // amplitude out of [0,1]... caught below
  };
  for (const char* spec : bad) {
    auto scenario = ScenarioRegistry::Global().Create(spec);
    if (scenario.ok()) {
      // Parameter-range violations surface at Validate time instead.
      engine::SystemConfig config =
          harness::WorkloadChangeConfig({"pmm"}, 42);
      config.scenario = scenario.value();
      EXPECT_FALSE(config.Validate().ok()) << spec;
    }
  }
  // Only list-valued keys take continuation segments, so "bogus=5" after
  // a scalar is an unknown key rather than part of rate's value.
  auto unknown = ScenarioRegistry::Global().Create("diurnal:rate=0.1,bogus=5");
  EXPECT_NE(unknown.status().message().find("unknown key 'bogus'"),
            std::string::npos)
      << unknown.status().ToString();
  // The two must agree 1:1 with the workload's class list.
  auto scenario = ScenarioRegistry::Global().Create("diurnal");
  ASSERT_TRUE(scenario.ok());
  WorkloadSpec one_class;
  one_class.classes.emplace_back();
  EXPECT_FALSE(scenario.value().Validate(one_class).ok());
}

TEST(ScenarioProperty, SameSpecAndSeedRenderByteIdenticalTraces) {
  for (const std::string& name : ScenarioRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    engine::SystemConfig config =
        harness::ScenarioConfig(ShortSpec(name), {"pmm"}, /*seed=*/42);
    auto a = engine::RenderScenarioTrace(config, kHorizon);
    auto b = engine::RenderScenarioTrace(config, kHorizon);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(SerializeTrace(a.value()), SerializeTrace(b.value()));
    EXPECT_GT(a.value().records.size(), 0u);
    // A different seed must produce a different arrival stream (the
    // generators are genuinely stochastic, not constant).
    engine::SystemConfig reseeded =
        harness::ScenarioConfig(ShortSpec(name), {"pmm"}, /*seed=*/43);
    auto c = engine::RenderScenarioTrace(reseeded, kHorizon);
    ASSERT_TRUE(c.ok());
    EXPECT_NE(SerializeTrace(a.value()), SerializeTrace(c.value()));
  }
}

TEST(ScenarioProperty, TraceReplayReproducesLiveGenerationBitIdentically) {
  for (const std::string& name : ScenarioRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    engine::SystemConfig live =
        harness::ScenarioConfig(ShortSpec(name), {"pmm"}, /*seed=*/42);
    auto trace = engine::RenderScenarioTrace(live, kHorizon);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();

    engine::SystemConfig replay = live;
    replay.scenario = ScenarioSpec{};
    replay.trace = std::make_shared<const Trace>(std::move(trace).value());

    // Bit-identical trajectory, including the exact event count: the
    // replay schedules the same arrivals at the same instants.
    EXPECT_EQ(Fingerprint(live, kHorizon), Fingerprint(replay, kHorizon));
  }
}

TEST(ScenarioProperty, PoolParallelismDoesNotChangeResults) {
  std::vector<harness::RunSpec> specs;
  for (const std::string& name : ScenarioRegistry::Global().Names()) {
    specs.push_back({name, harness::ScenarioConfig(ShortSpec(name), {"pmm"}),
                     kHorizon});
  }
  auto serial = harness::RunPool(specs, /*jobs=*/1);
  auto parallel = harness::RunPool(specs, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(specs[i].label);
    EXPECT_EQ(serial[i].summary.events_dispatched,
              parallel[i].summary.events_dispatched);
    EXPECT_EQ(serial[i].summary.overall.completions,
              parallel[i].summary.overall.completions);
    EXPECT_EQ(serial[i].summary.overall.misses,
              parallel[i].summary.overall.misses);
    EXPECT_DOUBLE_EQ(serial[i].summary.overall.avg_response,
                     parallel[i].summary.overall.avg_response);
  }
}

TEST(ScenarioProperty, TraceSourceRejectsInconsistentTraces) {
  engine::SystemConfig config =
      harness::ScenarioConfig(ShortSpec("diurnal"), {"pmm"}, /*seed=*/42);
  auto trace = engine::RenderScenarioTrace(config, kHorizon);
  ASSERT_TRUE(trace.ok());
  ASSERT_GT(trace.value().records.size(), 0u);
  config.scenario = ScenarioSpec{};

  // Class count mismatch.
  {
    Trace t = trace.value();
    t.num_classes = 5;
    for (auto& r : t.records) r.query_class = 0;
    engine::SystemConfig c = config;
    c.trace = std::make_shared<const Trace>(std::move(t));
    EXPECT_FALSE(engine::Rtdbs::Create(c).ok());
  }
  // Unknown relation id.
  {
    Trace t = trace.value();
    t.records[0].r = 1 << 20;
    engine::SystemConfig c = config;
    c.trace = std::make_shared<const Trace>(std::move(t));
    EXPECT_FALSE(engine::Rtdbs::Create(c).ok());
  }
  // Stand-alone time disagreeing with the cost model.
  {
    Trace t = trace.value();
    t.records[0].standalone *= 2.0;
    engine::SystemConfig c = config;
    c.trace = std::make_shared<const Trace>(std::move(t));
    EXPECT_FALSE(engine::Rtdbs::Create(c).ok());
  }
  // The unmodified trace is accepted.
  {
    engine::SystemConfig c = config;
    c.trace = std::make_shared<const Trace>(trace.value());
    EXPECT_TRUE(engine::Rtdbs::Create(c).ok());
  }
}

}  // namespace
}  // namespace rtq::workload
