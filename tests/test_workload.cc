#include "workload/scenario.h"

#include <gtest/gtest.h>

#include <vector>

#include "workload/query_builder.h"
#include "workload/workload_spec.h"

namespace rtq::workload {
namespace {

storage::Database MakeDb(Rng* rng) {
  storage::DatabaseSpec spec;
  spec.num_disks = 4;
  storage::RelationGroupSpec inner;
  inner.rel_per_disk = 3;
  inner.min_pages = 600;
  inner.max_pages = 1800;
  storage::RelationGroupSpec outer;
  outer.rel_per_disk = 3;
  outer.min_pages = 3000;
  outer.max_pages = 9000;
  spec.groups = {inner, outer};
  return std::move(storage::Database::Create(spec, model::DiskParams(), rng))
      .value();
}

WorkloadSpec JoinWorkload(double rate) {
  WorkloadSpec spec;
  QueryClassSpec cls;
  cls.type = exec::QueryType::kHashJoin;
  cls.rel_groups = {0, 1};
  cls.arrival_rate = rate;
  spec.classes = {cls};
  return spec;
}

// The sink now receives (blueprint, id); tests materialize the
// (descriptor, operator) pair exactly the way the engine does.
struct Collected {
  std::vector<exec::QueryDescriptor> descs;
  std::vector<std::unique_ptr<exec::Operator>> ops;

  ArrivalSource::Sink SinkFor(const storage::Database& db) {
    return [this, &db](const QueryBlueprint& bp, QueryId id) {
      BuiltQuery built = BuildQuery(bp, id, db, exec::ExecParams(),
                                    model::DiskParams(), 40.0);
      descs.push_back(built.desc);
      ops.push_back(std::move(built.op));
    };
  }
};

TEST(WorkloadSpec, Validation) {
  Rng rng(1);
  storage::Database db = MakeDb(&rng);

  EXPECT_TRUE(JoinWorkload(0.05).Validate(db).ok());

  WorkloadSpec empty;
  EXPECT_FALSE(empty.Validate(db).ok());

  WorkloadSpec wrong_groups = JoinWorkload(0.05);
  wrong_groups.classes[0].rel_groups = {0};  // joins need two
  EXPECT_FALSE(wrong_groups.Validate(db).ok());

  WorkloadSpec bad_group = JoinWorkload(0.05);
  bad_group.classes[0].rel_groups = {0, 9};
  EXPECT_FALSE(bad_group.Validate(db).ok());

  WorkloadSpec bad_rate = JoinWorkload(0.0);
  EXPECT_FALSE(bad_rate.Validate(db).ok());

  WorkloadSpec bad_slack = JoinWorkload(0.05);
  bad_slack.classes[0].slack_min = -1.0;
  EXPECT_FALSE(bad_slack.Validate(db).ok());

  WorkloadSpec sort_ok = JoinWorkload(0.05);
  sort_ok.classes[0].type = exec::QueryType::kExternalSort;
  sort_ok.classes[0].rel_groups = {0};
  EXPECT_TRUE(sort_ok.Validate(db).ok());
}

TEST(Source, PoissonArrivalCountIsPlausible) {
  Rng rng(2);
  sim::Simulator sim;
  storage::Database db = MakeDb(&rng);
  Collected got;
  WorkloadSpec w = JoinWorkload(0.05);
  ScenarioSource source(&sim, &db, w, PoissonScenario(w), Rng(3),
                        got.SinkFor(db));
  source.Start();
  sim.RunUntil(20000.0);
  // Expect ~1000 arrivals; allow +-15%.
  EXPECT_NEAR(static_cast<double>(got.descs.size()), 1000.0, 150.0);
}

TEST(Source, DeadlineFollowsPaperFormula) {
  Rng rng(4);
  sim::Simulator sim;
  storage::Database db = MakeDb(&rng);
  Collected got;
  WorkloadSpec w = JoinWorkload(0.05);
  ScenarioSource source(&sim, &db, w, PoissonScenario(w), Rng(5),
                        got.SinkFor(db));
  source.Start();
  sim.RunUntil(5000.0);
  ASSERT_GT(got.descs.size(), 20u);
  for (const auto& d : got.descs) {
    EXPECT_NEAR(d.deadline,
                d.arrival + d.standalone_time * d.slack_ratio, 1e-9);
    EXPECT_GE(d.slack_ratio, 2.5);
    EXPECT_LE(d.slack_ratio, 7.5);
    EXPECT_GT(d.standalone_time, 0.0);
    EXPECT_GT(d.max_memory, d.min_memory);
  }
}

TEST(Source, InnerRelationIsTheSmaller) {
  Rng rng(6);
  sim::Simulator sim;
  storage::Database db = MakeDb(&rng);
  Collected got;
  WorkloadSpec w = JoinWorkload(0.1);
  ScenarioSource source(&sim, &db, w, PoissonScenario(w), Rng(7),
                        got.SinkFor(db));
  source.Start();
  sim.RunUntil(3000.0);
  ASSERT_GT(got.descs.size(), 10u);
  for (const auto& d : got.descs) {
    EXPECT_LE(db.relation(d.r_relation).pages,
              db.relation(d.s_relation).pages);
    EXPECT_EQ(db.relation(d.r_relation).group, 0);
    EXPECT_EQ(db.relation(d.s_relation).group, 1);
  }
}

TEST(Source, IdsAreSequential) {
  Rng rng(8);
  sim::Simulator sim;
  storage::Database db = MakeDb(&rng);
  std::vector<QueryId> ids;
  WorkloadSpec w = JoinWorkload(0.1);
  auto sink = [&](const QueryBlueprint&, QueryId id) { ids.push_back(id); };
  ScenarioSource source(&sim, &db, w, PoissonScenario(w), Rng(9), sink);
  source.Start();
  sim.RunUntil(2000.0);
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
}

TEST(Source, DeactivationStopsArrivals) {
  // Stop() silences the source for good: the pending arrival event still
  // fires (as a no-op) but nothing is emitted or rescheduled after it.
  Rng rng(10);
  sim::Simulator sim;
  storage::Database db = MakeDb(&rng);
  int count = 0;
  WorkloadSpec w = JoinWorkload(0.1);
  ScenarioSource source(&sim, &db, w, PoissonScenario(w), Rng(11),
                        [&](const QueryBlueprint&, QueryId) { ++count; });
  source.Start();
  sim.RunUntil(2000.0);
  int before = count;
  EXPECT_GT(before, 0);
  EXPECT_EQ(source.generated(), before);
  source.Stop();
  sim.RunUntil(10000.0);
  EXPECT_EQ(count, before);
  EXPECT_EQ(source.generated(), before);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Source, SortClassesBuildSortOperators) {
  Rng rng(12);
  sim::Simulator sim;
  storage::Database db = MakeDb(&rng);
  WorkloadSpec spec = JoinWorkload(0.1);
  spec.classes[0].type = exec::QueryType::kExternalSort;
  spec.classes[0].rel_groups = {0};
  Collected got;
  ScenarioSource source(&sim, &db, spec, PoissonScenario(spec), Rng(13),
                        got.SinkFor(db));
  source.Start();
  sim.RunUntil(2000.0);
  ASSERT_GT(got.descs.size(), 5u);
  for (size_t i = 0; i < got.descs.size(); ++i) {
    EXPECT_EQ(got.descs[i].type, exec::QueryType::kExternalSort);
    // Sort: min memory 3, max = relation size.
    EXPECT_EQ(got.ops[i]->min_memory(), 3);
    EXPECT_EQ(got.ops[i]->max_memory(),
              db.relation(got.descs[i].r_relation).pages);
  }
}

TEST(Source, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Rng rng(20);
    sim::Simulator sim;
    storage::Database db = MakeDb(&rng);
    std::vector<double> deadlines;
    WorkloadSpec w = JoinWorkload(0.1);
    ScenarioSource source(&sim, &db, w, PoissonScenario(w), Rng(seed),
                          [&](const QueryBlueprint& bp, QueryId id) {
                            BuiltQuery built =
                                BuildQuery(bp, id, db, exec::ExecParams(),
                                           model::DiskParams(), 40.0);
                            deadlines.push_back(built.desc.deadline);
                          });
    source.Start();
    sim.RunUntil(2000.0);
    return deadlines;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace rtq::workload
