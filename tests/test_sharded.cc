// ShardedRtdbs: placement determinism, config cross-validation, the
// shards=1 ≡ unsharded bit-identity pin, cluster conservation laws, the
// parallel local run ≡ merged loop pin, global-MPL coordination, and a
// registry-wide property that every policy runs under shards=4
// untouched.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/policy_registry.h"
#include "core/shard_coordinator.h"
#include "engine/metrics.h"
#include "engine/rtdbs.h"
#include "engine/sharded_rtdbs.h"
#include "engine/system_config.h"
#include "harness/paper_experiments.h"
#include "workload/placement.h"

namespace rtq::engine {
namespace {

// ---------------------------------------------------------------------------
// Config cross-validation (the num_disks bugfix)
// ---------------------------------------------------------------------------

TEST(SystemConfigValidate, RejectsDiskCountMismatchNamingBothValues) {
  SystemConfig config = harness::BaselineConfig(0.06, {"max"}, 42);
  config.num_disks = 10;
  config.database.num_disks = 6;
  Status s = config.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("database.num_disks (6)"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("num_disks (10)"), std::string::npos)
      << s.ToString();
}

TEST(SystemConfigValidate, AcceptsExplicitMatch) {
  SystemConfig config = harness::BaselineConfig(0.06, {"max"}, 42);
  config.num_disks = 10;
  config.database.num_disks = 10;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(SystemConfigValidate, ZeroSentinelDerivesLayoutFromEngine) {
  SystemConfig config = harness::BaselineConfig(0.06, {"max"}, 42);
  ASSERT_EQ(config.database.num_disks, 0)
      << "harness configs should rely on derivation, not hand-sync";
  config.num_disks = 7;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.EffectiveDatabase().num_disks, 7);
  // The original spec is untouched (EffectiveDatabase returns a copy).
  EXPECT_EQ(config.database.num_disks, 0);
}

TEST(ShardConfigValidate, AcceptsGoodSpecsRejectsBadOnes) {
  ShardConfig good;
  good.num_shards = 4;
  good.placement = "skew:hot=0.7";
  good.admission = "global:mpl=12";
  EXPECT_TRUE(good.Validate().ok());

  ShardConfig bad = good;
  bad.num_shards = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = good;
  bad.placement = "roundrobin";
  EXPECT_FALSE(bad.Validate().ok());
  bad = good;
  bad.admission = "global";
  EXPECT_FALSE(bad.Validate().ok());
  bad = good;
  bad.admission = "global:mpl=0";
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(ShardConfigValidate, AdmissionSpecParses) {
  auto local = core::ParseAdmissionSpec("local");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local.value(), 0);
  auto global = core::ParseAdmissionSpec("global:mpl=24");
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global.value(), 24);
  EXPECT_FALSE(core::ParseAdmissionSpec("global:mpl=x").ok());
  EXPECT_FALSE(core::ParseAdmissionSpec("galactic").ok());
}

// ---------------------------------------------------------------------------
// Placement functions
// ---------------------------------------------------------------------------

TEST(ShardPlacement, HashIsDeterministicAndRoughlyUniform) {
  auto p = workload::ShardPlacement::Make("hash", 4);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().spec(), "hash");
  std::vector<int64_t> counts(4, 0);
  for (QueryId id = 0; id < 4000; ++id) {
    int32_t s = p.value().ShardOf(id, 0, 60);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_EQ(s, p.value().ShardOf(id, 0, 60)) << "non-deterministic";
    ++counts[static_cast<size_t>(s)];
  }
  for (int64_t c : counts) {
    EXPECT_GT(c, 4000 / 4 * 0.8) << "hash placement badly unbalanced";
  }
}

TEST(ShardPlacement, RangeDeclustersByRelationRanges) {
  auto p = workload::ShardPlacement::Make("range", 4);
  ASSERT_TRUE(p.ok());
  // Contiguous, monotone ranges over the relation id space; the query id
  // is irrelevant.
  int32_t prev = 0;
  for (int64_t rel = 0; rel < 60; ++rel) {
    int32_t s = p.value().ShardOf(/*id=*/123, rel, 60);
    EXPECT_EQ(s, p.value().ShardOf(/*id=*/999, rel, 60));
    EXPECT_GE(s, prev) << "ranges must be monotone in relation id";
    prev = s;
  }
  EXPECT_EQ(p.value().ShardOf(0, 0, 60), 0);
  EXPECT_EQ(p.value().ShardOf(0, 59, 60), 3);
}

TEST(ShardPlacement, SkewPinsTheHotFractionToShardZero) {
  auto p = workload::ShardPlacement::Make("skew:hot=0.8", 4);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().spec(), "skew:hot=0.80");
  EXPECT_DOUBLE_EQ(p.value().hot_fraction(), 0.8);
  int64_t hot = 0;
  std::set<int32_t> seen;
  const int64_t kIds = 10000;
  for (QueryId id = 0; id < kIds; ++id) {
    int32_t s = p.value().ShardOf(id, 0, 60);
    seen.insert(s);
    if (s == 0) ++hot;
  }
  EXPECT_EQ(seen.size(), 4u) << "cold shards must still receive traffic";
  EXPECT_GT(hot, kIds * 0.75);
  EXPECT_LT(hot, kIds * 0.85);
}

TEST(ShardPlacement, SingleShardAlwaysRoutesToZero) {
  for (const char* spec : {"hash", "range", "skew:hot=0.9"}) {
    auto p = workload::ShardPlacement::Make(spec, 1);
    ASSERT_TRUE(p.ok()) << spec;
    for (QueryId id = 0; id < 100; ++id) {
      EXPECT_EQ(p.value().ShardOf(id, static_cast<int64_t>(id % 7), 7), 0);
    }
  }
}

TEST(ShardPlacement, RejectsMalformedSpecs) {
  EXPECT_FALSE(workload::ShardPlacement::Make("modulo", 2).ok());
  EXPECT_FALSE(workload::ShardPlacement::Make("hash:x=1", 2).ok());
  EXPECT_FALSE(workload::ShardPlacement::Make("skew:hot=0", 2).ok());
  EXPECT_FALSE(workload::ShardPlacement::Make("skew:hot=1.5", 2).ok());
  EXPECT_FALSE(workload::ShardPlacement::Make("skew:cold=0.5", 2).ok());
  EXPECT_FALSE(workload::ShardPlacement::Make("hash", 0).ok());
}

// ---------------------------------------------------------------------------
// shards=1 ≡ unsharded (the bit-identity pin)
// ---------------------------------------------------------------------------

TEST(ShardedRtdbs, OneShardIsBitIdenticalToPlainRtdbs) {
  SystemConfig config = harness::BaselineConfig(0.06, {"pmm"}, 42);
  ShardConfig shards;
  shards.num_shards = 1;
  shards.placement = "hash";

  // Both ways a cluster advances: RunUntil, and StepEvents, which every
  // serve session steps by (one shard unless its genesis asks for more).
  for (bool by_event : {false, true}) {
    SCOPED_TRACE(by_event ? "StepEvents" : "RunUntil");
    auto plain = Rtdbs::Create(config);
    ASSERT_TRUE(plain.ok());
    auto cluster = ShardedRtdbs::Create(config, shards);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    if (by_event) {
      constexpr uint64_t kEvents = 200000;
      for (uint64_t i = 0; i < kEvents; ++i) {
        ASSERT_TRUE(plain.value()->StepEvent());
      }
      ASSERT_EQ(cluster.value()->StepEvents(kEvents), kEvents);
    } else {
      plain.value()->RunUntil(1800.0);
      cluster.value()->RunUntil(1800.0);
    }

    std::vector<std::string> a, b;
    plain.value()->AppendStateDigest(&a);
    cluster.value()->shard(0).AppendStateDigest(&b);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "digest line " << i;
    }

    SystemSummary sp = plain.value()->Summarize();
    SystemSummary sc = cluster.value()->Summarize();
    EXPECT_EQ(sp.overall.completions, sc.overall.completions);
    EXPECT_EQ(sp.overall.misses, sc.overall.misses);
    EXPECT_EQ(sp.events_dispatched, sc.events_dispatched);
    EXPECT_DOUBLE_EQ(sp.avg_mpl, sc.avg_mpl);
    EXPECT_DOUBLE_EQ(sp.cpu_utilization, sc.cpu_utilization);
    EXPECT_DOUBLE_EQ(sp.overall.avg_wait, sc.overall.avg_wait);
    EXPECT_DOUBLE_EQ(sp.overall.avg_exec, sc.overall.avg_exec);
    EXPECT_DOUBLE_EQ(sp.overall.avg_response, sc.overall.avg_response);
    EXPECT_EQ(cluster.value()->shard(0).routed_elsewhere(), 0);
  }
}

// ---------------------------------------------------------------------------
// Cluster conservation + determinism
// ---------------------------------------------------------------------------

TEST(ShardedRtdbs, EveryArrivalIsOwnedByExactlyOneShard) {
  SystemConfig config = harness::BaselineConfig(0.12, {"max"}, 42);
  ShardConfig shards;
  shards.num_shards = 4;
  auto cluster = ShardedRtdbs::Create(config, shards);
  ASSERT_TRUE(cluster.ok());
  cluster.value()->RunUntil(1800.0);

  // Filtered replication: every shard generates the same stream...
  int64_t generated = cluster.value()->shard(0).arrivals().generated();
  EXPECT_GT(generated, 0);
  int64_t accepted_total = 0;
  for (int32_t s = 0; s < 4; ++s) {
    Rtdbs& shard = cluster.value()->shard(s);
    EXPECT_EQ(shard.arrivals().generated(), generated) << "shard " << s;
    accepted_total += generated - shard.routed_elsewhere();
  }
  // ...and the placement partitions it: accepted counts sum back to one
  // copy of the stream.
  EXPECT_EQ(accepted_total, generated);

  // The aggregate summary is the sum of the shard summaries.
  SystemSummary agg = cluster.value()->Summarize();
  int64_t completions = 0, misses = 0;
  for (int32_t s = 0; s < 4; ++s) {
    SystemSummary ss = cluster.value()->SummarizeShard(s);
    completions += ss.overall.completions;
    misses += ss.overall.misses;
  }
  EXPECT_EQ(agg.overall.completions, completions);
  EXPECT_EQ(agg.overall.misses, misses);
}

TEST(ShardedRtdbs, ReplaysBitIdentically) {
  SystemConfig config = harness::MulticlassConfig(0.4, {"pmm"}, 7);
  ShardConfig shards;
  shards.num_shards = 4;
  shards.placement = "skew:hot=0.6";

  std::vector<std::string> first, second;
  for (std::vector<std::string>* out : {&first, &second}) {
    auto cluster = ShardedRtdbs::Create(config, shards);
    ASSERT_TRUE(cluster.ok());
    cluster.value()->RunUntil(1200.0);
    cluster.value()->AppendStateDigest(out);
  }
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "digest line " << i;
  }
}

void ExpectSameDigests(const ShardedRtdbs& a, const ShardedRtdbs& b) {
  std::vector<std::string> da, db;
  a.AppendStateDigest(&da);
  b.AppendStateDigest(&db);
  ASSERT_EQ(da.size(), db.size());
  for (size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i], db[i]) << "digest line " << i;
  }
}

// Under local admission RunUntil runs each shard on its own, spread over
// the worker threads. Stepping an identical fresh cluster through the
// merged loop for the same number of events must land every shard in
// the same state.
TEST(ShardedRtdbs, StepEventMatchesRunUntil) {
  struct Case {
    SystemConfig config;
    int32_t num_shards;
    const char* placement;
  };
  const Case cases[] = {
      {harness::BaselineConfig(0.06, {"minmax:10"}, 42), 2, "hash"},
      {harness::BaselineConfig(0.48, {"pmm"}, 42), 8, "hash"},
      {harness::MulticlassConfig(0.4, {"pmm"}, 7), 4, "skew:hot=0.6"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.num_shards) + " x " + c.placement);
    ShardConfig shards;
    shards.num_shards = c.num_shards;
    shards.placement = c.placement;
    auto ran = ShardedRtdbs::Create(c.config, shards);
    auto stepped = ShardedRtdbs::Create(c.config, shards);
    ASSERT_TRUE(ran.ok() && stepped.ok());
    ASSERT_EQ(ran.value()->coordinator(), nullptr);
    for (int t = 1; t <= 600; ++t) ran.value()->RunUntil(t);

    const uint64_t target = ran.value()->events_dispatched();
    ASSERT_GT(target, 0u);
    ASSERT_EQ(stepped.value()->StepEvents(target), target);
    // Every event at or before the horizon has dispatched; this only
    // aligns the shard clocks.
    stepped.value()->RunUntil(600.0);
    EXPECT_EQ(stepped.value()->events_dispatched(), target);
    ExpectSameDigests(*ran.value(), *stepped.value());
  }
}

TEST(ShardedRtdbs, StepEventsMatchesRepeatedStepEvent) {
  SystemConfig config = harness::BaselineConfig(0.24, {"pmm"}, 42);
  ShardConfig shards;
  shards.num_shards = 4;
  shards.placement = "skew:hot=0.6";
  shards.admission = "global:mpl=4";
  auto batched = ShardedRtdbs::Create(config, shards);
  auto single = ShardedRtdbs::Create(config, shards);
  ASSERT_TRUE(batched.ok() && single.ok());

  // Uneven batch sizes, so batch boundaries (where the head cache is
  // rebuilt) fall at arbitrary points of the merged order.
  uint64_t total = 0;
  for (uint64_t n : {1u, 7u, 4096u, 100000u, 3u, 250000u}) {
    ASSERT_EQ(batched.value()->StepEvents(n), n);
    total += n;
  }
  for (uint64_t i = 0; i < total; ++i) {
    ASSERT_TRUE(single.value()->StepEvent());
  }
  EXPECT_EQ(batched.value()->events_dispatched(), total);
  ExpectSameDigests(*batched.value(), *single.value());
}

// ---------------------------------------------------------------------------
// Global-MPL coordination
// ---------------------------------------------------------------------------

TEST(ShardedRtdbs, GlobalAdmissionNeverExceedsTheCap) {
  SystemConfig config = harness::BaselineConfig(0.12, {"max"}, 42);
  ShardConfig shards;
  shards.num_shards = 4;
  shards.admission = "global:mpl=3";
  auto cluster = ShardedRtdbs::Create(config, shards);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  cluster.value()->RunUntil(3600.0);

  const core::ShardCoordinator* coord = cluster.value()->coordinator();
  ASSERT_NE(coord, nullptr);
  EXPECT_EQ(coord->global_mpl(), 3);
  EXPECT_LE(coord->high_water(), 3);
  EXPECT_GT(coord->high_water(), 0);
  // Max admits everything locally, so a cluster cap this tight must have
  // refused admissions.
  EXPECT_GT(coord->refusals(), 0);
  // Slot accounting is conserved: slots still held equal the queries
  // still admitted.
  int64_t admitted = 0, held = 0;
  for (int32_t s = 0; s < 4; ++s) {
    admitted += cluster.value()->shard(s).memory_manager().admitted_count();
    held += coord->held_by(s);
  }
  EXPECT_EQ(admitted, coord->in_use());
  EXPECT_EQ(held, coord->in_use());
}

TEST(ShardedRtdbs, LocalAdmissionHasNoCoordinator) {
  SystemConfig config = harness::BaselineConfig(0.06, {"max"}, 42);
  ShardConfig shards;
  shards.num_shards = 2;
  auto cluster = ShardedRtdbs::Create(config, shards);
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ(cluster.value()->coordinator(), nullptr);
  EXPECT_EQ(cluster.value()->shard(0).policy().DisplayName(),
            cluster.value()->shard(1).policy().DisplayName());
}

// ---------------------------------------------------------------------------
// Registry-wide: every policy runs under shards=4 (no src/policies edits)
// ---------------------------------------------------------------------------

TEST(ShardedRtdbs, EveryRegisteredPolicyRunsUnderFourShards) {
  for (const std::string& name : core::PolicyRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    SystemConfig config = harness::MulticlassConfig(0.4, {name}, 42);
    ShardConfig shards;
    shards.num_shards = 4;
    shards.placement = "skew:hot=0.6";
    auto cluster = ShardedRtdbs::Create(config, shards);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster.value()->RunUntil(600.0);
    SystemSummary s = cluster.value()->Summarize();
    EXPECT_GT(s.events_dispatched, 0u);
    int64_t per_shard = 0;
    for (int32_t i = 0; i < 4; ++i) {
      per_shard += cluster.value()->SummarizeShard(i).overall.completions;
    }
    EXPECT_EQ(s.overall.completions, per_shard);
  }
}

// ---------------------------------------------------------------------------
// DiskUtilWindows (the probe re-init bugfix)
// ---------------------------------------------------------------------------

TEST(DiskUtilWindows, BootWindowMeasuresFromZeroBaselines) {
  DiskUtilWindows w;
  EXPECT_TRUE(w.Rebind(2, [](size_t) { return 0.0; }));
  // First window [0, 10): disk 0 busy 5s, disk 1 busy 10s.
  EXPECT_DOUBLE_EQ(w.Advance(0, 5.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(w.Advance(1, 10.0, 10.0), 1.0);
  // Second window: integrals advance, utilizations are in-window only.
  EXPECT_DOUBLE_EQ(w.Advance(0, 6.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(w.Advance(1, 10.0, 10.0), 0.0);
}

TEST(DiskUtilWindows, SameSizeRebindKeepsBaselines) {
  DiskUtilWindows w;
  w.Rebind(1, [](size_t) { return 0.0; });
  w.Advance(0, 4.0, 10.0);
  // A no-op rebind (same stream count) must not touch the baseline.
  EXPECT_FALSE(w.Rebind(1, [](size_t) { return 0.0; }));
  EXPECT_DOUBLE_EQ(w.Advance(0, 5.0, 10.0), 0.1);
}

TEST(DiskUtilWindows, ResizeReseedsFromLiveIntegralsWithoutSpiking) {
  DiskUtilWindows w;
  w.Rebind(1, [](size_t) { return 0.0; });
  w.Advance(0, 100.0, 10.0);
  // The farm grows mid-run to disks with large lifetime integrals. The
  // old incidental re-init to 0.0 would report util 100000/10 = 10000x;
  // re-seeding from the live integrals reports only in-window busy time.
  EXPECT_TRUE(w.Rebind(3, [](size_t d) { return 1.0e5 + 10.0 * d; }));
  EXPECT_DOUBLE_EQ(w.Advance(0, 1.0e5 + 5.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(w.Advance(1, 1.0e5 + 10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(w.Advance(2, 1.0e5 + 28.0, 10.0), 0.8);
}

}  // namespace
}  // namespace rtq::engine
