// Registry-wide policy properties. These iterate
// PolicyRegistry::Global().Names(), so every future policy — product or
// test-only — is covered automatically the moment it registers:
//
//  1. every registered name is creatable bare (factories must choose
//     sensible defaults when the spec has no arguments);
//  2. Describe() is a fixed point: Create(Describe()) succeeds and
//     describes itself identically (the round-trip contract documented
//     on MemoryPolicy::Describe);
//  3. the policy a canonical spec rebuilds is behaviourally identical
//     to the original instance: a short two-class simulation driven by
//     the bare name and one driven by Describe()'s canonical spec
//     produce the same trajectory fingerprint. This is what makes spec
//     strings safe to persist in BENCH_*.json and RTQ_POLICIES sweeps;
//  4. Attach reallocates exactly once, so a policy swapped in mid-run
//     moves live queries straight to its own allocation;
//  5. a failed Attach touches nothing: no reallocation, no strategy
//     change, no allocation callback, so a live swap that fails can
//     leave the incumbent in charge.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/memory_manager.h"
#include "core/policy_registry.h"
#include "core/strategy.h"
#include "engine/rtdbs.h"
#include "harness/paper_experiments.h"
#include "run_fingerprint.h"

namespace rtq::core {
namespace {

using test_util::Fingerprint;

/// Two workload classes so the per-class policies (pmm-fair, pmm-class)
/// exercise their real code paths.
engine::SystemConfig PropertyConfig(const std::string& spec) {
  return harness::MulticlassConfig(0.4, {spec}, /*seed=*/42);
}

/// Simulated seconds each spec's trajectory is fingerprinted over.
constexpr SimTime kHorizon = 900.0;

TEST(PolicyProperty, EveryRegisteredPolicyIsCreatableBare) {
  for (const std::string& name : PolicyRegistry::Global().Names()) {
    auto policy = PolicyRegistry::Global().Create(name);
    EXPECT_TRUE(policy.ok()) << name << ": " << policy.status().ToString();
  }
}

TEST(PolicyProperty, DescribeIsACreateFixedPoint) {
  for (const std::string& name : PolicyRegistry::Global().Names()) {
    auto policy = PolicyRegistry::Global().Create(name);
    ASSERT_TRUE(policy.ok()) << name;
    std::string canonical = policy.value()->Describe();
    auto again = PolicyRegistry::Global().Create(canonical);
    ASSERT_TRUE(again.ok()) << name << " -> " << canonical << ": "
                            << again.status().ToString();
    EXPECT_EQ(again.value()->Describe(), canonical) << name;
    EXPECT_EQ(again.value()->DisplayName(), policy.value()->DisplayName())
        << name;
  }
}

TEST(PolicyProperty, CanonicalSpecReproducesTheOriginalTrajectory) {
  for (const std::string& name : PolicyRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    auto policy = PolicyRegistry::Global().Create(name);
    ASSERT_TRUE(policy.ok());
    std::string canonical = policy.value()->Describe();
    auto original = Fingerprint(PropertyConfig(name), kHorizon);
    if (canonical != name) {
      EXPECT_EQ(original, Fingerprint(PropertyConfig(canonical), kHorizon))
          << name << " vs " << canonical;
    }
    // Determinism backstop: the same spec reruns identically, so the
    // comparison above cannot pass by accident.
    EXPECT_EQ(original, Fingerprint(PropertyConfig(name), kHorizon));
  }
}

/// Readings of an idle system, for attaching PMM outside an engine.
class IdleProbe : public SystemProbe {
 public:
  Readings TakeReadings() override { return Readings{}; }
};

/// Every registered name plus the parameterised specs whose Attach
/// checks the host beyond the bare name's defaults.
std::vector<std::string> AttachSpecs() {
  std::vector<std::string> specs = PolicyRegistry::Global().Names();
  specs.push_back("pmm-fair:w=1,2");
  specs.push_back("pmm-class:targets=1,1");
  specs.push_back("select:candidates=pmm+pmm-predict");
  specs.push_back("select:candidates=pmm+pmm-class:targets=1,1");
  return specs;
}

/// Four class-0 queries that all fit at their maximum, of which the
/// incumbent MinMax-1 admits only the first.
void AddLiveQueries(MemoryManager* mm) {
  for (QueryId id = 0; id < 4; ++id) {
    MemRequest q;
    q.id = id;
    q.deadline = 1000.0 + static_cast<double>(id);
    q.query_class = 0;
    q.min_memory = 50;
    q.max_memory = 200;
    mm->AddQuery(q);
  }
}

/// A host every spec in AttachSpecs() attaches to: two classes, a
/// clock, ticks and the default PMM parameters.
PolicyHost WorkingHost(MemoryManager* mm, SystemProbe* probe) {
  PolicyHost host;
  host.mm = mm;
  host.probe = probe;
  host.now = [] { return 0.0; };
  host.num_classes = 2;
  host.tick_interval = 60.0;
  return host;
}

TEST(PolicyProperty, AttachReallocatesOnce) {
  for (const std::string& spec : AttachSpecs()) {
    SCOPED_TRACE(spec);
    std::map<QueryId, int> changes;
    MemoryManager mm(1000, std::make_unique<MinMaxStrategy>(1),
                     [&changes](QueryId id, PageCount) { ++changes[id]; });
    AddLiveQueries(&mm);
    changes.clear();

    auto policy = PolicyRegistry::Global().Create(spec);
    ASSERT_TRUE(policy.ok());
    IdleProbe probe;
    int64_t before = mm.recomputes();
    ASSERT_TRUE(policy.value()->Attach(WorkingHost(&mm, &probe)).ok());
    EXPECT_EQ(mm.recomputes(), before + 1);
    // A pass through a strategy the policy does not keep (say, Max
    // before pmm-class wraps it in its quota) would move a query twice.
    for (const auto& [id, n] : changes) EXPECT_EQ(n, 1) << "query " << id;
  }
}

TEST(PolicyProperty, FailedAttachTouchesNothing) {
  // Each broken host must fail at least `fails`, or it tests nothing.
  // select must fail when any of its candidates would, even one its
  // bandit has not picked yet.
  const struct {
    const char* what;
    void (*breaks)(PolicyHost*);
    const char* fails;
  } broken[] = {
      {"tick_interval = 0", [](PolicyHost* h) { h->tick_interval = 0.0; },
       "pmm-tick"},
      {"num_classes = 3", [](PolicyHost* h) { h->num_classes = 3; },
       "select:candidates=pmm+pmm-class:targets=1,1"},
      {"empty now", [](PolicyHost* h) { h->now = nullptr; }, "edf-shed"},
      {"pmm.sample_size = 1", [](PolicyHost* h) { h->pmm.sample_size = 1; },
       "pmm"},
  };
  for (const auto& b : broken) {
    std::vector<std::string> failed;
    for (const std::string& spec : AttachSpecs()) {
      SCOPED_TRACE(std::string(b.what) + ", " + spec);
      int applied = 0;
      MemoryManager mm(1000, std::make_unique<MinMaxStrategy>(1),
                       [&applied](QueryId, PageCount) { ++applied; });
      AddLiveQueries(&mm);
      applied = 0;

      auto policy = PolicyRegistry::Global().Create(spec);
      ASSERT_TRUE(policy.ok());
      IdleProbe probe;
      PolicyHost host = WorkingHost(&mm, &probe);
      b.breaks(&host);
      const int64_t recomputes = mm.recomputes();
      const std::string strategy = mm.strategy().name();
      if (policy.value()->Attach(host).ok()) continue;
      failed.push_back(spec);
      EXPECT_EQ(mm.recomputes(), recomputes);
      EXPECT_EQ(mm.strategy().name(), strategy);
      EXPECT_EQ(applied, 0);
    }
    EXPECT_NE(std::find(failed.begin(), failed.end(), b.fails), failed.end())
        << b.what << " did not fail " << b.fails;
  }
}

}  // namespace
}  // namespace rtq::core
