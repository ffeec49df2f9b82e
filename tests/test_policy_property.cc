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
//     strings safe to persist in BENCH_*.json and RTQ_POLICIES sweeps.

#include <gtest/gtest.h>

#include <string>

#include "core/policy_registry.h"
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

}  // namespace
}  // namespace rtq::core
