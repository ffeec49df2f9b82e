#include "harness/paper_experiments.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/policy_registry.h"
#include "harness/args.h"
#include "workload/scenario.h"

namespace rtq::harness {

namespace {

/// Table 3 resource defaults are SystemConfig's own defaults; this helper
/// stamps the experiment-invariant parts.
engine::SystemConfig CommonConfig(const engine::PolicyConfig& policy,
                                  uint64_t seed) {
  engine::SystemConfig config;
  config.policy = policy;
  config.seed = seed;
  return config;
}

/// Baseline database (Table 6): group 0 = inner relations [600, 1800],
/// group 1 = outer relations [3000, 9000], three of each per disk.
void AddBaselineGroups(engine::SystemConfig* config) {
  storage::RelationGroupSpec inner;
  inner.rel_per_disk = 3;
  inner.min_pages = 600;
  inner.max_pages = 1800;
  storage::RelationGroupSpec outer;
  outer.rel_per_disk = 3;
  outer.min_pages = 3000;
  outer.max_pages = 9000;
  config->database.groups = {inner, outer};
}

/// Small-class relation groups (Table 8): [50, 150] and [250, 750].
void AddSmallGroups(engine::SystemConfig* config) {
  storage::RelationGroupSpec inner;
  inner.rel_per_disk = 3;
  inner.min_pages = 50;
  inner.max_pages = 150;
  storage::RelationGroupSpec outer;
  outer.rel_per_disk = 3;
  outer.min_pages = 250;
  outer.max_pages = 750;
  config->database.groups.push_back(inner);
  config->database.groups.push_back(outer);
}

workload::QueryClassSpec JoinClass(int32_t inner_group, int32_t outer_group,
                                   double rate) {
  workload::QueryClassSpec cls;
  cls.type = exec::QueryType::kHashJoin;
  cls.rel_groups = {inner_group, outer_group};
  cls.arrival_rate = rate;
  cls.slack_min = 2.5;
  cls.slack_max = 7.5;
  return cls;
}

}  // namespace

SimTime ExperimentDuration() {
  // The paper runs each point for 10 simulated hours (>= 2000 query
  // completions). The default here is 3 hours so the full bench suite
  // finishes in minutes; set RTQ_SIM_HOURS=10 for paper-scale runs.
  return EnvPositiveDouble("RTQ_SIM_HOURS", 3.0) * 3600.0;
}

std::vector<engine::PolicyConfig> BaselinePolicies() {
  return {{"max"}, {"minmax"}, {"prop"}, {"pmm"}};
}

std::vector<engine::PolicyConfig> PoliciesOrDefault(
    std::vector<engine::PolicyConfig> defaults) {
  std::string env = EnvString("RTQ_POLICIES", "");
  if (env.empty()) return defaults;

  auto specs = core::ParsePolicyList(env);
  if (!specs.ok()) {
    std::fprintf(stderr, "RTQ_POLICIES=\"%s\": %s\n", env.c_str(),
                 specs.status().ToString().c_str());
    std::exit(2);
  }
  std::vector<engine::PolicyConfig> policies;
  for (const std::string& spec : specs.value()) {
    // Fail fast (before a multi-hour sweep) on unknown names or bad args.
    auto policy = core::PolicyRegistry::Global().Create(spec);
    if (!policy.ok()) {
      std::fprintf(stderr, "RTQ_POLICIES=\"%s\": %s\n", env.c_str(),
                   policy.status().ToString().c_str());
      std::exit(2);
    }
    policies.push_back({spec});
  }
  return policies;
}

engine::SystemConfig BaselineConfig(double arrival_rate,
                                    const engine::PolicyConfig& policy,
                                    uint64_t seed) {
  engine::SystemConfig config = CommonConfig(policy, seed);
  config.num_disks = 10;
  AddBaselineGroups(&config);
  config.workload.classes = {JoinClass(0, 1, arrival_rate)};
  return config;
}

engine::SystemConfig DiskContentionConfig(
    double arrival_rate, const engine::PolicyConfig& policy, uint64_t seed) {
  engine::SystemConfig config = BaselineConfig(arrival_rate, policy, seed);
  config.num_disks = 6;
  return config;
}

engine::SystemConfig WorkloadChangeConfig(const engine::PolicyConfig& policy,
                                          uint64_t seed) {
  engine::SystemConfig config = CommonConfig(policy, seed);
  config.num_disks = 6;
  AddBaselineGroups(&config);  // groups 0, 1 (Medium)
  AddSmallGroups(&config);     // groups 2, 3 (Small)
  config.workload.classes = {JoinClass(0, 1, 0.07), JoinClass(2, 3, 2.8)};
  return config;
}

engine::SystemConfig ScenarioConfig(const std::string& scenario_spec,
                                    const engine::PolicyConfig& policy,
                                    uint64_t seed) {
  engine::SystemConfig config = WorkloadChangeConfig(policy, seed);
  auto scenario = workload::ScenarioRegistry::Global().Create(scenario_spec);
  RTQ_CHECK_MSG(scenario.ok(), scenario.status().ToString().c_str());
  config.scenario = std::move(scenario).value();
  return config;
}

engine::SystemConfig ExternalSortConfig(double arrival_rate,
                                        const engine::PolicyConfig& policy,
                                        uint64_t seed) {
  engine::SystemConfig config = CommonConfig(policy, seed);
  config.num_disks = 10;
  AddBaselineGroups(&config);

  workload::QueryClassSpec sort;
  sort.type = exec::QueryType::kExternalSort;
  sort.rel_groups = {0};  // ||R|| in [600, 1800]
  sort.arrival_rate = arrival_rate;
  sort.slack_min = 2.5;
  sort.slack_max = 7.5;
  config.workload.classes = {sort};
  return config;
}

engine::SystemConfig MulticlassConfig(double small_rate,
                                      const engine::PolicyConfig& policy,
                                      uint64_t seed) {
  engine::SystemConfig config = CommonConfig(policy, seed);
  config.num_disks = 12;
  AddBaselineGroups(&config);
  AddSmallGroups(&config);
  workload::QueryClassSpec medium = JoinClass(0, 1, 0.065);
  config.workload.classes = {medium};
  if (small_rate > 0.0) {
    config.workload.classes.push_back(JoinClass(2, 3, small_rate));
  }
  return config;
}

engine::SystemConfig ScaledConfig(double arrival_rate,
                                  const engine::PolicyConfig& policy,
                                  double scale, uint64_t seed) {
  RTQ_CHECK_MSG(scale >= 1.0, "scale must be >= 1");
  engine::SystemConfig config = CommonConfig(policy, seed);
  config.num_disks = 6;

  // Memory and relation sizes scale up; arrival rate scales down so the
  // offered utilizations stay comparable (Section 5.7).
  config.memory_pages =
      static_cast<PageCount>(2560 * scale);

  storage::RelationGroupSpec inner;
  inner.rel_per_disk = 2;
  inner.min_pages = static_cast<PageCount>(600 * scale);
  inner.max_pages = static_cast<PageCount>(1800 * scale);
  storage::RelationGroupSpec outer;
  outer.rel_per_disk = 2;
  outer.min_pages = static_cast<PageCount>(3000 * scale);
  outer.max_pages = static_cast<PageCount>(9000 * scale);
  config.database.groups = {inner, outer};

  // Grow the disks to hold the larger database plus spill space.
  PageCount per_disk = 2 * inner.max_pages + 2 * outer.max_pages;
  PageCount needed = per_disk * 4;  // 4x headroom for temp arenas
  while (config.disk.capacity() < needed) config.disk.num_cylinders *= 2;

  config.workload.classes = {JoinClass(0, 1, arrival_rate / scale)};
  return config;
}

std::string PolicyLabel(const engine::PolicyConfig& policy) {
  std::string spec = policy.ResolvedSpec();
  auto p = core::PolicyRegistry::Global().Create(spec);
  // Unresolvable specs echo back verbatim; config validation is the
  // place that rejects them with a real Status.
  return p.ok() ? p.value()->DisplayName() : spec;
}

std::vector<std::string> PolicyColumns(
    const std::string& first,
    const std::vector<engine::PolicyConfig>& policies) {
  std::vector<std::string> columns{first};
  for (const auto& policy : policies) {
    columns.push_back(PolicyLabel(policy));
  }
  return columns;
}

}  // namespace rtq::harness
