// Ready-made SystemConfigs for every experiment in the paper's Section 5,
// plus run helpers shared by the experiments in bench/rtq_bench.cc.
//
// Each Section 5 experiment is a factory here: the baseline
// memory-bottlenecked setup (5.1), moderate disk contention (5.2),
// workload alternation (5.3), external sorts (5.5), multiclass (5.6),
// and the scaled-resources variant (5.7). A factory returns a complete
// engine::SystemConfig — hardware, database layout, workload classes,
// and the policy under test — so an experiment just builds one
// RunSpec{label, Config(point, policy)} per point and hands the batch
// to harness::RunPool (runner.h), which runs them in parallel.
//
// The configs pin the paper's Tables 2-4 parameters; callers vary only
// the arrival rate, the policy, and the RNG seed. Simulated duration
// comes from ExperimentDuration() below so every experiment honours the
// RTQ_SIM_HOURS override uniformly.

#ifndef RTQ_HARNESS_PAPER_EXPERIMENTS_H_
#define RTQ_HARNESS_PAPER_EXPERIMENTS_H_

#include <string>
#include <vector>

#include "engine/rtdbs.h"
#include "engine/system_config.h"

namespace rtq::harness {

/// Simulated duration for the experiments. The paper runs 10 simulated
/// hours per point; the default here is 3 hours so the full bench suite
/// finishes in minutes. Override with environment variable RTQ_SIM_HOURS
/// (e.g. RTQ_SIM_HOURS=10 for paper-scale runs).
SimTime ExperimentDuration();

/// Policies compared in the baseline experiment (Figure 3):
/// "max", "minmax", "prop", "pmm".
std::vector<engine::PolicyConfig> BaselinePolicies();

/// The RTQ_POLICIES override: when the environment variable is set, it
/// replaces `defaults` with its comma-separated policy specs (e.g.
/// RTQ_POLICIES="pmm,none" sweeps just those two; a bare numeric
/// segment continues the previous spec, so "pmm-fair:w=1,2,max" is two
/// specs). Every spec is validated against the PolicyRegistry up front;
/// a malformed or unknown spec aborts with a usage message listing the
/// registered policies. Unset/empty returns `defaults` unchanged.
std::vector<engine::PolicyConfig> PoliciesOrDefault(
    std::vector<engine::PolicyConfig> defaults);

/// Section 5.1: memory-bottlenecked baseline. One hash-join class,
/// ||R|| in [600,1800], ||S|| in [3000,9000], 40 MIPS, 10 disks,
/// M = 2560 pages, slack in [2.5, 7.5].
engine::SystemConfig BaselineConfig(double arrival_rate,
                                    const engine::PolicyConfig& policy,
                                    uint64_t seed = 42);

/// Section 5.2: same but 6 disks (moderate disk contention).
engine::SystemConfig DiskContentionConfig(double arrival_rate,
                                          const engine::PolicyConfig& policy,
                                          uint64_t seed = 42);

/// Section 5.3 (Table 8): Small + Medium join classes on 6 disks, both
/// generating Poisson arrivals; ScenarioConfig layers the alternation
/// (the "mixshift" scenario) or any other arrival shape over them.
engine::SystemConfig WorkloadChangeConfig(const engine::PolicyConfig& policy,
                                          uint64_t seed = 42);

/// Scenario-engine runs: the Section 5.3 two-class system (Table 8's
/// Medium + Small joins on 6 disks) with the Poisson processes replaced
/// by `scenario_spec`'s per-class arrival shapes, resolved through the
/// workload::ScenarioRegistry ("diurnal", "flash:mult=12", ...).
/// CHECK-fails on a malformed or unknown spec — experiments validate
/// their specs up front.
engine::SystemConfig ScenarioConfig(const std::string& scenario_spec,
                                    const engine::PolicyConfig& policy,
                                    uint64_t seed = 42);

/// Section 5.5: external-sort workload, ||R|| in [600,1800], baseline
/// resources (10 disks).
engine::SystemConfig ExternalSortConfig(double arrival_rate,
                                        const engine::PolicyConfig& policy,
                                        uint64_t seed = 42);

/// Section 5.6: multiclass — Medium at 0.065 q/s plus Small at
/// `small_rate`, 12 disks.
engine::SystemConfig MulticlassConfig(double small_rate,
                                      const engine::PolicyConfig& policy,
                                      uint64_t seed = 42);

/// Section 5.7: the disk-contention experiment with memory and relation
/// sizes scaled up by `scale` and the arrival rate scaled down by the
/// same factor (disk cylinder count grows to hold the larger relations).
engine::SystemConfig ScaledConfig(double arrival_rate,
                                  const engine::PolicyConfig& policy,
                                  double scale, uint64_t seed = 42);

/// Convenience: short policy label for tables ("Max", "MinMax-10", ...) —
/// the policy's MemoryPolicy::DisplayName(), resolved via the registry.
std::string PolicyLabel(const engine::PolicyConfig& policy);

/// Table header row for a policy sweep: `first` followed by one
/// PolicyLabel column per policy.
std::vector<std::string> PolicyColumns(
    const std::string& first, const std::vector<engine::PolicyConfig>& policies);

}  // namespace rtq::harness

#endif  // RTQ_HARNESS_PAPER_EXPERIMENTS_H_
