// Full configuration of a simulated RTDBS (paper Tables 1-4).
//
// Defaults reproduce Table 3's resource settings. Experiment-specific
// database and workload settings (Tables 6 and 8) are built by the bench
// harness (src/harness/paper_experiments.h).

#ifndef RTQ_ENGINE_SYSTEM_CONFIG_H_
#define RTQ_ENGINE_SYSTEM_CONFIG_H_

#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/types.h"
#include "core/memory_policy.h"
#include "exec/cost_model.h"
#include "model/disk_geometry.h"
#include "storage/database.h"
#include "workload/scenario.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace rtq::core {
class ShardCoordinator;
}  // namespace rtq::core
namespace rtq::workload {
class ShardPlacement;
}  // namespace rtq::workload

namespace rtq::engine {

/// Which memory policy manages the buffer pool, named by a
/// core::PolicyRegistry spec string.
struct PolicyConfig {
  PolicyConfig() = default;
  /// Implicit from a spec string: `config.policy = {"minmax:5"};`
  PolicyConfig(std::string spec_string)  // NOLINT(google-explicit-constructor)
      : spec(std::move(spec_string)) {}
  PolicyConfig(const char* spec_string) : spec(spec_string) {}  // NOLINT

  /// Registry spec string ("pmm", "minmax:5", "none", ...).
  std::string spec = "pmm";

  /// Returns `spec`; rtqbench/harness.cc reads the policy through it.
  const std::string& ResolvedSpec() const { return spec; }
};

/// Sharded-deployment shape consumed by engine::ShardedRtdbs: how many
/// independent Rtdbs shards to build, how arrivals decluster across them,
/// and whether admission is coordinated globally. Plain Rtdbs ignores it.
struct ShardConfig {
  int32_t num_shards = 1;
  /// Placement spec routing each arrival to exactly one shard:
  ///   "hash"         query-id hash, uniform load balancing
  ///   "range"        contiguous relation-id ranges (data declustering)
  ///   "skew[:hot=F]" fraction F of arrivals pinned to shard 0 (default 0.5)
  std::string placement = "hash";
  /// Admission spec: "local" (each shard runs its policy's own MPL) or
  /// "global:mpl=N" (a cross-shard coordinator caps total admitted
  /// queries at N; see core::ShardCoordinator).
  std::string admission = "local";

  Status Validate() const;
};

/// Identity stamped on a shard's SystemConfig by engine::ShardedRtdbs so
/// the embedded engine knows which slice of the arrival stream is its own
/// and (under global admission) which coordinator to consult. Plain
/// single-engine systems leave this at its defaults: index 0,
/// accept-everything, no coordinator.
struct ShardIdentity {
  int32_t index = 0;
  /// Non-null on shards of a sharded system: arrivals whose placement
  /// shard differs from `index` are counted and dropped at the sink (the
  /// stream itself is generated identically on every shard). Not owned.
  const workload::ShardPlacement* placement = nullptr;
  /// Non-null only under admission="global:mpl=N". Not owned.
  core::ShardCoordinator* coordinator = nullptr;
};

struct SystemConfig {
  /// CPU MIPS rating (Table 3: 40 MIPS).
  double mips = 40.0;
  /// Number of disks (Table 3 default; experiments use 6, 10 or 12).
  int32_t num_disks = 10;
  model::DiskParams disk;
  /// Total buffer pool M in pages (Table 3: 2560 pages = 20 MB).
  PageCount memory_pages = 2560;
  exec::ExecParams exec;
  storage::DatabaseSpec database;
  workload::WorkloadSpec workload;
  /// Optional scenario: when enabled(), arrivals follow `scenario`'s
  /// per-class arrival shapes; when not, the workload's per-class Poisson
  /// rates (workload::PoissonScenario). Mutually exclusive with `trace`.
  workload::ScenarioSpec scenario;
  /// Optional trace replay: when set, arrivals replay this `.rtqt` trace
  /// through a TraceSource (no randomness consumed). Mutually exclusive
  /// with `scenario`.
  std::shared_ptr<const workload::Trace> trace;
  core::PmmParams pmm;
  PolicyConfig policy;
  uint64_t seed = 42;
  /// Cadence of the policy's OnTick, in simulated seconds; <= 0 never
  /// ticks.
  SimTime mpl_sample_interval = 60.0;
  /// Batch size for the miss-ratio batch-means confidence interval.
  int64_t miss_ci_batch = 200;
  /// Shard identity within a ShardedRtdbs (defaults = standalone engine).
  ShardIdentity shard;

  /// The database layout spec with `num_disks` resolved: a spec left at
  /// the 0 sentinel inherits this config's `num_disks`, so the layout and
  /// the engine's disk farm cannot drift apart. Validate() rejects an
  /// explicit non-zero mismatch.
  storage::DatabaseSpec EffectiveDatabase() const;

  Status Validate() const;
};

}  // namespace rtq::engine

#endif  // RTQ_ENGINE_SYSTEM_CONFIG_H_
