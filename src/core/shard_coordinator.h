// Cross-shard admission coordination (ShardConfig admission="global:mpl=N").
//
// Under local admission every shard's policy runs its own MPL against its
// own pool, which lets a skewed cluster overshoot the aggregate
// multiprogramming level the paper's Section 4 results say the system can
// sustain. The coordinator caps the *total* number of admitted queries
// across all shards: each shard's MemoryManager consults its per-shard
// AdmissionGate before promoting a query from zero to a positive
// allocation, and releases the slot when an admitted query completes,
// aborts, or is demoted back to zero.
//
// Freed slots are claimed lazily — a refused shard retries at its next
// reallocation event (arrival, completion, deadline abort). No
// cross-shard wakeup machinery is needed for progress: firm deadlines
// bound how long any waiting query can linger, and the paper's workloads
// churn membership constantly. Enforcement lives entirely in the engine
// layer, so policies never see the coordinator and work unmodified.

#ifndef RTQ_CORE_SHARD_COORDINATOR_H_
#define RTQ_CORE_SHARD_COORDINATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/memory_manager.h"

namespace rtq::core {

class ShardCoordinator {
 public:
  /// `global_mpl` > 0 is the cluster-wide cap on admitted queries.
  ShardCoordinator(int32_t num_shards, int64_t global_mpl);

  /// The gate shard `shard` installs on its MemoryManager. Owned by the
  /// coordinator; valid for the coordinator's lifetime.
  AdmissionGate* GateFor(int32_t shard);

  int32_t num_shards() const { return static_cast<int32_t>(gates_.size()); }
  int64_t global_mpl() const { return global_mpl_; }
  /// Admitted queries currently holding a slot, cluster-wide.
  int64_t in_use() const { return in_use_; }
  /// Highest in_use() ever observed (the invariant tests pin: never
  /// exceeds global_mpl).
  int64_t high_water() const { return high_water_; }
  /// Lifetime count of refused admissions.
  int64_t refusals() const { return refusals_; }
  /// Slots currently held by `shard`'s admitted queries.
  int64_t held_by(int32_t shard) const;

 private:
  struct Gate final : AdmissionGate {
    bool TryAcquire() override;
    void Release() override;
    ShardCoordinator* owner = nullptr;
    int32_t shard = 0;
  };

  bool TryAcquire(int32_t shard);
  void Release(int32_t shard);

  int64_t global_mpl_ = 0;
  int64_t in_use_ = 0;
  int64_t high_water_ = 0;
  int64_t refusals_ = 0;
  std::vector<Gate> gates_;
  std::vector<int64_t> held_;
};

/// Parses a ShardConfig::admission spec: "local" returns 0 (no
/// coordinator), "global:mpl=N" returns the positive cap N.
StatusOr<int64_t> ParseAdmissionSpec(const std::string& spec);

}  // namespace rtq::core

#endif  // RTQ_CORE_SHARD_COORDINATOR_H_
