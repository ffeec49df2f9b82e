// A sharded RTDBS: N independent engines behind a deterministic router
// (ROADMAP item 1 — the "millions of users" scale-out).
//
// Each shard is a complete Rtdbs — its own buffer pool, CPU, disk farm,
// memory manager, and policy instance — built from the same base
// SystemConfig. Routing works by *filtered replication* of the arrival
// process: every shard generates the identical arrival stream (same
// seed, same RNG draw order, same timestamps), and the pluggable
// placement function (workload/placement.h) assigns each arrival to
// exactly one shard; the others drop it at their sink. That keeps the
// per-shard draw order pinned — the stream a shard sees is a pure
// function of (seed, placement, shard index) — and it models one global
// arrival process declustered across shards, for Poisson, scenario, and
// trace sources alike.
//
// How the cluster advances depends on what couples the shards:
//
//  * Local admission, RunUntil: the shards share no mutable state (only
//    the const placement, the read-only registries, and a shared const
//    trace), so each shard runs to the horizon on its own, on a
//    persistent set of worker threads. Every shard's trajectory is by
//    construction exactly what it would be alone.
//  * Global admission, and event-granular stepping (StepEvents, the
//    serve loop's unit): one merged clock. Each step dispatches the
//    earliest pending event across all shards (ties break toward the
//    lowest shard index), so the interleaving is deterministic and a
//    global-MPL coordinator observes shard transitions in a reproducible
//    order.
//
// With num_shards=1 both paths degenerate to running the single shard,
// which makes a 1-shard cluster bit-identical to a plain Rtdbs — the
// invariant the sharded golden-trajectory tests pin.
//
// Admission is per-shard by default ("local": each policy runs its own
// MPL against its own pool). Under "global:mpl=N" a core::ShardCoordinator
// caps the cluster-wide admitted count; enforcement lives in the
// MemoryManager's admission gate, so every registered policy works
// unmodified.

#ifndef RTQ_ENGINE_SHARDED_RTDBS_H_
#define RTQ_ENGINE_SHARDED_RTDBS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/shard_coordinator.h"
#include "engine/rtdbs.h"
#include "engine/system_config.h"
#include "workload/placement.h"

namespace rtq::engine {

class ShardedRtdbs {
 public:
  /// Builds `shards.num_shards` engines from `base` (whose shard identity
  /// is overwritten per shard). Fails on invalid base or shard configs.
  static StatusOr<std::unique_ptr<ShardedRtdbs>> Create(
      const SystemConfig& base, const ShardConfig& shards);

  /// Joins the worker threads, if RunUntil started any.
  ~ShardedRtdbs();
  ShardedRtdbs(const ShardedRtdbs&) = delete;
  ShardedRtdbs& operator=(const ShardedRtdbs&) = delete;

  /// Advances the whole cluster to absolute time `until`, then aligns
  /// every shard's clock to the horizon (mirroring Rtdbs::RunUntil).
  /// Under local admission each shard runs independently, on
  /// min(num_shards, hardware threads) threads counting the caller; the
  /// helper threads start on the first call and persist until
  /// destruction. An exception a shard throws is rethrown here once
  /// every shard has stopped (the lowest shard index wins). Under global
  /// admission the caller steps the merged clock.
  void RunUntil(SimTime until);

  /// Starts every shard's arrival stream and policy ticks. Idempotent.
  void Start();

  /// Dispatches up to `n` events on the merged clock — each the earliest
  /// pending across all shards, lowest shard index on ties — and returns
  /// how many dispatched (fewer only when every calendar drains).
  uint64_t StepEvents(uint64_t n);

  /// StepEvents(1) == 1: false when every shard's calendar is empty.
  bool StepEvent() { return StepEvents(1) == 1; }

  /// Latest shard clock (== the RunUntil horizon after a run).
  SimTime Now() const;

  int32_t num_shards() const { return static_cast<int32_t>(shards_.size()); }
  Rtdbs& shard(int32_t s) { return *shards_[static_cast<size_t>(s)]; }
  const Rtdbs& shard(int32_t s) const {
    return *shards_[static_cast<size_t>(s)];
  }
  /// Null under local admission.
  const core::ShardCoordinator* coordinator() const {
    return coordinator_.get();
  }

  /// Sum of per-shard dispatched events.
  uint64_t events_dispatched() const;

  /// Cluster-wide aggregate: completions/misses summed, time averages
  /// completion-weighted, avg_mpl summed (total in-flight across shards),
  /// utilizations averaged per shard (max = cluster max). The batch-means
  /// miss CI does not merge across independent streams and is left empty;
  /// use SummarizeShard for per-shard CIs.
  SystemSummary Summarize() const;
  SystemSummary SummarizeShard(int32_t s) const;

  /// Per-shard digests, each prefixed by a "shard <i>" line; under
  /// global admission then one "coordinator" line: in_use, high_water,
  /// refusals, and held_by for each shard.
  void AppendStateDigest(std::vector<std::string>* out) const;

 private:
  class ShardWorkers;

  ShardedRtdbs();

  /// The merged loop: dispatches up to `max_events` events at or before
  /// `horizon`, earliest first. Returns the number dispatched.
  uint64_t StepMerged(uint64_t max_events, SimTime horizon);

  std::unique_ptr<workload::ShardPlacement> placement_;
  std::unique_ptr<core::ShardCoordinator> coordinator_;
  /// Declared after placement_/coordinator_: shards hold raw pointers to
  /// both and must be destroyed first.
  std::vector<std::unique_ptr<Rtdbs>> shards_;
  /// StepMerged's head time per shard (+inf for an empty calendar),
  /// sized in Create so the merged loop never allocates.
  std::vector<SimTime> heads_;
  bool started_ = false;
  /// Local-admission RunUntil's threads. Declared last: they step the
  /// shards, so they are joined before anything else is destroyed.
  std::unique_ptr<ShardWorkers> workers_;
};

}  // namespace rtq::engine

#endif  // RTQ_ENGINE_SHARDED_RTDBS_H_
