// Declustered query placement across shards (ROADMAP item 1).
//
// A sharded system (engine::ShardedRtdbs) generates the *same* arrival
// stream on every shard — same seed, same draws, same timestamps — and
// the placement function assigns each arrival to exactly one shard;
// every other shard drops it at its sink. Because routing is a pure
// function of the arrival's identity and operand data, the split is
// deterministic, independent of event interleaving, and byte-stable
// across replays: the property the sharded golden-trajectory pins test.
//
// Specs (ShardConfig::placement):
//   hash           uniform load balancing: FNV-1a hash of the query id.
//   range          data declustering: contiguous relation-id ranges, so
//                  a query lands on the shard owning its build relation.
//                  Load skew emerges from the workload's operand-size
//                  distribution, not from the router.
//   skew[:hot=F]   hotspot: fraction F of arrivals pin to shard 0, the
//                  rest spread uniformly over shards 1..N-1. F defaults
//                  to 0.5 and must be in (0, 1]; with one shard the spec
//                  degenerates to "everything on shard 0".

#ifndef RTQ_WORKLOAD_PLACEMENT_H_
#define RTQ_WORKLOAD_PLACEMENT_H_

#include <string>

#include "common/status.h"
#include "common/types.h"

namespace rtq::workload {

class ShardPlacement {
 public:
  enum class Kind { kHash, kRange, kSkew };

  /// Parses a placement spec for a cluster of `num_shards` shards.
  static StatusOr<ShardPlacement> Make(const std::string& spec,
                                       int32_t num_shards);

  /// The shard that owns this arrival, in [0, num_shards). `relation` is
  /// the blueprint's resolved build relation and `num_relations` the
  /// database's relation count; only range placement reads them.
  int32_t ShardOf(QueryId id, int64_t relation, int64_t num_relations) const;

  /// Hot-shard traffic fraction (skew placement only).
  double hot_fraction() const { return hot_; }
  /// Canonical spec string ("hash", "range", "skew:hot=0.60").
  const std::string& spec() const { return spec_; }

 private:
  ShardPlacement() = default;

  Kind kind_ = Kind::kHash;
  int32_t num_shards_ = 1;
  double hot_ = 0.5;
  std::string spec_;
};

}  // namespace rtq::workload

#endif  // RTQ_WORKLOAD_PLACEMENT_H_
