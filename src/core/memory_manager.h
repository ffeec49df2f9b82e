// The reallocation engine.
//
// Tracks every live query (waiting or admitted), and on every membership
// or policy change recomputes all allocations with the active strategy
// and pushes the deltas out through a callback. This is the mechanism
// Section 3.2 describes: "the memory allocation of a query can vary
// between maximum, minimum, or no allocation as higher-priority queries
// enter and leave the system".
//
// Steady-state churn takes an incremental path: strategies publish a
// StableTailHint (strategy.h) proving that requests sorting behind the
// admission frontier neither receive memory nor disturb anyone else, so
// an arrival that lands in that dead zone — or the removal of a waiting
// query parked there — skips the O(live queries) recompute entirely.
// The fast paths are pure early-outs: every allocation and every apply
// callback is bit-identical to what the full recompute would produce.

#ifndef RTQ_CORE_MEMORY_MANAGER_H_
#define RTQ_CORE_MEMORY_MANAGER_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "core/strategy.h"

namespace rtq::core {

/// Cross-cutting admission veto consulted during reallocation. The
/// manager calls TryAcquire once for every query about to move from zero
/// to a positive allocation; returning false keeps that query at zero for
/// this recompute (it stays registered and is retried on every later
/// one). Release is the inverse transition: an admitted query left the
/// system or was demoted back to zero. The cross-shard global-MPL
/// coordinator (core::ShardCoordinator) is the canonical implementation.
class AdmissionGate {
 public:
  virtual ~AdmissionGate() = default;
  virtual bool TryAcquire() = 0;
  virtual void Release() = 0;
};

class MemoryManager {
 public:
  /// Invoked with (query, new_allocation) whenever a query's allocation
  /// changes. The receiver is responsible for reserving buffer-pool pages
  /// and informing the operator.
  using ApplyFn = std::function<void(QueryId, PageCount)>;

  MemoryManager(PageCount total_pages,
                std::unique_ptr<AllocationStrategy> strategy, ApplyFn apply);

  /// Replaces the strategy and reallocates.
  void SetStrategy(std::unique_ptr<AllocationStrategy> strategy);

  /// Installs an admission gate (not owned; null clears). Must be set
  /// before the first AddQuery — slot accounting starts from an empty
  /// system. A gated manager never caches stable-tail hints: the gate's
  /// verdict depends on state outside this manager (other shards), so no
  /// incremental proof survives between recomputes.
  void SetAdmissionGate(AdmissionGate* gate);

  /// Registers an arriving query and reallocates (incrementally when the
  /// strategy's stable-tail proof applies).
  void AddQuery(const MemRequest& request);

  /// Deregisters a completed/aborted query and reallocates. The apply
  /// callback first sees (id, 0) if the query still held pages.
  void RemoveQuery(QueryId id);

  /// Recomputes allocations with the current strategy (idempotent).
  void Reallocate();

  const AllocationStrategy& strategy() const { return *strategy_; }

  // --- introspection -----------------------------------------------------
  PageCount total_pages() const { return total_; }
  PageCount allocated_pages() const { return allocated_sum_; }
  /// Queries with a non-zero allocation.
  int64_t admitted_count() const { return admitted_count_; }
  /// Queries registered but currently at zero allocation.
  int64_t waiting_count() const { return live_count() - admitted_count_; }
  int64_t live_count() const { return static_cast<int64_t>(queries_.size()); }
  /// Full strategy recomputations performed so far. Membership changes
  /// absorbed by the StableTailHint fast paths do not count — the gap
  /// between membership changes and recomputes() measures how often a
  /// strategy's incremental proof actually engages.
  int64_t recomputes() const { return recomputes_; }
  PageCount allocation_of(QueryId id) const;

 private:
  /// Key giving Earliest-Deadline order with deterministic tie-break.
  struct EdKey {
    SimTime deadline = kNoDeadline;
    QueryId id = kInvalidQueryId;
    bool operator<(const EdKey& o) const {
      if (deadline != o.deadline) return deadline < o.deadline;
      return id < o.id;
    }
  };
  static EdKey KeyOf(const MemRequest& r) { return {r.deadline, r.id}; }

  /// Position of `id` in queries_ (a linear scan: live queries number in
  /// the tens), or queries_.size() when it is not live.
  size_t IndexOf(QueryId id) const;

  /// Records an allocation change and forwards it to the apply callback.
  void SetAllocation(size_t index, PageCount pages);

  /// True when the cached hint proves that inserting `key`/`request`
  /// changes no existing allocation and grants nothing.
  bool InsertIsStable(const EdKey& key, const MemRequest& request) const;

  PageCount total_;
  std::unique_ptr<AllocationStrategy> strategy_;
  ApplyFn apply_;
  AdmissionGate* gate_ = nullptr;
  /// Live queries in ED order, handed to the strategy as they are;
  /// allocations_[i] is what queries_[i] holds. Both grow to the live
  /// high-water mark, after which arrivals and retirements allocate
  /// nothing.
  std::vector<MemRequest> queries_;
  std::vector<PageCount> allocations_;
  PageCount allocated_sum_ = 0;   // invariant: sum of allocations_
  int64_t admitted_count_ = 0;    // invariant: #allocations_ > 0
  int64_t recomputes_ = 0;
  bool reallocating_ = false;     // guards against re-entrant reallocation
  bool realloc_again_ = false;

  // --- incremental-reallocation cache ------------------------------------
  // Valid between a full recompute and the next change it cannot absorb.
  bool cache_valid_ = false;
  StableTailHint hint_;
  /// Key of the element at ED position hint_.from when the hint was
  /// computed; `frontier_is_end_` means hint_.from == live_count() there
  /// (only inserts sorting after *every* live query qualify).
  EdKey frontier_key_;
  bool frontier_is_end_ = false;
  /// The strategy's output, reused across recomputes.
  AllocationVector alloc_scratch_;
};

}  // namespace rtq::core

#endif  // RTQ_CORE_MEMORY_MANAGER_H_
