// The memory-allocation strategies of Section 3.2 and Table 5.
//
//   Max            — every admitted query gets its maximum demand; queries
//                    that do not fit get nothing. No explicit MPL limit.
//   MinMax-N       — the N highest-priority (ED) queries are admitted;
//                    pass 1 gives each its minimum, pass 2 tops up to the
//                    maximum in priority order, so urgent queries end at
//                    max and the rest at min (one query may land between).
//                    N < 0 means MinMax-infinity, the paper's "MinMax".
//   Proportional-N — like MinMax-N, but the admitted queries all receive
//                    the same percentage of their maximum demand, floored
//                    at their minimum.
//
// PMM itself is not a strategy here: it is a controller (pmm.h) that
// dynamically switches the memory manager between Max and MinMax-N.

#ifndef RTQ_CORE_STRATEGY_H_
#define RTQ_CORE_STRATEGY_H_

#include <functional>
#include <memory>
#include <string>

#include "core/allocation.h"

namespace rtq::core {

/// A proof emitted alongside an allocation that lets MemoryManager skip
/// recomputation for steady-state membership churn. When `valid`, the
/// strategy certifies that, against the exact input it just allocated:
///
///  * inserting a request at ED position >= `from` whose min_memory >
///    `spare_min` AND max_memory > `spare_max` would receive no
///    allocation and leave every other allocation unchanged, and
///  * removing a zero-allocation request at ED position > `from` would
///    leave every other allocation unchanged.
///
/// Both properties survive any sequence of such inserts/removals (the
/// admitted prefix and its leftover memory are untouched), so one hint
/// can absorb a whole burst of tail churn. Thresholds use strict `>`
/// with -1 meaning "any request qualifies". Strategies without an
/// incremental proof leave `valid` false: MemoryManager then recomputes
/// on every change, which is always correct.
struct StableTailHint {
  bool valid = false;
  /// ED position of the admission frontier (== input size when every
  /// request was considered, e.g. Max-with-bypass).
  size_t from = 0;
  PageCount spare_min = -1;
  PageCount spare_max = -1;
};

class AllocationStrategy {
 public:
  virtual ~AllocationStrategy() = default;

  /// Computes allocations for `ed_sorted` (Earliest-Deadline order) from a
  /// pool of `total` pages into `*out`, which is resized to one entry per
  /// input (0 = not admitted) whatever it held before, so the caller can
  /// reuse one scratch vector across recomputes and steady-state
  /// reallocation allocates nothing. `*hint` (never null) arrives invalid;
  /// a strategy with a stable-tail proof fills it.
  virtual void AllocateInto(const std::vector<MemRequest>& ed_sorted,
                            PageCount total, AllocationVector* out,
                            StableTailHint* hint) const = 0;

  /// The allocation alone, into a fresh vector (tests, benchmarks and
  /// wrapper strategies delegating to an inner one).
  AllocationVector Allocate(const std::vector<MemRequest>& ed_sorted,
                            PageCount total) const {
    AllocationVector out;
    StableTailHint hint;
    AllocateInto(ed_sorted, total, &out, &hint);
    return out;
  }

  virtual std::string name() const = 0;
};

/// Shared machinery for "filter, delegate, scatter" wrapper strategies
/// (per-class quotas, feasibility shedding): requests `keep` rejects
/// (called once per request, in ED order — may be stateful) receive 0;
/// the survivors are allocated by `inner` and the grants scattered back
/// to their original positions in `*out`. When every request is kept the
/// wrapper is a no-op, so this delegates to `inner.AllocateInto` and the
/// inner stable-tail proof lands in `*hint` verbatim — each wrapper
/// decides whether exposing it is sound (quotas: yes; time-dependent
/// filters: no, discard it). When anything is filtered, `*hint` stays
/// invalid.
void AllocateThroughFilter(
    const AllocationStrategy& inner, const std::vector<MemRequest>& ed_sorted,
    PageCount total, const std::function<bool(const MemRequest&)>& keep,
    AllocationVector* out, StableTailHint* hint);

class MaxStrategy : public AllocationStrategy {
 public:
  /// `bypass_blocked`: when the highest-priority waiting query does not
  /// fit, whether lower-priority queries may still be admitted around it.
  /// The paper's Max "admits as many queries at their maximum allocations
  /// as memory permits" and realizes an average MPL close to 2 on the
  /// baseline workload, which requires bypassing — so bypass is the
  /// default. Strict ED (no bypass, immune to starving an urgent large
  /// query) is kept for the A1 ablation bench.
  explicit MaxStrategy(bool bypass_blocked = true)
      : bypass_blocked_(bypass_blocked) {}

  void AllocateInto(const std::vector<MemRequest>& ed_sorted, PageCount total,
                    AllocationVector* out,
                    StableTailHint* hint) const override;
  std::string name() const override;

 private:
  bool bypass_blocked_;
};

class MinMaxStrategy : public AllocationStrategy {
 public:
  /// `mpl_limit` = N; negative means unlimited (MinMax-infinity).
  explicit MinMaxStrategy(int64_t mpl_limit = -1) : mpl_limit_(mpl_limit) {}

  void AllocateInto(const std::vector<MemRequest>& ed_sorted, PageCount total,
                    AllocationVector* out,
                    StableTailHint* hint) const override;
  std::string name() const override;

  int64_t mpl_limit() const { return mpl_limit_; }

 private:
  int64_t mpl_limit_;
};

class ProportionalStrategy : public AllocationStrategy {
 public:
  /// `mpl_limit` = N; negative means unlimited (Proportional-infinity).
  explicit ProportionalStrategy(int64_t mpl_limit = -1)
      : mpl_limit_(mpl_limit) {}

  void AllocateInto(const std::vector<MemRequest>& ed_sorted, PageCount total,
                    AllocationVector* out,
                    StableTailHint* hint) const override;
  std::string name() const override;

 private:
  int64_t mpl_limit_;
};

}  // namespace rtq::core

#endif  // RTQ_CORE_STRATEGY_H_
