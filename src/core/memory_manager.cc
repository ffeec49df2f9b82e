#include "core/memory_manager.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace rtq::core {

MemoryManager::MemoryManager(PageCount total_pages,
                             std::unique_ptr<AllocationStrategy> strategy,
                             ApplyFn apply)
    : total_(total_pages),
      strategy_(std::move(strategy)),
      apply_(std::move(apply)) {
  RTQ_CHECK_MSG(total_pages > 0, "pool must be positive");
  RTQ_CHECK(strategy_ != nullptr);
  RTQ_CHECK(apply_ != nullptr);
}

void MemoryManager::SetStrategy(
    std::unique_ptr<AllocationStrategy> strategy) {
  RTQ_CHECK(strategy != nullptr);
  strategy_ = std::move(strategy);
  cache_valid_ = false;
  Reallocate();
}

void MemoryManager::SetAdmissionGate(AdmissionGate* gate) {
  RTQ_CHECK_MSG(queries_.empty(),
                "admission gate must be installed on an empty manager");
  gate_ = gate;
  cache_valid_ = false;
}

size_t MemoryManager::IndexOf(QueryId id) const {
  size_t i = 0;
  while (i < queries_.size() && queries_[i].id != id) ++i;
  return i;
}

void MemoryManager::SetAllocation(size_t index, PageCount pages) {
  PageCount& held = allocations_[index];
  allocated_sum_ += pages - held;
  admitted_count_ += (pages > 0) - (held > 0);
  held = pages;
  apply_(queries_[index].id, pages);
}

bool MemoryManager::InsertIsStable(const EdKey& key,
                                   const MemRequest& request) const {
  if (reallocating_ || !cache_valid_) return false;
  if (request.min_memory <= hint_.spare_min ||
      request.max_memory <= hint_.spare_max) {
    return false;  // the strategy might grant it something
  }
  if (frontier_is_end_) {
    return !queries_.empty() && KeyOf(queries_.back()) < key;
  }
  return frontier_key_ < key;
}

void MemoryManager::AddQuery(const MemRequest& request) {
  RTQ_CHECK_MSG(request.min_memory >= 0 &&
                    request.max_memory >= request.min_memory,
                "invalid memory demands");
  RTQ_CHECK_MSG(request.max_memory <= total_,
                "query demands more memory than the machine has");
  RTQ_CHECK_MSG(IndexOf(request.id) == queries_.size(), "duplicate query id");
  const EdKey key = KeyOf(request);
  // Decide the fast path before the insert mutates the ED order.
  bool stable = InsertIsStable(key, request);
  auto at = std::upper_bound(
      queries_.begin(), queries_.end(), key,
      [](const EdKey& k, const MemRequest& r) { return k < KeyOf(r); });
  allocations_.insert(allocations_.begin() + (at - queries_.begin()), 0);
  queries_.insert(at, request);
  // Fast path: the request parks in the denied tail with no allocation
  // and nobody else moves; the cached hint stays valid (the admission
  // frontier is untouched). No apply callbacks would have fired.
  if (stable) return;
  Reallocate();
}

void MemoryManager::RemoveQuery(QueryId id) {
  const size_t at = IndexOf(id);
  RTQ_CHECK_MSG(at < queries_.size(), "RemoveQuery: unknown query");
  PageCount held = allocations_[at];
  // Fast path: dropping a zero-allocation query from strictly behind the
  // admission frontier cannot move the frontier or free memory, so every
  // other allocation is provably unchanged.
  bool stable = !reallocating_ && cache_valid_ && held == 0 &&
                !frontier_is_end_ && frontier_key_ < KeyOf(queries_[at]);
  if (gate_ != nullptr && held > 0) gate_->Release();
  allocated_sum_ -= held;
  admitted_count_ -= held > 0;
  queries_.erase(queries_.begin() + at);
  allocations_.erase(allocations_.begin() + at);
  // Tell the receiver the query's pages are gone before anyone else
  // is granted them (keeps external accounting conservative).
  if (held > 0) apply_(id, 0);
  if (stable) return;
  Reallocate();
}

void MemoryManager::Reallocate() {
  // An apply callback may complete a query synchronously in principle;
  // defer nested reallocation requests to the outermost call.
  if (reallocating_) {
    realloc_again_ = true;
    return;
  }
  reallocating_ = true;
  do {
    realloc_again_ = false;
    cache_valid_ = false;
    ++recomputes_;

    StableTailHint hint;
    strategy_->AllocateInto(queries_, total_, &alloc_scratch_, &hint);
    AllocationVector& alloc = alloc_scratch_;
    const size_t n = queries_.size();
    RTQ_CHECK(alloc.size() == n);

    PageCount sum = 0;
    for (size_t i = 0; i < n; ++i) {
      RTQ_CHECK_MSG(alloc[i] >= 0, "negative allocation from strategy");
      RTQ_CHECK_MSG(alloc[i] <= queries_[i].max_memory,
                    "strategy exceeded a query's maximum");
      sum += alloc[i];
    }
    RTQ_CHECK_MSG(sum <= total_, "strategy oversubscribed the pool");

    // Gate pass: release the slots of queries this recompute demotes to
    // zero, then claim one slot per would-be admission in ED order —
    // refused queries are vetoed back to zero (the strategy's pages for
    // them simply go unused this round; they retry on every recompute).
    if (gate_ != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        if (alloc[i] == 0 && allocations_[i] > 0) gate_->Release();
      }
      for (size_t i = 0; i < n; ++i) {
        if (alloc[i] > 0 && allocations_[i] == 0 && !gate_->TryAcquire()) {
          alloc[i] = 0;
        }
      }
    }

    // Apply shrinks before grows so the pool never oversubscribes. A
    // change requested from inside an apply callback (a query added or
    // removed, a new strategy) leaves this pass stale: it stops there
    // and the loop recomputes.
    for (size_t i = 0; i < n && !realloc_again_; ++i) {
      if (alloc[i] < allocations_[i]) SetAllocation(i, alloc[i]);
    }
    for (size_t i = 0; i < n && !realloc_again_; ++i) {
      if (alloc[i] > allocations_[i]) SetAllocation(i, alloc[i]);
    }

    // Cache the strategy's stable-tail proof for the fast paths; only
    // when this pass is final (a deferred nested request means the state
    // already moved under us).
    if (!realloc_again_ && hint.valid && gate_ == nullptr) {
      hint_ = hint;
      frontier_is_end_ = hint.from >= n;
      if (!frontier_is_end_) frontier_key_ = KeyOf(queries_[hint.from]);
      cache_valid_ = true;
    }
  } while (realloc_again_);
  reallocating_ = false;
}

PageCount MemoryManager::allocation_of(QueryId id) const {
  const size_t at = IndexOf(id);
  return at < queries_.size() ? allocations_[at] : 0;
}

}  // namespace rtq::core
