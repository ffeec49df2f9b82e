#include "core/memory_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "common/rng.h"

namespace rtq::core {
namespace {

MemRequest Q(QueryId id, SimTime deadline, PageCount min, PageCount max) {
  MemRequest r;
  r.id = id;
  r.deadline = deadline;
  r.min_memory = min;
  r.max_memory = max;
  return r;
}

struct Recorder {
  std::map<QueryId, PageCount> allocations;
  int calls = 0;
  MemoryManager::ApplyFn fn() {
    return [this](QueryId id, PageCount pages) {
      allocations[id] = pages;
      ++calls;
    };
  }
};

TEST(MemoryManager, AdmitsOnAdd) {
  Recorder rec;
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(), rec.fn());
  mm.AddQuery(Q(1, 10.0, 40, 600));
  EXPECT_EQ(rec.allocations[1], 600);
  EXPECT_EQ(mm.admitted_count(), 1);
  EXPECT_EQ(mm.allocated_pages(), 600);
}

TEST(MemoryManager, WaitingQueryGetsZero) {
  Recorder rec;
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(false), rec.fn());
  mm.AddQuery(Q(1, 10.0, 40, 800));
  mm.AddQuery(Q(2, 20.0, 40, 800));
  EXPECT_EQ(mm.admitted_count(), 1);
  EXPECT_EQ(mm.waiting_count(), 1);
  EXPECT_EQ(mm.allocation_of(2), 0);
}

TEST(MemoryManager, RemovePromotesWaiters) {
  Recorder rec;
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(false), rec.fn());
  mm.AddQuery(Q(1, 10.0, 40, 800));
  mm.AddQuery(Q(2, 20.0, 40, 800));
  mm.RemoveQuery(1);
  EXPECT_EQ(rec.allocations[2], 800);
  EXPECT_EQ(mm.admitted_count(), 1);
  EXPECT_EQ(mm.live_count(), 1);
}

TEST(MemoryManager, EarlierDeadlinePreemptsMemory) {
  Recorder rec;
  MemoryManager mm(1000, std::make_unique<MinMaxStrategy>(-1), rec.fn());
  mm.AddQuery(Q(1, 100.0, 40, 900));
  EXPECT_EQ(rec.allocations[1], 900);
  // A more urgent query arrives: it takes the max; the old one drops to min.
  mm.AddQuery(Q(2, 50.0, 40, 900));
  EXPECT_EQ(rec.allocations[2], 900);
  EXPECT_EQ(rec.allocations[1], 100);  // 1000 - 900
}

TEST(MemoryManager, ApplyCalledOnlyOnChanges) {
  Recorder rec;
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(), rec.fn());
  mm.AddQuery(Q(1, 10.0, 40, 300));
  int calls_after_add = rec.calls;
  mm.Reallocate();  // nothing changed
  EXPECT_EQ(rec.calls, calls_after_add);
}

TEST(MemoryManager, SetStrategyReallocates) {
  Recorder rec;
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(false), rec.fn());
  mm.AddQuery(Q(1, 10.0, 40, 700));
  mm.AddQuery(Q(2, 20.0, 40, 700));
  EXPECT_EQ(mm.admitted_count(), 1);  // Max admits only one
  mm.SetStrategy(std::make_unique<MinMaxStrategy>(-1));
  EXPECT_EQ(mm.admitted_count(), 2);  // MinMax admits both
  EXPECT_EQ(rec.allocations[1], 700);
  EXPECT_EQ(rec.allocations[2], 300);
  EXPECT_EQ(mm.strategy().name(), "MinMax");
}

TEST(MemoryManager, ShrinksAppliedBeforeGrows) {
  // If grows were applied first the pool would transiently oversubscribe;
  // the recorder checks the running total never exceeds the pool.
  PageCount running = 0;
  PageCount peak = 0;
  std::map<QueryId, PageCount> current;
  MemoryManager mm(
      1000, std::make_unique<MinMaxStrategy>(-1),
      [&](QueryId id, PageCount pages) {
        running += pages - current[id];
        current[id] = pages;
        peak = std::max(peak, running);
      });
  mm.AddQuery(Q(1, 100.0, 40, 900));
  mm.AddQuery(Q(2, 50.0, 40, 900));   // forces 1 to shrink, 2 to grow
  mm.AddQuery(Q(3, 25.0, 40, 900));   // forces more reshuffling
  mm.RemoveQuery(3);
  EXPECT_LE(peak, 1000);
}

TEST(MemoryManager, ApplyCallbackMayRetireAQuery) {
  // Query 2 finishes the moment it is admitted: its apply callback
  // removes it. The pass that admitted it is stale from then on, so
  // the manager recomputes and ends where a fresh recompute would.
  MemoryManager* manager = nullptr;
  std::map<QueryId, PageCount> current;
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(false),
                   [&](QueryId id, PageCount pages) {
                     current[id] = pages;
                     if (id == 2 && pages > 0) manager->RemoveQuery(2);
                   });
  manager = &mm;
  mm.AddQuery(Q(1, 10.0, 40, 600));
  mm.AddQuery(Q(2, 20.0, 40, 600));  // waits behind 1
  mm.AddQuery(Q(3, 30.0, 40, 300));  // waits behind 2 (strict ED)
  mm.RemoveQuery(1);                 // admits 2, which retires at once
  EXPECT_EQ(mm.live_count(), 1);
  EXPECT_EQ(mm.allocation_of(3), 300);
  EXPECT_EQ(current[3], 300);
  EXPECT_EQ(current[2], 0);
  EXPECT_EQ(mm.allocated_pages(), 300);
  EXPECT_EQ(mm.admitted_count(), 1);
}

TEST(MemoryManager, RejectsDuplicateIds) {
  Recorder rec;
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(), rec.fn());
  mm.AddQuery(Q(1, 10.0, 40, 100));
  EXPECT_DEATH(mm.AddQuery(Q(1, 20.0, 40, 100)), "duplicate");
}

TEST(MemoryManager, RejectsUnknownRemoval) {
  Recorder rec;
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(), rec.fn());
  EXPECT_DEATH(mm.RemoveQuery(42), "unknown");
}

TEST(MemoryManager, RejectsImpossibleDemands) {
  Recorder rec;
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(), rec.fn());
  EXPECT_DEATH(mm.AddQuery(Q(1, 10.0, 40, 2000)), "more memory");
}

TEST(MemoryManager, DeadlineTiesBreakByQueryId) {
  Recorder rec;
  MemoryManager mm(1000, std::make_unique<MinMaxStrategy>(-1), rec.fn());
  mm.AddQuery(Q(7, 50.0, 40, 900));
  mm.AddQuery(Q(3, 50.0, 40, 900));
  // Same deadline: the earlier-arriving (lower id) query wins the top-up.
  EXPECT_EQ(rec.allocations[3], 900);
  EXPECT_EQ(rec.allocations[7], 100);
}

TEST(MemoryManager, FuzzMatchesFullRecomputeReference) {
  // Random arrivals and retirements, checked after every change against
  // the strategy run from scratch over a naively sorted copy of the live
  // set. Deadlines come from ten values, so ties are common; ids are
  // scrambled so that the id tie-break is not arrival order.
  struct Case {
    const char* name;
    std::function<std::unique_ptr<AllocationStrategy>()> make;
  };
  const std::vector<Case> cases = {
      {"max", [] { return std::make_unique<MaxStrategy>(true); }},
      {"max-strict", [] { return std::make_unique<MaxStrategy>(false); }},
      {"minmax-1", [] { return std::make_unique<MinMaxStrategy>(1); }},
      {"minmax-5", [] { return std::make_unique<MinMaxStrategy>(5); }},
      {"minmax-inf", [] { return std::make_unique<MinMaxStrategy>(-1); }},
      {"prop-1", [] { return std::make_unique<ProportionalStrategy>(1); }},
      {"prop-5", [] { return std::make_unique<ProportionalStrategy>(5); }},
      {"prop-inf", [] { return std::make_unique<ProportionalStrategy>(-1); }},
  };
  constexpr PageCount kTotal = 1000;
  for (const Case& c : cases) {
    const std::unique_ptr<AllocationStrategy> reference = c.make();
    bool fast_path_ran = false;
    for (uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      Rng rng(seed);
      Recorder rec;
      MemoryManager mm(kTotal, c.make(), rec.fn());
      std::vector<MemRequest> live;
      int64_t arrivals = 0;
      int64_t changes = 0;
      for (int step = 0; step < 400; ++step) {
        const bool add = live.empty() ||
                         (live.size() < 40 && rng.NextDouble() < 0.55);
        if (add) {
          const QueryId id = (++arrivals * 7919) % 100003;
          const SimTime deadline = 10.0 * rng.UniformInt(1, 10);
          const PageCount min = rng.UniformInt(1, 60);
          live.push_back(Q(id, deadline, min, min + rng.UniformInt(0, 700)));
          mm.AddQuery(live.back());
        } else {
          const size_t victim =
              static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
          mm.RemoveQuery(live[victim].id);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        }
        ++changes;

        std::vector<MemRequest> sorted = live;
        std::sort(sorted.begin(), sorted.end(),
                  [](const MemRequest& a, const MemRequest& b) {
                    return a.deadline != b.deadline ? a.deadline < b.deadline
                                                    : a.id < b.id;
                  });
        const AllocationVector want = reference->Allocate(sorted, kTotal);
        int64_t admitted = 0;
        PageCount pages = 0;
        for (size_t i = 0; i < sorted.size(); ++i) {
          ASSERT_EQ(mm.allocation_of(sorted[i].id), want[i])
              << "step " << step << " query " << sorted[i].id;
          EXPECT_EQ(rec.allocations[sorted[i].id], want[i]);
          admitted += want[i] > 0;
          pages += want[i];
        }
        ASSERT_EQ(mm.live_count(), static_cast<int64_t>(live.size()));
        ASSERT_EQ(mm.admitted_count(), admitted) << "step " << step;
        ASSERT_EQ(mm.waiting_count(),
                  static_cast<int64_t>(live.size()) - admitted);
        ASSERT_EQ(mm.allocated_pages(), pages) << "step " << step;
      }
      EXPECT_LE(mm.recomputes(), changes);
      fast_path_ran = fast_path_ran || mm.recomputes() < changes;
    }
    EXPECT_TRUE(fast_path_ran) << c.name << ": no change took a fast path";
  }
}

/// Counting admission gate with a fixed slot capacity (the unit-test
/// stand-in for one shard's view of a core::ShardCoordinator).
struct SlotGate final : AdmissionGate {
  explicit SlotGate(int64_t cap) : capacity(cap) {}
  bool TryAcquire() override {
    if (in_use >= capacity) {
      ++refused;
      return false;
    }
    ++in_use;
    return true;
  }
  void Release() override {
    ASSERT_GT(in_use, 0);
    --in_use;
  }
  int64_t capacity;
  int64_t in_use = 0;
  int64_t refused = 0;
};

TEST(MemoryManager, GateRefusalVetoesAdmission) {
  Recorder rec;
  SlotGate gate(0);  // the cluster is full: nobody may be admitted
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(), rec.fn());
  mm.SetAdmissionGate(&gate);
  mm.AddQuery(Q(1, 10.0, 40, 600));
  EXPECT_EQ(mm.admitted_count(), 0);
  EXPECT_EQ(mm.waiting_count(), 1);
  EXPECT_EQ(mm.allocation_of(1), 0);
  EXPECT_GT(gate.refused, 0);
}

TEST(MemoryManager, GateSlotIsHeldUntilRemovalThenReclaimed) {
  Recorder rec;
  SlotGate gate(1);
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(false), rec.fn());
  mm.SetAdmissionGate(&gate);
  // Memory could hold both (min 40 each), but the gate caps MPL at 1.
  mm.AddQuery(Q(1, 10.0, 40, 400));
  mm.AddQuery(Q(2, 20.0, 40, 400));
  EXPECT_EQ(mm.admitted_count(), 1);
  EXPECT_EQ(mm.allocation_of(1), 400);
  EXPECT_EQ(mm.allocation_of(2), 0);
  EXPECT_EQ(gate.in_use, 1);
  // Removing the holder releases the slot; the waiter claims it on the
  // removal's reallocation pass.
  mm.RemoveQuery(1);
  EXPECT_EQ(mm.admitted_count(), 1);
  EXPECT_EQ(mm.allocation_of(2), 400);
  EXPECT_EQ(gate.in_use, 1);
  mm.RemoveQuery(2);
  EXPECT_EQ(gate.in_use, 0);
}

TEST(MemoryManager, GateAcquiresInDeadlineOrder) {
  Recorder rec;
  SlotGate gate(1);
  MemoryManager mm(1000, std::make_unique<MinMaxStrategy>(-1), rec.fn());
  mm.SetAdmissionGate(&gate);
  // Two queries wait behind a full gate; when the slot frees, the one
  // with the earlier deadline must claim it — even though it arrived
  // later.
  mm.AddQuery(Q(1, 10.0, 40, 400));
  mm.AddQuery(Q(2, 90.0, 40, 400));
  mm.AddQuery(Q(3, 50.0, 40, 400));
  EXPECT_EQ(mm.admitted_count(), 1);
  EXPECT_EQ(mm.allocation_of(2), 0);
  EXPECT_EQ(mm.allocation_of(3), 0);
  mm.RemoveQuery(1);
  EXPECT_EQ(mm.admitted_count(), 1);
  EXPECT_EQ(mm.allocation_of(3), 400) << "earliest deadline takes the slot";
  EXPECT_EQ(mm.allocation_of(2), 0);
}

TEST(MemoryManager, GateMustBeInstalledBeforeFirstQuery) {
  Recorder rec;
  SlotGate gate(1);
  MemoryManager mm(1000, std::make_unique<MaxStrategy>(), rec.fn());
  mm.AddQuery(Q(1, 10.0, 40, 100));
  EXPECT_DEATH(mm.SetAdmissionGate(&gate), "empty manager");
}

}  // namespace
}  // namespace rtq::core
