// Micro-benchmarks (google-benchmark) of the hot substrates: the event
// calendar, the least-squares fits PMM recomputes every batch, the
// allocation strategies, the LRU page cache, the CPU scheduler, the disk
// geometry model and elevator, the MemoryManager reallocation path, and
// policy-registry dispatch.

#include <benchmark/benchmark.h>

#include <array>
#include <deque>

#include "buffer/buffer_pool.h"
#include "buffer/lru_cache.h"
#include "common/arena.h"
#include "common/inline_callback.h"
#include "common/rng.h"
#include "core/memory_manager.h"
#include "core/policy_registry.h"
#include "core/strategy.h"
#include "model/cpu.h"
#include "model/disk.h"
#include "model/disk_geometry.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "stats/quadratic_fit.h"

namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  rtq::Rng rng(1);
  for (auto _ : state) {
    rtq::sim::EventQueue q;
    for (int i = 0; i < state.range(0); ++i) {
      q.Schedule(rng.NextDouble(), [] {});
    }
    while (!q.Empty()) benchmark::DoNotOptimize(q.Pop().first);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(16384);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  rtq::Rng rng(2);
  for (auto _ : state) {
    rtq::sim::EventQueue q;
    std::vector<rtq::sim::EventId> ids;
    for (int i = 0; i < state.range(0); ++i) {
      ids.push_back(q.Schedule(rng.NextDouble(), [] {}));
    }
    for (size_t i = 0; i < ids.size(); i += 2) q.Cancel(ids[i]);
    while (!q.Empty()) benchmark::DoNotOptimize(q.Pop().first);
  }
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(4096);

// Steady-state calendar churn, the simulator's per-event signature: one
// schedule + one pop per iteration against a standing population, with a
// tunable fraction of cancellations (arg 1, percent). Sparse (5%)
// resembles the baseline workload — deadline events are cancelled when
// queries finish in time; dense (50%) stresses slab recycling and the
// lazy skim the way an overloaded firm-deadline run does.
void BM_EventQueueChurn(benchmark::State& state) {
  const size_t population = static_cast<size_t>(state.range(0));
  const int64_t cancel_pct = state.range(1);
  rtq::Rng rng(11);
  rtq::sim::EventQueue q;
  std::vector<rtq::sim::EventId> ids(population, rtq::sim::kInvalidEventId);
  double now = 0.0;
  for (size_t i = 0; i < population; ++i) {
    ids[i] = q.Schedule(rng.Uniform(0.0, 100.0), [] {});
  }
  size_t slot = 0;
  for (auto _ : state) {
    ids[slot] = q.Schedule(now + rng.Uniform(0.0, 100.0), [] {});
    slot = (slot + 1) % population;
    if (rng.UniformInt(0, 99) < cancel_pct) {
      // May hit an already-popped id; that O(1) rejection is part of the
      // realistic mix.
      q.Cancel(ids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(population) - 1))]);
    }
    if (!q.Empty()) now = q.Pop().first;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn)
    ->Args({1024, 5})
    ->Args({1024, 50})
    ->Args({16384, 5});

// The engine's calendar traffic (sim/event_queue.h): a few query
// streams alternate a CPU burst, due almost at once, with a page I/O due
// within 50 ms, so most inserts land at or near the back of the
// calendar. Every 256 events a query arrives with a deadline 10-100 s
// out, and the deadline set one lap of the ring earlier is cancelled (a
// no-op if it already fired). Arg: events at the start, the streams plus
// the ring of deadlines.
void BM_EventQueueEngineTraffic(benchmark::State& state) {
  constexpr size_t kStreams = 4;
  constexpr uint64_t kEventsPerArrival = 256;
  enum Kind { kDeadline, kCpu, kIo };
  rtq::Rng rng(12);
  rtq::sim::EventQueue q;
  Kind fired = kDeadline;
  auto schedule = [&](double when, Kind kind) {
    return q.Schedule(when, [&fired, kind] { fired = kind; });
  };
  std::vector<rtq::sim::EventId> deadlines(
      static_cast<size_t>(state.range(0)) - kStreams);
  for (auto& id : deadlines) id = schedule(rng.Uniform(10.0, 100.0), kDeadline);
  for (size_t i = 0; i < kStreams; ++i) schedule(rng.Uniform(0.0, 0.05), kIo);
  rtq::sim::EventQueue::Callback cb;
  size_t oldest = 0;
  uint64_t events = 0;
  for (auto _ : state) {
    double now = q.PopInto(&cb);
    cb();
    if (fired == kIo) schedule(now + rng.Uniform(0.0, 0.001), kCpu);
    if (fired == kCpu) schedule(now + rng.Uniform(0.0, 0.05), kIo);
    if (++events % kEventsPerArrival == 0) {
      q.Cancel(deadlines[oldest]);
      deadlines[oldest] = schedule(now + rng.Uniform(10.0, 100.0), kDeadline);
      oldest = (oldest + 1) % deadlines.size();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueEngineTraffic)->Arg(32)->Arg(80);

void BM_QuadraticFit(benchmark::State& state) {
  rtq::Rng rng(3);
  std::vector<std::pair<double, double>> points;
  for (int i = 0; i < 200; ++i) {
    double x = rng.Uniform(1.0, 30.0);
    points.emplace_back(x, 0.01 * x * x - 0.2 * x + 2.0);
  }
  for (auto _ : state) {
    rtq::stats::QuadraticFit fit;
    for (auto [x, y] : points) fit.Add(x, y);
    benchmark::DoNotOptimize(fit.Fit());
    benchmark::DoNotOptimize(fit.Classify());
  }
}
BENCHMARK(BM_QuadraticFit);

void BM_MinMaxAllocate(benchmark::State& state) {
  rtq::Rng rng(4);
  std::vector<rtq::core::MemRequest> queries;
  for (int i = 0; i < state.range(0); ++i) {
    rtq::core::MemRequest q;
    q.id = static_cast<rtq::QueryId>(i);
    q.deadline = rng.Uniform(0.0, 1000.0);
    q.min_memory = 38;
    q.max_memory = rng.UniformInt(600, 2000);
    queries.push_back(q);
  }
  std::sort(queries.begin(), queries.end(),
            [](const auto& a, const auto& b) {
              return a.deadline < b.deadline;
            });
  rtq::core::MinMaxStrategy strategy(-1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.Allocate(queries, 2560));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MinMaxAllocate)->Arg(16)->Arg(128);

void BM_ProportionalAllocate(benchmark::State& state) {
  rtq::Rng rng(5);
  std::vector<rtq::core::MemRequest> queries;
  for (int i = 0; i < 64; ++i) {
    rtq::core::MemRequest q;
    q.id = static_cast<rtq::QueryId>(i);
    q.deadline = rng.Uniform(0.0, 1000.0);
    q.min_memory = 38;
    q.max_memory = rng.UniformInt(600, 2000);
    queries.push_back(q);
  }
  rtq::core::ProportionalStrategy strategy(-1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.Allocate(queries, 2560));
  }
}
BENCHMARK(BM_ProportionalAllocate);

// Lookup, plus Insert (and an eviction) on a miss, at the paper's
// 2,560-page pool over twice as many pages: runs of consecutive pages on
// ten disks, keyed by BufferPool::PageKey as the engine keys them.
void BM_LruCacheChurn(benchmark::State& state) {
  rtq::Rng rng(6);
  rtq::buffer::LruCache cache(2560);
  for (auto _ : state) {
    const uint64_t key = rtq::buffer::BufferPool::PageKey(
        static_cast<rtq::DiskId>(rng.UniformInt(0, 9)),
        1000 + rng.UniformInt(0, 511));
    if (!cache.Lookup(key)) cache.Insert(key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheChurn);

// Pure promote path: every probe hits a resident key, so the cost is one
// hash find plus the intrusive head-splice — the buffer-manager fast
// path a query pays per page reference once its working set is warm.
void BM_LruTouch(benchmark::State& state) {
  rtq::Rng rng(12);
  rtq::buffer::LruCache cache(1024);
  for (uint64_t key = 0; key < 1024; ++key) cache.Insert(key);
  for (auto _ : state) {
    uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 1023));
    benchmark::DoNotOptimize(cache.Lookup(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruTouch);

// The per-request disk timing model: every simulated I/O pays one
// AccessTime evaluation, so this sits squarely on the event hot path.
void BM_DiskGeometryAccessTime(benchmark::State& state) {
  rtq::Rng rng(7);
  rtq::model::DiskGeometry geometry{rtq::model::DiskParams{}};
  const rtq::PageCount capacity = geometry.params().capacity();
  std::vector<std::pair<rtq::Cylinder, rtq::PageCount>> accesses;
  for (int i = 0; i < 1024; ++i) {
    accesses.emplace_back(
        static_cast<rtq::Cylinder>(
            rng.UniformInt(0, geometry.params().num_cylinders - 1)),
        rng.UniformInt(0, capacity - 64));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto [head, start] = accesses[i++ & 1023];
    benchmark::DoNotOptimize(geometry.AccessTime(head, start, 6));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiskGeometryAccessTime);

// The elevator pick at a fixed queue depth (arg 0): submit `depth`
// requests in a handful of deadline buckets (so the cylinder-sweep
// tie-break, not just ED, decides) and drain the disk. Each service
// completion pays one PickByElevator over the remaining queue. Depth 1
// is the idle-disk path: the request starts without being queued. The
// disk drains to idle every iteration, so one disk serves them all and
// the loop times no construction. Its prefetch cache is off: it would
// otherwise serve depths 1 and 4, whose reads repeat every iteration.
void BM_DiskElevatorDrain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  rtq::Rng rng(12);
  rtq::model::DiskParams params;
  params.cache_pages = 0;
  struct Req {
    double deadline;
    rtq::PageCount start;
  };
  std::vector<Req> reqs;
  for (int i = 0; i < depth; ++i) {
    reqs.push_back(Req{100.0 * static_cast<double>(rng.UniformInt(1, 4)),
                       rng.UniformInt(0, params.capacity() - 7)});
  }
  rtq::sim::Simulator sim;
  rtq::model::Disk disk(&sim, params, 0);
  for (auto _ : state) {
    for (const Req& r : reqs) {
      rtq::model::DiskRequest req;
      req.query = 1;
      req.deadline = sim.Now() + r.deadline;
      req.start_page = r.start;
      req.pages = 6;
      disk.Submit(std::move(req));
    }
    sim.RunToCompletion();
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_DiskElevatorDrain)->Arg(1)->Arg(4)->Arg(32)->Arg(256);

// The disk queue at serve-global's measured depth: a standing backlog of
// about 460 no-deadline spool writes over every cylinder, plus reads at
// distinct deadlines. Each iteration submits one read (with a callback)
// and one write and completes two requests: the read goes first, then
// the elevator picks a write off the backlog. Items are requests.
void BM_DiskSpoolBacklog(benchmark::State& state) {
  constexpr int kBacklog = 460;
  rtq::Rng rng(15);
  const rtq::model::DiskParams params;
  std::array<rtq::PageCount, 1024> starts{};
  for (rtq::PageCount& s : starts) {
    s = rng.UniformInt(0, params.capacity() - 6);
  }
  rtq::sim::Simulator sim;
  rtq::model::Disk disk(&sim, params, 0);
  size_t next = 0;
  int64_t reads_done = 0;
  auto submit = [&](bool read) {
    rtq::model::DiskRequest req;
    req.query = 1;
    req.deadline = read ? sim.Now() + 1.0 : rtq::kNoDeadline;
    req.start_page = starts[next++ & 1023];
    req.pages = 6;
    req.is_write = !read;
    if (read) req.on_complete = [&reads_done] { ++reads_done; };
    disk.Submit(std::move(req));
  };
  // One write starts at once; the rest queue.
  for (int i = 0; i <= kBacklog; ++i) submit(false);
  for (auto _ : state) {
    submit(true);
    submit(false);
    sim.Step();
    sim.Step();
  }
  benchmark::DoNotOptimize(reads_done);
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_DiskSpoolBacklog);

// One CPU job's life: Submit, dispatch, completion event. Arg 0 is the
// number of jobs in flight, each completion submitting a replacement: at
// 1 every submit finds the CPU idle and starts at once (most of the
// engine's submits), at 8 it joins the ready heap or preempts.
class CpuChurn {
 public:
  CpuChurn() {
    rtq::Rng rng(14);
    for (double& d : deadlines_) d = rng.Uniform(1.0, 100.0);
  }
  void Submit() {
    rtq::model::CpuJob job;
    job.query = static_cast<rtq::QueryId>(next_ % 8) + 1;
    job.deadline = sim_.Now() + deadlines_[next_++ % deadlines_.size()];
    job.instructions = 20'000;
    job.on_complete = [this] { Submit(); };
    cpu_.Submit(std::move(job));
  }
  rtq::sim::Simulator& sim() { return sim_; }

 private:
  rtq::sim::Simulator sim_;
  rtq::model::Cpu cpu_{&sim_, 40.0};
  std::array<double, 1024> deadlines_{};
  uint64_t next_ = 0;
};

void BM_CpuSubmitComplete(benchmark::State& state) {
  CpuChurn churn;
  for (int64_t i = 0; i < state.range(0); ++i) churn.Submit();
  for (auto _ : state) benchmark::DoNotOptimize(churn.sim().Step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpuSubmitComplete)->Arg(1)->Arg(8);

// MemoryManager::Reallocate with N live queries: the full recompute the
// engine triggers on every arrival, completion, and policy revision.
void BM_MemoryManagerReallocate(benchmark::State& state) {
  rtq::Rng rng(8);
  rtq::core::MemoryManager mm(
      2560, std::make_unique<rtq::core::MinMaxStrategy>(-1),
      [](rtq::QueryId, rtq::PageCount) {});
  for (int i = 0; i < state.range(0); ++i) {
    rtq::core::MemRequest q;
    q.id = static_cast<rtq::QueryId>(i);
    q.deadline = rng.Uniform(0.0, 1000.0);
    q.min_memory = 38;
    q.max_memory = rng.UniformInt(600, 2000);
    mm.AddQuery(q);
  }
  for (auto _ : state) {
    mm.Reallocate();
    benchmark::DoNotOptimize(mm.allocated_pages());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MemoryManagerReallocate)->Arg(16)->Arg(128);

// Arrival/completion churn at a standing population of `live` queries
// under an MPL cap — the overloaded steady state where most of the
// population waits behind the admission frontier. Each iteration is one
// completion (earliest deadline leaves: full recompute) plus one arrival
// (latest deadline: eligible for the stable-tail fast path), the exact
// membership churn the engine generates per finished query.
void BM_MemoryManagerChurn(benchmark::State& state) {
  const int64_t live = state.range(0);
  rtq::Rng rng(13);
  rtq::core::MemoryManager mm(
      2560, std::make_unique<rtq::core::MinMaxStrategy>(8),
      [](rtq::QueryId, rtq::PageCount) {});
  double now = 0.0;
  rtq::QueryId next_id = 0;
  std::deque<rtq::QueryId> fifo;
  auto arrive = [&] {
    rtq::core::MemRequest q;
    q.id = next_id++;
    q.deadline = now + rng.Uniform(50.0, 500.0);
    q.min_memory = 38;
    q.max_memory = rng.UniformInt(600, 2000);
    fifo.push_back(q.id);
    mm.AddQuery(q);
  };
  for (int64_t i = 0; i < live; ++i) arrive();
  for (auto _ : state) {
    now += 1.0;
    arrive();
    mm.RemoveQuery(fifo.front());
    fifo.pop_front();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryManagerChurn)->Arg(32)->Arg(256);

// Spec string -> policy instance through the registry: the dispatch
// cost the PolicyRegistry redesign added to system construction (it
// runs once per Rtdbs::Create, so it only needs to stay trivially
// cheap, not free).
void BM_PolicyRegistryCreate(benchmark::State& state) {
  const std::string specs[] = {"max", "minmax:10", "pmm",
                               "pmm-fair:w=1,2"};
  size_t i = 0;
  for (auto _ : state) {
    auto policy =
        rtq::core::PolicyRegistry::Global().Create(specs[i++ & 3]);
    benchmark::DoNotOptimize(policy.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyRegistryCreate);

// The allocation pattern of one query phase: a burst of small
// mixed-size node allocations, then everything freed at once. Arg 0
// plays it against the global heap (malloc per node, free per node);
// arg 1 against a phase-scoped Arena (bump pointer, one Reset). The gap
// is what the per-query runtime arenas buy on admission.
void BM_ArenaVsMalloc(benchmark::State& state) {
  const bool use_arena = state.range(0) != 0;
  constexpr int kNodes = 256;
  constexpr size_t kSizes[] = {16, 24, 40, 64, 96};
  rtq::Arena arena;
  std::vector<void*> ptrs;
  ptrs.reserve(kNodes);
  for (auto _ : state) {
    if (use_arena) {
      for (int i = 0; i < kNodes; ++i) {
        benchmark::DoNotOptimize(arena.Allocate(kSizes[i % 5], 8));
      }
      arena.Reset();
    } else {
      ptrs.clear();
      for (int i = 0; i < kNodes; ++i) {
        ptrs.push_back(::operator new(kSizes[i % 5]));
      }
      for (void* p : ptrs) ::operator delete(p);
    }
  }
  state.SetItemsProcessed(state.iterations() * kNodes);
  state.SetLabel(use_arena ? "arena" : "malloc");
}
BENCHMARK(BM_ArenaVsMalloc)->Arg(0)->Arg(1);

// One simulated event's callback life-cycle: construct in a slot,
// relocate once (slab slot -> simulator-loop holder, as PopInto does),
// dispatch through the ops table. The capture is two pointers and a
// payload — the shape of the engine's completion continuations.
void BM_InlineCallbackDispatch(benchmark::State& state) {
  uint64_t sink = 0;
  uint64_t* sink_ptr = &sink;
  int64_t payload = 0;
  rtq::InlineCallback<48> slot;
  for (auto _ : state) {
    ++payload;
    slot = [sink_ptr, payload] { *sink_ptr += static_cast<uint64_t>(payload); };
    rtq::InlineCallback<48> holder(std::move(slot));
    holder();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InlineCallbackDispatch);

}  // namespace
