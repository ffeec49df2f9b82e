// Zero-steady-state-malloc gate (NOT part of the rtq_tests glob: it
// overrides the global allocator, which must not leak into the gtest
// binary). Builds the paper's baseline system, warms it up past every
// pool/arena/slab high-water mark, then steps a large number of events
// and requires that NOT ONE byte was requested from the global heap.
//
// The gate runs the allocation-free policies ("max", "minmax:N"). PMM
// policies are excluded by design: PmmController recomputes
// least-squares fits over growing sample windows, which is documented
// cold-path allocation (docs/ARCHITECTURE.md, "Performance").

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "engine/rtdbs.h"
#include "engine/sharded_rtdbs.h"
#include "harness/paper_experiments.h"

namespace {

// Counters live outside any instrumentation so the overridden operators
// stay reentrancy-free. Atomic because a local-admission cluster runs its
// shards on worker threads; relaxed suffices, since the gate reads them
// only on the thread that called RunUntil, after that call's barrier.
std::atomic<uint64_t> g_alloc_calls{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void CountAlloc(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
}

uint64_t AllocCalls() { return g_alloc_calls.load(std::memory_order_relaxed); }

}  // namespace

// Global allocator overrides: count every path into the heap. All forms
// forward to malloc/free so ASan's interceptors still see the traffic.
void* operator new(std::size_t size) {
  CountAlloc(size);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  CountAlloc(size);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t align) {
  CountAlloc(size);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align), size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

// Baseline arrival rate (queries/sec): busy enough that admission,
// suspension, aborts and recycling all churn during the window.
constexpr double kArrivalRate = 1.0;
constexpr double kWarmupSimSeconds = 2000.0;
// Warmup must walk past every high-water mark (runtime pool, disk
// deadline-group free list, event slab, CPU job slab, page-cache index
// table, hash-map buckets). The run is
// deterministic, so an event-count warmup that covers the high water
// for the pinned seed covers it on every future run too.
constexpr int64_t kWarmupEvents = 400000;
constexpr int64_t kMeasuredEvents = 200000;
constexpr int32_t kShards = 4;

/// Prints the verdict on a measured window of `events` events during
/// which `delta_calls` allocations happened (`warm_calls` before it).
bool Verdict(const std::string& label, uint64_t delta_calls,
             uint64_t warm_calls, uint64_t events) {
  if (delta_calls != 0) {
    std::fprintf(stderr,
                 "FAIL %s: %llu heap allocation(s) during %llu "
                 "steady-state events (expected 0)\n",
                 label.c_str(), static_cast<unsigned long long>(delta_calls),
                 static_cast<unsigned long long>(events));
    return false;
  }
  std::printf("OK   %s: 0 allocations across %llu events "
              "(%llu total calls to reach steady state)\n",
              label.c_str(), static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(warm_calls));
  return true;
}

/// Completion records to pre-size per engine. The metrics buffers grow
/// with completions for the whole run; they are the one unbounded
/// recorder, so the host pre-sizes them (exactly what a production
/// harness with a known horizon does).
size_t ReservedCompletions() {
  double total_horizon =
      kWarmupSimSeconds + static_cast<double>(kMeasuredEvents);  // generous
  return static_cast<size_t>(kArrivalRate * total_horizon * 2.0) + 1024;
}

bool RunGate(const std::string& spec) {
  auto config = rtq::harness::BaselineConfig(kArrivalRate, {spec});
  auto sys_or = rtq::engine::Rtdbs::Create(config);
  if (!sys_or.ok()) {
    std::fprintf(stderr, "FAIL %s: Create: %s\n", spec.c_str(),
                 sys_or.status().message().c_str());
    return false;
  }
  auto& sys = *sys_or.value();
  const size_t completions = ReservedCompletions();
  sys.mutable_metrics().Reserve(completions, completions);

  sys.RunUntil(kWarmupSimSeconds);
  for (int64_t i = 0; i < kWarmupEvents; ++i) {
    if (!sys.StepEvent()) {
      std::fprintf(stderr, "FAIL %s: calendar drained during warmup\n",
                   spec.c_str());
      return false;
    }
  }

  uint64_t calls_before = AllocCalls();
  for (int64_t i = 0; i < kMeasuredEvents; ++i) {
    if (!sys.StepEvent()) {
      std::fprintf(stderr, "FAIL %s: calendar drained at event %lld\n",
                   spec.c_str(), static_cast<long long>(i));
      return false;
    }
  }
  return Verdict(spec, AllocCalls() - calls_before, calls_before,
                 kMeasuredEvents);
}

/// A 4-shard cluster under `admission`, every shard's metrics pre-sized.
std::unique_ptr<rtq::engine::ShardedRtdbs> MakeCluster(
    const std::string& spec, const std::string& placement,
    const std::string& admission, const std::string& label) {
  auto config = rtq::harness::BaselineConfig(kArrivalRate, {spec});
  rtq::engine::ShardConfig shards;
  shards.num_shards = kShards;
  shards.placement = placement;
  shards.admission = admission;
  auto sys_or = rtq::engine::ShardedRtdbs::Create(config, shards);
  if (!sys_or.ok()) {
    std::fprintf(stderr, "FAIL %s: Create: %s\n", label.c_str(),
                 sys_or.status().message().c_str());
    return nullptr;
  }
  const size_t completions = ReservedCompletions();
  for (int32_t s = 0; s < kShards; ++s) {
    sys_or.value()->shard(s).mutable_metrics().Reserve(completions,
                                                       completions);
  }
  return std::move(sys_or).value();
}

// The sharded twin: a 4-shard cluster (skewed placement, global-MPL
// coordinator) must also be allocation-free once warm — the merged
// event loop is an argmin over a pre-sized head array, the placement is
// pure hashing, and the coordinator's gate is counter arithmetic.
bool RunShardedGate(const std::string& spec) {
  const std::string label = spec + " (4 shards)";
  auto cluster = MakeCluster(spec, "skew:hot=0.6", "global:mpl=24", label);
  if (cluster == nullptr) return false;
  auto& sys = *cluster;

  // Cluster events split across shards, so each shard needs the same
  // per-engine warmup the unsharded gate uses: scale by shard count. The
  // skewed cluster's backlog high-water also converges more slowly than
  // the uniform single engine's (the hot shard sees rare deep backlogs),
  // hence the longer simulated warmup horizon.
  const int64_t warmup = kWarmupEvents * kShards;
  sys.RunUntil(4.0 * kWarmupSimSeconds);
  for (int64_t i = 0; i < warmup; ++i) {
    if (!sys.StepEvent()) {
      std::fprintf(stderr, "FAIL %s: calendar drained during warmup\n",
                   label.c_str());
      return false;
    }
  }

  // Measured in the serve loop's unit: 4096-event StepEvents batches.
  constexpr uint64_t kBatch = 4096;
  uint64_t calls_before = AllocCalls();
  uint64_t measured = 0;
  while (measured < static_cast<uint64_t>(kMeasuredEvents)) {
    if (sys.StepEvents(kBatch) != kBatch) {
      std::fprintf(stderr, "FAIL %s: calendar drained at event %llu\n",
                   label.c_str(), static_cast<unsigned long long>(measured));
      return false;
    }
    measured += kBatch;
  }
  return Verdict(label, AllocCalls() - calls_before, calls_before, measured);
}

// The local-admission twin: every RunUntil hands the shards to the
// worker threads and waits at a barrier. Warm-up (which also starts the
// workers) and the measured window both run in 1 s RunUntil slices, so
// the window proves the per-call handoff allocates nothing.
bool RunLocalClusterGate(const std::string& spec) {
  const std::string label = spec + " (4 local shards)";
  auto cluster = MakeCluster(spec, "hash", "local", label);
  if (cluster == nullptr) return false;
  auto& sys = *cluster;

  rtq::SimTime now = 4.0 * kWarmupSimSeconds;
  sys.RunUntil(now);
  const uint64_t warm = sys.events_dispatched() + kWarmupEvents * kShards;
  while (sys.events_dispatched() < warm) sys.RunUntil(now += 1.0);

  uint64_t calls_before = AllocCalls();
  const uint64_t start = sys.events_dispatched();
  while (sys.events_dispatched() - start <
         static_cast<uint64_t>(kMeasuredEvents)) {
    sys.RunUntil(now += 1.0);
  }
  return Verdict(label, AllocCalls() - calls_before, calls_before,
                 sys.events_dispatched() - start);
}

}  // namespace

int main() {
  bool ok = true;
  ok &= RunGate("max");
  ok &= RunGate("minmax:10");
  ok &= RunShardedGate("max");
  ok &= RunLocalClusterGate("max");
  if (!ok) return 1;
  std::printf("alloc gate: all policies allocation-free in steady state\n");
  return 0;
}
