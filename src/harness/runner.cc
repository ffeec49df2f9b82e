#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>

#include "common/check.h"
#include "engine/rtdbs.h"
#include "engine/sharded_rtdbs.h"
#include "harness/args.h"
#include "harness/paper_experiments.h"

namespace rtq::harness {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Runs a plain engine to `until`: summary, PMM trace, windows.
void RunEngine(const RunSpec& spec, SimTime until, RunResult* result) {
  auto sys = engine::Rtdbs::Create(spec.config);
  RTQ_CHECK_MSG(sys.ok(), sys.status().ToString().c_str());
  engine::Rtdbs& rtdbs = *sys.value();
  rtdbs.RunUntil(until);
  result->summary = rtdbs.Summarize();
  if (rtdbs.pmm() != nullptr) result->pmm_trace = rtdbs.pmm()->trace();
  for (int i = 0; spec.window > 0.0 && i * spec.window < until; ++i) {
    result->windows.push_back(engine::MetricsCollector::WindowSummary(
        rtdbs.metrics().records(), i * spec.window, (i + 1) * spec.window,
        /*query_class=*/-1));
  }
}

/// Runs a cluster to `until`: aggregate, per-shard summaries and the
/// coordinator's counters.
void RunCluster(const RunSpec& spec, SimTime until, RunResult* result) {
  RTQ_CHECK_MSG(spec.window <= 0.0, "windowed specs cannot be sharded");
  auto sys = engine::ShardedRtdbs::Create(spec.config, *spec.shards);
  RTQ_CHECK_MSG(sys.ok(), sys.status().ToString().c_str());
  engine::ShardedRtdbs& cluster = *sys.value();
  cluster.RunUntil(until);
  result->summary = cluster.Summarize();
  for (int32_t s = 0; s < cluster.num_shards(); ++s) {
    result->shard_summaries.push_back(cluster.SummarizeShard(s));
  }
  if (const core::ShardCoordinator* coord = cluster.coordinator()) {
    result->coordinator_refusals = coord->refusals();
    result->coordinator_high_water = coord->high_water();
  }
}

/// The default job body: build the system the spec names, run it for
/// the spec's duration (or ExperimentDuration()) and summarize it.
RunResult RunJob(const RunSpec& spec) {
  RunResult result;
  result.label = spec.label;
  result.config = spec.config;
  auto start = std::chrono::steady_clock::now();
  SimTime until = spec.duration > 0.0 ? spec.duration : ExperimentDuration();
  if (spec.shards.has_value()) {
    RunCluster(spec, until, &result);
  } else {
    RunEngine(spec, until, &result);
  }
  result.wall_seconds = SecondsSince(start);
  return result;
}

std::vector<RunResult> RunPoolImpl(const std::vector<RunSpec>& specs,
                                   int jobs, const RunJobFn& fn,
                                   bool progress) {
  const size_t n = specs.size();
  std::vector<RunResult> results(n);
  if (n == 0) return results;

  std::vector<std::exception_ptr> errors(n);
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};

  auto worker = [&]() {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        results[i] = fn(specs[i], i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      size_t finished = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (progress) {
        // stderr so the stdout tables stay clean; one line per job, in
        // completion (not submission) order.
        std::fprintf(stderr, "[%zu/%zu] %s (%.1fs)\n", finished, n,
                     results[i].label.c_str(), results[i].wall_seconds);
      }
    }
  };

  int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(std::max(jobs, 1)), n));
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }

  // Forward the first failure by submission order, after every worker
  // has drained (so no thread outlives the rethrow).
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace

int BenchJobs() {
  unsigned hc = std::thread::hardware_concurrency();
  return EnvPositiveInt("RTQ_BENCH_JOBS", hc > 0 ? static_cast<int>(hc) : 1);
}

std::vector<RunResult> RunPool(const std::vector<RunSpec>& specs, int jobs) {
  return RunPoolImpl(
      specs, jobs,
      [](const RunSpec& spec, size_t) { return RunJob(spec); },
      /*progress=*/true);
}

std::vector<RunResult> RunPool(const std::vector<RunSpec>& specs) {
  return RunPool(specs, BenchJobs());
}

std::vector<RunResult> RunPool(const std::vector<RunSpec>& specs, int jobs,
                               const RunJobFn& fn) {
  return RunPoolImpl(specs, jobs, fn, /*progress=*/false);
}

}  // namespace rtq::harness
