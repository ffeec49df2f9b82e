// Parallel experiment runner: a std::thread pool over independent
// (config, duration) simulation points.
//
// Every Section 5 sweep is embarrassingly parallel — each (policy,
// arrival-rate) point builds its own Rtdbs with its own RNG and event
// calendar, so the only ordering an experiment needs is in the
// *aggregation* step. RunPool exploits that: it runs one job per spec
// on min(jobs, specs) worker threads and returns the results in
// submission order, so an experiment (bench/rtq_bench.cc) becomes
//
//   build specs -> RunPool -> print tables -> emit CSV + BENCH_*.json
//
// and the suite's wall time drops by roughly the core count. With the
// same seeds, a parallel run produces bit-identical summaries to a
// sequential one (each simulation is single-threaded; only the schedule
// of whole jobs changes).
//
// The default job covers every experiment: a spec runs a plain Rtdbs,
// or a ShardedRtdbs when it names a shard config, and may also ask for
// consecutive window summaries (Figures 12-14's per-interval series).
//
// Worker count: RTQ_BENCH_JOBS when set (>0), else
// std::thread::hardware_concurrency(). The first failing job (lowest
// submission index) is rethrown from RunPool after all workers join.

#ifndef RTQ_HARNESS_RUNNER_H_
#define RTQ_HARNESS_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/pmm.h"
#include "engine/metrics.h"
#include "engine/system_config.h"

namespace rtq::harness {

/// One simulation point submitted to the pool.
struct RunSpec {
  /// Free-form label echoed into the result (and the BENCH_*.json point).
  std::string label;
  engine::SystemConfig config;
  /// Simulated duration in seconds; <= 0 means ExperimentDuration().
  SimTime duration = 0.0;
  /// When set, the point runs as an engine::ShardedRtdbs of this shape
  /// (a 1-shard config included) and reports per-shard summaries.
  std::optional<engine::ShardConfig> shards = std::nullopt;
  /// > 0: also summarize the completions in each consecutive window
  /// [i * window, (i + 1) * window) that starts before the run ends.
  /// Unsharded specs only.
  SimTime window = 0.0;
};

/// One completed simulation point, in submission order.
struct RunResult {
  std::string label;
  engine::SystemConfig config;  ///< echo of the spec's config
  engine::SystemSummary summary;
  /// The PMM adaptation trace, copied out before the system is torn
  /// down; empty for non-PMM policies and sharded specs.
  std::vector<core::PmmController::TracePoint> pmm_trace;
  /// Sharded specs: one summary per shard, in shard order, and the
  /// global-admission coordinator's counters (0 under local admission).
  std::vector<engine::SystemSummary> shard_summaries;
  int64_t coordinator_refusals = 0;
  int64_t coordinator_high_water = 0;
  /// Windowed specs: the summary of each window, in time order.
  std::vector<engine::ClassSummary> windows;
  /// Real (not simulated) seconds this job took.
  double wall_seconds = 0.0;
};

/// Worker count: RTQ_BENCH_JOBS override (> 0), else
/// hardware_concurrency(), else 1.
int BenchJobs();

/// A job body replacing the default one; the pool tests use it to probe
/// scheduling and failure forwarding. Receives the spec and its
/// submission index; whatever it returns lands at that index.
using RunJobFn = std::function<RunResult(const RunSpec& spec, size_t index)>;

/// Runs the default job (build the system, RunUntil, summarize, capture
/// the PMM trace, per-shard summaries and windows as the spec asks) for
/// every spec on min(jobs, specs.size()) workers. Results preserve
/// submission order. Progress lines go to stderr.
std::vector<RunResult> RunPool(const std::vector<RunSpec>& specs, int jobs);

/// RunPool with jobs = BenchJobs().
std::vector<RunResult> RunPool(const std::vector<RunSpec>& specs);

/// RunPool with a custom job body (no progress lines). Exceptions thrown
/// by `fn` are captured per job; after all workers join, the failure with
/// the lowest submission index is rethrown.
std::vector<RunResult> RunPool(const std::vector<RunSpec>& specs, int jobs,
                               const RunJobFn& fn);

}  // namespace rtq::harness

#endif  // RTQ_HARNESS_RUNNER_H_
