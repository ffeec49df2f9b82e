// BENCH_*.json emitter: machine-readable perf trajectories per
// experiment (the "driver" field names it).
//
// Every experiment in bench/rtq_bench.cc serializes its completed sweep to
// results/BENCH_<driver>.json so performance can be tracked PR-over-PR:
// which commit, which knobs, one record per (policy, lambda) point, and
// wall-clock totals (the denominator every future hot-path optimization
// is measured against). The writer is hand-rolled — a streaming emitter
// with string escaping and NaN/Inf -> null — so no dependency is added.
//
// Schema (schema_version 1):
//   {
//     "driver": "baseline",
//     "schema_version": 1,
//     "git": "<git describe --always --dirty, or RTQ_GIT_DESCRIBE env>",
//     "config": { "sim_hours": 3.0, "jobs": 4,
//                 "hardware_concurrency": 8, ...driver extras },
//     "points": [ { "label": "...", "policy": "PMM", "lambda": 0.04,
//                   "miss_ratio": 0.012, "disk_util": 0.55,
//                   "avg_mpl": 9.1, "avg_wait_s": 12.0, "avg_exec_s": 31.0,
//                   "avg_response_s": 43.0, "completions": 431, "misses": 5,
//                   "events": 123456, "wall_seconds": 1.9 }, ... ],
//     "totals": { "wall_seconds": 12.3, "events": 2469120,
//                 "events_per_second": 200741.5 }
//   }
//
// "lambda" is the sweep coordinate (arrival rate for most drivers; the
// fixed rate for sweeps over N / UtilLow, whose varied knob lives in
// "label" and "config").

#ifndef RTQ_HARNESS_BENCH_JSON_H_
#define RTQ_HARNESS_BENCH_JSON_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/metrics.h"

namespace rtq::harness {

/// Minimal streaming JSON writer. The caller is responsible for calling
/// Key exactly once before each value inside an object; commas and
/// indentation are handled here. Non-finite doubles serialize as null.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& name);
  JsonWriter& String(const std::string& value);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Bool(bool value);

  const std::string& str() const { return out_; }

  static std::string Escape(const std::string& raw);

 private:
  void Comma();

  std::string out_;
  /// Whether a value has already been written at each nesting depth.
  std::vector<bool> has_value_{false};
  bool pending_key_ = false;
};

/// Compile/run-time source stamp: the RTQ_GIT_DESCRIBE environment
/// variable when set (CI stamps exact SHAs this way), else the value
/// baked in at configure time, else "unknown".
std::string GitDescribe();

/// Collects one sweep and writes results/BENCH_<driver>.json.
class BenchJsonEmitter {
 public:
  explicit BenchJsonEmitter(std::string driver);

  /// Adds one point. `policy` is the short policy label; `lambda` the
  /// sweep coordinate (see schema note). A finite `gap_to_oracle` adds
  /// that field: this point's miss ratio minus the clairvoyant oracle-ed
  /// bound's at the same workload point (the headroom study's metric,
  /// recorded by any sweep with an oracle-ed lane).
  void AddPoint(
      std::string label, std::string policy, double lambda,
      const engine::SystemSummary& summary, double wall_seconds,
      double gap_to_oracle = std::numeric_limits<double>::quiet_NaN());

  /// Adds an experiment-specific key under "config" (e.g. "scale": "10").
  void AddConfig(const std::string& key, const std::string& value);

  /// Serializes the whole document. `total_wall_seconds` is the
  /// end-to-end sweep wall time (less than the per-point sum when the
  /// pool ran in parallel).
  std::string ToJson(double total_wall_seconds) const;

  /// Writes results/BENCH_<driver>.json (creating results/ if needed).
  Status WriteFile(double total_wall_seconds) const;

  /// The destination path, "results/BENCH_<driver>.json".
  std::string path() const;

 private:
  struct Point {
    std::string label;
    std::string policy;
    double lambda = 0.0;
    engine::SystemSummary summary;
    double wall_seconds = 0.0;
    /// Emitted only when finite.
    double gap_to_oracle = std::numeric_limits<double>::quiet_NaN();
  };

  std::string driver_;
  std::vector<std::pair<std::string, std::string>> extra_config_;
  std::vector<Point> points_;
};

}  // namespace rtq::harness

#endif  // RTQ_HARNESS_BENCH_JSON_H_
