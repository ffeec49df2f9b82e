// Metrics collection: everything Section 5's tables and figures need.
//
// The collector stores one record per finished query (completed or
// missed), a time-weighted MPL signal, periodic realized-MPL samples, and
// a batch-means accumulator for the miss-ratio confidence interval
// [Sarg76]. Aggregation into the paper's reported quantities (per-class
// miss ratios, Table 7's timing breakdown, windowed miss-ratio series for
// Figures 12-14) happens on demand.

#ifndef RTQ_ENGINE_METRICS_H_
#define RTQ_ENGINE_METRICS_H_

#include <vector>

#include "common/types.h"
#include "core/pmm.h"
#include "exec/query.h"
#include "stats/batch_means.h"
#include "stats/running_stats.h"
#include "stats/time_weighted.h"

namespace rtq::engine {

struct CompletionRecord {
  core::CompletionInfo info;
  exec::QueryType type = exec::QueryType::kHashJoin;
  int64_t mem_fluctuations = 0;
  PageCount pages_read = 0;
  PageCount pages_written = 0;
};

/// Aggregates over a set of completion records.
struct ClassSummary {
  int64_t completions = 0;
  int64_t misses = 0;
  double miss_ratio = 0.0;
  double avg_wait = 0.0;      ///< admission waiting time, seconds
  double avg_exec = 0.0;      ///< execution time, seconds
  double avg_response = 0.0;  ///< wait + exec, seconds
  double avg_fluctuations = 0.0;
};

struct SystemSummary {
  ClassSummary overall;
  std::vector<ClassSummary> per_class;
  double avg_mpl = 0.0;
  double cpu_utilization = 0.0;
  double avg_disk_utilization = 0.0;
  double max_disk_utilization = 0.0;
  stats::ConfidenceInterval miss_ratio_ci;  ///< 90%, batch means
  uint64_t events_dispatched = 0;
  SimTime simulated_time = 0.0;
};

/// (time, value) series sample.
struct TimeSample {
  SimTime time = 0.0;
  double value = 0.0;
};

class MetricsCollector {
 public:
  explicit MetricsCollector(int64_t miss_ci_batch);

  void Record(const CompletionRecord& record);
  void UpdateMpl(SimTime now, int64_t mpl);
  void SampleMpl(SimTime now, int64_t mpl);

  /// Pre-grows the record and MPL-sample buffers so that recording up to
  /// `completions` / `samples` entries performs no reallocation (the
  /// steady-state zero-allocation gate measures across Record calls).
  void Reserve(size_t completions, size_t samples) {
    records_.reserve(completions);
    mpl_samples_.reserve(samples);
  }

  const std::vector<CompletionRecord>& records() const { return records_; }
  const std::vector<TimeSample>& mpl_samples() const { return mpl_samples_; }

  /// Time-averaged MPL over [window_start, now].
  double AverageMpl(SimTime now) const;
  double MplIntegral(SimTime now) const;

  /// 90% batch-means CI over the miss indicator stream.
  stats::ConfidenceInterval MissRatioCi() const;

  /// Aggregates per-class + overall summaries from the stored records.
  /// `num_classes` sizes the per-class vector (records with classes
  /// beyond it are folded into overall only).
  void Summarize(int32_t num_classes, ClassSummary* overall,
                 std::vector<ClassSummary>* per_class) const;

  /// Miss ratio over records finishing in [from, to) — Figures 12-14.
  static ClassSummary WindowSummary(
      const std::vector<CompletionRecord>& records, SimTime from, SimTime to,
      int32_t query_class /* -1 = all */);

 private:
  static void Fold(const CompletionRecord& r, ClassSummary* s,
                   stats::RunningStats* wait, stats::RunningStats* exec,
                   stats::RunningStats* resp, stats::RunningStats* fluct);

  std::vector<CompletionRecord> records_;
  std::vector<TimeSample> mpl_samples_;
  stats::TimeWeightedAverage mpl_;
  stats::BatchMeans miss_batches_;
  bool mpl_started_ = false;
};

}  // namespace rtq::engine

#endif  // RTQ_ENGINE_METRICS_H_
