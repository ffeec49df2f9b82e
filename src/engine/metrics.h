// Metrics collection: everything Section 5's tables and figures need.
//
// The collector stores one record per finished query (completed or
// missed) and folds each into running overall and per-class summaries
// as it is recorded (per-class miss ratios, Table 7's timing breakdown),
// so reading a summary scans nothing. It also keeps a time-weighted MPL
// signal and a batch-means accumulator for the miss-ratio confidence
// interval [Sarg76]. The stored records back the windowed miss-ratio
// series of Figures 12-14 and the engine's state digest.

#ifndef RTQ_ENGINE_METRICS_H_
#define RTQ_ENGINE_METRICS_H_

#include <vector>

#include "common/types.h"
#include "core/memory_policy.h"
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

class MetricsCollector {
 public:
  /// `num_classes` sizes PerClass(); records of a class beyond it count
  /// in Overall() only.
  MetricsCollector(int32_t num_classes, int64_t miss_ci_batch);

  void Record(const CompletionRecord& record);
  void UpdateMpl(SimTime now, int64_t mpl);

  /// Pre-grows the record buffer so that recording up to `completions`
  /// entries performs no reallocation (the steady-state zero-allocation
  /// gate measures across Record calls).
  void Reserve(size_t completions) { records_.reserve(completions); }

  const std::vector<CompletionRecord>& records() const { return records_; }

  /// Summary of every record so far.
  ClassSummary Overall() const { return overall_.Summary(); }
  /// One summary per class, in class order.
  std::vector<ClassSummary> PerClass() const;

  /// Time-averaged MPL over [window_start, now].
  double AverageMpl(SimTime now) const;
  double MplIntegral(SimTime now) const;

  /// 90% batch-means CI over the miss indicator stream.
  stats::ConfidenceInterval MissRatioCi() const;

  /// Miss ratio over records finishing in [from, to) — Figures 12-14.
  static ClassSummary WindowSummary(
      const std::vector<CompletionRecord>& records, SimTime from, SimTime to,
      int32_t query_class /* -1 = all */);

 private:
  /// Running aggregate of a set of records, in the order they are added.
  class Fold {
   public:
    void Add(const CompletionRecord& r);
    ClassSummary Summary() const;

   private:
    ClassSummary counts_;  ///< completions and misses only
    stats::RunningStats wait_, exec_, resp_, fluct_;
  };

  std::vector<CompletionRecord> records_;
  Fold overall_;
  std::vector<Fold> per_class_;
  stats::TimeWeightedAverage mpl_;
  stats::BatchMeans miss_batches_;
  bool mpl_started_ = false;
};

}  // namespace rtq::engine

#endif  // RTQ_ENGINE_METRICS_H_
