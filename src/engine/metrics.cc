#include "engine/metrics.h"

namespace rtq::engine {

void MetricsCollector::Fold::Add(const CompletionRecord& r) {
  ++counts_.completions;
  if (r.info.missed) ++counts_.misses;
  wait_.Add(r.info.admission_wait);
  exec_.Add(r.info.execution_time);
  resp_.Add(r.info.admission_wait + r.info.execution_time);
  fluct_.Add(static_cast<double>(r.mem_fluctuations));
}

ClassSummary MetricsCollector::Fold::Summary() const {
  ClassSummary s = counts_;
  if (s.completions > 0) {
    s.miss_ratio =
        static_cast<double>(s.misses) / static_cast<double>(s.completions);
  }
  s.avg_wait = wait_.mean();
  s.avg_exec = exec_.mean();
  s.avg_response = resp_.mean();
  s.avg_fluctuations = fluct_.mean();
  return s;
}

MetricsCollector::MetricsCollector(int32_t num_classes, int64_t miss_ci_batch)
    : per_class_(static_cast<size_t>(num_classes)),
      miss_batches_(miss_ci_batch) {}

void MetricsCollector::Record(const CompletionRecord& record) {
  records_.push_back(record);
  overall_.Add(record);
  const int32_t c = record.info.query_class;
  if (c >= 0 && static_cast<size_t>(c) < per_class_.size()) {
    per_class_[static_cast<size_t>(c)].Add(record);
  }
  miss_batches_.Add(record.info.missed ? 1.0 : 0.0);
}

std::vector<ClassSummary> MetricsCollector::PerClass() const {
  std::vector<ClassSummary> out;
  out.reserve(per_class_.size());
  for (const Fold& f : per_class_) out.push_back(f.Summary());
  return out;
}

void MetricsCollector::UpdateMpl(SimTime now, int64_t mpl) {
  if (!mpl_started_) {
    mpl_.Start(now, static_cast<double>(mpl));
    mpl_started_ = true;
    return;
  }
  mpl_.Update(now, static_cast<double>(mpl));
}

double MetricsCollector::AverageMpl(SimTime now) const {
  if (!mpl_started_) return 0.0;
  return mpl_.Average(now);
}

double MetricsCollector::MplIntegral(SimTime now) const {
  if (!mpl_started_) return 0.0;
  return mpl_.Integral(now);
}

stats::ConfidenceInterval MetricsCollector::MissRatioCi() const {
  return miss_batches_.Interval(0.90);
}

ClassSummary MetricsCollector::WindowSummary(
    const std::vector<CompletionRecord>& records, SimTime from, SimTime to,
    int32_t query_class) {
  Fold fold;
  for (const CompletionRecord& r : records) {
    if (r.info.finish < from || r.info.finish >= to) continue;
    if (query_class >= 0 && r.info.query_class != query_class) continue;
    fold.Add(r);
  }
  return fold.Summary();
}

}  // namespace rtq::engine
