#include "core/pmm_fair.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/spec.h"

namespace rtq::core {

FairOrderingStrategy::FairOrderingStrategy(
    std::unique_ptr<AllocationStrategy> inner,
    std::vector<double> class_urgency)
    : inner_(std::move(inner)), class_urgency_(std::move(class_urgency)) {
  RTQ_CHECK(inner_ != nullptr);
}

void FairOrderingStrategy::AllocateInto(
    const std::vector<MemRequest>& ed_sorted, PageCount total,
    AllocationVector* out, StableTailHint* /*hint*/) const {
  // Compute virtual deadlines and a permutation sorted by them.
  std::vector<size_t> order(ed_sorted.size());
  std::iota(order.begin(), order.end(), 0);
  auto vdeadline = [&](const MemRequest& q) {
    double urgency = 1.0;
    if (q.query_class >= 0 &&
        q.query_class < static_cast<int32_t>(class_urgency_.size())) {
      urgency = class_urgency_[q.query_class];
    }
    return q.arrival + (q.deadline - q.arrival) / urgency;
  };
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    double va = vdeadline(ed_sorted[a]);
    double vb = vdeadline(ed_sorted[b]);
    if (va != vb) return va < vb;
    return ed_sorted[a].id < ed_sorted[b].id;
  });

  std::vector<MemRequest> reordered;
  reordered.reserve(ed_sorted.size());
  for (size_t idx : order) reordered.push_back(ed_sorted[idx]);

  AllocationVector inner_out = inner_->Allocate(reordered, total);
  out->assign(ed_sorted.size(), 0);
  for (size_t i = 0; i < order.size(); ++i) (*out)[order[i]] = inner_out[i];
}

std::string FairOrderingStrategy::name() const {
  return "Fair(" + inner_->name() + ")";
}

PmmFairController::PmmFairController(std::vector<double> class_weights)
    : spec_weights_(std::move(class_weights)) {}

Status PmmFairController::Attach(const PolicyHost& host) {
  weights_ = spec_weights_;
  if (weights_.empty()) {
    // No w= argument: ask for equal miss ratios across all classes.
    weights_.assign(static_cast<size_t>(host.num_classes), 1.0);
  }
  if (static_cast<int32_t>(weights_.size()) != host.num_classes) {
    return Status::InvalidArgument(
        "pmm-fair needs one weight per workload class (" +
        std::to_string(weights_.size()) + " weights, " +
        std::to_string(host.num_classes) + " classes)");
  }
  if (weights_.empty()) {
    return Status::InvalidArgument("pmm-fair needs at least one class");
  }
  urgency_.assign(weights_.size(), 1.0);
  batch_completions_.assign(weights_.size(), 0);
  batch_misses_.assign(weights_.size(), 0);
  return PmmController::Attach(host);
}

std::string PmmFairController::Describe() const {
  return spec_weights_.empty()
             ? "pmm-fair"
             : "pmm-fair:w=" + FormatSpecDoubleList(spec_weights_);
}

void PmmFairController::OnQueryFinished(const CompletionInfo& info) {
  if (info.query_class >= 0 &&
      info.query_class < static_cast<int32_t>(weights_.size())) {
    ++batch_completions_[info.query_class];
    if (info.missed) ++batch_misses_[info.query_class];
  }
  PmmController::OnQueryFinished(info);
}

std::unique_ptr<AllocationStrategy> PmmFairController::Wrap(
    std::unique_ptr<AllocationStrategy> inner) {
  return std::make_unique<FairOrderingStrategy>(std::move(inner), urgency_);
}

void PmmFairController::OnBatchAdapted(const TracePoint& point) {
  (void)point;
  // Per-class miss ratios this batch, normalized by the administrator's
  // weights; classes above the weighted average get an urgency boost.
  double weighted_sum = 0.0;
  int64_t active_classes = 0;
  std::vector<double> normalized(weights_.size(), -1.0);
  for (size_t c = 0; c < weights_.size(); ++c) {
    if (batch_completions_[c] == 0) continue;
    double miss = static_cast<double>(batch_misses_[c]) /
                  static_cast<double>(batch_completions_[c]);
    normalized[c] = miss / weights_[c];
    weighted_sum += normalized[c];
    ++active_classes;
  }
  if (active_classes >= 2) {
    double avg = weighted_sum / static_cast<double>(active_classes);
    for (size_t c = 0; c < weights_.size(); ++c) {
      if (normalized[c] < 0.0) continue;
      if (normalized[c] > avg + 1e-12) {
        urgency_[c] = std::min(urgency_[c] * kUrgencyStep, kUrgencyMax);
      } else if (normalized[c] < avg - 1e-12) {
        urgency_[c] = std::max(urgency_[c] / kUrgencyStep, 1.0);
      }
    }
    // Install strategies with the updated urgencies.
    InstallStrategy();
  }
  std::fill(batch_completions_.begin(), batch_completions_.end(), 0);
  std::fill(batch_misses_.begin(), batch_misses_.end(), 0);
}

}  // namespace rtq::core
