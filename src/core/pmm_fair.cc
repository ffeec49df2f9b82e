#include "core/pmm_fair.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

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

PmmFairController::PmmFairController(const PmmParams& params,
                                     MemoryManager* mm, SystemProbe* probe,
                                     std::vector<double> class_weights)
    : PmmController(params, mm, probe), weights_(std::move(class_weights)) {
  RTQ_CHECK_MSG(!weights_.empty(), "PMM-Fair needs class weights");
  for (double w : weights_) RTQ_CHECK_MSG(w > 0.0, "weights must be > 0");
  urgency_.assign(weights_.size(), 1.0);
  batch_completions_.assign(weights_.size(), 0);
  batch_misses_.assign(weights_.size(), 0);
  // Reinstall the initial strategy now that urgencies exist.
  memory_manager()->SetStrategy(MakeMaxStrategy());
}

void PmmFairController::OnQueryFinished(const CompletionInfo& info) {
  if (info.query_class >= 0 &&
      info.query_class < static_cast<int32_t>(weights_.size())) {
    ++batch_completions_[info.query_class];
    if (info.missed) ++batch_misses_[info.query_class];
  }
  PmmController::OnQueryFinished(info);
}

std::unique_ptr<AllocationStrategy> PmmFairController::MakeMaxStrategy() {
  // During construction of the base class the urgency vector does not
  // exist yet; fall back to plain ED until it does.
  if (urgency_.empty()) return std::make_unique<MaxStrategy>();
  return std::make_unique<FairOrderingStrategy>(
      std::make_unique<MaxStrategy>(), urgency_);
}

std::unique_ptr<AllocationStrategy> PmmFairController::MakeMinMaxStrategy(
    int64_t target_mpl) {
  if (urgency_.empty()) return std::make_unique<MinMaxStrategy>(target_mpl);
  return std::make_unique<FairOrderingStrategy>(
      std::make_unique<MinMaxStrategy>(target_mpl), urgency_);
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
    if (mode() == Mode::kMax) {
      memory_manager()->SetStrategy(MakeMaxStrategy());
    } else {
      memory_manager()->SetStrategy(MakeMinMaxStrategy(target_mpl()));
    }
  }
  std::fill(batch_completions_.begin(), batch_completions_.end(), 0);
  std::fill(batch_misses_.begin(), batch_misses_.end(), 0);
}

}  // namespace rtq::core
