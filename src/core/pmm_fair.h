// PMM-Fair: the class-fairness extension sketched in Section 5.6.
//
// The multiclass experiment (Figures 17-18) shows that plain PMM, by
// optimizing the system miss ratio, can let the dominant class sway its
// strategy choice and starve a minority class. The paper closes with:
// "we are now working on augmenting PMM with a mechanism to allow an
// RTDBS system administrator to specify the desired relative class miss
// ratios". This is our realization of that sketch.
//
// The administrator supplies one weight per class: the desired relative
// miss ratio (all-equal weights ask for equal miss ratios). After every
// batch, PMM-Fair compares each class's realized miss ratio against its
// fair share and adjusts a per-class *urgency multiplier*. Allocation
// ordering then uses virtual deadlines
//
//     vdeadline = arrival + (deadline - arrival) / urgency
//
// so queries of under-served classes sort as if more urgent, receiving
// memory (and hence CPU/disk priority through their operators' demands)
// earlier. Urgencies adapt multiplicatively and are clamped, so the
// mechanism degenerates to plain PMM when classes already meet their
// targets.

#ifndef RTQ_CORE_PMM_FAIR_H_
#define RTQ_CORE_PMM_FAIR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/pmm.h"

namespace rtq::core {

/// Reorders candidates by urgency-scaled virtual deadlines and delegates
/// allocation to an inner strategy.
class FairOrderingStrategy : public AllocationStrategy {
 public:
  FairOrderingStrategy(std::unique_ptr<AllocationStrategy> inner,
                       std::vector<double> class_urgency);

  void AllocateInto(const std::vector<MemRequest>& ed_sorted, PageCount total,
                    AllocationVector* out,
                    StableTailHint* hint) const override;
  std::string name() const override;

 private:
  std::unique_ptr<AllocationStrategy> inner_;
  std::vector<double> class_urgency_;
};

/// The "pmm-fair[:w=w1,w2,...]" policy.
class PmmFairController : public PmmController {
 public:
  /// `class_weights[c]` is the desired relative miss ratio of class c
  /// (larger = more misses tolerated), each positive; empty asks for
  /// equal miss ratios across however many classes the host has.
  explicit PmmFairController(std::vector<double> class_weights = {});

  /// Fails unless there is one weight per workload class.
  Status Attach(const PolicyHost& host) override;
  void OnQueryFinished(const CompletionInfo& info) override;
  std::string Describe() const override;
  std::string DisplayName() const override { return "PMM-Fair"; }

  const std::vector<double>& class_urgency() const { return urgency_; }

 protected:
  std::unique_ptr<AllocationStrategy> Wrap(
      std::unique_ptr<AllocationStrategy> inner) override;
  void OnBatchAdapted(const TracePoint& point) override;

 private:
  static constexpr double kUrgencyStep = 1.25;
  static constexpr double kUrgencyMax = 8.0;

  /// As given in the spec (empty = equal); Describe() reports these.
  std::vector<double> spec_weights_;
  /// One per class, resolved at Attach.
  std::vector<double> weights_;
  std::vector<double> urgency_;
  std::vector<int64_t> batch_completions_;
  std::vector<int64_t> batch_misses_;
};

}  // namespace rtq::core

#endif  // RTQ_CORE_PMM_FAIR_H_
