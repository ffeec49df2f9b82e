// "pmm-class" — PMM with per-class admission targets (quotas).
//
// The multiclass experiment (Section 5.6, Figures 17-18) shows plain
// PMM optimizing the *system* miss ratio: when a light class floods the
// system, PMM happily fills the MPL with its small queries and the
// heavyweight minority class starves. PMM-Fair (Section 5.6's closing
// sketch) fixes this by bending deadlines; pmm-class is the blunter,
// administrator-friendly alternative: a hard per-class admission quota.
//
//   spec: "pmm-class"                    (no quotas: degenerates to pmm)
//         "pmm-class:targets=6,10"       (one cap per workload class)
//
// `targets=n1,n2,...` caps how many queries of each class may compete
// for memory at once: in every reallocation only the n_c
// earliest-deadline queries of class c are presented to the underlying
// strategy; the rest wait regardless of how urgent the class's backlog
// is. PMM keeps adapting its mode and target MPL across the *eligible*
// population exactly as in Section 3, so the quota composes with — not
// replaces — the paper's admission control.
//
// Like the other files in src/policies/, this registers from its own
// translation unit: no edits under src/engine/.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pmm.h"
#include "core/policy_registry.h"
#include "core/strategy.h"

namespace rtq::core {
namespace {

/// Presents at most caps[c] earliest-deadline queries of class c to the
/// inner strategy; everyone else gets nothing this round. Classes
/// outside the caps vector (unknown / negative ids) are uncapped.
class ClassQuotaStrategy : public AllocationStrategy {
 public:
  ClassQuotaStrategy(std::unique_ptr<AllocationStrategy> inner,
                     std::vector<int64_t> caps)
      : inner_(std::move(inner)), caps_(std::move(caps)) {}

  void AllocateInto(const std::vector<MemRequest>& ed_sorted, PageCount total,
                    AllocationVector* out,
                    StableTailHint* hint) const override {
    std::vector<int64_t> used(caps_.size(), 0);
    // Exposing the forwarded hint when no quota binds is sound — it
    // keeps PR 4's incremental reallocation path alive for the
    // quota-idle steady state: a later tail insert either stays
    // eligible (covered by the inner proof) or is cap-filtered
    // (receives nothing and leaves the inner input unchanged), and
    // removing an eligible zero-allocation tail query cannot unfilter
    // anyone because nobody is filtered.
    AllocateThroughFilter(
        *inner_, ed_sorted, total,
        [this, &used](const MemRequest& q) {
          int32_t c = q.query_class;
          if (c < 0 || c >= static_cast<int32_t>(caps_.size())) return true;
          if (used[c] >= caps_[c]) return false;
          ++used[c];
          return true;
        },
        out, hint);
  }

  std::string name() const override {
    return "ClassQuota(" + inner_->name() + ")";
  }

 private:
  std::unique_ptr<AllocationStrategy> inner_;
  std::vector<int64_t> caps_;
};

/// PMM whose Max/MinMax strategies are wrapped in the class quota.
class PmmClassController : public PmmController {
 public:
  explicit PmmClassController(std::vector<int64_t> targets)
      : targets_(std::move(targets)) {}

  Status Attach(const PolicyHost& host) override {
    if (!targets_.empty() &&
        static_cast<int32_t>(targets_.size()) != host.num_classes) {
      return Status::InvalidArgument(
          "pmm-class needs one target per workload class (" +
          std::to_string(targets_.size()) + " targets, " +
          std::to_string(host.num_classes) + " classes)");
    }
    return PmmController::Attach(host);
  }

  std::string Describe() const override {
    // The targets are integers, so std::to_string prints them exactly
    // and never in exponent form.
    return targets_.empty() ? "pmm-class"
                            : "pmm-class:targets=" + JoinedTargets();
  }

  std::string DisplayName() const override {
    return targets_.empty() ? "PMM-Class"
                            : "PMM-Class(" + JoinedTargets() + ")";
  }

 protected:
  std::unique_ptr<AllocationStrategy> Wrap(
      std::unique_ptr<AllocationStrategy> inner) override {
    if (targets_.empty()) return inner;  // no quotas: plain PMM
    return std::make_unique<ClassQuotaStrategy>(std::move(inner), targets_);
  }

 private:
  std::string JoinedTargets() const {
    std::string joined;
    for (size_t i = 0; i < targets_.size(); ++i) {
      if (i > 0) joined += ",";
      joined += std::to_string(targets_[i]);
    }
    return joined;
  }

  std::vector<int64_t> targets_;
};

StatusOr<std::unique_ptr<MemoryPolicy>> MakePmmClassPolicy(const Spec& spec) {
  std::vector<double> values;
  SpecArgs args(spec.args);
  args.Take("targets", &values);
  RTQ_RETURN_IF_ERROR(args.Finish());
  std::vector<int64_t> targets;
  for (double v : values) {
    // Range-check before casting: converting an out-of-int64-range
    // double (1e19, ...) is undefined behavior.
    if (v < 1.0 || v >= 9.2e18 ||
        static_cast<double>(static_cast<int64_t>(v)) != v) {
      return Status::InvalidArgument(
          "pmm-class: targets must be integers >= 1");
    }
    targets.push_back(static_cast<int64_t>(v));
  }
  return std::unique_ptr<MemoryPolicy>(
      new PmmClassController(std::move(targets)));
}

RTQ_REGISTER(PolicyRegistry, "pmm-class",
             "pmm-class[:targets=n1,n2,...] — PMM + per-class admission "
             "quotas",
             MakePmmClassPolicy);

}  // namespace
}  // namespace rtq::core
