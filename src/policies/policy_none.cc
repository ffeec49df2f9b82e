// "none" — the no-admission-control baseline (the paper's implicit
// strawman).
//
// Every query is granted memory immediately on arrival, in plain
// first-come-first-served order with no deadline awareness at all: each
// query receives its maximum demand while the pool lasts, then whatever
// remains above its operator minimum, then nothing (physics still
// applies — the pool cannot be oversubscribed). Nobody is ever held back
// to protect an urgent query, and nobody's grant is revised downward for
// a later, more urgent arrival, so under load the pool fills with
// whichever queries happened to arrive first while tight-deadline
// queries starve. This is the behaviour every Section 3 policy is
// implicitly measured against.
//
// The file is deliberately self-contained: strategy + registry hook in
// one translation unit, zero edits anywhere else — the "how to add a
// policy in one file" recipe from docs/ARCHITECTURE.md. A policy that is
// one strategy registers a StaticStrategyPolicy rather than a class.

#include <algorithm>
#include <memory>
#include <vector>

#include "core/memory_policy.h"
#include "core/policy_registry.h"
#include "core/strategy.h"

namespace rtq::core {
namespace {

class FcfsMaxStrategy : public AllocationStrategy {
 public:
  void AllocateInto(const std::vector<MemRequest>& ed_sorted, PageCount total,
                    AllocationVector* out, StableTailHint*) const override {
    // Re-derive arrival order: QueryIds are assigned in arrival order,
    // so sorting by id undoes the Earliest-Deadline presentation.
    std::vector<size_t> order(ed_sorted.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return ed_sorted[a].id < ed_sorted[b].id;
    });

    out->assign(ed_sorted.size(), 0);
    PageCount remaining = total;
    for (size_t idx : order) {
      const MemRequest& q = ed_sorted[idx];
      PageCount grant = std::min(q.max_memory, remaining);
      if (grant < q.min_memory) continue;  // below the operator minimum
      (*out)[idx] = grant;
      remaining -= grant;
    }
  }

  std::string name() const override { return "None(FCFS)"; }
};

RTQ_REGISTER(PolicyRegistry, "none",
             "none — no admission control, FCFS maximum grants",
             [](const Spec& spec) -> StatusOr<std::unique_ptr<MemoryPolicy>> {
               RTQ_RETURN_IF_ERROR(SpecArgs(spec.args).Finish());
               return std::unique_ptr<MemoryPolicy>(new StaticStrategyPolicy(
                   "none", "None", [](const PolicyHost&) -> StrategyOr {
                     return {std::make_unique<FcfsMaxStrategy>()};
                   }));
             });

}  // namespace
}  // namespace rtq::core
