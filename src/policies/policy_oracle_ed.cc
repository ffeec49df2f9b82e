// "oracle-ed" — a clairvoyant admission-control upper bound.
//
// Reads the cost model's stand-alone execution-time estimate (the same
// estimate deadline assignment uses, Section 4.1), credited for
// progress — scaled by the fraction of operand pages not yet read
// (core::RemainingEstimate) — and admits only queries that can still
// plausibly finish: a query whose remaining time to deadline is below
// `margin * remaining estimate` is never given memory, so its pages go
// to feasible queries instead and it simply ages out at its deadline.
// The progress credit keeps the denominator honest: a nearly-finished
// query needs only its residual work to remain feasible, so the oracle
// no longer revokes memory from queries about to complete (the blind
// spot the PR 5 headroom study documented). Feasible queries receive
// maximum allocations in Earliest-Deadline order (Max discipline).
// Because the estimate assumes the maximum allocation and an idle
// system, this is an optimistic oracle — real policies cannot beat the
// information it acts on, which is what makes it a useful upper-bound
// lane in sweeps.
//
//   spec: "oracle-ed"            (margin = 1)
//         "oracle-ed:m=1.5"      (require 1.5x the estimate to remain)
//
// Like policy_none.cc, this registers from its own translation unit —
// no edits under src/engine/ or src/core/.

#include <memory>
#include <utility>
#include <vector>

#include "core/memory_policy.h"
#include "core/policy_registry.h"
#include "core/strategy.h"

namespace rtq::core {
namespace {

class OracleEdStrategy : public AllocationStrategy {
 public:
  OracleEdStrategy(std::function<SimTime()> now, double margin)
      : now_(std::move(now)), margin_(margin) {}

  void AllocateInto(const std::vector<MemRequest>& ed_sorted, PageCount total,
                    AllocationVector* out, StableTailHint*) const override {
    SimTime now = now_();
    out->assign(ed_sorted.size(), 0);
    PageCount remaining = total;
    for (size_t i = 0; i < ed_sorted.size(); ++i) {
      const MemRequest& q = ed_sorted[i];
      if (q.deadline - now < margin_ * RemainingEstimate(q)) {
        continue;  // cannot finish its residual work: spend nothing
      }
      if (q.max_memory <= remaining) {
        (*out)[i] = q.max_memory;
        remaining -= q.max_memory;
      }
    }
  }

  std::string name() const override { return "OracleED"; }

 private:
  std::function<SimTime()> now_;
  double margin_;
};

StatusOr<std::unique_ptr<MemoryPolicy>> MakeOracleEdPolicy(const Spec& spec) {
  double margin = 1.0;
  SpecArgs args(spec.args);
  args.Take("m", &margin);
  RTQ_RETURN_IF_ERROR(args.Finish());
  if (margin <= 0.0) {
    return Status::InvalidArgument("oracle-ed: m must be > 0");
  }
  return std::unique_ptr<MemoryPolicy>(new StaticStrategyPolicy(
      margin == 1.0 ? "oracle-ed"
                    : "oracle-ed:m=" + FormatSpecDoubleList({margin}),
      "Oracle-ED", [margin](const PolicyHost& host) -> StrategyOr {
        if (!host.now) {
          return Status::FailedPrecondition(
              "oracle-ed needs a simulation clock from the host");
        }
        return {std::make_unique<OracleEdStrategy>(host.now, margin)};
      }));
}

RTQ_REGISTER(PolicyRegistry, "oracle-ed",
             "oracle-ed[:m=F] — clairvoyant feasibility admission",
             MakeOracleEdPolicy);

}  // namespace
}  // namespace rtq::core
