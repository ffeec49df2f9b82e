// "edf-shed" — Earliest-Deadline-First allocation with feasibility
// shedding.
//
// A firm real-time system gains nothing from queries that finish late,
// so spending memory on a query that can no longer make its deadline is
// pure waste (the paper's Section 3.1 motivates admission control with
// exactly this observation). edf-shed acts on it with the information
// the system already has: the cost model's stand-alone execution-time
// estimate (MemRequest::standalone_estimate, the same estimate deadline
// assignment uses in Section 4.1), credited for progress — the estimate
// is scaled by the fraction of operand pages not yet read
// (core::RemainingEstimate), so a query that is 90% done only needs 10%
// of its estimate to remain feasible and is never robbed of memory on
// the strength of work it already finished. Any query whose remaining
// time to deadline is below `margin * remaining estimate` — infeasible
// even at its maximum allocation on an idle machine — is shed: it gets
// no memory and ages out at its deadline. The survivors share memory in
// plain EDF order under the MinMax discipline (minimums first, then
// top-ups to the maximum in deadline order), with no MPL cap.
//
//   spec: "edf-shed"           (margin = 1)
//         "edf-shed:m=1.5"     (require 1.5x the estimate to remain)
//
// Feasibility is re-evaluated at reallocation points. When a round shed
// nobody, the inner MinMax-infinity stable-tail proof is exposed, so
// denied-tail churn takes PR 4's incremental path without a recompute;
// membership changes absorbed that way defer the next feasibility check
// to the next true reallocation — deliberate policy semantics (shedding
// is lazy in the dead zone), not drift: a deferred-shed query holds no
// memory either way, and the determinism pins cover the trajectory.
//
// Contrast with "oracle-ed" (policy_oracle_ed.cc): the oracle pairs the
// same feasibility filter with all-or-nothing maximum grants, making it
// an optimistic upper bound; edf-shed is the practical sibling — same
// signal, but admitted queries degrade gracefully through the min/max
// range instead of being skipped when the pool cannot cover their
// maximum. Registers from its own translation unit: no edits under
// src/engine/.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/memory_policy.h"
#include "core/policy_registry.h"
#include "core/strategy.h"

namespace rtq::core {
namespace {

class EdfShedStrategy : public AllocationStrategy {
 public:
  EdfShedStrategy(std::function<SimTime()> now, double margin)
      : now_(std::move(now)),
        margin_(margin),
        inner_(/*mpl_limit=*/-1) {}

  // When nothing was shed this round the wrapper was a no-op, so the
  // inner MinMax-infinity stable-tail proof holds for this input and is
  // exposed (AllocateThroughFilter leaves it invalid whenever anything
  // was filtered). A request absorbed by that proof receives nothing — the
  // same outcome whether the next true reallocation finds it feasible
  // (denied tail) or sheds it — so the fast path only defers *when* the
  // clock-dependent filter is next consulted, never what anyone holds.
  // See the header comment for why that laziness is the policy's
  // defined semantics.
  void AllocateInto(const std::vector<MemRequest>& ed_sorted, PageCount total,
                    AllocationVector* out,
                    StableTailHint* hint) const override {
    SimTime now = now_();
    AllocateThroughFilter(
        inner_, ed_sorted, total,
        [this, now](const MemRequest& q) {
          // Shed queries infeasible even at max allocation, crediting
          // the work they already completed.
          return q.deadline - now >= margin_ * RemainingEstimate(q);
        },
        out, hint);
  }

  std::string name() const override { return "EdfShed"; }

 private:
  std::function<SimTime()> now_;
  double margin_;
  MinMaxStrategy inner_;
};

StatusOr<std::unique_ptr<MemoryPolicy>> MakeEdfShedPolicy(const Spec& spec) {
  double margin = 1.0;
  SpecArgs args(spec.args);
  args.Take("m", &margin);
  RTQ_RETURN_IF_ERROR(args.Finish());
  if (margin <= 0.0) {
    return Status::InvalidArgument("edf-shed: m must be > 0");
  }
  return std::unique_ptr<MemoryPolicy>(new StaticStrategyPolicy(
      margin == 1.0 ? "edf-shed"
                    : "edf-shed:m=" + FormatSpecDoubleList({margin}),
      "EDF-Shed", [margin](const PolicyHost& host) -> StrategyOr {
        if (!host.now) {
          return Status::FailedPrecondition(
              "edf-shed needs a simulation clock from the host");
        }
        return {std::make_unique<EdfShedStrategy>(host.now, margin)};
      }));
}

RTQ_REGISTER(PolicyRegistry, "edf-shed",
             "edf-shed[:m=F] — EDF MinMax sharing, infeasible queries shed",
             MakeEdfShedPolicy);

}  // namespace
}  // namespace rtq::core
