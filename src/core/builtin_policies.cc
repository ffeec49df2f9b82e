// The paper's five policies (Sections 3.1-3.2, 5.6) as registered
// MemoryPolicy plugins:
//
//   "max[:strict]"    — MaxStrategy; ":strict" disables admission bypass
//   "minmax[:N]"      — MinMax-N; N omitted = MinMax-infinity
//   "prop[:N]"        — Proportional-N; N omitted = unlimited
//   "pmm"             — the adaptive PMM controller
//   "pmm-fair[:w=..]" — PMM + Section 5.6 fairness; w = one desired
//                       relative miss ratio per class, comma-separated
//                       (omitted = equal weights for every class)
//
// This file is also the template for new policies: everything a policy
// needs — factory, lifecycle, registration — lives in one translation
// unit (see src/policies/ for two out-of-tree examples).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/memory_policy.h"
#include "core/pmm_fair.h"
#include "core/policy_registry.h"
#include "core/strategy.h"

namespace rtq::core {
namespace {

// ---------------------------------------------------------------------------
// Static strategies: one fixed AllocationStrategy for the whole run.
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<MemoryPolicy>> MakeMaxPolicy(const Spec& spec) {
  bool strict = false;
  if (spec.args == "strict") {
    strict = true;
  } else if (!spec.args.empty()) {
    return Status::InvalidArgument("max takes no argument or ':strict', got '" +
                                   spec.args + "'");
  }
  std::string canonical = strict ? "max:strict" : "max";
  std::string display = strict ? "Max(strict)" : "Max";
  return std::unique_ptr<MemoryPolicy>(new StaticStrategyPolicy(
      canonical, display,
      [strict](const PolicyHost&) -> StrategyOr {
        return {std::make_unique<MaxStrategy>(!strict)};
      }));
}

/// Shared factory body for the two -N families.
template <typename StrategyT>
StatusOr<std::unique_ptr<MemoryPolicy>> MakeLimitPolicy(const Spec& spec,
                                                        const char* family) {
  int64_t n = -1;
  if (!spec.args.empty()) {
    auto parsed = SpecArgs::ToInt(spec.args);
    if (!parsed.ok()) return parsed.status();
    n = parsed.value();
    if (n < 1) {
      return Status::InvalidArgument(std::string(family) +
                                     ": N must be >= 1, got " + spec.args);
    }
  }
  std::string canonical =
      n < 0 ? spec.name : spec.name + ":" + std::to_string(n);
  std::string display =
      n < 0 ? family : std::string(family) + "-" + std::to_string(n);
  return std::unique_ptr<MemoryPolicy>(new StaticStrategyPolicy(
      canonical, display, [n](const PolicyHost&) -> StrategyOr {
        return {std::make_unique<StrategyT>(n)};
      }));
}

// ---------------------------------------------------------------------------
// PMM and PMM-Fair: the controller is the policy (pmm.h, pmm_fair.h).
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<MemoryPolicy>> MakePmmFairPolicy(const Spec& spec) {
  std::vector<double> weights;
  SpecArgs args(spec.args);
  args.Take("w", &weights);
  RTQ_RETURN_IF_ERROR(args.Finish());
  for (double w : weights) {
    if (w <= 0.0) {
      return Status::InvalidArgument("pmm-fair: weights must be > 0");
    }
  }
  return std::unique_ptr<MemoryPolicy>(
      new PmmFairController(std::move(weights)));
}

// ---------------------------------------------------------------------------
// Registrations.
// ---------------------------------------------------------------------------

RTQ_REGISTER(PolicyRegistry, "max",
             "max[:strict] — all-or-nothing maximum allocations",
             MakeMaxPolicy);
RTQ_REGISTER(PolicyRegistry, "minmax",
             "minmax[:N] — min-then-max top-up, MPL capped at N",
             [](const Spec& spec) {
               return MakeLimitPolicy<MinMaxStrategy>(spec, "MinMax");
             });
RTQ_REGISTER(PolicyRegistry, "prop",
             "prop[:N] — equal fraction of each maximum, MPL capped at N",
             [](const Spec& spec) {
               return MakeLimitPolicy<ProportionalStrategy>(spec,
                                                           "Proportional");
             });
RTQ_REGISTER(PolicyRegistry, "pmm",
             "pmm — adaptive Priority Memory Management",
             [](const Spec& spec) -> StatusOr<std::unique_ptr<MemoryPolicy>> {
               RTQ_RETURN_IF_ERROR(SpecArgs(spec.args).Finish());
               return std::unique_ptr<MemoryPolicy>(new PmmController());
             });
RTQ_REGISTER(PolicyRegistry, "pmm-fair",
             "pmm-fair[:w=w1,w2,...] — PMM + class fairness",
             MakePmmFairPolicy);

}  // namespace
}  // namespace rtq::core
