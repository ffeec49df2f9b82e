// The registry of MemoryPolicy factories and the policy-list grammar.
//
// A policy is named by a spec string (common/spec.h), e.g. "max",
// "max:strict", "minmax:5", "prop:10", "pmm", "pmm-fair:w=1,2", "none",
// "oracle-ed". MemoryPolicy::Describe() returns the canonical spec, so
// Create(Describe()) round-trips. Factories self-register with
// RTQ_REGISTER(PolicyRegistry, ...) from their own translation units, so
// adding a policy is one new .cc file — no edits under src/engine/ (see
// src/policies/).

#ifndef RTQ_CORE_POLICY_REGISTRY_H_
#define RTQ_CORE_POLICY_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/registry.h"
#include "common/status.h"
#include "core/memory_policy.h"

namespace rtq::core {

inline constexpr char kPolicyNoun[] = "policy";
using PolicyRegistry = Registry<std::unique_ptr<MemoryPolicy>, kPolicyNoun>;

/// Splits a policy *list* ("pmm,none" / "minmax:5,pmm-fair:w=1,2,max")
/// into individual specs. Commas separate specs, except that a segment
/// which cannot start a new spec is folded into the previous spec's
/// arguments: one that opens with a digit, '.', '-' or '+' (the "2" of
/// "pmm-fair:w=1,2"), or a key=value segment whose '=' precedes any ':'
/// (the "window=10" of "select:candidates=pmm,window=10" — '=' can
/// never appear in a policy name).
StatusOr<std::vector<std::string>> ParsePolicyList(const std::string& text);

}  // namespace rtq::core

#endif  // RTQ_CORE_POLICY_REGISTRY_H_
