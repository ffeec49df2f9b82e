// "select" — online policy selection: a UCB bandit over registered
// policy specs, hot-swapping the whole strategy stack from OnTick.
//
// No admission policy wins every workload (the scenario sweeps show pmm,
// pmm-predict, and edf-shed trading places by shape), and a production
// system cannot rerun the sweep before choosing. select treats the
// registered policy specs as bandit arms: it runs one candidate at a
// time, scores each evaluation window by its realized miss ratio
// (reward = 1 - window miss ratio, counted from OnQueryEvent — the
// shared SystemProbe is never touched), and picks the next arm by the
// UCB1 rule: untried arms first in spec order, then
//
//   argmax  mean_reward(arm) + sqrt(2 ln(epochs) / pulls(arm))
//
// with ties broken toward the earlier spec — fully deterministic, no
// RNG. Switching arms builds a *fresh* policy from the registry and
// re-Attaches it (each policy sees Attach exactly once, per the
// MemoryPolicy contract), installing its strategy mid-run; the PR 5
// tick-probe test pins that strategy swaps from OnTick are safe. Attach
// tries every candidate against the host first, so a candidate the
// host cannot run fails the swap to select rather than a later epoch.
//
//   spec: "select"                               (candidates=pmm)
//         "select:candidates=pmm,pmm-predict"    (commas fold per the
//                                                 policy-list grammar)
//         "select:candidates=pmm+pmm-predict,window=10"
//
// The canonical form joins candidates with '+' so the whole spec
// survives inside a comma-separated RTQ_POLICIES list. `window` is the
// evaluation epoch in ticks (default 5). With a single candidate the
// bandit never runs and the trajectory is bit-identical to the
// candidate bare — the degenerate case the zero-drift gate pins.
// Registers from its own translation unit: no edits under src/engine/.

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/memory_manager.h"
#include "core/memory_policy.h"
#include "core/policy_registry.h"
#include "core/strategy.h"

namespace rtq::core {
namespace {

constexpr int64_t kDefaultWindow = 5;

class SelectPolicy : public MemoryPolicy {
 public:
  SelectPolicy(std::vector<std::string> candidates,
               std::vector<std::string> display_names, int64_t window)
      : candidates_(std::move(candidates)),
        display_names_(std::move(display_names)),
        window_(window),
        pulls_(candidates_.size(), 0),
        reward_sum_(candidates_.size(), 0.0) {}

  Status Attach(const PolicyHost& host) override {
    if (candidates_.size() > 1 && host.tick_interval <= 0.0) {
      // The bandit only advances on ticks; without them the first arm
      // would run forever and the "selection" would be a lie.
      return Status::FailedPrecondition(
          "select with multiple candidates needs a host that ticks "
          "(mpl_sample_interval > 0)");
    }
    // OnTick attaches the later candidates, where a failure could no
    // longer be refused. Every Attach reads only host fields, so a
    // fresh instance attached to the host over a private, empty manager
    // gets the host's verdict now without touching host.mm.
    MemoryManager scratch(1, std::make_unique<MaxStrategy>(),
                          [](QueryId, PageCount) {});
    PolicyHost trial = host;
    trial.mm = &scratch;
    for (size_t i = 1; i < candidates_.size(); ++i) {
      auto candidate = PolicyRegistry::Global().Create(candidates_[i]);
      if (!candidate.ok()) return candidate.status();
      RTQ_RETURN_IF_ERROR(candidate.value()->Attach(trial));
    }
    host_ = host;
    return SwapTo(0);
  }

  void OnQueryEvent(const QueryEvent& event) override {
    if (event.kind == QueryEvent::Kind::kCompletion) {
      ++completions_;
      if (event.info.missed) ++misses_;
    }
    active_->OnQueryEvent(event);
  }

  void OnTick(SimTime now) override {
    active_->OnTick(now);
    if (candidates_.size() < 2) return;  // degenerate: nothing to select
    if (++ticks_in_epoch_ < window_) return;

    // Close the epoch: credit the active arm with 1 - miss ratio. An
    // epoch with no completions is unscored evidence-free time; count
    // the pull (so the rotation advances) but score it neutrally high,
    // matching "no misses observed".
    double reward =
        completions_ > 0
            ? 1.0 - static_cast<double>(misses_) /
                        static_cast<double>(completions_)
            : 1.0;
    ++pulls_[active_index_];
    reward_sum_[active_index_] += reward;
    ++epochs_;
    ticks_in_epoch_ = 0;
    completions_ = misses_ = 0;

    // Attach tried every candidate against this host, so the swap
    // succeeds; a failed one would leave the incumbent arm running.
    size_t next = PickArm();
    if (next != active_index_) SwapTo(next);
  }

  std::string Describe() const override {
    std::string joined;
    for (size_t i = 0; i < candidates_.size(); ++i) {
      if (i > 0) joined += "+";
      joined += candidates_[i];
    }
    return "select:candidates=" + joined +
           ",window=" + std::to_string(window_);
  }

  std::string DisplayName() const override {
    std::string joined;
    for (size_t i = 0; i < display_names_.size(); ++i) {
      if (i > 0) joined += "+";
      joined += display_names_[i];
    }
    return "Select(" + joined + ")";
  }

  const PmmController* pmm_controller() const override {
    return active_ ? active_->pmm_controller() : nullptr;
  }

 private:
  /// UCB1 with untried-arms-first in spec order; deterministic
  /// lowest-index tie-break.
  size_t PickArm() const {
    for (size_t i = 0; i < pulls_.size(); ++i) {
      if (pulls_[i] == 0) return i;
    }
    size_t best = 0;
    double best_score = -1.0;
    for (size_t i = 0; i < pulls_.size(); ++i) {
      double mean = reward_sum_[i] / static_cast<double>(pulls_[i]);
      double bonus = std::sqrt(2.0 * std::log(static_cast<double>(epochs_)) /
                               static_cast<double>(pulls_[i]));
      double score = mean + bonus;
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    return best;
  }

  Status SwapTo(size_t index) {
    auto policy = PolicyRegistry::Global().Create(candidates_[index]);
    if (!policy.ok()) return policy.status();
    RTQ_RETURN_IF_ERROR(policy.value()->Attach(host_));
    active_ = std::move(policy).value();
    active_index_ = index;
    return Status::Ok();
  }

  std::vector<std::string> candidates_;  // canonical specs
  std::vector<std::string> display_names_;
  int64_t window_;

  PolicyHost host_;
  std::unique_ptr<MemoryPolicy> active_;
  size_t active_index_ = 0;

  std::vector<int64_t> pulls_;
  std::vector<double> reward_sum_;
  int64_t epochs_ = 0;
  int64_t ticks_in_epoch_ = 0;
  int64_t completions_ = 0;
  int64_t misses_ = 0;
};

StatusOr<std::unique_ptr<MemoryPolicy>> MakeSelectPolicy(const Spec& spec) {
  // The candidates value keeps its commas: candidate specs contain them
  // ("pmm-class:targets=6,10").
  std::string candidates_arg = "pmm";
  int64_t window = kDefaultWindow;
  SpecArgs args(spec.args);
  args.Take("candidates", &candidates_arg);
  args.Take("window", &window);
  RTQ_RETURN_IF_ERROR(args.Finish());
  if (candidates_arg.empty()) {
    return Status::InvalidArgument("select: candidates list is empty");
  }
  if (window < 1) {
    return Status::InvalidArgument("select: window must be >= 1 tick");
  }

  // Candidates: '+'-separated groups, each group itself a policy list
  // (so both the canonical '+' form and the comma form parse).
  std::vector<std::string> raw_specs;
  for (const std::string& group : SplitAt(candidates_arg, '+')) {
    auto specs = ParsePolicyList(group);
    if (!specs.ok()) return specs.status();
    for (auto& s : specs.value()) raw_specs.push_back(std::move(s));
  }

  // Canonicalize and validate each candidate by building it once.
  std::vector<std::string> canonical;
  std::vector<std::string> display_names;
  for (const std::string& raw : raw_specs) {
    auto parsed = Spec::Parse(raw);
    if (!parsed.ok()) return parsed.status();
    if (parsed.value().name == "select") {
      return Status::InvalidArgument("select: candidates cannot nest select");
    }
    auto candidate = PolicyRegistry::Global().Create(raw);
    if (!candidate.ok()) return candidate.status();
    canonical.push_back(candidate.value()->Describe());
    display_names.push_back(candidate.value()->DisplayName());
  }
  return std::unique_ptr<MemoryPolicy>(new SelectPolicy(
      std::move(canonical), std::move(display_names), window));
}

RTQ_REGISTER(PolicyRegistry, "select",
             "select[:candidates=s1+s2+...,window=N] — UCB bandit over "
             "policy specs, re-selected every N ticks",
             MakeSelectPolicy);

}  // namespace
}  // namespace rtq::core
