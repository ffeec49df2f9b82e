// "pmm-tick" — PMM re-batched on the wall clock instead of completion
// counts; the first real consumer of MemoryPolicy::OnTick.
//
// Table 1's PMM adapts every SampleSize query completions, so its
// reaction time stretches as load thins out (30 completions can be ten
// minutes at a low arrival rate) and jitters with the completion
// process itself. pmm-tick is a PmmController that holds arriving
// completion records in a buffer and releases them to the unmodified
// batching only when a full batching period of *simulated time* has
// elapsed, at the engine's OnTick cadence. The controller then sees the
// same completion stream in the same order — but its adaptation points
// (and the SystemProbe utilization windows they read) land on the
// wall-clock grid, making a clean A/B between completion-count batching
// ("pmm") and time batching ("pmm-tick") with every other mechanism
// held fixed.
//
//   spec: "pmm-tick"            (period = 60000 ms, one default engine
//                                tick interval)
//         "pmm-tick:ms=120000"  (flush every 2 simulated minutes)
//         "pmm-tick:ms=0"       (no buffering: bit-identical to "pmm")
//
// Ticks arrive at the engine's tick cadence
// (SystemConfig::mpl_sample_interval), so the effective flush period is
// `ms` rounded up to the next tick. A period of 0 bypasses the buffer
// entirely, which pins the degenerate case to plain PMM by test.
// Registers from its own translation unit: no edits under src/engine/.

#include <deque>
#include <memory>
#include <string>

#include "core/pmm.h"
#include "core/policy_registry.h"

namespace rtq::core {
namespace {

constexpr int64_t kDefaultPeriodMs = 60000;

class PmmTickPolicy : public PmmController {
 public:
  explicit PmmTickPolicy(int64_t period_ms) : period_ms_(period_ms) {}

  Status Attach(const PolicyHost& host) override {
    if (period_ms_ > 0 && host.tick_interval <= 0.0) {
      // With ticks disabled OnTick never fires: completions would
      // buffer forever and the controller would never adapt. Fail loud
      // instead of silently running as never-adapting Max.
      return Status::FailedPrecondition(
          "pmm-tick:ms=" + std::to_string(period_ms_) +
          " needs a host that ticks (mpl_sample_interval > 0)");
    }
    return PmmController::Attach(host);
  }

  void OnQueryEvent(const QueryEvent& event) override {
    if (event.kind != QueryEvent::Kind::kCompletion) return;
    if (period_ms_ == 0) {
      OnQueryFinished(event.info);
    } else {
      pending_.push_back(event.info);
    }
  }

  void OnTick(SimTime now) override {
    if (period_ms_ == 0) return;
    if (now - last_flush_ < static_cast<double>(period_ms_) / 1000.0) return;
    last_flush_ = now;
    // Pop-front drain: if a flush-triggered reallocation synchronously
    // finishes more queries, OnQueryEvent appends them behind the
    // in-flight batch and this same pass delivers them too.
    while (!pending_.empty()) {
      CompletionInfo info = pending_.front();
      pending_.pop_front();
      OnQueryFinished(info);
    }
  }

  std::string Describe() const override {
    return "pmm-tick:ms=" + std::to_string(period_ms_);
  }

  std::string DisplayName() const override {
    if (period_ms_ % 1000 == 0) {
      return "PMM-Tick(" + std::to_string(period_ms_ / 1000) + "s)";
    }
    return "PMM-Tick(" + std::to_string(period_ms_) + "ms)";
  }

 private:
  int64_t period_ms_;
  std::deque<CompletionInfo> pending_;
  SimTime last_flush_ = 0.0;
};

StatusOr<std::unique_ptr<MemoryPolicy>> MakePmmTickPolicy(const Spec& spec) {
  int64_t period_ms = kDefaultPeriodMs;
  SpecArgs args(spec.args);
  args.Take("ms", &period_ms);
  RTQ_RETURN_IF_ERROR(args.Finish());
  if (period_ms < 0) {
    return Status::InvalidArgument("pmm-tick: ms must be >= 0, got " +
                                   std::to_string(period_ms));
  }
  return std::unique_ptr<MemoryPolicy>(new PmmTickPolicy(period_ms));
}

RTQ_REGISTER(PolicyRegistry, "pmm-tick",
             "pmm-tick[:ms=N] — PMM batched by simulated time via OnTick "
             "(0 = per-completion)",
             MakePmmTickPolicy);

}  // namespace
}  // namespace rtq::core
