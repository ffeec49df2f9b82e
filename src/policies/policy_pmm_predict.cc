// "pmm-predict" — PMM that moves the MPL *before* the forecast crosses
// the overload threshold.
//
// Every controller in this repo — PMM included, straight from the
// paper's Section 3 design — reacts after overload is observed: a batch
// of completions must miss deadlines before the target MPL moves. Under
// the scenario engine's non-stationary shapes (a flash crowd, a diurnal
// ramp) the arrival process telegraphs its next move, so reacting late
// costs a burst of misses the trend already predicted.
//
// pmm-predict is a PmmController plus a forecasting layer driven from
// OnTick. Each tick it samples three signals without ever
// touching the shared SystemProbe (whose windowed readings belong to
// the controller's batch machinery):
//
//   * arrival rate     — arrivals counted in OnQueryEvent / tick length;
//   * per-tick miss ratio — completions and misses counted likewise;
//   * memory pressure  — the manager's waiting-query count.
//
// The samples feed stats::TrendTracker windows (linear + quadratic fits
// with an R^2 confidence score). The forecast changes the *timing* of
// PMM's mode decisions, never their level: the paper's Section 5 result
// — confirmed by this repo's scenario sweeps, where Max dominates every
// fixed MinMax-N on the non-stationary shapes — is that the right MPL
// is set by memory contention, not by the arrival rate, so a rate
// forecast alone must not pick a clamp level. Three timing moves:
//
//   * Wave approaching, already clamped (MinMax mode): re-assert the
//     standing target and suppress the Section 3.2 revert-to-Max test
//     until the forecast horizon passes (AllowRevertToMax), so a batch
//     adaptation cannot release admission control just as the wave
//     lands.
//   * Wave approaching, Max mode: do nothing. Entering MinMax needs
//     memory-overload evidence (misses + underutilization + waiting,
//     Section 3.2) that a rate trend cannot supply; clamping on rate
//     alone lost to Max on every scenario shape.
//   * Load confidently draining, clamped, and the waiting-queue backlog
//     not rising: revert to Max NOW (ForceMax). The reactive revert
//     waits for the fitted target to sink below Max mode's realized
//     average — a lagging signal that keeps admission control on for
//     batches after a burst has passed.
//
// When the trend is flat, noisy, or the window has not filled, no gate
// fires and the policy is plain PMM — bit-for-bit, since the
// forecasting layer perturbs nothing until it acts.
//
//   spec: "pmm-predict"             (window=12, lead=2, band=0.25,
//                                    conf=0.5)
//         "pmm-predict:window=8,lead=3,band=0.2,conf=0.6"
//
// Ticks arrive at the engine's tick cadence
// (SystemConfig::mpl_sample_interval); a host that never ticks is
// rejected at Attach, like pmm-tick. Registers from its own translation
// unit: no edits under src/engine/.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/pmm.h"
#include "core/policy_registry.h"
#include "stats/trend_tracker.h"

namespace rtq::core {
namespace {

constexpr int64_t kDefaultWindow = 12;
constexpr int64_t kDefaultLead = 2;
constexpr double kDefaultBand = 0.25;
constexpr double kDefaultConf = 0.5;

class PmmPredictPolicy : public PmmController {
 public:
  PmmPredictPolicy(int64_t window, int64_t lead, double band, double conf)
      : window_(window),
        lead_(lead),
        band_(band),
        conf_(conf),
        rate_trend_(window),
        miss_trend_(window),
        pressure_trend_(window) {}

  Status Attach(const PolicyHost& host) override {
    if (host.tick_interval <= 0.0) {
      // Without ticks the forecasting layer never samples and the policy
      // silently degenerates to plain PMM; fail loud instead.
      return Status::FailedPrecondition(
          "pmm-predict needs a host that ticks "
          "(mpl_sample_interval > 0)");
    }
    tick_ = host.tick_interval;
    return PmmController::Attach(host);
  }

  void OnQueryEvent(const QueryEvent& event) override {
    if (event.kind == QueryEvent::Kind::kArrival) {
      ++arrivals_;
      return;
    }
    ++completions_;
    if (event.info.missed) ++misses_;
    OnQueryFinished(event.info);
  }

  void OnTick(SimTime now) override {
    double dt = now - last_tick_;
    last_tick_ = now;
    if (dt <= 0.0) return;

    rate_trend_.Add(now, static_cast<double>(arrivals_) / dt);
    if (completions_ > 0) {
      miss_trend_.Add(now, static_cast<double>(misses_) /
                               static_cast<double>(completions_));
    }
    pressure_trend_.Add(now,
                        static_cast<double>(memory_manager()->waiting_count()));
    arrivals_ = completions_ = misses_ = 0;

    SimTime horizon = now + static_cast<double>(lead_) * tick_;
    stats::Forecast rate = rate_trend_.Predict(horizon);
    if (!rate.valid || rate.confidence < conf_) return;  // plain PMM

    double current = std::max(rate.current, 1e-9);
    double future = rate.value;
    // An upward-accelerating window means the line undershoots the
    // wave; trust the parabola's (higher) extrapolation then.
    if (rate.quad_valid && rate.curvature > 0.0) {
      future = std::max(future, rate.quad_value);
    }
    double ratio = future / current;

    // Corroborating signals. A confidently rising miss trend means the
    // wave is already doing damage — halve the band and act earlier. A
    // confidently rising waiting-queue backlog vetoes relaxation: more
    // admitted queries while the queue grows only thrashes memory.
    double band = band_;
    stats::Forecast miss = miss_trend_.Predict(horizon);
    if (miss.valid && miss.confidence >= conf_ && miss.slope > 0.0) {
      band = band_ * 0.5;
    }
    stats::Forecast pressure = pressure_trend_.Predict(horizon);
    bool backlog_rising = pressure.valid && pressure.confidence >= conf_ &&
                          pressure.slope > 0.0;

    if (ratio >= 1.0 + band) {
      if (mode() == Mode::kMinMax) {
        // Wave approaching while admission control is on: hold the
        // standing clamp through the forecast horizon so a batch
        // adaptation cannot revert to Max just as the wave lands.
        hold_until_ = std::max(hold_until_, horizon);
        ForceTarget(now, target_mpl());
      }
      // In Max mode, do nothing: the clamp level is memory's call (the
      // reactive Section 3.2 test), not the arrival rate's — see the
      // header comment.
    } else if (ratio <= 1.0 - band && !backlog_rising &&
               mode() == Mode::kMinMax) {
      // Load confidently draining and no backlog building: release
      // admission control now instead of waiting for the lagging
      // reactive revert test, and clear any standing hold.
      hold_until_ = 0.0;
      ForceMax(now);
    }
  }

  std::string Describe() const override {
    std::string args;
    auto append = [&args](const std::string& piece) {
      args += args.empty() ? piece : "," + piece;
    };
    if (window_ != kDefaultWindow)
      append("window=" + std::to_string(window_));
    if (lead_ != kDefaultLead) append("lead=" + std::to_string(lead_));
    if (band_ != kDefaultBand)
      append("band=" + FormatSpecDoubleList({band_}));
    if (conf_ != kDefaultConf)
      append("conf=" + FormatSpecDoubleList({conf_}));
    return args.empty() ? "pmm-predict" : "pmm-predict:" + args;
  }

  std::string DisplayName() const override {
    std::string spec = Describe();
    size_t colon = spec.find(':');
    return colon == std::string::npos
               ? "PMM-Predict"
               : "PMM-Predict(" + spec.substr(colon + 1) + ")";
  }

 protected:
  /// Holds off the Section 3.2 revert-to-Max test until the forecast
  /// horizon of the last proactive clamp, so batch adaptations cannot
  /// undo it before the wave arrives.
  bool AllowRevertToMax(SimTime now) override { return now >= hold_until_; }

 private:
  int64_t window_;
  int64_t lead_;
  double band_;
  double conf_;

  SimTime tick_ = 0.0;
  SimTime hold_until_ = 0.0;

  stats::TrendTracker rate_trend_;
  stats::TrendTracker miss_trend_;
  stats::TrendTracker pressure_trend_;
  int64_t arrivals_ = 0;
  int64_t completions_ = 0;
  int64_t misses_ = 0;
  SimTime last_tick_ = 0.0;
};

StatusOr<std::unique_ptr<MemoryPolicy>> MakePmmPredictPolicy(
    const Spec& spec) {
  int64_t window = kDefaultWindow;
  int64_t lead = kDefaultLead;
  double band = kDefaultBand;
  double conf = kDefaultConf;
  SpecArgs args(spec.args);
  args.Take("window", &window);
  args.Take("lead", &lead);
  args.Take("band", &band);
  args.Take("conf", &conf);
  RTQ_RETURN_IF_ERROR(args.Finish());
  if (window < 3) {
    return Status::InvalidArgument("pmm-predict: window must be >= 3");
  }
  if (lead < 1) {
    return Status::InvalidArgument("pmm-predict: lead must be >= 1");
  }
  if (band <= 0.0 || band >= 1.0 || conf <= 0.0 || conf >= 1.0) {
    return Status::InvalidArgument(
        "pmm-predict: band and conf must be numbers in (0,1)");
  }
  return std::unique_ptr<MemoryPolicy>(
      new PmmPredictPolicy(window, lead, band, conf));
}

RTQ_REGISTER(PolicyRegistry, "pmm-predict",
             "pmm-predict[:window=N,lead=K,band=F,conf=F] — PMM clamped "
             "ahead of confidently forecast load waves",
             MakePmmPredictPolicy);

}  // namespace
}  // namespace rtq::core
