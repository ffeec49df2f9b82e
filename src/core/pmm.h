// Priority Memory Management (PMM) — the paper's core contribution.
//
// PMM wraps the MemoryManager with two adaptive decisions, both revised
// after every SampleSize query completions (Table 1):
//
//  * Admission control (Section 3.1): in MinMax mode PMM picks a target
//    MPL. It fits miss_ratio = a*MPL^2 + b*MPL + c by least squares over
//    the observed <MPL, miss ratio> history and steers to the curve's
//    minimum (Type 1), probes one step beyond the tried range (Types 2-3),
//    or falls back to the resource-utilization heuristic (Type 4 / too
//    little data):
//
//        MPL_new = (UtilLow + UtilHigh) / (2 * Util_current) * MPL_current
//
//    with Util_current read off a least-squares line of utilization vs
//    MPL (Section 3.1.2).
//
//  * Allocation strategy (Section 3.2): starts in Max mode; switches to
//    MinMax when a batch shows (1) missed deadlines, (2) all CPU/disk
//    utilizations below UtilLow, (3) statistically positive admission
//    waiting times, and (4) statistically positive slack between time
//    constraints and execution times — the last two via large-sample
//    tests at AdaptConfLevel. Reverts to Max when the target MPL sinks to
//    the average MPL that Max mode realized.
//
//  * Workload-change detection (Section 3.3): large-sample tests at
//    ChangeConfLevel on three per-batch workload characteristics (average
//    maximum memory demand, average operand I/Os, average normalized time
//    constraint). A significant change restarts PMM from scratch.

#ifndef RTQ_CORE_PMM_H_
#define RTQ_CORE_PMM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/memory_policy.h"
#include "stats/linear_fit.h"
#include "stats/quadratic_fit.h"
#include "stats/running_stats.h"

namespace rtq::core {

/// The "pmm" policy. Variants (pmm-fair, pmm-class, pmm-tick,
/// pmm-predict) subclass it and override only what differs: Attach to
/// check their own host needs before calling this one, Wrap to decorate
/// the Max/MinMax strategy PMM picks, and the hooks below.
class PmmController : public MemoryPolicy {
 public:
  enum class Mode { kMax, kMinMax };

  /// One row of the adaptation trace (Figures 6 and 15).
  struct TracePoint {
    SimTime time = 0.0;
    Mode mode = Mode::kMax;
    /// Target MPL; meaningful in MinMax mode (-1 in Max mode: unlimited).
    int64_t target_mpl = -1;
    double batch_miss_ratio = 0.0;
    double realized_mpl = 0.0;
    double bottleneck_utilization = 0.0;
    stats::CurveType curve = stats::CurveType::kUndetermined;
    bool workload_change = false;
  };

  /// Validates host.pmm, keeps the host's manager and probe, and
  /// installs the initial strategy (the paper: "Initially, the Max mode
  /// is selected").
  Status Attach(const PolicyHost& host) override;
  /// Feeds completions to OnQueryFinished.
  void OnQueryEvent(const QueryEvent& event) override;
  std::string Describe() const override { return "pmm"; }
  std::string DisplayName() const override { return "PMM"; }
  const PmmController* pmm_controller() const override { return this; }

  /// Feed every completion (including misses) to the controller.
  virtual void OnQueryFinished(const CompletionInfo& info);

  Mode mode() const { return mode_; }
  int64_t target_mpl() const { return target_mpl_; }
  const std::vector<TracePoint>& trace() const { return trace_; }
  int64_t adaptations() const { return static_cast<int64_t>(trace_.size()); }
  int64_t workload_changes_detected() const { return workload_changes_; }

 protected:
  /// Decorates the Max or MinMax-N strategy of the current mode before
  /// it is installed; the identity here. PMM-Fair and pmm-class wrap it
  /// in their class-aware orderings and quotas.
  virtual std::unique_ptr<AllocationStrategy> Wrap(
      std::unique_ptr<AllocationStrategy> inner) {
    return inner;
  }

  /// Installs Wrap(Max) or Wrap(MinMax-target) for the current mode.
  void InstallStrategy();

  /// Hook for subclasses, called at the end of every batch adaptation.
  virtual void OnBatchAdapted(const TracePoint& point) { (void)point; }

  /// Consulted before the Section 3.2 revert-to-Max test fires; a
  /// subclass returning false keeps the controller in MinMax mode even
  /// when the target sinks to Max mode's realized average. Predictive
  /// controllers use this to hold a proactive clamp through the batch
  /// adaptations that would otherwise undo it.
  virtual bool AllowRevertToMax(SimTime now) {
    (void)now;
    return true;
  }

  /// Out-of-band override for subclasses: switches to MinMax mode at
  /// `target` (clamped to [1, max_mpl]) immediately, without waiting for
  /// a batch boundary, and records a TracePoint so adaptation traces
  /// show the intervention. The regular batch machinery keeps running
  /// and will re-fit from the new operating point.
  void ForceTarget(SimTime now, int64_t target);

  /// Out-of-band counterpart of ForceTarget: reverts to Max mode
  /// immediately (no-op when already there), mirroring the Section 3.2
  /// revert branch, and records a TracePoint. Max-mode statistics keep
  /// accumulating from the next batch as after a regular revert.
  void ForceMax(SimTime now);

  MemoryManager* memory_manager() { return mm_; }

 private:
  struct Batch {
    int64_t completions = 0;
    int64_t misses = 0;
    stats::RunningStats waits;
    stats::RunningStats slack_minus_exec;
    stats::RunningStats max_memory;
    stats::RunningStats operand_ios;
    stats::RunningStats normalized_tc;
    void Reset() { *this = Batch{}; }
  };

  void Adapt();
  /// True when the three monitored characteristics show a significant
  /// change relative to their last observed values.
  bool DetectWorkloadChange();
  /// Discards all adaptation state and restarts in Max mode.
  void Restart();
  /// The resource-utilization heuristic's MPL suggestion.
  int64_t RuHeuristicMpl(double current_mpl, double current_util) const;

  PmmParams params_;
  MemoryManager* mm_ = nullptr;
  SystemProbe* probe_ = nullptr;

  Mode mode_ = Mode::kMax;
  int64_t target_mpl_ = -1;

  Batch batch_;
  stats::QuadraticFit miss_fit_;
  stats::LinearFit util_fit_;
  stats::RunningStats max_mode_realized_mpl_;

  bool have_prev_characteristics_ = false;
  stats::RunningStats prev_max_memory_;
  stats::RunningStats prev_operand_ios_;
  stats::RunningStats prev_normalized_tc_;

  std::vector<TracePoint> trace_;
  int64_t workload_changes_ = 0;
};

}  // namespace rtq::core

#endif  // RTQ_CORE_PMM_H_
