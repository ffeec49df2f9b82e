#include "core/pmm.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "stats/large_sample_test.h"

namespace rtq::core {

Status PmmParams::Validate() const {
  if (sample_size < 2)
    return Status::InvalidArgument("sample_size must be >= 2");
  if (!(util_low > 0.0 && util_low < util_high && util_high <= 1.0))
    return Status::InvalidArgument("need 0 < util_low < util_high <= 1");
  if (adapt_conf_level <= 0.0 || adapt_conf_level >= 1.0 ||
      change_conf_level <= 0.0 || change_conf_level >= 1.0)
    return Status::InvalidArgument("confidence levels must be in (0,1)");
  if (max_mpl < 1) return Status::InvalidArgument("max_mpl must be >= 1");
  return Status::Ok();
}

Status PmmController::Attach(const PolicyHost& host) {
  RTQ_RETURN_IF_ERROR(host.pmm.Validate());
  RTQ_CHECK(host.mm != nullptr && host.probe != nullptr);
  params_ = host.pmm;
  mm_ = host.mm;
  probe_ = host.probe;
  // Adaptations are rare (~one per tens of completions); pre-growing the
  // trace keeps its amortized reallocation out of the steady-state path.
  trace_.reserve(1024);
  InstallStrategy();
  return Status::Ok();
}

void PmmController::OnQueryEvent(const QueryEvent& event) {
  if (event.kind == QueryEvent::Kind::kCompletion) OnQueryFinished(event.info);
}

void PmmController::InstallStrategy() {
  std::unique_ptr<AllocationStrategy> inner;
  if (mode_ == Mode::kMax) {
    inner = std::make_unique<MaxStrategy>();
  } else {
    inner = std::make_unique<MinMaxStrategy>(target_mpl_);
  }
  mm_->SetStrategy(Wrap(std::move(inner)));
}

void PmmController::OnQueryFinished(const CompletionInfo& info) {
  ++batch_.completions;
  if (info.missed) ++batch_.misses;
  batch_.waits.Add(info.admission_wait);
  batch_.slack_minus_exec.Add(info.time_constraint - info.execution_time);
  batch_.max_memory.Add(static_cast<double>(info.max_memory));
  batch_.operand_ios.Add(static_cast<double>(info.operand_io_requests));
  if (info.operand_io_requests > 0) {
    batch_.normalized_tc.Add(info.time_constraint /
                             static_cast<double>(info.operand_io_requests));
  }
  if (batch_.completions >= params_.sample_size) Adapt();
}

bool PmmController::DetectWorkloadChange() {
  if (!have_prev_characteristics_) return false;
  // "PMM carries out a large-sample test ... on each monitored workload
  // characteristic to see if its present value differs significantly from
  // its last observed value." The last observed value is itself a batch
  // mean, so a two-sample test is used (see TwoSampleMeansDiffer).
  return stats::TwoSampleMeansDiffer(batch_.max_memory, prev_max_memory_,
                                     params_.change_conf_level) ||
         stats::TwoSampleMeansDiffer(batch_.operand_ios, prev_operand_ios_,
                                     params_.change_conf_level) ||
         stats::TwoSampleMeansDiffer(batch_.normalized_tc,
                                     prev_normalized_tc_,
                                     params_.change_conf_level);
}

void PmmController::Restart() {
  miss_fit_.Reset();
  util_fit_.Reset();
  max_mode_realized_mpl_.Reset();
  mode_ = Mode::kMax;
  target_mpl_ = -1;
  InstallStrategy();
}

void PmmController::ForceTarget(SimTime now, int64_t target) {
  target = std::clamp<int64_t>(target, 1, params_.max_mpl);
  if (mode_ == Mode::kMinMax && target == target_mpl_) return;
  mode_ = Mode::kMinMax;
  target_mpl_ = target;
  InstallStrategy();
  TracePoint point;
  point.time = now;
  point.mode = mode_;
  point.target_mpl = target_mpl_;
  trace_.push_back(point);
}

void PmmController::ForceMax(SimTime now) {
  if (mode_ == Mode::kMax) return;
  mode_ = Mode::kMax;
  target_mpl_ = -1;
  InstallStrategy();
  TracePoint point;
  point.time = now;
  point.mode = mode_;
  point.target_mpl = target_mpl_;
  trace_.push_back(point);
}

int64_t PmmController::RuHeuristicMpl(double current_mpl,
                                      double current_util) const {
  // Average the utilization-vs-MPL history through a fitted line and read
  // it at the current MPL; fall back to the instantaneous reading while
  // the line is degenerate.
  double util = util_fit_.CanFit() ? util_fit_.ValueAt(current_mpl)
                                   : current_util;
  util = std::clamp(util, 0.02, 1.0);
  double mid = (params_.util_low + params_.util_high) / 2.0;
  double mpl = mid / util * std::max(current_mpl, 1.0);
  int64_t rounded = static_cast<int64_t>(std::llround(mpl));
  return std::clamp<int64_t>(rounded, 1, params_.max_mpl);
}

void PmmController::Adapt() {
  SystemProbe::Readings readings = probe_->TakeReadings();
  double bottleneck = std::max(readings.cpu_utilization,
                               readings.avg_disk_utilization);
  double miss_ratio = static_cast<double>(batch_.misses) /
                      static_cast<double>(batch_.completions);

  TracePoint point;
  point.time = readings.now;
  point.mode = mode_;
  point.target_mpl = target_mpl_;
  point.batch_miss_ratio = miss_ratio;
  point.realized_mpl = readings.realized_mpl;
  point.bottleneck_utilization = bottleneck;

  // --- workload-change detection (Section 3.3) -------------------------
  if (DetectWorkloadChange()) {
    ++workload_changes_;
    point.workload_change = true;
    prev_max_memory_ = batch_.max_memory;
    prev_operand_ios_ = batch_.operand_ios;
    prev_normalized_tc_ = batch_.normalized_tc;
    Restart();
    point.mode = mode_;
    point.target_mpl = target_mpl_;
    trace_.push_back(point);
    OnBatchAdapted(point);
    batch_.Reset();
    return;
  }
  prev_max_memory_ = batch_.max_memory;
  prev_operand_ios_ = batch_.operand_ios;
  prev_normalized_tc_ = batch_.normalized_tc;
  have_prev_characteristics_ = true;

  if (mode_ == Mode::kMax) {
    // Track what Max mode actually achieves; the revert test needs it.
    max_mode_realized_mpl_.Add(readings.realized_mpl);
    util_fit_.Add(readings.realized_mpl, bottleneck);

    // Switch to MinMax iff all four conditions of Section 3.2 hold.
    bool missed = batch_.misses > 0;
    bool under_utilized = readings.cpu_utilization < params_.util_low &&
                          readings.avg_disk_utilization < params_.util_low;
    bool waiting = stats::MeanExceeds(batch_.waits, 0.0,
                                      params_.adapt_conf_level);
    bool feasible = stats::MeanExceeds(batch_.slack_minus_exec, 0.0,
                                       params_.adapt_conf_level);
    if (missed && under_utilized && waiting && feasible) {
      mode_ = Mode::kMinMax;
      target_mpl_ =
          params_.disable_ru_heuristic
              ? std::max<int64_t>(
                    static_cast<int64_t>(
                        std::llround(readings.realized_mpl)) + 1,
                    2)
              : RuHeuristicMpl(readings.realized_mpl, bottleneck);
      InstallStrategy();
    }
  } else {
    // --- MinMax mode: admission control (Section 3.1) -------------------
    double mpl_x = params_.fit_realized_mpl
                       ? readings.realized_mpl
                       : static_cast<double>(target_mpl_);
    miss_fit_.Add(mpl_x, miss_ratio);
    util_fit_.Add(mpl_x, bottleneck);

    int64_t new_target = target_mpl_;
    bool projected = false;
    if (!params_.disable_projection && miss_fit_.count() >= 3 &&
        miss_fit_.Fit()) {
      stats::CurveType curve = miss_fit_.Classify();
      point.curve = curve;
      int64_t lo = static_cast<int64_t>(std::llround(miss_fit_.min_x()));
      int64_t hi = static_cast<int64_t>(std::llround(miss_fit_.max_x()));
      switch (curve) {
        case stats::CurveType::kBowl: {
          new_target = static_cast<int64_t>(std::llround(
              miss_fit_.Vertex()));
          projected = true;
          break;
        }
        case stats::CurveType::kDecreasing: {
          // Optimum lies above the tried range; step one beyond it, or
          // further if the RU heuristic wants more.
          int64_t step = hi + 1;
          if (!params_.disable_ru_heuristic) {
            int64_t ru = RuHeuristicMpl(static_cast<double>(target_mpl_),
                                        bottleneck);
            if (ru > step) step = ru;
          }
          new_target = step;
          projected = true;
          break;
        }
        case stats::CurveType::kIncreasing: {
          int64_t step = lo - 1;
          if (!params_.disable_ru_heuristic) {
            int64_t ru = RuHeuristicMpl(static_cast<double>(target_mpl_),
                                        bottleneck);
            step = std::min(step, ru);
          }
          new_target = step;
          projected = true;
          break;
        }
        case stats::CurveType::kHill:
        case stats::CurveType::kUndetermined:
          break;  // fall through to the heuristic
      }
    }
    if (!projected) {
      if (!params_.disable_ru_heuristic) {
        new_target = RuHeuristicMpl(static_cast<double>(target_mpl_),
                                    bottleneck);
      }
      // else: keep the current target (projection-only ablation).
    }
    new_target = std::clamp<int64_t>(new_target, 1, params_.max_mpl);

    // --- revert test (Section 3.2) --------------------------------------
    double max_mode_avg = max_mode_realized_mpl_.count() > 0
                              ? max_mode_realized_mpl_.mean()
                              : 0.0;
    if (max_mode_realized_mpl_.count() > 0 &&
        static_cast<double>(new_target) <= max_mode_avg &&
        AllowRevertToMax(readings.now)) {
      mode_ = Mode::kMax;
      target_mpl_ = -1;
      InstallStrategy();
    } else if (new_target != target_mpl_) {
      target_mpl_ = new_target;
      InstallStrategy();
    }
  }

  point.mode = mode_;
  point.target_mpl = target_mpl_;
  trace_.push_back(point);
  OnBatchAdapted(point);
  batch_.Reset();
}

}  // namespace rtq::core
