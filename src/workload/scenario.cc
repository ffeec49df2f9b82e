#include "workload/scenario.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/fnv.h"
#include "common/spec.h"

namespace rtq::workload {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// The shape's maximum instantaneous rate — the thinning envelope.
double RateMax(const ArrivalShape& shape) {
  switch (shape.kind) {
    case ShapeKind::kConstant:
      return shape.rate;
    case ShapeKind::kDiurnal:
      return shape.rate * (1.0 + shape.amplitude);
    case ShapeKind::kFlash:
      return shape.rate * shape.flash_multiplier;
    case ShapeKind::kMarkov:
      return std::max(shape.rate_lo, shape.rate_hi);
    case ShapeKind::kScript:
      return 0.0;  // unused; scripts draw directly per segment
  }
  return 0.0;
}

}  // namespace

Status ArrivalShape::Validate() const {
  switch (kind) {
    case ShapeKind::kConstant:
      if (rate < 0.0)
        return Status::InvalidArgument("constant shape: rate must be >= 0");
      return Status::Ok();
    case ShapeKind::kDiurnal:
      if (rate <= 0.0)
        return Status::InvalidArgument("diurnal shape: rate must be > 0");
      if (amplitude < 0.0 || amplitude > 1.0)
        return Status::InvalidArgument(
            "diurnal shape: amplitude must be in [0, 1]");
      if (period <= 0.0)
        return Status::InvalidArgument("diurnal shape: period must be > 0");
      return Status::Ok();
    case ShapeKind::kFlash:
      if (rate <= 0.0)
        return Status::InvalidArgument("flash shape: rate must be > 0");
      if (flash_multiplier < 1.0)
        return Status::InvalidArgument(
            "flash shape: multiplier must be >= 1");
      if (flash_at < 0.0 || flash_duration < 0.0 || flash_decay <= 0.0)
        return Status::InvalidArgument(
            "flash shape: at/dur must be >= 0 and decay > 0");
      return Status::Ok();
    case ShapeKind::kMarkov:
      if (rate_lo < 0.0 || rate_hi < 0.0 ||
          std::max(rate_lo, rate_hi) <= 0.0)
        return Status::InvalidArgument(
            "markov shape: rates must be >= 0 with max > 0");
      if (sojourn_lo <= 0.0 || sojourn_hi <= 0.0)
        return Status::InvalidArgument(
            "markov shape: mean sojourns must be > 0");
      return Status::Ok();
    case ShapeKind::kScript:
      if (script.empty())
        return Status::InvalidArgument("script shape: no steps");
      if (script.front().at != 0.0)
        return Status::InvalidArgument(
            "script shape: first step must be at time 0");
      for (size_t i = 0; i < script.size(); ++i) {
        if (script[i].rate < 0.0)
          return Status::InvalidArgument(
              "script shape: rates must be >= 0");
        if (i > 0 && script[i].at <= script[i - 1].at)
          return Status::InvalidArgument(
              "script shape: step times must be strictly increasing");
      }
      return Status::Ok();
  }
  return Status::InvalidArgument("script shape: unknown kind");
}

Status ScenarioSpec::Validate(const WorkloadSpec& workload) const {
  if (classes.size() != workload.classes.size())
    return Status::InvalidArgument(
        "scenario '" + name + "' addresses " +
        std::to_string(classes.size()) + " classes, workload has " +
        std::to_string(workload.classes.size()));
  for (size_t i = 0; i < classes.size(); ++i) {
    Status st = classes[i].shape.Validate();
    if (!st.ok())
      return Status::InvalidArgument("scenario '" + name + "' class " +
                                     std::to_string(i) + ": " +
                                     st.message());
    if (classes[i].selection.pareto && classes[i].selection.alpha <= 0.0)
      return Status::InvalidArgument("scenario '" + name + "' class " +
                                     std::to_string(i) +
                                     ": pareto alpha must be > 0");
  }
  return Status::Ok();
}

ScenarioSpec PoissonScenario(const WorkloadSpec& workload) {
  ScenarioSpec spec;
  spec.name = "poisson";
  for (const QueryClassSpec& cls : workload.classes) {
    ScenarioClassSpec c;
    c.shape.kind = ShapeKind::kConstant;
    c.shape.rate = cls.arrival_rate;
    spec.classes.push_back(c);
  }
  return spec;
}

// ---------------------------------------------------------------------------
// ArrivalProcess
// ---------------------------------------------------------------------------

ArrivalProcess::ArrivalProcess(const ArrivalShape& shape, Rng arrivals)
    : shape_(shape), arrivals_(std::move(arrivals)), chain_(0) {}

void ArrivalProcess::SetChain(Rng chain) { chain_ = std::move(chain); }

double ArrivalProcess::RateAt(SimTime t) {
  switch (shape_.kind) {
    case ShapeKind::kDiurnal:
      return shape_.rate *
             (1.0 + shape_.amplitude * std::sin(kTwoPi * t / shape_.period));
    case ShapeKind::kFlash: {
      if (t < shape_.flash_at) return shape_.rate;
      SimTime burst_end = shape_.flash_at + shape_.flash_duration;
      if (t < burst_end) return shape_.rate * shape_.flash_multiplier;
      return shape_.rate * (1.0 + (shape_.flash_multiplier - 1.0) *
                                      std::exp(-(t - burst_end) /
                                               shape_.flash_decay));
    }
    case ShapeKind::kMarkov: {
      if (!chain_started_) {
        chain_started_ = true;
        chain_hi_ = false;
        chain_switch_ = chain_.Exponential(1.0 / shape_.sojourn_lo);
      }
      while (chain_switch_ <= t) {
        chain_hi_ = !chain_hi_;
        chain_switch_ += chain_.Exponential(
            1.0 / (chain_hi_ ? shape_.sojourn_hi : shape_.sojourn_lo));
      }
      return chain_hi_ ? shape_.rate_hi : shape_.rate_lo;
    }
    case ShapeKind::kConstant:
    case ShapeKind::kScript:
      break;  // handled without thinning
  }
  return shape_.rate;
}

std::optional<SimTime> ArrivalProcess::NextThinned() {
  double rate_max = RateMax(shape_);
  if (rate_max <= 0.0) return std::nullopt;
  while (true) {
    now_ += arrivals_.Exponential(rate_max);
    double u = arrivals_.NextDouble();
    if (u * rate_max < RateAt(now_)) return now_;
  }
}

std::optional<SimTime> ArrivalProcess::NextScripted() {
  while (true) {
    // Advance to the segment containing now_.
    while (step_ + 1 < shape_.script.size() &&
           shape_.script[step_ + 1].at <= now_) {
      ++step_;
    }
    double rate = shape_.script[step_].rate;
    bool last = step_ + 1 == shape_.script.size();
    if (rate <= 0.0) {
      if (last) return std::nullopt;  // silent forever
      now_ = shape_.script[step_ + 1].at;
      ++step_;
      continue;
    }
    SimTime candidate = now_ + arrivals_.Exponential(rate);
    SimTime segment_end =
        last ? kNoDeadline : shape_.script[step_ + 1].at;
    if (candidate <= segment_end) {
      now_ = candidate;
      return now_;
    }
    // The draw falls past the segment end: it stays consumed (the pinned
    // Section 5.3 trajectories depend on that) and generation resumes
    // at the next segment.
    now_ = segment_end;
    ++step_;
  }
}

std::optional<SimTime> ArrivalProcess::Next() {
  switch (shape_.kind) {
    case ShapeKind::kConstant:
      if (shape_.rate <= 0.0) return std::nullopt;
      now_ += arrivals_.Exponential(shape_.rate);
      return now_;
    case ShapeKind::kScript:
      return NextScripted();
    case ShapeKind::kDiurnal:
    case ShapeKind::kFlash:
    case ShapeKind::kMarkov:
      return NextThinned();
  }
  return std::nullopt;
}

void ArrivalProcess::AppendDigest(std::string* out) const {
  *out += FormatDouble(now_);
  *out += " " + std::to_string(step_);
  *out += " " + std::to_string(chain_started_ ? 1 : 0);
  *out += " " + std::to_string(chain_hi_ ? 1 : 0);
  *out += " " + FormatDouble(chain_switch_);
  *out += " " + std::to_string(Fnv1a64Hash(arrivals_.StateString()));
  *out += " " + std::to_string(Fnv1a64Hash(chain_.StateString()));
}

// ---------------------------------------------------------------------------
// ScenarioSource
// ---------------------------------------------------------------------------

ScenarioSource::ScenarioSource(sim::Simulator* sim,
                               const storage::Database* db,
                               const WorkloadSpec& workload,
                               const ScenarioSpec& scenario, Rng rng,
                               Sink sink)
    : sim_(sim),
      db_(db),
      workload_(workload),
      scenario_(scenario),
      sink_(std::move(sink)) {
  RTQ_CHECK(sim != nullptr && db != nullptr);
  RTQ_CHECK_MSG(workload_.Validate(*db).ok(), "invalid workload spec");
  RTQ_CHECK_MSG(scenario_.Validate(workload_).ok(), "invalid scenario spec");
  RTQ_CHECK(sink_ != nullptr);
  // Fork order: arrivals, then selection, per class in index order; the
  // Markov chain streams afterwards. The golden-trajectory and smoke
  // references pin this order, so it must not change.
  class_state_.reserve(scenario_.classes.size());
  for (const ScenarioClassSpec& cls : scenario_.classes) {
    auto process = std::make_unique<ArrivalProcess>(cls.shape, rng.Fork());
    class_state_.push_back(ClassState{std::move(process), rng.Fork()});
  }
  for (size_t i = 0; i < scenario_.classes.size(); ++i) {
    if (scenario_.classes[i].shape.kind == ShapeKind::kMarkov)
      class_state_[i].process->SetChain(rng.Fork());
  }
}

void ScenarioSource::Start() {
  RTQ_CHECK_MSG(!started_, "ScenarioSource started twice");
  started_ = true;
  t0_ = sim_->Now();
  for (size_t i = 0; i < class_state_.size(); ++i) {
    ScheduleNext(static_cast<int32_t>(i));
  }
}

void ScenarioSource::Stop() { stopped_ = true; }

void ScenarioSource::set_first_query_id(QueryId id) {
  RTQ_CHECK_MSG(!started_, "set_first_query_id after Start");
  next_id_ = id;
}

void ScenarioSource::AppendStateDigest(std::vector<std::string>* out) const {
  out->push_back("source scenario " + std::to_string(next_id_) + " " +
                 FormatDouble(t0_) + " " +
                 std::to_string(stopped_ ? 1 : 0));
  for (size_t i = 0; i < class_state_.size(); ++i) {
    std::string line = "source.class " + std::to_string(i) + " ";
    class_state_[i].process->AppendDigest(&line);
    line += " " + std::to_string(
                      Fnv1a64Hash(class_state_[i].selection.StateString()));
    out->push_back(std::move(line));
  }
}

void ScenarioSource::ScheduleNext(int32_t query_class) {
  std::optional<SimTime> next =
      class_state_[static_cast<size_t>(query_class)].process->Next();
  if (!next.has_value()) return;
  sim_->ScheduleAt(t0_ + *next, [this, query_class] {
    if (stopped_) return;
    EmitQuery(query_class);
    ScheduleNext(query_class);
  });
}

void ScenarioSource::EmitQuery(int32_t query_class) {
  ClassState& state = class_state_[static_cast<size_t>(query_class)];
  QueryBlueprint bp = DrawBlueprint(
      workload_.classes[static_cast<size_t>(query_class)], query_class,
      sim_->Now(), *db_, &state.selection,
      scenario_.classes[static_cast<size_t>(query_class)].selection);
  sink_(bp, next_id_++);
}

}  // namespace rtq::workload
