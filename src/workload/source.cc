#include "workload/source.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "common/fnv.h"
#include "workload/query_builder.h"

namespace rtq::workload {

Source::Source(sim::Simulator* sim, const storage::Database* db,
               const WorkloadSpec& spec,
               const exec::ExecParams& exec_params,
               const model::DiskParams& disk_params, double mips, Rng rng,
               Sink sink)
    : sim_(sim),
      db_(db),
      spec_(spec),
      exec_params_(exec_params),
      disk_params_(disk_params),
      mips_(mips),
      sink_(std::move(sink)) {
  RTQ_CHECK(sim != nullptr && db != nullptr);
  RTQ_CHECK_MSG(spec_.Validate(*db).ok(), "invalid workload spec");
  RTQ_CHECK(sink_ != nullptr);
  class_state_.reserve(spec_.classes.size());
  for (size_t i = 0; i < spec_.classes.size(); ++i) {
    // Braced init evaluates the two Fork() calls left to right.
    class_state_.push_back(ClassState{rng.Fork(), rng.Fork()});
  }
}

void Source::Start() {
  RTQ_CHECK_MSG(!started_, "Source started twice");
  started_ = true;
  for (size_t i = 0; i < class_state_.size(); ++i) {
    ScheduleNextArrival(static_cast<int32_t>(i));
  }
}

void Source::AppendStateDigest(std::vector<std::string>* out) const {
  out->push_back("source poisson " + std::to_string(next_id_) + " " +
                 std::to_string(stopped_ ? 1 : 0));
  for (size_t i = 0; i < class_state_.size(); ++i) {
    const ClassState& s = class_state_[i];
    out->push_back("source.class " + std::to_string(i) + " " +
                   std::to_string(Fnv1a64Hash(s.arrivals.StateString())) +
                   " " +
                   std::to_string(Fnv1a64Hash(s.selection.StateString())));
  }
}

void Source::ScheduleNextArrival(int32_t query_class) {
  ClassState& state = class_state_[query_class];
  double delay =
      state.arrivals.Exponential(spec_.classes[query_class].arrival_rate);
  sim_->ScheduleAfter(delay, [this, query_class] {
    if (stopped_) return;  // silenced meanwhile
    EmitQuery(query_class);
    ScheduleNextArrival(query_class);
  });
}

void Source::EmitQuery(int32_t query_class) {
  ClassState& state = class_state_[query_class];
  QueryBlueprint bp =
      DrawBlueprint(spec_.classes[query_class], query_class, sim_->Now(),
                    *db_, &state.selection);
  sink_(bp, next_id_++);
}

}  // namespace rtq::workload
