// The Source module: generates the query stream (paper Figure 2, §4.1).
//
// For each class, arrivals follow a Poisson process. On each
// arrival the Source picks operand relations from the class's relation
// groups, builds the memory-adaptive operator, estimates the stand-alone
// time, draws a slack ratio, and assigns the firm deadline
//
//   Deadline = Arrival + StandAlone * SlackRatio.
//
// The constructed (descriptor, operator) pair is handed to the engine
// through a sink callback. Non-stationary or scripted per-class rates
// (such as the Section 5.3 workload alternation) are the scenario
// engine's job (workload/scenario.h).

#ifndef RTQ_WORKLOAD_SOURCE_H_
#define RTQ_WORKLOAD_SOURCE_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "exec/cost_model.h"
#include "exec/operator.h"
#include "exec/query.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "workload/arrival_source.h"
#include "workload/workload_spec.h"

namespace rtq::workload {

class Source : public ArrivalSource {
 public:
  Source(sim::Simulator* sim, const storage::Database* db,
         const WorkloadSpec& spec, const exec::ExecParams& exec_params,
         const model::DiskParams& disk_params, double mips, Rng rng,
         Sink sink);

  /// Begins generating arrivals for every class.
  void Start() override;

  /// Silences the source for good; pending arrival events fire as
  /// no-ops.
  void Stop() override { stopped_ = true; }

  int64_t generated() const override {
    return static_cast<int64_t>(next_id_);
  }

  void AppendStateDigest(std::vector<std::string>* out) const override;

 private:
  void ScheduleNextArrival(int32_t query_class);
  void EmitQuery(int32_t query_class);

  sim::Simulator* sim_;
  const storage::Database* db_;
  WorkloadSpec spec_;
  exec::ExecParams exec_params_;
  model::DiskParams disk_params_;
  double mips_;
  Sink sink_;

  struct ClassState {
    Rng arrivals;   // inter-arrival stream
    Rng selection;  // relation & slack stream
  };
  std::vector<ClassState> class_state_;
  QueryId next_id_ = 0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace rtq::workload

#endif  // RTQ_WORKLOAD_SOURCE_H_
