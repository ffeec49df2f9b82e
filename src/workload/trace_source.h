// TraceSource: replays a `.rtqt` trace through the ArrivalSource seam.
//
// Replay consumes no randomness at all — every arrival is fully resolved
// in the trace — so a trace rendered from a scenario
// (engine::RenderScenarioTrace) and
// replayed here reproduces the generating run's engine trajectory
// bit-identically. Create() validates the trace against the database
// layout and workload spec up front (class/type/relation consistency,
// stand-alone times matching the cost model), returning Status errors
// for any mismatch rather than failing mid-simulation.

#ifndef RTQ_WORKLOAD_TRACE_SOURCE_H_
#define RTQ_WORKLOAD_TRACE_SOURCE_H_

#include <memory>

#include "common/status.h"
#include "common/types.h"
#include "exec/cost_model.h"
#include "model/disk_geometry.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "workload/arrival_source.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace rtq::workload {

class TraceSource : public ArrivalSource {
 public:
  /// Validates `trace` against the database and workload, then builds the
  /// replay source. Errors: class-count mismatch, class out of range,
  /// query type not matching the class, unknown relation ids, operands
  /// from the wrong relation groups, a join inner larger than its outer,
  /// or a stored stand-alone time that disagrees with the cost model.
  static StatusOr<std::unique_ptr<TraceSource>> Create(
      sim::Simulator* sim, const storage::Database* db,
      const WorkloadSpec& workload, const exec::ExecParams& exec_params,
      const model::DiskParams& disk_params, double mips,
      std::shared_ptr<const Trace> trace, Sink sink);

  void Start() override;
  void Stop() override { stopped_ = true; }
  int64_t generated() const override {
    return static_cast<int64_t>(next_id_);
  }
  void AppendStateDigest(std::vector<std::string>* out) const override;
  const Trace& trace() const { return *trace_; }

 private:
  TraceSource(sim::Simulator* sim, std::shared_ptr<const Trace> trace,
              Sink sink);

  void ScheduleNext();

  sim::Simulator* sim_;
  std::shared_ptr<const Trace> trace_;
  Sink sink_;

  size_t cursor_ = 0;
  QueryId next_id_ = 0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace rtq::workload

#endif  // RTQ_WORKLOAD_TRACE_SOURCE_H_
