#include "workload/trace_source.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/spec.h"
#include "workload/query_builder.h"

namespace rtq::workload {

namespace {

Status RecordError(size_t index, const std::string& what) {
  return Status::InvalidArgument("trace record " + std::to_string(index) +
                                 ": " + what);
}

/// Checks one record against the database layout and its class's spec;
/// `index` is only for error messages.
Status ValidateRecord(const QueryBlueprint& rec, size_t index,
                      const storage::Database& db,
                      const WorkloadSpec& workload,
                      const exec::ExecParams& exec_params,
                      const model::DiskParams& disk_params, double mips) {
  if (!std::isfinite(rec.time) || rec.time < 0.0)
    return RecordError(index, "bad arrival time");
  if (rec.query_class < 0 ||
      rec.query_class >= static_cast<int32_t>(workload.classes.size()))
    return RecordError(index, "class out of range");
  const QueryClassSpec& cls =
      workload.classes[static_cast<size_t>(rec.query_class)];
  if (rec.type != cls.type)
    return RecordError(index, "query type does not match class " +
                                  std::to_string(rec.query_class));
  if (!std::isfinite(rec.slack) || rec.slack <= 0.0)
    return RecordError(index, "bad slack ratio");

  auto num_relations = static_cast<storage::RelationId>(db.relations().size());
  if (rec.r < 0 || rec.r >= num_relations)
    return RecordError(index, "unknown relation id " + std::to_string(rec.r));
  const storage::Relation& r = db.relation(rec.r);

  if (rec.type == exec::QueryType::kHashJoin) {
    if (rec.s < 0 || rec.s >= num_relations)
      return RecordError(index,
                         "unknown relation id " + std::to_string(rec.s));
    const storage::Relation& s = db.relation(rec.s);
    if (r.pages > s.pages)
      return RecordError(index, "join inner relation larger than outer");
    bool groups_ok = (r.group == cls.rel_groups[0] &&
                      s.group == cls.rel_groups[1]) ||
                     (r.group == cls.rel_groups[1] &&
                      s.group == cls.rel_groups[0]);
    if (!groups_ok)
      return RecordError(index, "operands not drawn from class " +
                                    std::to_string(rec.query_class) +
                                    "'s relation groups");
  } else {
    if (rec.s >= 0)
      return RecordError(index, "sort record with outer relation");
    if (r.group != cls.rel_groups[0])
      return RecordError(index, "operand not drawn from class " +
                                    std::to_string(rec.query_class) +
                                    "'s relation group");
  }

  // A stored stand-alone time must match the cost model exactly: the
  // field exists for portability, not to override deadline semantics, so
  // any disagreement means the trace and this build disagree and the
  // replay would not be an oracle.
  if (std::isnan(rec.standalone)) return Status::Ok();
  const SimTime estimate =
      EstimateStandalone(rec, db, exec_params, disk_params, mips).total();
  if (rec.standalone != estimate)
    return RecordError(index, "stand-alone time " +
                                  FormatDouble(rec.standalone) +
                                  " disagrees with cost model " +
                                  FormatDouble(estimate));
  return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<TraceSource>> TraceSource::Create(
    sim::Simulator* sim, const storage::Database* db,
    const WorkloadSpec& workload, const exec::ExecParams& exec_params,
    const model::DiskParams& disk_params, double mips,
    std::shared_ptr<const Trace> trace, Sink sink) {
  RTQ_CHECK(sim != nullptr && db != nullptr);
  RTQ_CHECK(sink != nullptr);
  if (trace == nullptr) return Status::InvalidArgument("trace: null");
  Status st = workload.Validate(*db);
  if (!st.ok()) return st;
  if (trace->num_classes != static_cast<int32_t>(workload.classes.size()))
    return Status::InvalidArgument(
        "trace: declares " + std::to_string(trace->num_classes) +
        " classes, workload has " +
        std::to_string(workload.classes.size()));

  SimTime last_time = 0.0;
  for (size_t i = 0; i < trace->records.size(); ++i) {
    const QueryBlueprint& rec = trace->records[i];
    st = ValidateRecord(rec, i, *db, workload, exec_params, disk_params,
                        mips);
    if (!st.ok()) return st;
    if (i > 0 && rec.time < last_time)
      return RecordError(i, "out-of-order arrival time");
    last_time = rec.time;
  }

  return std::unique_ptr<TraceSource>(
      new TraceSource(sim, std::move(trace), std::move(sink)));
}

TraceSource::TraceSource(sim::Simulator* sim,
                         std::shared_ptr<const Trace> trace, Sink sink)
    : sim_(sim), trace_(std::move(trace)), sink_(std::move(sink)) {}

void TraceSource::Start() {
  RTQ_CHECK_MSG(!started_, "TraceSource started twice");
  started_ = true;
  ScheduleNext();
}

void TraceSource::AppendStateDigest(std::vector<std::string>* out) const {
  out->push_back("source trace " + std::to_string(next_id_) + " " +
                 std::to_string(cursor_) + " " +
                 std::to_string(stopped_ ? 1 : 0));
}

void TraceSource::ScheduleNext() {
  if (cursor_ >= trace_->records.size()) return;
  sim_->ScheduleAt(trace_->records[cursor_].time, [this] {
    if (stopped_) return;
    sink_(trace_->records[cursor_++], next_id_++);
    ScheduleNext();
  });
}

}  // namespace rtq::workload
