// The shared arrival-construction path.
//
// Every arrival — live generation (scenario.h) or trace replay
// (trace_source.h) — goes through the same two steps so that the two
// paths are behaviourally interchangeable:
//
//   1. DrawBlueprint consumes the class's selection Rng (slack ratio
//      first, then the operand relation picks — the draw order the
//      golden-trajectory tests pin) and produces a QueryBlueprint: the
//      fully-resolved, randomness-free description of one arrival.
//   2. BuildQuery turns a blueprint into the (QueryDescriptor, Operator)
//      pair the engine consumes, recomputing the stand-alone estimate
//      from the operand relations unless the blueprint carries one.
//
// A blueprint is one `.rtqt` trace record (Trace::records holds them),
// so generation and replay are bit-identical by construction.

#ifndef RTQ_WORKLOAD_QUERY_BUILDER_H_
#define RTQ_WORKLOAD_QUERY_BUILDER_H_

#include <limits>
#include <memory>

#include "common/arena.h"
#include "common/rng.h"
#include "common/types.h"
#include "exec/cost_model.h"
#include "exec/operator.h"
#include "exec/query.h"
#include "exec/standalone.h"
#include "model/disk_geometry.h"
#include "storage/database.h"
#include "workload/workload_spec.h"

namespace rtq::workload {

/// How DrawBlueprint picks operand relations from a relation group.
struct SelectionSpec {
  /// false: uniform over the group (the paper's model). true: a bounded
  /// Pareto(alpha) draw mapped onto the group's relations sorted by size
  /// ascending — mostly the small relations, with a heavy tail of the
  /// large ones ("Pareto-tailed operand sizes").
  bool pareto = false;
  double alpha = 1.5;
};

/// One fully-resolved arrival: no randomness left, ready to build.
struct QueryBlueprint {
  SimTime time = 0.0;
  int32_t query_class = -1;
  exec::QueryType type = exec::QueryType::kHashJoin;
  /// Operand relations: r is the inner/build (or sort) relation, already
  /// resolved to the smaller of the two picks for joins; s is the
  /// outer/probe relation (-1 for sorts).
  storage::RelationId r = -1;
  storage::RelationId s = -1;
  double slack = 1.0;
  /// Stand-alone time; NaN means "recompute from the relations" (the
  /// recomputation is a pure function, so stored and recomputed values
  /// agree for any trace this code generated).
  double standalone = std::numeric_limits<double>::quiet_NaN();
};

/// Exact equality; a NaN stand-alone time compares equal to NaN.
bool operator==(const QueryBlueprint& a, const QueryBlueprint& b);
bool operator!=(const QueryBlueprint& a, const QueryBlueprint& b);

struct BuiltQuery {
  exec::QueryDescriptor desc;
  std::unique_ptr<exec::Operator> op;
};

/// Arena-owned variant: the operator lives in (and is finalized by) the
/// caller's arena, so building a query performs no heap allocation.
struct BuiltQueryRefs {
  exec::QueryDescriptor desc;
  exec::Operator* op = nullptr;
};

/// Draws one arrival for `cls` at time `now`, consuming `selection` in
/// the canonical order (slack, then relation picks).
QueryBlueprint DrawBlueprint(const QueryClassSpec& cls, int32_t query_class,
                             SimTime now, const storage::Database& db,
                             Rng* selection,
                             const SelectionSpec& sel = SelectionSpec{});

/// The blueprint's stand-alone estimate at maximum memory, from its
/// operand relations (which must exist in `db`); blueprint.standalone is
/// not read. BuildQuery's deadlines, the times RenderScenarioTrace
/// stores and TraceSource's check of them all come from here.
exec::StandaloneEstimate EstimateStandalone(
    const QueryBlueprint& blueprint, const storage::Database& db,
    const exec::ExecParams& exec_params, const model::DiskParams& disk_params,
    double mips);

/// Materializes the (descriptor, operator) pair for a blueprint. `id` is
/// the engine-wide sequential query id.
BuiltQuery BuildQuery(const QueryBlueprint& blueprint, QueryId id,
                      const storage::Database& db,
                      const exec::ExecParams& exec_params,
                      const model::DiskParams& disk_params, double mips);

/// Same construction, but the operator (and its scratch) is placed in
/// `arena`. The descriptor computation is a pure function, so the two
/// variants produce bit-identical descriptors.
BuiltQueryRefs BuildQueryInArena(const QueryBlueprint& blueprint, QueryId id,
                                 const storage::Database& db,
                                 const exec::ExecParams& exec_params,
                                 const model::DiskParams& disk_params,
                                 double mips, Arena* arena);

}  // namespace rtq::workload

#endif  // RTQ_WORKLOAD_QUERY_BUILDER_H_
