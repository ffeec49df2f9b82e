#include "workload/query_builder.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "exec/external_sort.h"
#include "exec/hash_join.h"

namespace rtq::workload {

namespace {

const storage::Relation& PickUniform(const storage::Database& db,
                                     int32_t group, Rng* rng) {
  const std::vector<storage::RelationId>& ids = db.RelationsInGroup(group);
  int64_t idx = rng->UniformInt(0, static_cast<int64_t>(ids.size()) - 1);
  return db.relation(ids[static_cast<size_t>(idx)]);
}

// Bounded Pareto(alpha) over [1, n+1) mapped onto the group's relations
// sorted by size ascending: index 0 (the smallest relation) is the most
// likely, with a heavy tail reaching the largest.
const storage::Relation& PickPareto(const storage::Database& db,
                                    int32_t group, double alpha, Rng* rng) {
  std::vector<storage::RelationId> ids = db.RelationsInGroup(group);
  std::sort(ids.begin(), ids.end(),
            [&db](storage::RelationId a, storage::RelationId b) {
              const storage::Relation& ra = db.relation(a);
              const storage::Relation& rb = db.relation(b);
              return ra.pages != rb.pages ? ra.pages < rb.pages : a < b;
            });
  double n = static_cast<double>(ids.size());
  double u = rng->NextDouble();
  double h_pow = std::pow(1.0 / (n + 1.0), alpha);
  double x = 1.0 / std::pow(1.0 - u * (1.0 - h_pow), 1.0 / alpha);
  auto idx = static_cast<int64_t>(x) - 1;
  idx = std::clamp<int64_t>(idx, 0, static_cast<int64_t>(ids.size()) - 1);
  return db.relation(ids[static_cast<size_t>(idx)]);
}

const storage::Relation& Pick(const storage::Database& db, int32_t group,
                              const SelectionSpec& sel, Rng* rng) {
  return sel.pareto ? PickPareto(db, group, sel.alpha, rng)
                    : PickUniform(db, group, rng);
}

}  // namespace

bool operator==(const QueryBlueprint& a, const QueryBlueprint& b) {
  auto same = [](double x, double y) {
    return x == y || (std::isnan(x) && std::isnan(y));
  };
  return same(a.time, b.time) && a.query_class == b.query_class &&
         a.type == b.type && a.r == b.r && a.s == b.s &&
         same(a.slack, b.slack) && same(a.standalone, b.standalone);
}
bool operator!=(const QueryBlueprint& a, const QueryBlueprint& b) {
  return !(a == b);
}

QueryBlueprint DrawBlueprint(const QueryClassSpec& cls, int32_t query_class,
                             SimTime now, const storage::Database& db,
                             Rng* selection, const SelectionSpec& sel) {
  QueryBlueprint bp;
  bp.time = now;
  bp.query_class = query_class;
  bp.type = cls.type;
  bp.slack = selection->Uniform(cls.slack_min, cls.slack_max);

  if (cls.type == exec::QueryType::kHashJoin) {
    const storage::Relation& a = Pick(db, cls.rel_groups[0], sel, selection);
    const storage::Relation& b = Pick(db, cls.rel_groups[1], sel, selection);
    // The smaller relation is the inner (building) relation R.
    bp.r = a.pages <= b.pages ? a.id : b.id;
    bp.s = a.pages <= b.pages ? b.id : a.id;
  } else {
    bp.r = Pick(db, cls.rel_groups[0], sel, selection).id;
  }
  return bp;
}

exec::StandaloneEstimate EstimateStandalone(
    const QueryBlueprint& blueprint, const storage::Database& db,
    const exec::ExecParams& exec_params, const model::DiskParams& disk_params,
    double mips) {
  const PageCount r_pages = db.relation(blueprint.r).pages;
  if (blueprint.type == exec::QueryType::kHashJoin) {
    return exec::EstimateHashJoin(exec_params, disk_params, mips, r_pages,
                                  db.relation(blueprint.s).pages);
  }
  return exec::EstimateExternalSort(exec_params, disk_params, mips, r_pages);
}

namespace {

// Shared construction core; `factory` decides where the operator lives
// (heap for BuildQuery, arena for BuildQueryInArena). Everything else —
// in particular the descriptor computation — is identical, which is what
// keeps live generation, trace replay, and the engine's arena path
// bit-identical to each other.
template <typename Factory>
exec::QueryDescriptor BuildCore(const QueryBlueprint& blueprint, QueryId id,
                                const storage::Database& db,
                                const exec::ExecParams& exec_params,
                                const model::DiskParams& disk_params,
                                double mips, Factory&& factory,
                                exec::Operator** out_op) {
  exec::QueryDescriptor desc;
  desc.id = id;
  desc.query_class = blueprint.query_class;
  desc.type = blueprint.type;
  desc.arrival = blueprint.time;
  desc.slack_ratio = blueprint.slack;

  if (blueprint.type == exec::QueryType::kHashJoin) {
    const storage::Relation& r = db.relation(blueprint.r);
    const storage::Relation& s = db.relation(blueprint.s);
    RTQ_CHECK_MSG(r.pages <= s.pages, "blueprint inner relation is larger");
    desc.r_relation = r.id;
    desc.s_relation = s.id;
    desc.operand_pages = r.pages + s.pages;

    exec::HashJoin::Inputs inputs;
    inputs.r_disk = r.disk;
    inputs.r_start = r.start_page;
    inputs.r_pages = r.pages;
    inputs.s_disk = s.disk;
    inputs.s_start = s.start_page;
    inputs.s_pages = s.pages;
    *out_op = factory.MakeJoin(exec_params, inputs);
  } else {
    const storage::Relation& r = db.relation(blueprint.r);
    desc.r_relation = r.id;
    desc.operand_pages = r.pages;

    exec::ExternalSort::Inputs inputs;
    inputs.disk = r.disk;
    inputs.start = r.start_page;
    inputs.pages = r.pages;
    *out_op = factory.MakeSort(exec_params, inputs);
  }

  const exec::StandaloneEstimate est =
      EstimateStandalone(blueprint, db, exec_params, disk_params, mips);
  desc.standalone_time =
      std::isnan(blueprint.standalone) ? est.total() : blueprint.standalone;
  desc.operand_io_requests = est.io_requests;
  desc.deadline = desc.arrival + desc.standalone_time * desc.slack_ratio;
  desc.max_memory = (*out_op)->max_memory();
  desc.min_memory = (*out_op)->min_memory();
  return desc;
}

struct HeapFactory {
  exec::Operator* MakeJoin(const exec::ExecParams& p,
                           const exec::HashJoin::Inputs& in) const {
    return new exec::HashJoin(p, in);
  }
  exec::Operator* MakeSort(const exec::ExecParams& p,
                           const exec::ExternalSort::Inputs& in) const {
    return new exec::ExternalSort(p, in);
  }
};

struct ArenaFactory {
  Arena* arena;
  exec::Operator* MakeJoin(const exec::ExecParams& p,
                           const exec::HashJoin::Inputs& in) const {
    return arena->New<exec::HashJoin>(p, in);
  }
  exec::Operator* MakeSort(const exec::ExecParams& p,
                           const exec::ExternalSort::Inputs& in) const {
    return arena->New<exec::ExternalSort>(p, in, arena);
  }
};

}  // namespace

BuiltQuery BuildQuery(const QueryBlueprint& blueprint, QueryId id,
                      const storage::Database& db,
                      const exec::ExecParams& exec_params,
                      const model::DiskParams& disk_params, double mips) {
  BuiltQuery built;
  exec::Operator* op = nullptr;
  built.desc = BuildCore(blueprint, id, db, exec_params, disk_params, mips,
                         HeapFactory{}, &op);
  built.op.reset(op);
  return built;
}

BuiltQueryRefs BuildQueryInArena(const QueryBlueprint& blueprint, QueryId id,
                                 const storage::Database& db,
                                 const exec::ExecParams& exec_params,
                                 const model::DiskParams& disk_params,
                                 double mips, Arena* arena) {
  BuiltQueryRefs built;
  built.desc = BuildCore(blueprint, id, db, exec_params, disk_params, mips,
                         ArenaFactory{arena}, &built.op);
  return built;
}

}  // namespace rtq::workload
