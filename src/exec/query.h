// Descriptor of a real-time query.
//
// Queries in the paper are single-operator plans — a hash join or an
// external sort — each with a firm deadline assigned at arrival time:
//
//   Deadline = Arrival + StandAlone * SlackRatio       (Section 4.1)
//
// where StandAlone is the query's execution time when run alone with its
// maximum memory allocation. A query that has not completed by its
// deadline is worthless and is aborted (firm RTDBS semantics).

#ifndef RTQ_EXEC_QUERY_H_
#define RTQ_EXEC_QUERY_H_

#include "common/types.h"
#include "storage/relation.h"

namespace rtq::exec {

enum class QueryType {
  kHashJoin,
  kExternalSort,
};

struct QueryDescriptor {
  QueryId id = kInvalidQueryId;
  /// Workload class this query was generated from (index into the
  /// workload spec); -1 for ad-hoc queries.
  int32_t query_class = -1;
  QueryType type = QueryType::kHashJoin;

  SimTime arrival = 0.0;
  SimTime deadline = kNoDeadline;
  double slack_ratio = 1.0;
  /// Estimated stand-alone execution time used for deadline assignment.
  SimTime standalone_time = 0.0;

  /// Operand relations: r is the inner/build (or sort) relation; s is the
  /// outer/probe relation (unused for sorts).
  storage::RelationId r_relation = -1;
  storage::RelationId s_relation = -1;

  /// Workload-characteristic inputs PMM monitors (Section 3.3).
  PageCount max_memory = 0;
  PageCount min_memory = 0;
  int64_t operand_io_requests = 0;
  PageCount operand_pages = 0;
};

}  // namespace rtq::exec

#endif  // RTQ_EXEC_QUERY_H_
