// Workload model (paper Section 4.1, Table 2).
//
// A workload is a set of query classes. Each class draws operand
// relations from database relation groups, submits queries as a Poisson
// process, and assigns each query a slack ratio uniform in
// [slack_min, slack_max] that controls deadline tightness.
//
// Time-varying per-class rates, such as the workload alternation of
// Section 5.3 (Figures 12-14), are scenario shapes (workload/scenario.h)
// layered over these classes. Validate() checks a spec against the
// database layout (sorts name one relation group, joins two, groups
// exist, rates positive) before an arrival source will accept it — a
// config error fails fast at Rtdbs::Create rather than mid-simulation.

#ifndef RTQ_WORKLOAD_WORKLOAD_SPEC_H_
#define RTQ_WORKLOAD_WORKLOAD_SPEC_H_

#include <vector>

#include "common/status.h"
#include "exec/query.h"
#include "storage/database.h"

namespace rtq::workload {

struct QueryClassSpec {
  exec::QueryType type = exec::QueryType::kHashJoin;
  /// Operand relation group(s): one group for sorts, two for joins. A
  /// join picks one relation from each group; the smaller becomes the
  /// inner (building) relation.
  std::vector<int32_t> rel_groups;
  /// Poisson arrival rate in queries/second.
  double arrival_rate = 0.05;
  /// Slack-ratio range (uniform).
  double slack_min = 2.5;
  double slack_max = 7.5;
};

struct WorkloadSpec {
  std::vector<QueryClassSpec> classes;

  Status Validate(const storage::Database& db) const;
};

}  // namespace rtq::workload

#endif  // RTQ_WORKLOAD_WORKLOAD_SPEC_H_
