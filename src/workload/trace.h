// The `.rtqt` deterministic workload trace format (version 1).
//
// A trace is the randomness-free record of one generated arrival stream:
// replaying it through TraceSource reproduces the exact query sequence —
// and therefore the exact engine trajectory — of the run that generated
// it, which makes traces both a portable workload format and a byte-exact
// replay-testing oracle.
//
// Grammar (line-oriented text read by LineReader, common/file.h: '#'
// starts a comment, blank lines are ignored, tokens are separated by
// spaces or tabs):
//
//   trace    := header record*
//   header   := "rtqt 1" NL
//               "classes" INT NL          (number of workload classes)
//               "scenario" TEXT NL        ("-" when not generator-made)
//               "seed" UINT NL
//               "records" INT NL          (record count; truncation check)
//   record   := "q" TIME CLASS TYPE R S SLACK STANDALONE NL
//   TYPE     := "join" | "sort"
//   S        := relation id | "-"         ("-" for sorts)
//   STANDALONE := seconds | "-"           ("-" = recompute at replay)
//
// Doubles are serialized with the shortest representation that parses
// back to the identical bit pattern, so Parse(Serialize(t)) == t is a
// fixed point. Record times must be non-decreasing; all structural and
// range violations surface as Status errors, never crashes.

#ifndef RTQ_WORKLOAD_TRACE_H_
#define RTQ_WORKLOAD_TRACE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "exec/query.h"
#include "storage/relation.h"

namespace rtq::workload {

/// One arrival: the serialized form of a QueryBlueprint (minus the
/// fields derivable from the database layout).
struct TraceRecord {
  SimTime time = 0.0;
  int32_t query_class = 0;
  exec::QueryType type = exec::QueryType::kHashJoin;
  storage::RelationId r = -1;
  /// -1 for sorts (serialized as "-").
  storage::RelationId s = -1;
  double slack = 1.0;
  /// NaN = "recompute from the relations at replay" (serialized as "-").
  double standalone = std::numeric_limits<double>::quiet_NaN();
};

struct Trace {
  /// Format version; only 1 exists.
  int32_t version = 1;
  /// Number of workload classes the trace addresses; every record's
  /// query_class is in [0, num_classes).
  int32_t num_classes = 0;
  /// Canonical scenario spec that generated the trace ("" for ad-hoc /
  /// hand-written traces; serialized as "-").
  std::string scenario;
  /// Master seed of the generating run (informational).
  uint64_t seed = 0;
  std::vector<TraceRecord> records;
};

/// Exact equality; NaN standalone compares equal to NaN.
bool operator==(const TraceRecord& a, const TraceRecord& b);
bool operator!=(const TraceRecord& a, const TraceRecord& b);
bool operator==(const Trace& a, const Trace& b);
bool operator!=(const Trace& a, const Trace& b);

/// Shortest decimal rendering of `v` that strtod parses back to the
/// identical double — the serializer's number format, also used for
/// canonical scenario spec strings.
std::string FormatDouble(double v);

std::string SerializeTrace(const Trace& trace);

/// Parses `.rtqt` text. Malformed input — bad or missing version header,
/// truncated lines, non-numeric fields, out-of-order times, classes out
/// of range, record-count mismatch — returns an InvalidArgument Status
/// naming the offending line.
StatusOr<Trace> ParseTrace(const std::string& text);

Status WriteTraceFile(const Trace& trace, const std::string& path);
StatusOr<Trace> ReadTraceFile(const std::string& path);

}  // namespace rtq::workload

#endif  // RTQ_WORKLOAD_TRACE_H_
