#include "workload/trace.h"

#include <cmath>
#include <limits>

#include "common/file.h"
#include "common/spec.h"

namespace rtq::workload {

namespace {

Status LineError(size_t line, const std::string& what) {
  return Status::InvalidArgument("trace line " + std::to_string(line) + ": " +
                                 what);
}

}  // namespace

bool operator==(const Trace& a, const Trace& b) {
  return a.version == b.version && a.num_classes == b.num_classes &&
         a.scenario == b.scenario && a.seed == b.seed &&
         a.records == b.records;
}
bool operator!=(const Trace& a, const Trace& b) { return !(a == b); }

std::string SerializeTrace(const Trace& trace) {
  std::string out;
  out += "rtqt " + std::to_string(trace.version) + "\n";
  out += "classes " + std::to_string(trace.num_classes) + "\n";
  out += "scenario " +
         (trace.scenario.empty() ? std::string("-") : trace.scenario) + "\n";
  out += "seed " + std::to_string(trace.seed) + "\n";
  out += "records " + std::to_string(trace.records.size()) + "\n";
  for (const QueryBlueprint& r : trace.records) {
    out += "q " + FormatDouble(r.time) + " " +
           std::to_string(r.query_class) + " " +
           (r.type == exec::QueryType::kHashJoin ? "join" : "sort") + " " +
           std::to_string(r.r) + " " +
           (r.s < 0 ? std::string("-") : std::to_string(r.s)) + " " +
           FormatDouble(r.slack) + " " +
           (std::isnan(r.standalone) ? std::string("-")
                                     : FormatDouble(r.standalone)) +
           "\n";
  }
  return out;
}

StatusOr<Trace> ParseTrace(const std::string& text) {
  Trace trace;
  LineReader in(text);

  // Header fields, in order; `records` declares the expected count.
  bool saw_version = false;
  bool saw_classes = false;
  bool saw_scenario = false;
  bool saw_seed = false;
  int64_t declared_records = -1;
  SimTime last_time = 0.0;

  while (in.Next()) {
    const size_t line_no = in.line_no();
    const size_t n = in.size();
    const std::string tag = in.Token(0);

    if (!saw_version) {
      if (tag != "rtqt" || n != 2)
        return LineError(line_no, "expected version header 'rtqt 1'");
      StatusOr<int64_t> version = SpecArgs::ToInt(in.Token(1));
      if (!version.ok())
        return LineError(line_no, "bad version number '" + in.Token(1) + "'");
      if (version.value() != 1)
        return LineError(line_no, "unsupported trace version " + in.Token(1));
      trace.version = 1;
      saw_version = true;
      continue;
    }

    if (tag == "classes") {
      StatusOr<int64_t> classes = SpecArgs::ToInt(in.Token(1));
      if (saw_classes || n != 2 || !classes.ok() || classes.value() <= 0 ||
          classes.value() > std::numeric_limits<int32_t>::max())
        return LineError(line_no, "bad 'classes' header");
      trace.num_classes = static_cast<int32_t>(classes.value());
      saw_classes = true;
      continue;
    }
    if (tag == "scenario") {
      if (saw_scenario || n < 2)
        return LineError(line_no, "bad 'scenario' header");
      // The scenario spec is the rest of the line (specs contain no
      // spaces today, but keep the field future-proof).
      trace.scenario = in.Rest(1);
      if (trace.scenario == "-") trace.scenario.clear();
      saw_scenario = true;
      continue;
    }
    if (tag == "seed") {
      StatusOr<uint64_t> seed = SpecArgs::ToUint(in.Token(1));
      if (saw_seed || n != 2 || !seed.ok())
        return LineError(line_no, "bad 'seed' header");
      trace.seed = seed.value();
      saw_seed = true;
      continue;
    }
    if (tag == "records") {
      StatusOr<int64_t> records = SpecArgs::ToInt(in.Token(1));
      if (declared_records >= 0 || n != 2 || !records.ok() ||
          records.value() < 0)
        return LineError(line_no, "bad 'records' header");
      declared_records = records.value();
      continue;
    }

    if (tag != "q")
      return LineError(line_no, "unknown directive '" + tag + "'");
    if (!saw_classes || !saw_scenario || !saw_seed || declared_records < 0)
      return LineError(line_no, "record before complete header");
    if (n != 8)
      return LineError(line_no,
                       "truncated record (want 8 tokens, got " +
                           std::to_string(n) + ")");

    QueryBlueprint r;
    StatusOr<double> time = SpecArgs::ToDouble(in.Token(1));
    if (!time.ok() || time.value() < 0.0)
      return LineError(line_no, "bad arrival time '" + in.Token(1) + "'");
    r.time = time.value();
    if (!trace.records.empty() && r.time < last_time)
      return LineError(line_no, "out-of-order arrival time");
    last_time = r.time;

    StatusOr<int64_t> cls = SpecArgs::ToInt(in.Token(2));
    if (!cls.ok() || cls.value() < 0 || cls.value() >= trace.num_classes)
      return LineError(line_no, "unknown class '" + in.Token(2) + "'");
    r.query_class = static_cast<int32_t>(cls.value());

    if (in.Token(3) == "join") {
      r.type = exec::QueryType::kHashJoin;
    } else if (in.Token(3) == "sort") {
      r.type = exec::QueryType::kExternalSort;
    } else {
      return LineError(line_no, "unknown query type '" + in.Token(3) + "'");
    }

    StatusOr<int64_t> rel = SpecArgs::ToInt(in.Token(4));
    if (!rel.ok() || rel.value() < 0)
      return LineError(line_no, "bad relation id '" + in.Token(4) + "'");
    r.r = rel.value();
    if (in.Token(5) == "-") {
      if (r.type == exec::QueryType::kHashJoin)
        return LineError(line_no, "join record missing outer relation");
      r.s = -1;
    } else {
      StatusOr<int64_t> outer = SpecArgs::ToInt(in.Token(5));
      if (!outer.ok() || outer.value() < 0)
        return LineError(line_no, "bad relation id '" + in.Token(5) + "'");
      if (r.type == exec::QueryType::kExternalSort)
        return LineError(line_no, "sort record with outer relation");
      r.s = outer.value();
    }

    StatusOr<double> slack = SpecArgs::ToDouble(in.Token(6));
    if (!slack.ok() || slack.value() <= 0.0)
      return LineError(line_no, "bad slack ratio '" + in.Token(6) + "'");
    r.slack = slack.value();
    if (in.Token(7) != "-") {
      StatusOr<double> standalone = SpecArgs::ToDouble(in.Token(7));
      if (!standalone.ok() || standalone.value() <= 0.0)
        return LineError(line_no,
                         "bad stand-alone time '" + in.Token(7) + "'");
      r.standalone = standalone.value();
    }
    trace.records.push_back(r);
  }

  if (!saw_version)
    return Status::InvalidArgument("trace: missing 'rtqt 1' version header");
  if (!saw_classes || !saw_scenario || !saw_seed || declared_records < 0)
    return Status::InvalidArgument("trace: incomplete header");
  if (static_cast<int64_t>(trace.records.size()) != declared_records)
    return Status::InvalidArgument(
        "trace: truncated — header declares " +
        std::to_string(declared_records) + " records, found " +
        std::to_string(trace.records.size()));
  return trace;
}

Status WriteTraceFile(const Trace& trace, const std::string& path) {
  return WriteStringToFile(path, SerializeTrace(trace));
}

StatusOr<Trace> ReadTraceFile(const std::string& path) {
  StatusOr<std::string> data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  return ParseTrace(data.value());
}

}  // namespace rtq::workload
