#include "workload/trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/file.h"
#include "common/spec.h"

namespace rtq::workload {

namespace {

bool DoubleEq(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return a == b;
}

Status LineError(size_t line, const std::string& what) {
  return Status::InvalidArgument("trace line " + std::to_string(line) + ": " +
                                 what);
}

/// Splits a line into whitespace-separated tokens.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

}  // namespace

bool operator==(const TraceRecord& a, const TraceRecord& b) {
  return DoubleEq(a.time, b.time) && a.query_class == b.query_class &&
         a.type == b.type && a.r == b.r && a.s == b.s &&
         DoubleEq(a.slack, b.slack) && DoubleEq(a.standalone, b.standalone);
}
bool operator!=(const TraceRecord& a, const TraceRecord& b) {
  return !(a == b);
}

bool operator==(const Trace& a, const Trace& b) {
  return a.version == b.version && a.num_classes == b.num_classes &&
         a.scenario == b.scenario && a.seed == b.seed &&
         a.records == b.records;
}
bool operator!=(const Trace& a, const Trace& b) { return !(a == b); }

std::string FormatDouble(double v) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string SerializeTrace(const Trace& trace) {
  std::string out;
  out += "rtqt " + std::to_string(trace.version) + "\n";
  out += "classes " + std::to_string(trace.num_classes) + "\n";
  out += "scenario " +
         (trace.scenario.empty() ? std::string("-") : trace.scenario) + "\n";
  out += "seed " + std::to_string(trace.seed) + "\n";
  out += "records " + std::to_string(trace.records.size()) + "\n";
  for (const TraceRecord& r : trace.records) {
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
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;

  // Header fields, in order; `records` declares the expected count.
  bool saw_version = false;
  bool saw_classes = false;
  bool saw_scenario = false;
  bool saw_seed = false;
  int64_t declared_records = -1;
  SimTime last_time = 0.0;

  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string& tag = tokens[0];

    if (!saw_version) {
      if (tag != "rtqt" || tokens.size() != 2)
        return LineError(line_no, "expected version header 'rtqt 1'");
      StatusOr<int64_t> version = SpecArgs::ToInt(tokens[1]);
      if (!version.ok())
        return LineError(line_no, "bad version number '" + tokens[1] + "'");
      if (version.value() != 1)
        return LineError(line_no, "unsupported trace version " + tokens[1]);
      trace.version = 1;
      saw_version = true;
      continue;
    }

    if (tag == "classes") {
      StatusOr<int64_t> n = SpecArgs::ToInt(tokens.back());
      if (saw_classes || tokens.size() != 2 || !n.ok() || n.value() <= 0 ||
          n.value() > std::numeric_limits<int32_t>::max())
        return LineError(line_no, "bad 'classes' header");
      trace.num_classes = static_cast<int32_t>(n.value());
      saw_classes = true;
      continue;
    }
    if (tag == "scenario") {
      if (saw_scenario || tokens.size() < 2)
        return LineError(line_no, "bad 'scenario' header");
      // The scenario spec is the rest of the line (specs contain no
      // spaces today, but keep the field future-proof).
      size_t pos = line.find("scenario");
      std::string rest = line.substr(pos + 8);
      size_t start = rest.find_first_not_of(" \t");
      trace.scenario = start == std::string::npos ? "" : rest.substr(start);
      if (trace.scenario == "-") trace.scenario.clear();
      saw_scenario = true;
      continue;
    }
    if (tag == "seed") {
      StatusOr<uint64_t> seed = SpecArgs::ToUint(tokens.back());
      if (saw_seed || tokens.size() != 2 || !seed.ok())
        return LineError(line_no, "bad 'seed' header");
      trace.seed = seed.value();
      saw_seed = true;
      continue;
    }
    if (tag == "records") {
      StatusOr<int64_t> n = SpecArgs::ToInt(tokens.back());
      if (declared_records >= 0 || tokens.size() != 2 || !n.ok() ||
          n.value() < 0)
        return LineError(line_no, "bad 'records' header");
      declared_records = n.value();
      continue;
    }

    if (tag != "q")
      return LineError(line_no, "unknown directive '" + tag + "'");
    if (!saw_classes || !saw_scenario || !saw_seed || declared_records < 0)
      return LineError(line_no, "record before complete header");
    if (tokens.size() != 8)
      return LineError(line_no,
                       "truncated record (want 8 tokens, got " +
                           std::to_string(tokens.size()) + ")");

    TraceRecord r;
    StatusOr<double> time = SpecArgs::ToDouble(tokens[1]);
    if (!time.ok() || time.value() < 0.0)
      return LineError(line_no, "bad arrival time '" + tokens[1] + "'");
    r.time = time.value();
    if (!trace.records.empty() && r.time < last_time)
      return LineError(line_no, "out-of-order arrival time");
    last_time = r.time;

    StatusOr<int64_t> cls = SpecArgs::ToInt(tokens[2]);
    if (!cls.ok() || cls.value() < 0 || cls.value() >= trace.num_classes)
      return LineError(line_no, "unknown class '" + tokens[2] + "'");
    r.query_class = static_cast<int32_t>(cls.value());

    if (tokens[3] == "join") {
      r.type = exec::QueryType::kHashJoin;
    } else if (tokens[3] == "sort") {
      r.type = exec::QueryType::kExternalSort;
    } else {
      return LineError(line_no, "unknown query type '" + tokens[3] + "'");
    }

    StatusOr<int64_t> rel = SpecArgs::ToInt(tokens[4]);
    if (!rel.ok() || rel.value() < 0)
      return LineError(line_no, "bad relation id '" + tokens[4] + "'");
    r.r = rel.value();
    if (tokens[5] == "-") {
      if (r.type == exec::QueryType::kHashJoin)
        return LineError(line_no, "join record missing outer relation");
      r.s = -1;
    } else {
      StatusOr<int64_t> outer = SpecArgs::ToInt(tokens[5]);
      if (!outer.ok() || outer.value() < 0)
        return LineError(line_no, "bad relation id '" + tokens[5] + "'");
      if (r.type == exec::QueryType::kExternalSort)
        return LineError(line_no, "sort record with outer relation");
      r.s = outer.value();
    }

    StatusOr<double> slack = SpecArgs::ToDouble(tokens[6]);
    if (!slack.ok() || slack.value() <= 0.0)
      return LineError(line_no, "bad slack ratio '" + tokens[6] + "'");
    r.slack = slack.value();
    if (tokens[7] != "-") {
      StatusOr<double> standalone = SpecArgs::ToDouble(tokens[7]);
      if (!standalone.ok() || standalone.value() <= 0.0)
        return LineError(line_no,
                         "bad stand-alone time '" + tokens[7] + "'");
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
