#include "serve/snapshot.h"

#include <limits>

#include "common/file.h"
#include "common/spec.h"
#include "workload/trace.h"

namespace rtq::serve {

namespace {

Status LineError(size_t line, const std::string& what) {
  return Status::InvalidArgument("snapshot line " + std::to_string(line) +
                                 ": " + what);
}

/// Advances `in` to the next line, which must read "<key> <text>";
/// stores the rest of the line in `*out`.
Status Text(LineReader& in, const std::string& key, std::string* out) {
  if (!in.Next() || in.Token(0) != key)
    return LineError(in.line_no(), "expected '" + key + " <spec>'");
  *out = in.Rest(1);
  if (out->empty()) return LineError(in.line_no(), "empty " + key + " spec");
  return Status::Ok();
}

/// Advances `in` to the next line, which must read "<key> <uint>".
Status Uint(LineReader& in, const std::string& key, uint64_t* out) {
  if (!in.Next() || in.Token(0) != key)
    return LineError(in.line_no(), "expected '" + key + " <uint>'");
  StatusOr<uint64_t> value = SpecArgs::ToUint(in.Token(1));
  if (!value.ok() || in.size() > 2)
    return LineError(in.line_no(), "bad " + key + " '" + in.Rest(1) + "'");
  *out = value.value();
  return Status::Ok();
}

}  // namespace

bool operator==(const SessionSpec& a, const SessionSpec& b) {
  return a.workload == b.workload && a.policy == b.policy &&
         a.seed == b.seed && a.shards == b.shards &&
         a.placement == b.placement && a.admission == b.admission;
}
bool operator!=(const SessionSpec& a, const SessionSpec& b) {
  return !(a == b);
}
bool operator==(const JournalEntry& a, const JournalEntry& b) {
  return a.events == b.events && a.command == b.command && a.arg == b.arg;
}
bool operator!=(const JournalEntry& a, const JournalEntry& b) {
  return !(a == b);
}
bool operator==(const Snapshot& a, const Snapshot& b) {
  return a.version == b.version && a.session == b.session &&
         a.journal == b.journal && a.position_events == b.position_events &&
         a.position_time == b.position_time && a.digest == b.digest;
}
bool operator!=(const Snapshot& a, const Snapshot& b) { return !(a == b); }

std::string SerializeSnapshot(const Snapshot& snapshot) {
  std::string out;
  out += "rtqs " + std::to_string(snapshot.version) + "\n";
  out += "workload " + snapshot.session.workload + "\n";
  out += "policy " + snapshot.session.policy + "\n";
  out += "seed " + std::to_string(snapshot.session.seed) + "\n";
  out += "shards " + std::to_string(snapshot.session.shards) + "\n";
  out += "placement " + snapshot.session.placement + "\n";
  out += "admission " + snapshot.session.admission + "\n";
  out += "journal " + std::to_string(snapshot.journal.size()) + "\n";
  for (const JournalEntry& e : snapshot.journal) {
    out += "j " + std::to_string(e.events) + " " + e.command + " " + e.arg +
           "\n";
  }
  out += "position " + std::to_string(snapshot.position_events) + " " +
         workload::FormatDouble(snapshot.position_time) + "\n";
  out += "digest " + std::to_string(snapshot.digest.size()) + "\n";
  for (const std::string& line : snapshot.digest) {
    out += "s " + line + "\n";
  }
  out += "end\n";
  return out;
}

StatusOr<Snapshot> ParseSnapshot(const std::string& text) {
  Snapshot snap;
  LineReader in(text);

  uint64_t version = 0;
  if (!Uint(in, "rtqs", &version).ok() || version != 2)
    return LineError(in.line_no(), "expected the 'rtqs 2' version header");

  RTQ_RETURN_IF_ERROR(Text(in, "workload", &snap.session.workload));
  RTQ_RETURN_IF_ERROR(Text(in, "policy", &snap.session.policy));
  RTQ_RETURN_IF_ERROR(Uint(in, "seed", &snap.session.seed));
  uint64_t shards = 0;
  RTQ_RETURN_IF_ERROR(Uint(in, "shards", &shards));
  if (shards < 1 || shards > std::numeric_limits<int32_t>::max())
    return LineError(in.line_no(), "shards must be in [1, 2^31)");
  snap.session.shards = static_cast<int32_t>(shards);
  RTQ_RETURN_IF_ERROR(Text(in, "placement", &snap.session.placement));
  RTQ_RETURN_IF_ERROR(Text(in, "admission", &snap.session.admission));

  uint64_t journal_count = 0;
  RTQ_RETURN_IF_ERROR(Uint(in, "journal", &journal_count));
  uint64_t prev_events = 0;
  for (uint64_t i = 0; i < journal_count; ++i) {
    if (!in.Next() || in.Token(0) != "j")
      return LineError(in.line_no(),
                       "expected " + std::to_string(journal_count) +
                           " journal entries, got " + std::to_string(i));
    JournalEntry entry;
    StatusOr<uint64_t> events = SpecArgs::ToUint(in.Token(1));
    if (!events.ok())
      return LineError(in.line_no(),
                       "bad journal event count '" + in.Token(1) + "'");
    entry.events = events.value();
    entry.command = in.Token(2);
    if (entry.command != "policy" && entry.command != "scenario")
      return LineError(in.line_no(),
                       "unknown journal command '" + entry.command + "'");
    entry.arg = in.Rest(3);
    if (entry.arg.empty())
      return LineError(in.line_no(), "journal entry with empty spec");
    if (entry.events < prev_events)
      return LineError(in.line_no(), "journal event counts must not decrease");
    prev_events = entry.events;
    snap.journal.push_back(std::move(entry));
  }

  if (!in.Next() || in.Token(0) != "position")
    return LineError(in.line_no(), "expected 'position <events> <time>'");
  StatusOr<uint64_t> events = SpecArgs::ToUint(in.Token(1));
  if (!events.ok())
    return LineError(in.line_no(), "bad position events '" + in.Token(1) + "'");
  snap.position_events = events.value();
  StatusOr<double> time = SpecArgs::ToDouble(in.Token(2));
  if (!time.ok() || time.value() < 0.0 || in.size() > 3)
    return LineError(in.line_no(), "bad position time '" + in.Rest(2) + "'");
  snap.position_time = time.value();
  if (!snap.journal.empty() &&
      snap.journal.back().events > snap.position_events)
    return LineError(in.line_no(),
                     "journal extends past the snapshot position");

  uint64_t digest_count = 0;
  RTQ_RETURN_IF_ERROR(Uint(in, "digest", &digest_count));
  for (uint64_t i = 0; i < digest_count; ++i) {
    if (!in.Next() || in.Token(0) != "s")
      return LineError(in.line_no(),
                       "expected " + std::to_string(digest_count) +
                           " digest lines, got " + std::to_string(i));
    std::string line = in.Rest(1);
    if (line.empty())
      return LineError(in.line_no(), "empty digest line");
    snap.digest.push_back(std::move(line));
  }

  if (!in.Next() || in.Token(0) != "end" || in.size() > 1)
    return LineError(in.line_no(), "missing 'end' terminator (truncated?)");
  if (in.Next())
    return LineError(in.line_no(), "trailing content after 'end'");
  return snap;
}

Status WriteSnapshotFile(const Snapshot& snapshot, const std::string& path) {
  return WriteStringToFile(path, SerializeSnapshot(snapshot));
}

StatusOr<Snapshot> ReadSnapshotFile(const std::string& path) {
  StatusOr<std::string> data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  return ParseSnapshot(data.value());
}

}  // namespace rtq::serve
