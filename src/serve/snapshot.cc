#include "serve/snapshot.h"

#include <limits>
#include <sstream>

#include "common/file.h"
#include "common/spec.h"
#include "workload/trace.h"

namespace rtq::serve {

namespace {

Status LineError(size_t line, const std::string& what) {
  return Status::InvalidArgument("snapshot line " + std::to_string(line) +
                                 ": " + what);
}

/// Cursor over the text's meaningful lines (comments and blanks
/// skipped), tracking 1-based line numbers for error messages.
class LineReader {
 public:
  explicit LineReader(const std::string& text) : in_(text) {}

  /// Advances to the next meaningful line. False at end of input.
  bool Next() {
    std::string line;
    while (std::getline(in_, line)) {
      ++line_no_;
      size_t i = line.find_first_not_of(" \t\r");
      if (i == std::string::npos || line[i] == '#') continue;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      line_ = line;
      return true;
    }
    return false;
  }

  /// First whitespace-separated token of the current line.
  std::string Head() const {
    size_t start = line_.find_first_not_of(" \t");
    size_t end = line_.find_first_of(" \t", start);
    if (end == std::string::npos) return line_.substr(start);
    return line_.substr(start, end - start);
  }

  /// The current line with its first `n` tokens removed — rest-of-line
  /// values (specs, digest text) survive verbatim.
  std::string Rest(size_t n) const {
    size_t i = line_.find_first_not_of(" \t");
    for (size_t k = 0; k < n; ++k) {
      if (i == std::string::npos) return "";
      i = line_.find_first_of(" \t", i);
      if (i == std::string::npos) return "";
      i = line_.find_first_not_of(" \t", i);
    }
    return i == std::string::npos ? "" : line_.substr(i);
  }

  /// Token at index `k` (0-based) of the current line; "" when absent.
  std::string Token(size_t k) const {
    size_t i = line_.find_first_not_of(" \t");
    for (size_t step = 0; step < k; ++step) {
      if (i == std::string::npos) return "";
      i = line_.find_first_of(" \t", i);
      if (i == std::string::npos) return "";
      i = line_.find_first_not_of(" \t", i);
    }
    if (i == std::string::npos) return "";
    size_t end = line_.find_first_of(" \t", i);
    if (end == std::string::npos) return line_.substr(i);
    return line_.substr(i, end - i);
  }

  size_t line_no() const { return line_no_; }

  /// Advances to the next line, which must read "<key> <text>"; stores
  /// the non-empty rest of the line in `*out`.
  Status Text(const std::string& key, std::string* out) {
    if (!Next() || Head() != key)
      return LineError(line_no_, "expected '" + key + " <spec>'");
    *out = Rest(1);
    if (out->empty()) return LineError(line_no_, "empty " + key + " spec");
    return Status::Ok();
  }

  /// Advances to the next line, which must read "<key> <uint>".
  Status Uint(const std::string& key, uint64_t* out) {
    if (!Next() || Head() != key)
      return LineError(line_no_, "expected '" + key + " <uint>'");
    StatusOr<uint64_t> value = SpecArgs::ToUint(Token(1));
    if (!value.ok() || !Rest(2).empty())
      return LineError(line_no_, "bad " + key + " '" + Rest(1) + "'");
    *out = value.value();
    return Status::Ok();
  }

 private:
  std::istringstream in_;
  std::string line_;
  size_t line_no_ = 0;
};

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
  if (!in.Uint("rtqs", &version).ok() || version != 2)
    return LineError(in.line_no(), "expected the 'rtqs 2' version header");

  RTQ_RETURN_IF_ERROR(in.Text("workload", &snap.session.workload));
  RTQ_RETURN_IF_ERROR(in.Text("policy", &snap.session.policy));
  RTQ_RETURN_IF_ERROR(in.Uint("seed", &snap.session.seed));
  uint64_t shards = 0;
  RTQ_RETURN_IF_ERROR(in.Uint("shards", &shards));
  if (shards < 1 || shards > std::numeric_limits<int32_t>::max())
    return LineError(in.line_no(), "shards must be in [1, 2^31)");
  snap.session.shards = static_cast<int32_t>(shards);
  RTQ_RETURN_IF_ERROR(in.Text("placement", &snap.session.placement));
  RTQ_RETURN_IF_ERROR(in.Text("admission", &snap.session.admission));

  uint64_t journal_count = 0;
  RTQ_RETURN_IF_ERROR(in.Uint("journal", &journal_count));
  uint64_t prev_events = 0;
  for (uint64_t i = 0; i < journal_count; ++i) {
    if (!in.Next() || in.Head() != "j")
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

  if (!in.Next() || in.Head() != "position")
    return LineError(in.line_no(), "expected 'position <events> <time>'");
  StatusOr<uint64_t> events = SpecArgs::ToUint(in.Token(1));
  if (!events.ok())
    return LineError(in.line_no(), "bad position events '" + in.Token(1) + "'");
  snap.position_events = events.value();
  StatusOr<double> time = SpecArgs::ToDouble(in.Token(2));
  if (!time.ok() || time.value() < 0.0 || !in.Rest(3).empty())
    return LineError(in.line_no(), "bad position time '" + in.Rest(2) + "'");
  snap.position_time = time.value();
  if (!snap.journal.empty() &&
      snap.journal.back().events > snap.position_events)
    return LineError(in.line_no(),
                     "journal extends past the snapshot position");

  uint64_t digest_count = 0;
  RTQ_RETURN_IF_ERROR(in.Uint("digest", &digest_count));
  for (uint64_t i = 0; i < digest_count; ++i) {
    if (!in.Next() || in.Head() != "s")
      return LineError(in.line_no(),
                       "expected " + std::to_string(digest_count) +
                           " digest lines, got " + std::to_string(i));
    std::string line = in.Rest(1);
    if (line.empty())
      return LineError(in.line_no(), "empty digest line");
    snap.digest.push_back(std::move(line));
  }

  if (!in.Next() || in.Head() != "end" || !in.Rest(1).empty())
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
