#include "serve/control.h"

#include "common/spec.h"

namespace rtq::serve {

namespace {

/// First whitespace-separated token of `line` starting at `*pos`;
/// advances `*pos` past it. Empty when the line is exhausted.
std::string NextToken(const std::string& line, size_t* pos) {
  size_t start = line.find_first_not_of(" \t", *pos);
  if (start == std::string::npos) {
    *pos = line.size();
    return "";
  }
  size_t end = line.find_first_of(" \t", start);
  if (end == std::string::npos) end = line.size();
  *pos = end;
  return line.substr(start, end - start);
}

/// Rest of `line` from `pos`, trimmed of surrounding whitespace.
std::string Rest(const std::string& line, size_t pos) {
  size_t start = line.find_first_not_of(" \t", pos);
  if (start == std::string::npos) return "";
  size_t end = line.find_last_not_of(" \t\r");
  return line.substr(start, end - start + 1);
}

Status CommandError(const std::string& what) {
  return Status::InvalidArgument("control: " + what);
}

}  // namespace

StatusOr<Command> ParseCommand(const std::string& line) {
  Command cmd;
  size_t pos = 0;
  std::string keyword = NextToken(line, &pos);
  if (keyword.empty() || keyword[0] == '#') return cmd;  // kNop

  if (keyword == "run") {
    cmd.kind = Command::Kind::kRun;
    std::string count = NextToken(line, &pos);
    StatusOr<uint64_t> n = SpecArgs::ToUint(count);
    if (!n.ok() || n.value() == 0)
      return CommandError("'run' needs a positive event count, got '" + count +
                          "'");
    cmd.count = n.value();
    if (!Rest(line, pos).empty())
      return CommandError("trailing input after 'run " + count + "'");
    return cmd;
  }
  if (keyword == "policy" || keyword == "scenario" || keyword == "snapshot" ||
      keyword == "restore") {
    cmd.kind = keyword == "policy"     ? Command::Kind::kPolicy
               : keyword == "scenario" ? Command::Kind::kScenario
               : keyword == "snapshot" ? Command::Kind::kSnapshot
                                       : Command::Kind::kRestore;
    cmd.arg = Rest(line, pos);
    if (cmd.arg.empty())
      return CommandError("'" + keyword + "' needs an argument");
    return cmd;
  }
  if (keyword == "stats" || keyword == "metrics" || keyword == "quit") {
    cmd.kind = keyword == "stats"     ? Command::Kind::kStats
               : keyword == "metrics" ? Command::Kind::kMetrics
                                      : Command::Kind::kQuit;
    if (!Rest(line, pos).empty())
      return CommandError("trailing input after '" + keyword + "'");
    return cmd;
  }
  return CommandError("unknown command '" + keyword +
                      "' (run|policy|scenario|stats|metrics|snapshot|"
                      "restore|quit)");
}

}  // namespace rtq::serve
