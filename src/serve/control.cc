#include "serve/control.h"

#include "common/file.h"
#include "common/spec.h"

namespace rtq::serve {

namespace {

Status CommandError(const std::string& what) {
  return Status::InvalidArgument("control: " + what);
}

}  // namespace

StatusOr<Command> ParseCommand(const std::string& line) {
  Command cmd;
  LineReader in(line);
  if (!in.Next()) return cmd;  // kNop: blank line or comment
  const std::string keyword = in.Token(0);

  if (keyword == "run") {
    cmd.kind = Command::Kind::kRun;
    std::string count = in.Token(1);
    StatusOr<uint64_t> n = SpecArgs::ToUint(count);
    if (!n.ok() || n.value() == 0)
      return CommandError("'run' needs a positive event count, got '" + count +
                          "'");
    cmd.count = n.value();
    if (in.size() > 2)
      return CommandError("trailing input after 'run " + count + "'");
    return cmd;
  }
  if (keyword == "policy" || keyword == "scenario" || keyword == "snapshot" ||
      keyword == "restore") {
    cmd.kind = keyword == "policy"     ? Command::Kind::kPolicy
               : keyword == "scenario" ? Command::Kind::kScenario
               : keyword == "snapshot" ? Command::Kind::kSnapshot
                                       : Command::Kind::kRestore;
    cmd.arg = in.Rest(1);
    if (cmd.arg.empty())
      return CommandError("'" + keyword + "' needs an argument");
    return cmd;
  }
  if (keyword == "stats" || keyword == "metrics" || keyword == "quit") {
    cmd.kind = keyword == "stats"     ? Command::Kind::kStats
               : keyword == "metrics" ? Command::Kind::kMetrics
                                      : Command::Kind::kQuit;
    if (in.size() > 1)
      return CommandError("trailing input after '" + keyword + "'");
    return cmd;
  }
  return CommandError("unknown command '" + keyword +
                      "' (run|policy|scenario|stats|metrics|snapshot|"
                      "restore|quit)");
}

}  // namespace rtq::serve
