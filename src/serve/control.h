// The serve-mode control grammar: one command per line.
//
// The control channel (stdin or a --cmds script) is untrusted input to a
// long-running process, so parsing never crashes: every malformed line
// becomes an InvalidArgument Status the driver reports and survives.
//
//   run <events>       step the engine by <events> events (scripts only;
//                      interactive mode free-runs between commands)
//   policy <spec>      hot-swap the memory policy (PolicyRegistry spec)
//   scenario <spec>    swap the arrival stream (ScenarioRegistry spec)
//   stats              print a human-readable summary to stderr
//   metrics            emit one metrics JSON line now
//   snapshot <path>    write a `.rtqs` snapshot of the current state
//   restore <path>     replace the running session from a snapshot
//   quit               exit the serve loop
//
// Blank lines and lines starting with '#' are no-ops. A line may end in
// CRLF.

#ifndef RTQ_SERVE_CONTROL_H_
#define RTQ_SERVE_CONTROL_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace rtq::serve {

struct Command {
  enum class Kind {
    kNop,  ///< blank line or comment
    kRun,
    kPolicy,
    kScenario,
    kStats,
    kMetrics,
    kSnapshot,
    kRestore,
    kQuit,
  };

  Kind kind = Kind::kNop;
  uint64_t count = 0;  ///< kRun: number of events to step
  std::string arg;     ///< kPolicy/kScenario: spec; kSnapshot/kRestore: path
};

/// Parses one control line. Unknown keywords, missing or malformed
/// arguments, and trailing junk after argument-less commands all return
/// InvalidArgument (quoting the offending input), never crash.
StatusOr<Command> ParseCommand(const std::string& line);

}  // namespace rtq::serve

#endif  // RTQ_SERVE_CONTROL_H_
