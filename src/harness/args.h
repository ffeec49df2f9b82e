// Shared environment-knob and command-line parsing for the experiment
// runner and rtq_serve.
//
// Every experiment reads the same environment knobs (RTQ_SIM_HOURS,
// RTQ_BENCH_JOBS, RTQ_POLICIES, RTQ_GIT_DESCRIBE) and until this header
// each call site hand-rolled its own getenv/atof/atoi fallback dance.
// The Env* helpers centralize that discipline: a knob that is unset,
// empty, or fails the validity predicate falls back — never crashes, so
// a typo'd environment degrades to defaults instead of taking down a
// multi-hour sweep.
//
// ArgParser covers the long-running binaries (rtq_serve) that take
// --flag=value style options: flags are consumed by typed accessors and
// Finish() returns InvalidArgument for anything unknown or malformed,
// the same Status-not-crash contract as the registry spec parsers.

#ifndef RTQ_HARNESS_ARGS_H_
#define RTQ_HARNESS_ARGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace rtq::harness {

/// The named environment variable when set and non-empty, else
/// `fallback`.
std::string EnvString(const char* name, const std::string& fallback);

/// The named environment variable parsed as a double when set and
/// strictly positive, else `fallback` (matches the historical
/// RTQ_SIM_HOURS behavior: zero, negative and garbage all fall back).
double EnvPositiveDouble(const char* name, double fallback);

/// The named environment variable parsed as an int when set and
/// strictly positive, else `fallback` (RTQ_BENCH_JOBS behavior).
int EnvPositiveInt(const char* name, int fallback);

/// `--flag=value` command-line parser.
///
///   ArgParser args(argc, argv);
///   std::string workload = args.String("workload", "baseline:rate=0.06");
///   int64_t max_events = args.Int("max-events", 0);
///   RTQ_RETURN_IF_ERROR(args.Finish());
///
/// Accessors consume their flag; Finish() rejects any flag that was
/// never consumed (catching typos like --max-event), any value that
/// failed to parse or fell out of range and any argument that is not a
/// flag, with one error message naming them all.
class ArgParser {
 public:
  /// Parses argv[1..argc).
  ArgParser(int argc, const char* const* argv);

  /// Value of --<flag>=... , else `fallback`.
  std::string String(const std::string& flag, const std::string& fallback);

  /// Value of --<flag>=... parsed as a finite double, else `fallback`. A
  /// value outside [min, max] is an error.
  double Double(const std::string& flag, double fallback,
                double min = std::numeric_limits<double>::lowest(),
                double max = std::numeric_limits<double>::max());

  /// Value of --<flag>=... parsed as an integer, else `fallback`. A
  /// value outside [min, max] is an error.
  int64_t Int(const std::string& flag, int64_t fallback,
              int64_t min = std::numeric_limits<int64_t>::min(),
              int64_t max = std::numeric_limits<int64_t>::max());

  /// Ok when every argument was a flag, every flag was consumed and
  /// every value parsed; InvalidArgument naming the offenders otherwise.
  Status Finish() const;

 private:
  struct Entry {
    std::string value;
    bool has_value = false;  ///< false for a bare --flag
    bool consumed = false;
  };

  /// Consumes `flag`: its value, or nullptr when it is absent or bare
  /// (recording the error).
  const std::string* Value(const std::string& flag);

  std::map<std::string, Entry> flags_;
  std::vector<std::string> errors_;
};

}  // namespace rtq::harness

#endif  // RTQ_HARNESS_ARGS_H_
