// Whole-file reads and writes for the text artifacts the drivers emit
// and load (BENCH JSON, CSV, `.rtqt` traces, `.rtqs` snapshots, serve
// command scripts).

#ifndef RTQ_COMMON_FILE_H_
#define RTQ_COMMON_FILE_H_

#include <string>

#include "common/status.h"

namespace rtq {

/// Replaces `path` with `data`, creating missing parent directories.
/// Internal when a directory cannot be made, the file cannot be opened,
/// or the write or the final flush fails (a full disk often reports
/// only at close).
Status WriteStringToFile(const std::string& path, const std::string& data);

/// The whole content of `path`: NotFound when it cannot be opened,
/// Internal on a read error.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace rtq

#endif  // RTQ_COMMON_FILE_H_
