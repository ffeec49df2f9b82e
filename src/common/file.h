// Whole-file reads and writes for the text artifacts the drivers emit
// and load (BENCH JSON, CSV, `.rtqt` traces, `.rtqs` snapshots, serve
// command scripts), and the one reader for the line-oriented ones.

#ifndef RTQ_COMMON_FILE_H_
#define RTQ_COMMON_FILE_H_

#include <string>
#include <string_view>
#include <vector>

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

/// Walks line-oriented text (`.rtqt` traces, `.rtqs` snapshots, serve
/// control lines) in place, without copying it. Next() stops at each
/// meaningful line: one trailing '\r' is dropped, the line splits into
/// tokens at spaces and tabs, and lines with no tokens or whose first
/// token starts with '#' are skipped. Line numbers count every line.
class LineReader {
 public:
  /// `text` must outlive the reader.
  explicit LineReader(std::string_view text) : text_(text) {}

  /// Advances to the next meaningful line; false at the end of the text.
  bool Next();

  /// 1-based number of the current line; at the end, of the last line.
  size_t line_no() const { return line_no_; }
  /// Tokens on the current line.
  size_t size() const { return tokens_.size(); }
  /// Token `k` (0-based) of the current line; "" when absent.
  std::string Token(size_t k) const;
  /// The current line from token `n` on, without the blanks around it
  /// (inner blanks stay verbatim); "" when the line has `n` tokens or
  /// fewer.
  std::string Rest(size_t n) const;

 private:
  std::string_view text_;
  size_t pos_ = 0;  ///< start of the next unread line
  size_t line_no_ = 0;
  std::vector<std::string_view> tokens_;  ///< of the current line
};

}  // namespace rtq

#endif  // RTQ_COMMON_FILE_H_
