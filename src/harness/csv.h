// Tiny CSV writer: experiments drop their series into results/ so the
// paper's figures can be re-plotted.

#ifndef RTQ_HARNESS_CSV_H_
#define RTQ_HARNESS_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace rtq::harness {

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  /// Writes header + rows to `path`, creating parent directory
  /// "results/" relative paths as needed.
  Status WriteFile(const std::string& path) const;

  std::string ToString() const;

 private:
  static std::string Escape(const std::string& cell);

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rtq::harness

#endif  // RTQ_HARNESS_CSV_H_
