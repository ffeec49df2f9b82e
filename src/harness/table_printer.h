// One table of string cells, rendered two ways: aligned plain text for
// the experiments' stdout reports, and CSV for the series they drop into
// results/ so the paper's figures can be re-plotted.

#ifndef RTQ_HARNESS_TABLE_PRINTER_H_
#define RTQ_HARNESS_TABLE_PRINTER_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"

namespace rtq::harness {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds one row; cells beyond the header count are dropped, missing
  /// cells render empty.
  void AddRow(std::vector<std::string> cells);

  /// Renders with column alignment. Numeric-looking cells right-align.
  std::string ToString() const;
  void Print(FILE* out = stdout) const;

  /// Renders header + rows as CSV: a cell holding a comma, a quote or a
  /// newline is quoted, with its quotes doubled.
  std::string ToCsv() const;
  /// Writes ToCsv() to `path`, creating its parent directory if needed.
  Status WriteCsv(const std::string& path) const;

  /// Formatting helpers.
  static std::string Fixed(double value, int precision);
  static std::string Percent(double fraction, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rtq::harness

#endif  // RTQ_HARNESS_TABLE_PRINTER_H_
