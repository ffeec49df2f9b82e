// Aligned plain-text tables for the experiments' stdout reports.

#ifndef RTQ_HARNESS_TABLE_PRINTER_H_
#define RTQ_HARNESS_TABLE_PRINTER_H_

#include <cstdio>
#include <string>
#include <vector>

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

  /// Formatting helpers.
  static std::string Fixed(double value, int precision);
  static std::string Percent(double fraction, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rtq::harness

#endif  // RTQ_HARNESS_TABLE_PRINTER_H_
