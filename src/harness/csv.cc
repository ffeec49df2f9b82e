#include "harness/csv.h"

#include "common/file.h"

namespace rtq::harness {

CsvWriter::CsvWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void CsvWriter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::Escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

std::string CsvWriter::ToString() const {
  std::string out;
  for (size_t c = 0; c < headers_.size(); ++c) {
    out += Escape(headers_[c]);
    if (c + 1 < headers_.size()) out += ',';
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += Escape(row[c]);
      if (c + 1 < row.size()) out += ',';
    }
    out += '\n';
  }
  return out;
}

Status CsvWriter::WriteFile(const std::string& path) const {
  return WriteStringToFile(path, ToString());
}

}  // namespace rtq::harness
