#include "harness/table_printer.h"

#include <algorithm>
#include <cstdio>

#include "common/file.h"

namespace rtq::harness {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TablePrinter::Percent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto pad = [&](const std::string& cell, size_t width) {
    std::string out(width - cell.size(), ' ');
    return out + cell;
  };
  std::string out;
  for (size_t c = 0; c < headers_.size(); ++c) {
    out += pad(headers_[c], widths[c]);
    out += c + 1 < headers_.size() ? "  " : "";
  }
  out += '\n';
  for (size_t c = 0; c < headers_.size(); ++c) {
    out += std::string(widths[c], '-');
    out += c + 1 < headers_.size() ? "  " : "";
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (size_t c = 0; c < headers_.size(); ++c) {
      out += pad(row[c], widths[c]);
      out += c + 1 < headers_.size() ? "  " : "";
    }
    out += '\n';
  }
  return out;
}

void TablePrinter::Print(FILE* out) const {
  std::fputs(ToString().c_str(), out);
}

std::string TablePrinter::ToCsv() const {
  auto escape = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string out = "\"";
    for (char ch : cell) {
      if (ch == '"') out += '"';
      out += ch;
    }
    return out + '"';
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string out;
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) out += ',';
      out += escape(cells[c]);
    }
    return out + '\n';
  };
  std::string out = line(headers_);
  for (const auto& row : rows_) out += line(row);
  return out;
}

Status TablePrinter::WriteCsv(const std::string& path) const {
  return WriteStringToFile(path, ToCsv());
}

}  // namespace rtq::harness
