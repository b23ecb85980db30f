#include "base/table_printer.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string_view>

namespace chase {

TablePrinter::TablePrinter(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  assert(row.size() == columns_.size());
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) widths[i] = columns_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      os << (i == 0 ? "| " : " | ");
      os << row[i];
      os << std::string(widths[i] - row[i].size(), ' ');
    }
    os << " |\n";
  };
  auto print_rule = [&]() {
    for (size_t i = 0; i < widths.size(); ++i) {
      os << (i == 0 ? "+-" : "-+-") << std::string(widths[i], '-');
    }
    os << "-+\n";
  };
  print_rule();
  print_row(columns_);
  print_rule();
  for (const auto& row : rows_) print_row(row);
  print_rule();
}

void TablePrinter::PrintCsv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << ',';
      os << row[i];
    }
    os << '\n';
  };
  emit(columns_);
  for (const auto& row : rows_) emit(row);
}

namespace {

void WriteJsonString(std::ostream& os, std::string_view value) {
  os << '"';
  for (char c : value) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escape[8];
      std::snprintf(escape, sizeof(escape), "\\u%04x",
                    static_cast<unsigned>(c));
      os << escape;
    } else {
      os << c;
    }
  }
  os << '"';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// A cell that parses entirely as a finite number is written as a number:
// verbatim when JSON allows its spelling, else in shortest round-trip form
// (from_chars also takes "007", ".5" and "5.", which JSON does not). "-",
// the tables' not-applicable marker, is null; anything else is a string.
void WriteJsonCell(std::ostream& os, const std::string& cell) {
  if (cell == "-") {
    os << "null";
    return;
  }
  double value = 0;
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, value);
  if (cell.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(value)) {
    WriteJsonString(os, cell);
    return;
  }
  const std::string_view number =
      std::string_view(cell).substr(cell[0] == '-' ? 1 : 0);
  const size_t dot = number.find('.');
  if (IsDigit(number[0]) &&
      !(number[0] == '0' && number.size() > 1 && IsDigit(number[1])) &&
      (dot == std::string_view::npos ||
       (dot + 1 < number.size() && IsDigit(number[dot + 1])))) {
    os << cell;
  } else {
    char buffer[32];
    os.write(buffer, std::to_chars(buffer, std::end(buffer), value).ptr -
                         buffer);
  }
}

}  // namespace

void TablePrinter::PrintJson(std::ostream& os) const {
  os << "[\n";
  for (size_t r = 0; r < rows_.size(); ++r) {
    os << "  {";
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (i > 0) os << ", ";
      WriteJsonString(os, columns_[i]);
      os << ": ";
      WriteJsonCell(os, rows_[r][i]);
    }
    os << (r + 1 < rows_.size() ? "},\n" : "}\n");
  }
  os << "]\n";
}

}  // namespace chase
