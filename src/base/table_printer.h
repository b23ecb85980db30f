// Plain-text table output for the benchmark harness. Each bench binary prints
// the rows/series of the corresponding paper figure or table through this
// class, and can additionally emit CSV for downstream plotting.

#ifndef CHASE_BASE_TABLE_PRINTER_H_
#define CHASE_BASE_TABLE_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

namespace chase {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> columns);

  void AddRow(std::vector<std::string> row);

  // Renders an aligned ASCII table.
  void Print(std::ostream& os) const;

  // Renders the same content as CSV (header + rows).
  void PrintCsv(std::ostream& os) const;

  // Renders the same content as a JSON array of row objects keyed by the
  // column names. A cell that parses entirely as a finite number becomes a
  // JSON number, a "-" cell becomes null, and every other cell an escaped
  // string. The machine-readable BENCH_<name>.json files the ablations
  // write go through this.
  void PrintJson(std::ostream& os) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace chase

#endif  // CHASE_BASE_TABLE_PRINTER_H_
