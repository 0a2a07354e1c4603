//===- support/Table.hpp - Fixed-width ASCII table printer ---------------===//
//
// Every benchmark binary reproduces one table or figure from the paper and
// prints it through this formatter so outputs are uniform and diffable.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace codesign {

/// Column alignment inside a Table.
enum class Align { Left, Right };

/// A simple row/column table with automatic column widths. Cells are strings;
/// numeric helpers format with fixed precision so rows line up.
class Table {
public:
  /// Create a table with the given column headers.
  explicit Table(std::vector<std::string> Headers);

  /// Begin a new row. Subsequent cell() calls fill it left to right.
  void startRow();
  /// Append a string cell to the current row.
  void cell(std::string Text);
  /// Append an integer cell.
  void cell(std::int64_t V);
  /// Append an unsigned cell.
  void cell(std::uint64_t V);
  /// Append a floating-point cell with the given precision.
  void cell(double V, int Precision = 3);

  /// Append a full row at once.
  void addRow(std::vector<std::string> Cells);

  /// Render the table (headers, separator, rows) to a string.
  [[nodiscard]] std::string render() const;

  /// Render and write to the stream.
  void print(std::ostream &OS) const;

  /// Number of data rows currently in the table.
  [[nodiscard]] std::size_t numRows() const { return Rows.size(); }

private:
  std::vector<std::string> Headers;
  std::vector<Align> Aligns;
  std::vector<std::vector<std::string>> Rows;
};

/// Format a double with fixed precision (helper shared by benches).
std::string formatDouble(double V, int Precision);

/// Format a byte count as a plain number with a 'B' suffix (paper style,
/// e.g. "8288B").
std::string formatBytes(std::uint64_t Bytes);

} // namespace codesign
