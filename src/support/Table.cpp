#include "support/Table.hpp"

#include "support/Error.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace codesign {

Table::Table(std::vector<std::string> Headers) : Headers(std::move(Headers)) {
  Aligns.resize(this->Headers.size(), Align::Right);
  if (!Aligns.empty())
    Aligns[0] = Align::Left;
}

void Table::startRow() { Rows.emplace_back(); }

void Table::cell(std::string Text) {
  CODESIGN_ASSERT(!Rows.empty(), "cell() before startRow()");
  CODESIGN_ASSERT(Rows.back().size() < Headers.size(),
                  "too many cells in row");
  Rows.back().push_back(std::move(Text));
}

void Table::cell(std::int64_t V) { cell(std::to_string(V)); }

void Table::cell(std::uint64_t V) { cell(std::to_string(V)); }

void Table::cell(double V, int Precision) { cell(formatDouble(V, Precision)); }

void Table::addRow(std::vector<std::string> Cells) {
  CODESIGN_ASSERT(Cells.size() == Headers.size(),
                  "row width does not match header count");
  Rows.push_back(std::move(Cells));
}

std::string Table::render() const {
  std::vector<std::size_t> Widths(Headers.size(), 0);
  for (std::size_t I = 0; I < Headers.size(); ++I)
    Widths[I] = Headers[I].size();
  for (const auto &Row : Rows)
    for (std::size_t I = 0; I < Row.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());

  auto emitCell = [&](std::ostringstream &OS, const std::string &Text,
                      std::size_t Col) {
    const std::size_t Pad = Widths[Col] - Text.size();
    if (Aligns[Col] == Align::Right)
      OS << std::string(Pad, ' ') << Text;
    else
      OS << Text << std::string(Pad, ' ');
  };

  std::ostringstream OS;
  for (std::size_t I = 0; I < Headers.size(); ++I) {
    if (I)
      OS << " | ";
    emitCell(OS, Headers[I], I);
  }
  OS << '\n';
  for (std::size_t I = 0; I < Headers.size(); ++I) {
    if (I)
      OS << "-+-";
    OS << std::string(Widths[I], '-');
  }
  OS << '\n';
  for (const auto &Row : Rows) {
    for (std::size_t I = 0; I < Headers.size(); ++I) {
      if (I)
        OS << " | ";
      emitCell(OS, I < Row.size() ? Row[I] : std::string(), I);
    }
    OS << '\n';
  }
  return OS.str();
}

void Table::print(std::ostream &OS) const { OS << render(); }

std::string formatDouble(double V, int Precision) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Precision, V);
  return Buf;
}

std::string formatBytes(std::uint64_t Bytes) {
  return std::to_string(Bytes) + "B";
}

} // namespace codesign
