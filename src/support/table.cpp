#include "support/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/contracts.hpp"

namespace syncon {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  SYNCON_REQUIRE(!headers_.empty(), "a table needs at least one column");
}

TextTable& TextTable::new_row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

TextTable& TextTable::add_cell(std::string value) {
  SYNCON_REQUIRE(!rows_.empty(), "call new_row() before add_cell()");
  SYNCON_REQUIRE(rows_.back().size() < headers_.size(),
                 "row already has a cell for every column");
  rows_.back().push_back(std::move(value));
  return *this;
}

TextTable& TextTable::add_cell(std::uint64_t value) {
  return add_cell(std::to_string(value));
}

TextTable& TextTable::add_cell(std::int64_t value) {
  return add_cell(std::to_string(value));
}

TextTable& TextTable::add_cell(int value) {
  return add_cell(std::to_string(value));
}

TextTable& TextTable::add_cell(unsigned value) {
  return add_cell(std::to_string(value));
}

TextTable& TextTable::add_cell(double value, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return add_cell(oss.str());
}

TextTable& TextTable::add_cell(bool value) {
  return add_cell(std::string(value ? "yes" : "no"));
}

void TextTable::print(std::ostream& os) const {
  // Columns a UTF-8 cell takes: continuation bytes (10xxxxxx) take none.
  const auto display_width = [](const std::string& cell) {
    return static_cast<std::size_t>(std::count_if(
        cell.begin(), cell.end(), [](char c) { return (c & 0xC0) != 0x80; }));
  };
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = display_width(headers_[c]);
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], display_width(row[c]));
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << ' ' << cell << std::string(widths[c] - display_width(cell), ' ')
         << " |";
    }
    os << '\n';
  };
  print_row(headers_);
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string TextTable::to_string() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

std::string with_thousands(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t run = 0;
  for (std::size_t i = digits.size(); i-- > 0;) {
    out.push_back(digits[i]);
    if (++run == 3 && i != 0) {
      out.push_back(',');
      run = 0;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace syncon
