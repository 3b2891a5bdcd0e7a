// Plain-text table rendering for the benchmark harness and examples.
// Produces aligned, pipe-separated tables that mirror how the paper's
// Tables 1 and 2 are laid out.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace syncon {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Starts a new row. Subsequent add_cell calls fill it left to right.
  TextTable& new_row();
  TextTable& add_cell(std::string value);
  TextTable& add_cell(std::uint64_t value);
  TextTable& add_cell(std::int64_t value);
  TextTable& add_cell(int value);
  TextTable& add_cell(unsigned value);
  /// Renders doubles with fixed precision (default 3 digits).
  TextTable& add_cell(double value, int precision = 3);
  TextTable& add_cell(bool value);

  /// Renders the table with a header rule; every column is padded to its
  /// widest cell, counting UTF-8 code points (a "µ" takes one column).
  void print(std::ostream& os) const;
  std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats `value` with thousands separators ("1,234,567") for readability
/// in benchmark output.
std::string with_thousands(std::uint64_t value);

}  // namespace syncon
