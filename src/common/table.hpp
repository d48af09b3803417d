// Plain-text table rendering for the benchmark harnesses.
//
// Every bench binary prints the same rows/series its paper table or
// figure reports; TextTable renders them with aligned columns so the
// output is diffable run-to-run.
#pragma once

#include <string>
#include <vector>

namespace xartrek {

/// A column-aligned text table with a title, a header row, and data rows.
class TextTable {
 public:
  explicit TextTable(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);

  /// Convenience: format a double with fixed precision.
  [[nodiscard]] static std::string num(double v, int precision = 1);

  /// Render with box-drawing separators.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace xartrek
