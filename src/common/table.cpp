#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/assert.hpp"

namespace xartrek {

void TextTable::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  XAR_EXPECTS(header_.empty() || row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::num(double v, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& row) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto render_row = [&](const std::vector<std::string>& row) {
    std::ostringstream oss;
    oss << "|";
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string{};
      oss << " " << std::left << std::setw(static_cast<int>(widths[i]))
          << cell << " |";
    }
    oss << "\n";
    return oss.str();
  };
  auto rule = [&] {
    std::ostringstream oss;
    oss << "+";
    for (std::size_t w : widths) oss << std::string(w + 2, '-') << "+";
    oss << "\n";
    return oss.str();
  };

  std::ostringstream out;
  out << "== " << title_ << " ==\n";
  out << rule();
  if (!header_.empty()) {
    out << render_row(header_);
    out << rule();
  }
  for (const auto& r : rows_) out << render_row(r);
  out << rule();
  return out.str();
}

}  // namespace xartrek
