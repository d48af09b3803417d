#include "workloads/cg.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/assert.hpp"

namespace xartrek::workloads {

CsrMatrix make_spd_matrix(Rng& rng, int n, int nz_per_row) {
  XAR_EXPECTS(n >= 2);
  XAR_EXPECTS(nz_per_row >= 1);

  // Build symmetric off-diagonal structure with a map-of-rows, then add a
  // dominant diagonal.
  std::vector<std::map<std::int32_t, double>> rows(
      static_cast<std::size_t>(n));
  const int half = std::max(1, nz_per_row / 2);
  for (int i = 0; i < n; ++i) {
    for (int e = 0; e < half; ++e) {
      const auto j = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
      if (j == i) continue;
      const double v = rng.uniform_real(-0.5, 0.5);
      rows[static_cast<std::size_t>(i)][j] = v;
      rows[static_cast<std::size_t>(j)][static_cast<std::int32_t>(i)] = v;
    }
  }
  for (int i = 0; i < n; ++i) {
    double dominance = 1.0;
    for (const auto& [j, v] : rows[static_cast<std::size_t>(i)]) {
      dominance += std::abs(v);
    }
    rows[static_cast<std::size_t>(i)][static_cast<std::int32_t>(i)] =
        dominance;
  }

  CsrMatrix a;
  a.n = n;
  a.row_ptr.reserve(static_cast<std::size_t>(n) + 1);
  a.row_ptr.push_back(0);
  for (int i = 0; i < n; ++i) {
    for (const auto& [j, v] : rows[static_cast<std::size_t>(i)]) {
      a.col_idx.push_back(j);
      a.values.push_back(v);
    }
    a.row_ptr.push_back(static_cast<std::int32_t>(a.col_idx.size()));
  }
  return a;
}

void spmv(const CsrMatrix& a, const std::vector<double>& x,
          std::vector<double>& y) {
  XAR_EXPECTS(static_cast<int>(x.size()) == a.n);
  y.assign(static_cast<std::size_t>(a.n), 0.0);
  for (int i = 0; i < a.n; ++i) {
    double sum = 0.0;
    for (std::int32_t p = a.row_ptr[static_cast<std::size_t>(i)];
         p < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++p) {
      sum += a.values[static_cast<std::size_t>(p)] *
             x[static_cast<std::size_t>(
                 a.col_idx[static_cast<std::size_t>(p)])];
    }
    y[static_cast<std::size_t>(i)] = sum;
  }
}

}  // namespace xartrek::workloads
