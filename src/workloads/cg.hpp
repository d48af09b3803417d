// NPB-style CG's core: a random sparse SPD matrix and its SpMV.
//
// The paper uses NAS Parallel Benchmarks CG class A as the representative
// application that is *slower* on the FPGA than on x86 (Table 1's first
// row, and the "non-compute-intensive" pole of Figure 9): the sparse
// matrix-vector product's column gathers are irregular.  The simulated
// CG-A is set by hand in apps::BenchmarkSpec; this is the SpMV kernel
// itself, run for real by examples/custom_kernel.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace xartrek::workloads {

/// Sparse symmetric matrix in CSR form.
struct CsrMatrix {
  int n = 0;
  std::vector<std::int32_t> row_ptr;  ///< size n+1
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;

  [[nodiscard]] std::int64_t nonzeros() const {
    return static_cast<std::int64_t>(values.size());
  }
};

/// Random sparse SPD matrix: ~`nz_per_row` symmetric off-diagonal entries
/// per row, diagonally dominant (hence positive-definite).
[[nodiscard]] CsrMatrix make_spd_matrix(Rng& rng, int n, int nz_per_row);

/// y = A x.
void spmv(const CsrMatrix& a, const std::vector<double>& x,
          std::vector<double>& y);

}  // namespace xartrek::workloads
