// Breadth-first search over CSR graphs.
//
// The paper's §4.4 "profitable workloads" study uses BFS as the
// archetypal pointer-chasing application that FPGAs lose badly on
// (Table 4: x86 wins by multiple orders of magnitude at every graph
// size).  The implementation is a standard frontier BFS, which the
// Table 4 harness runs on every graph size it reports.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace xartrek::workloads {

/// A directed graph in compressed-sparse-row form.
struct CsrGraph {
  int nodes = 0;
  std::vector<std::int32_t> row_ptr;  ///< size nodes+1
  std::vector<std::int32_t> adj;      ///< size row_ptr.back()

  [[nodiscard]] std::int64_t edges() const {
    return static_cast<std::int64_t>(adj.size());
  }
};

/// Uniform random digraph with `nodes` vertices and ~`avg_degree`
/// out-edges per vertex; guarantees a Hamiltonian-ish backbone
/// (i -> i+1) so BFS from 0 reaches everything.
[[nodiscard]] CsrGraph make_random_graph(Rng& rng, int nodes,
                                         double avg_degree);

/// The selected function: BFS depths from `source` (-1 = unreachable).
[[nodiscard]] std::vector<std::int32_t> bfs_depths(const CsrGraph& graph,
                                                   int source);

}  // namespace xartrek::workloads
