#include "workloads/bfs.hpp"

#include <deque>

#include "common/assert.hpp"

namespace xartrek::workloads {

CsrGraph make_random_graph(Rng& rng, int nodes, double avg_degree) {
  XAR_EXPECTS(nodes >= 2);
  XAR_EXPECTS(avg_degree >= 1.0);

  std::vector<std::vector<std::int32_t>> out(
      static_cast<std::size_t>(nodes));
  // Backbone: a path through all vertices keeps the graph connected.
  for (int v = 0; v + 1 < nodes; ++v) {
    out[static_cast<std::size_t>(v)].push_back(v + 1);
  }
  // Random extra edges up to the requested average degree.
  const std::int64_t extra =
      static_cast<std::int64_t>(avg_degree * nodes) - (nodes - 1);
  for (std::int64_t e = 0; e < extra; ++e) {
    const auto u = static_cast<std::size_t>(rng.uniform_int(0, nodes - 1));
    const auto v = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
    out[u].push_back(v);
  }

  CsrGraph g;
  g.nodes = nodes;
  g.row_ptr.reserve(static_cast<std::size_t>(nodes) + 1);
  g.row_ptr.push_back(0);
  for (const auto& neighbours : out) {
    for (std::int32_t v : neighbours) g.adj.push_back(v);
    g.row_ptr.push_back(static_cast<std::int32_t>(g.adj.size()));
  }
  return g;
}

std::vector<std::int32_t> bfs_depths(const CsrGraph& graph, int source) {
  XAR_EXPECTS(source >= 0 && source < graph.nodes);
  std::vector<std::int32_t> depth(static_cast<std::size_t>(graph.nodes), -1);
  std::deque<std::int32_t> frontier;
  depth[static_cast<std::size_t>(source)] = 0;
  frontier.push_back(source);
  while (!frontier.empty()) {
    const std::int32_t u = frontier.front();
    frontier.pop_front();
    const std::int32_t d = depth[static_cast<std::size_t>(u)];
    for (std::int32_t i = graph.row_ptr[static_cast<std::size_t>(u)];
         i < graph.row_ptr[static_cast<std::size_t>(u) + 1]; ++i) {
      const std::int32_t v = graph.adj[static_cast<std::size_t>(i)];
      if (depth[static_cast<std::size_t>(v)] < 0) {
        depth[static_cast<std::size_t>(v)] = d + 1;
        frontier.push_back(v);
      }
    }
  }
  return depth;
}

}  // namespace xartrek::workloads
