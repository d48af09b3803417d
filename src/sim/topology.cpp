#include "sim/topology.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace xartrek::sim {

namespace {

/// "cell3 -> cell0" for error messages.
std::string edge_name(const Topology& topo, const Topology::Edge& e) {
  return topo.node(e.src).name + " -> " + topo.node(e.dst).name;
}

std::string ms_string(Duration d) {
  // Error-path only; iostream formatting would be fine but keeps the
  // message style of the contract macros (plain what() strings).
  std::string s = std::to_string(d.to_ms());
  // Trim trailing zeros of the fixed to_string rendering for
  // readability ("2.000000" -> "2").
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s + " ms";
}

}  // namespace

NodeId Topology::add_node(std::string name, CellId cell) {
  XAR_EXPECTS(nodes_.size() < std::numeric_limits<NodeId>::max());
  nodes_.push_back(Node{std::move(name), cell});
  return static_cast<NodeId>(nodes_.size() - 1);
}

EdgeId Topology::add_edge(NodeId src, NodeId dst, Duration latency) {
  XAR_EXPECTS(src < nodes_.size() && dst < nodes_.size());
  XAR_EXPECTS(latency >= Duration::zero());
  edges_.push_back(Edge{src, dst, latency});
  return static_cast<EdgeId>(edges_.size() - 1);
}

EdgeId Topology::find_edge(NodeId src, NodeId dst) const {
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (edges_[e].src == src && edges_[e].dst == dst) {
      return static_cast<EdgeId>(e);
    }
  }
  return kNoEdge;
}

Topology::Plan Topology::plan(const PartitionOptions& opts) const {
  Plan p;

  // Shard assignment: one shard per distinct cell, shards ordered by
  // ascending CellId.  Sorting (not first-appearance order) is what
  // makes the map a pure function of the graph: registering the same
  // components in a different order yields the same plan.
  std::vector<CellId> cells;
  cells.reserve(nodes_.size());
  for (const Node& n : nodes_) cells.push_back(n.cell);
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  if (cells.empty()) cells.push_back(0);  // empty graph: one idle shard
  p.shard_cell = cells;
  p.shards = cells.size();

  p.node_shard.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    const auto it =
        std::lower_bound(cells.begin(), cells.end(), n.cell);
    p.node_shard.push_back(
        static_cast<ShardId>(std::distance(cells.begin(), it)));
  }

  // Lookahead survey: the partitioner owns the contract the hand-wired
  // call sites used to eyeball.
  const Edge* tightest = nullptr;
  Duration min_cross = Duration::zero();
  for (const Edge& e : edges_) {
    if (p.node_shard[e.src] == p.node_shard[e.dst]) continue;
    ++p.cross_edges;
    if (tightest == nullptr || e.latency < min_cross) {
      tightest = &e;
      min_cross = e.latency;
    }
  }

  if (opts.epoch.has_value()) {
    const Duration epoch = *opts.epoch;
    if (epoch <= Duration::zero()) {
      throw Error("topology partition: the forced epoch must be > 0");
    }
    if (tightest != nullptr && min_cross < epoch) {
      throw Error(
          "topology partition: cross-cell edge `" +
          edge_name(*this, *tightest) + "` models " + ms_string(min_cross) +
          ", below the " + ms_string(epoch) +
          " epoch; the conservative lookahead contract needs every "
          "cross-shard latency >= the epoch (largest legal epoch for "
          "this graph: " +
          ms_string(min_cross) + ")");
    }
    p.epoch = epoch;
  } else if (tightest == nullptr) {
    // Nothing crosses shards (single cell, or isolated cells): any
    // epoch is legal; use the configured fallback.
    XAR_EXPECTS(opts.fallback_epoch > Duration::zero());
    p.epoch = opts.fallback_epoch;
  } else {
    if (min_cross <= Duration::zero()) {
      throw Error(
          "topology partition: cross-cell edge `" +
          edge_name(*this, *tightest) +
          "` models zero latency; no epoch can satisfy the "
          "conservative lookahead contract (cross-cell interactions "
          "must model a positive delay)");
    }
    // The largest legal epoch: synchronize as coarsely as the model
    // allows.
    p.epoch = min_cross;
  }
  return p;
}

namespace {

ShardedSimulation::Options engine_options(const Topology::Plan& plan,
                                          const Topology::PartitionOptions&
                                              opts) {
  ShardedSimulation::Options o;
  o.shards = plan.shards;
  o.epoch = plan.epoch;
  o.parallel = opts.parallel;
  o.exec = opts.exec;  // one assignment, no three-way mirroring
  return o;
}

}  // namespace

PartitionedEngine::PartitionedEngine(Topology topo,
                                     Topology::PartitionOptions opts)
    : topo_(std::move(topo)),
      plan_(topo_.plan(opts)),
      ssim_(engine_options(plan_, opts)) {}

CrossShardChannel PartitionedEngine::channel(EdgeId e) {
  const Topology::Edge& edge = topo_.edge(e);
  const ShardId src = plan_.shard_of(edge.src);
  const ShardId dst = plan_.shard_of(edge.dst);
  if (src == dst) return CrossShardChannel{};  // in-shard: stay local
  return CrossShardChannel(ssim_, src, dst, edge.latency);
}

CrossShardChannel PartitionedEngine::channel_between(NodeId src,
                                                     NodeId dst) {
  const EdgeId e = topo_.find_edge(src, dst);
  if (e == Topology::kNoEdge) {
    throw Error("topology: no edge registered between `" +
                topo_.node(src).name + "` and `" + topo_.node(dst).name +
                "`; register the interaction before deriving its "
                "channel");
  }
  return channel(e);
}

}  // namespace xartrek::sim
