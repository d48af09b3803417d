// Topology graph + deterministic auto-partitioner for the sharded core.
//
// PR 3 built the epoch-synchronized multi-queue engine
// (sim::ShardedSimulation), but every user had to assemble the
// cross-shard routing by hand: pick a shard per component, construct a
// CrossShardChannel per interaction, and eyeball the conservative
// lookahead contract (every cross-shard latency >= the epoch).  That
// assembly is exactly the kind of mapping SYNERGY-style systems derive
// from a declarative description, and hand-wiring it per experiment is
// why the sharded core never became the default execution engine.
//
// This header derives the mapping instead.  Components register as
// *nodes* of a Topology, each tagged with an affinity group ("cell": a
// datacenter cell, a server, a component group); interactions register
// as *edges* carrying the latency they model.  The partitioner then
//
//   * groups nodes by cell and assigns one ShardedSimulation shard per
//     cell, in ascending cell order -- a pure function of the graph, so
//     the same graph always produces the same shard map;
//   * validates the lookahead contract: every cross-shard edge must
//     model a latency >= the epoch, and a violation is reported with
//     the offending edge's endpoints and the largest epoch that would
//     be legal;
//   * auto-picks the largest legal epoch (the minimum cross-shard edge
//     latency) when none is forced, so synchronization is as coarse as
//     the model allows;
//   * emits the CrossShardChannel wiring: PartitionedEngine::channel
//     derives each edge's channel from the shard map -- inert when both
//     endpoints share a shard (the component keeps its in-shard
//     behavior), a mailbox-backed channel with the edge's modeled
//     latency when they do not.
//
// A single-cell topology degenerates to one shard whose trace is
// identical to the plain single-queue Simulation; adding cells changes
// where components run, never what they compute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"

namespace xartrek::sim {

/// Affinity group: nodes with the same cell always land on the same
/// shard (one shard per distinct cell in the graph).
using CellId = std::uint32_t;
/// A registered component.
using NodeId = std::uint32_t;
/// A registered interaction between two components.
using EdgeId = std::uint32_t;

/// The component/interaction graph an experiment declares before any
/// simulation exists.  Build it up front, then realize it with a
/// PartitionedEngine; the graph itself owns no simulation state.
class Topology {
 public:
  struct Node {
    std::string name;  ///< diagnostics and error messages
    CellId cell = 0;
  };

  /// A directed interaction: "src may create work for dst, `latency`
  /// after the causing event".  The latency is the *model's* cost of
  /// the interaction (a link's propagation + stack traversal, a
  /// reply's far-side hop); the partitioner turns it into the
  /// lookahead bound when the endpoints land on different shards.
  struct Edge {
    NodeId src = 0;
    NodeId dst = 0;
    Duration latency = Duration::zero();
  };

  struct PartitionOptions {
    /// Force a synchronization window length.  Unset = auto-pick the
    /// largest legal epoch (the minimum cross-shard edge latency).
    std::optional<Duration> epoch;
    /// Window length used when nothing constrains it (a single-cell
    /// graph, or one with no cross-cell edges).
    Duration fallback_epoch = Duration::micros(100.0);
    /// Passed through to ShardedSimulation::Options.
    std::size_t mailbox_capacity = 1024;
    bool parallel = false;
    /// Worker mapping and stealing, forwarded wholesale to
    /// ShardedSimulation::Options::exec.
    ExecOptions exec;
  };

  /// The derived mapping: a pure function of (graph, options), so two
  /// plans of the same graph are always identical.
  struct Plan {
    std::size_t shards = 1;
    Duration epoch = Duration::zero();
    std::vector<ShardId> node_shard;  ///< by NodeId
    std::vector<CellId> shard_cell;   ///< by ShardId, ascending cells
    std::size_t cross_edges = 0;      ///< edges spanning two shards

    [[nodiscard]] ShardId shard_of(NodeId n) const {
      XAR_EXPECTS(n < node_shard.size());
      return node_shard[n];
    }
  };

  /// Register a component.  Nodes sharing `cell` share a shard.
  NodeId add_node(std::string name, CellId cell);

  /// Register an interaction.  Requires both endpoints registered and
  /// a non-negative latency; whether the latency is *large enough* is
  /// the partitioner's call (it depends on the epoch).
  EdgeId add_edge(NodeId src, NodeId dst, Duration latency);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const Node& node(NodeId n) const {
    XAR_EXPECTS(n < nodes_.size());
    return nodes_[n];
  }
  [[nodiscard]] const Edge& edge(EdgeId e) const {
    XAR_EXPECTS(e < edges_.size());
    return edges_[e];
  }

  static constexpr EdgeId kNoEdge = 0xFFFF'FFFFu;

  /// First registered edge src -> dst, or kNoEdge.
  [[nodiscard]] EdgeId find_edge(NodeId src, NodeId dst) const;

  /// Partition the graph.  Deterministic; throws xartrek::Error with
  /// the offending edge named when the lookahead contract cannot hold.
  [[nodiscard]] Plan plan(const PartitionOptions& opts) const;
  [[nodiscard]] Plan plan() const { return plan(PartitionOptions{}); }

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

/// A realized topology: the ShardedSimulation built from a Plan plus
/// the channel derivation that used to be hand-assembled per
/// component.  Components are constructed against `sim_of(node)` and
/// register their cross-shard interactions through `channel`, so the
/// same experiment code runs on one shard or many.
class PartitionedEngine {
 public:
  explicit PartitionedEngine(Topology topo,
                             Topology::PartitionOptions opts = {});
  PartitionedEngine(const PartitionedEngine&) = delete;
  PartitionedEngine& operator=(const PartitionedEngine&) = delete;

  [[nodiscard]] ShardedSimulation& engine() { return ssim_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const Topology::Plan& plan() const { return plan_; }

  [[nodiscard]] ShardId shard_of(NodeId n) const {
    return plan_.shard_of(n);
  }

  /// The execution lane currently running the node's shard.  The plan
  /// fixes *which shard* a node lives on; with stealing enabled, the
  /// engine's live shard -> worker map decides *which lane* runs it
  /// and may change at window boundaries.  Diagnostics only -- code
  /// never needs it for correctness, because traces are independent of
  /// the assignment.
  [[nodiscard]] std::size_t worker_of(NodeId n) const {
    return ssim_.worker_of(plan_.shard_of(n));
  }

  /// The node's home engine -- what its components are constructed
  /// against.
  [[nodiscard]] Simulation& sim_of(NodeId n) {
    return ssim_.shard(plan_.shard_of(n));
  }

  /// Derive the channel for a registered edge: inert when both
  /// endpoints share a shard (the component falls back to its local
  /// behavior), a mailbox-backed channel carrying the edge's modeled
  /// latency otherwise.  The lookahead contract already held at plan
  /// time, so this cannot fail it.
  [[nodiscard]] CrossShardChannel channel(EdgeId e);

  /// Same, looked up by endpoints.  Throws xartrek::Error when no such
  /// edge was registered -- deriving a channel for an undeclared
  /// interaction is exactly the hand-wiring mistake this API removes.
  [[nodiscard]] CrossShardChannel channel_between(NodeId src, NodeId dst);

 private:
  Topology topo_;
  Topology::Plan plan_;
  ShardedSimulation ssim_;
};

}  // namespace xartrek::sim
