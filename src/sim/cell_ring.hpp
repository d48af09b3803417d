// The cluster's shard layout: N testbed cells joined by a ring.
//
// Xar-Trek's testbed -- an x86 host, its Alveo card and the ARM server
// -- is one cell, and a cell's components interact at in-cell
// latencies far below any sane window, so a cell is always one shard:
// cell i runs on shard i of a ShardedSimulation.  Cells interact only
// over the ring interconnect, cell i -> cell (i + 1) mod N, every hop
// modelling the same latency.  That hop is the only cross-shard
// latency in the model, so it bounds the window:
//
//   * a forced epoch is used as given, provided it is > 0 and, with two
//     or more cells, no longer than the hop (the conservative lookahead
//     contract); a violation throws xartrek::Error naming both;
//   * otherwise the epoch is the hop itself, the largest legal one --
//     a zero-latency hop between distinct cells admits none and throws;
//   * one cell has no hop, and runs ShardedSimulation's default epoch.
//
// next(i) hands out the channel a component on cell i uses to deliver
// to its ring neighbor; it is inert for one cell, where the neighbor
// is the cell itself.  Channels name shards, never workers: with
// ExecOptions the engine may move a shard to another worker between
// windows, but a cell never leaves its shard.
#pragma once

#include <cstddef>
#include <optional>

#include "common/time.hpp"
#include "sim/exec_options.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"

namespace xartrek::sim {

class CellRing {
 public:
  /// `cells` cells, each ring hop modelling `hop`; `epoch` forces the
  /// window length (unset picks the hop).  `parallel` and `exec` are
  /// passed through to ShardedSimulation::Options.
  CellRing(std::size_t cells, Duration hop,
           std::optional<Duration> epoch = std::nullopt,
           bool parallel = false, ExecOptions exec = {});
  CellRing(const CellRing&) = delete;
  CellRing& operator=(const CellRing&) = delete;

  [[nodiscard]] ShardedSimulation& engine() { return ssim_; }
  [[nodiscard]] const ShardedSimulation& engine() const { return ssim_; }

  /// Cell i's engine: what its components are constructed against.
  [[nodiscard]] Simulation& cell(std::size_t i) {
    return ssim_.shard(static_cast<ShardId>(i));
  }

  /// Delivery from cell i to cell (i + 1) mod N, one hop later; inert
  /// for one cell.
  [[nodiscard]] CrossShardChannel next(std::size_t i);

 private:
  Duration hop_;
  ShardedSimulation ssim_;
};

}  // namespace xartrek::sim
