// Execution-lane options shared by every layer that drives the sharded
// engine.
//
// ShardedSimulation::Options and exp::ClusterSpec embed this one
// struct, and sim::CellRing forwards it wholesale between them, so a
// knob is never mirrored field-by-field across the three layers.
#pragma once

#include <cstddef>

namespace xartrek::sim {

/// How the engine maps shards onto OS threads.  Neither field affects
/// the simulated trace -- only wall-clock performance (see shard.hpp's
/// determinism notes).
struct ExecOptions {
  /// Execution lanes in parallel mode; 0 means one per shard.  Fewer
  /// workers than shards is what gives the stealing rebalancer room
  /// to isolate a hot shard.
  std::size_t workers = 0;
  /// Deterministic shard stealing across workers (parallel balance;
  /// evaluated -- map and stats maintained -- in serial mode too so
  /// both modes agree on every decision).  On by default; it acts only
  /// when 1 < workers < shards.  `false` is the fixed round-robin map:
  /// the reference that trace-identity tests and cluster_bench's skew
  /// baseline compare stealing against.
  bool steal = true;
};

}  // namespace xartrek::sim
