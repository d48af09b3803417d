// Background load generation.
//
// The paper generates medium/high CPU load by running n simultaneous
// instances of NPB MG class B while the measured application set
// executes (§4.1).  Each generator process loops MG-B runs on the x86
// cluster until stopped, occupying a run-queue slot and a fair share of
// the cores -- exactly what the scheduler's load metric sees.
//
// Cancellation follows the engine's SlotPool idiom instead of a
// heap-allocated shared flag: every parked respawn callback carries the
// generation it was spawned under, and `stop()` bumps the generation,
// so a stale completion reads as inert.  One in-flight JobId per lane
// (overwritten on every respawn) keeps teardown exact without an
// ever-growing id list, and the whole generator performs zero heap
// allocations after construction.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/benchmark_spec.hpp"
#include "common/time.hpp"
#include "platform/testbed.hpp"

namespace xartrek::apps {

/// A set of looping MG-B processes on the x86 server.
class LoadGenerator {
 public:
  struct Options {
    Duration run_demand = mg_b_run_demand();
    /// Per-lane demand spread (fraction): lane l loops runs of
    /// run_demand * (1 + demand_jitter * (l mod 8191) / 8191).  Zero
    /// keeps the paper's semantics (every lane identical); the cluster
    /// bench sets it so cohort completions pave the timeline instead
    /// of landing on one batched tick (the modulus is prime and larger
    /// than any bench cohort, so lanes get distinct demands).
    double demand_jitter = 0.0;
    /// Pre-grow the job pool to the cohort size so the attach burst
    /// performs no reallocation beyond the growth itself.  The engine
    /// needs no room: the burst arms one completion event.
    bool reserve = false;
  };

  /// Starts `processes` loops immediately (one batched process-table
  /// attach for the whole cohort).
  LoadGenerator(platform::Testbed& testbed, int processes, Options opts);
  LoadGenerator(platform::Testbed& testbed, int processes,
                Duration run_demand)
      : LoadGenerator(testbed, processes, Options{run_demand}) {}
  LoadGenerator(platform::Testbed& testbed, int processes)
      : LoadGenerator(testbed, processes, Options{}) {}
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;
  ~LoadGenerator() { stop(); }

  /// Cancel all loops (in-flight work is abandoned).  Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return running_; }

 private:
  [[nodiscard]] Duration lane_demand(std::uint32_t lane) const;
  void spawn(std::uint32_t lane);

  platform::Testbed& testbed_;
  int processes_;
  Options opts_;
  bool running_ = true;
  /// Generation-checked cancel token: respawn callbacks capture
  /// {this, lane, generation}; a bumped generation makes them inert.
  std::uint32_t generation_ = 1;
  /// The in-flight run of each lane (index = lane).
  std::vector<hw::CpuCluster::JobId> lanes_;
};

}  // namespace xartrek::apps
