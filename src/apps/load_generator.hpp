// Background load generation.
//
// The paper generates medium/high CPU load by running n simultaneous
// instances of NPB MG class B while the measured application set
// executes (§4.1).  Each generator process loops MG-B runs on the x86
// cluster until stopped, occupying a run-queue slot and a fair share of
// the cores -- exactly what the scheduler's load metric sees.
//
// Each process is one loop job of the x86 processor-sharing pool
// (`hw::CpuCluster::run_loop`): the pool restarts a finished run itself,
// so a lap costs no callback, and a lane keeps one JobId for its whole
// life.  `stop()` cancels every lane's id, which ends its loop even when
// the lane's run has just finished in the tick that is running.  The
// generator performs no heap allocation after construction.
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

  platform::Testbed& testbed_;
  int processes_;
  Options opts_;
  bool running_ = true;
  /// Each lane's loop job (index = lane).
  std::vector<hw::CpuCluster::JobId> lanes_;
};

}  // namespace xartrek::apps
