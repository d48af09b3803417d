#include "apps/load_generator.hpp"

#include "common/assert.hpp"

namespace xartrek::apps {

LoadGenerator::LoadGenerator(platform::Testbed& testbed, int processes,
                             Options opts)
    : testbed_(testbed), processes_(processes), opts_(opts) {
  XAR_EXPECTS(processes >= 0);
  XAR_EXPECTS(opts_.run_demand > Duration::zero());
  XAR_EXPECTS(opts_.demand_jitter >= 0.0);
  // Batched bookkeeping: ONE process-table update (and, for cluster
  // sweeps, one job-pool reservation) for the whole cohort, then one
  // O(log n) submit per job in one pool batch, which arms the pool's
  // completion event once -- nothing else scales with the count.
  testbed_.x86().attach_processes(processes);
  if (opts_.reserve) {
    testbed_.x86().reserve_jobs(static_cast<std::size_t>(processes) + 16);
  }
  lanes_.resize(static_cast<std::size_t>(processes));
  const auto batch = testbed_.x86().batch();
  for (std::uint32_t lane = 0;
       lane < static_cast<std::uint32_t>(processes); ++lane) {
    spawn(lane);
  }
}

Duration LoadGenerator::lane_demand(std::uint32_t lane) const {
  if (opts_.demand_jitter == 0.0) return opts_.run_demand;
  return opts_.run_demand * (1.0 + opts_.demand_jitter *
                                       static_cast<double>(lane % 8191) /
                                       8191.0);
}

void LoadGenerator::spawn(std::uint32_t lane) {
  // Each completed MG-B run immediately starts the next (the paper keeps
  // the n background instances alive throughout the measurement).  The
  // callback carries its spawn generation; after stop() bumps it, a
  // straggler that somehow survived the cancel sweep reads as inert
  // instead of resurrecting the loop.  {this, lane, gen} is trivially
  // copyable and fits the engine's inline buffer: no allocation.
  const std::uint32_t gen = generation_;
  lanes_[lane] = testbed_.x86().run(lane_demand(lane), [this, lane, gen] {
    if (gen != generation_) return;
    spawn(lane);
  });
}

void LoadGenerator::stop() {
  if (!running_) return;
  running_ = false;
  ++generation_;  // invalidate every parked respawn token
  {
    const auto batch = testbed_.x86().batch();  // one re-arm for all
    for (auto id : lanes_) {
      testbed_.x86().cancel(id);  // false for a just-finished run: its
                                  // respawn token is stale anyway
    }
  }
  lanes_.clear();
  testbed_.x86().detach_processes(processes_);
}

}  // namespace xartrek::apps
