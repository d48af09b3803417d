// x86 CPU-load monitor.
//
// Algorithm 2 line 3: "Start timer to read x86LOAD".  The scheduler
// server does not inspect the run queue at decision time; it uses the
// last timer sample, exactly like the real implementation reads a
// periodically-refreshed load figure.  Load is the paper's metric: the
// number of resident processes on the x86 server (Table 3).
//
// The timer is modelled without scheduling a single event.  Between two
// changes of the resident count every tick reads the same number, so the
// monitor catches up on demand instead: before each read and just before
// the cluster's count changes (the cluster's load watcher hook), it
// advances over every tick instant T <= now and, if at least one passed,
// takes the current count as that tick's sample -- nothing changed in
// between, or the hook would already have caught up.  Two rules make
// this exact:
//
//   * Sample-first: a tick at T reads the count in force before any
//     other event at T.  A count change in an event at exactly T shows
//     up at the next tick, and a read at T still sees T's sample.
//   * Stepped grid: tick instants follow the timer's own
//     double-precision chain T_{k+1} = T_k + period from the
//     construction instant T_0, so no whole-millisecond grid is assumed.
//
// The one difference from a self-rescheduling timer: such a timer runs
// an event at grid instant T that was enqueued at least one period
// ahead (before the timer enqueued its tick at T) ahead of that tick,
// so the event's count change lands in T's sample.  Sample-first puts
// it in the next tick's sample.  Fig. 7's waves and Fig. 8's load steps
// are such events, and every figure output is the same either way.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "hw/cpu_cluster.hpp"
#include "sim/simulation.hpp"

namespace xartrek::runtime {

/// Periodic sampler of an x86 cluster's process count.
class LoadMonitor final : private hw::LoadWatcher {
 public:
  /// Takes the first sample now; ticks then fall every `period`.  The
  /// default is fine enough that a just-launched application is visible
  /// to the very next placement decision (the paper counts every
  /// running application instantly in its load figure).  Registers as
  /// `x86`'s load watcher, which must be free (one monitor per
  /// cluster); `x86` must outlive the monitor.
  LoadMonitor(sim::Simulation& sim, hw::CpuCluster& x86,
              Duration period = Duration::ms(10.0));
  LoadMonitor(const LoadMonitor&) = delete;
  LoadMonitor& operator=(const LoadMonitor&) = delete;
  ~LoadMonitor() { x86_.set_load_watcher(nullptr); }

  /// The load sampled at the latest tick instant <= now.
  [[nodiscard]] int x86_load() {
    catch_up();
    return last_sample_;
  }

  /// Samples taken so far: the first one plus one per tick instant
  /// <= now.
  [[nodiscard]] std::uint64_t samples() {
    catch_up();
    return samples_;
  }

  [[nodiscard]] Duration period() const { return period_; }

 private:
  void before_load_change() override { catch_up(); }
  void catch_up();

  sim::Simulation& sim_;
  hw::CpuCluster& x86_;
  Duration period_;
  TimePoint next_tick_;
  int last_sample_;
  std::uint64_t samples_ = 1;
};

}  // namespace xartrek::runtime
