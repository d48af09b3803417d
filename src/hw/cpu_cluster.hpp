// CPU cluster model.
//
// Wraps a processor-sharing resource with a named CPU description.  Job
// demands are expressed directly in milliseconds-at-full-speed *on this
// cluster* -- callers supply per-target demands (an app's x86 demand and
// ARM demand differ), so no frequency scaling happens here.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "common/time.hpp"
#include "sim/callback.hpp"
#include "sim/ps_resource.hpp"
#include "sim/simulation.hpp"

namespace xartrek::hw {

/// Static description of a CPU (one row of the paper's testbed table).
struct CpuSpec {
  std::string model;   ///< e.g. "Intel Xeon Bronze 3104"
  int cores;           ///< physical cores available to applications
  double ghz;          ///< nominal clock (documentation / size model only)
  int memory_gb;       ///< installed DRAM (documentation only)
};

/// The paper's x86 host: Dell 7920, Xeon Bronze 3104, 6 cores @ 1.7 GHz.
[[nodiscard]] CpuSpec xeon_bronze_3104();

/// The paper's ARM server: Cavium ThunderX, 96 cores @ 2 GHz.
[[nodiscard]] CpuSpec cavium_thunderx();

/// Non-owning observer of a cluster's resident count: told just before
/// the count changes, so a sampler can settle what the old count was
/// worth first (runtime::LoadMonitor catches up its tick grid here).
class LoadWatcher {
 public:
  virtual void before_load_change() = 0;

 protected:
  ~LoadWatcher() = default;
};

/// A multi-core CPU under processor sharing.
///
/// Two distinct notions live here.  *Contention* comes from the jobs in
/// the processor-sharing pool (CPU bursts).  *Load* -- the metric the
/// Xar-Trek scheduler samples, and the unit of every threshold -- is the
/// number of processes resident on the server (paper Table 3 defines
/// low/medium/high by process count).  A process between CPU bursts, or
/// blocked on an FPGA/ARM offload, still counts toward load; processes
/// therefore attach explicitly for their lifetime.
class CpuCluster {
 public:
  using JobId = sim::PsResource::JobId;
  using Callback = sim::UniqueCallback;

  CpuCluster(sim::Simulation& sim, CpuSpec spec);

  /// Run `demand` milliseconds-at-full-speed of work; `on_complete` fires
  /// when it finishes under whatever contention materializes.
  JobId run(Duration demand, Callback&& on_complete) {
    return pool_.submit(demand.to_ms(), std::move(on_complete));
  }

  /// Run `demand` milliseconds-at-full-speed of work in a loop: each
  /// time a run finishes, the next starts at once under the same id
  /// (sim::PsResource::submit_loop), until cancelled.  Requires
  /// demand > 0.
  JobId run_loop(Duration demand) { return pool_.submit_loop(demand.to_ms()); }

  /// Abort a job or end a loop (used when an app is torn down at a
  /// horizon).
  bool cancel(JobId id) { return pool_.cancel(id); }

  /// A scope in which any number of runs and cancels re-arm the pool's
  /// completion event once, when it closes (sim::PsResource::Batch).
  /// A load generator opens one around its cohort's submits and
  /// around its teardown's cancels.
  [[nodiscard]] sim::PsResource::Batch batch() {
    return sim::PsResource::Batch(pool_);
  }

  /// A process arrived on / departed from this server.
  void attach_process() {
    notify_watcher();
    ++resident_;
  }
  void detach_process() {
    XAR_EXPECTS(resident_ > 0);
    notify_watcher();
    --resident_;
  }

  /// Batched bookkeeping: `n` processes arrive/depart in one
  /// process-table update.  Load generators at cluster scale attach a
  /// cell's whole cohort with one call instead of funneling a million
  /// per-process updates through the table.
  void attach_processes(int n) {
    XAR_EXPECTS(n >= 0);
    notify_watcher();
    resident_ += n;
  }
  void detach_processes(int n) {
    XAR_EXPECTS(n >= 0 && n <= resident_);
    notify_watcher();
    resident_ -= n;
  }

  /// The one load watcher, told before every resident-count change;
  /// null (the default) watches nothing.  The cluster does not own it,
  /// and the watcher must unregister before it dies.
  void set_load_watcher(LoadWatcher* watcher) { watcher_ = watcher; }
  [[nodiscard]] LoadWatcher* load_watcher() const { return watcher_; }

  /// Grow the PS pool up front so a known cohort submits without a
  /// single reallocation (cluster sweeps; optional).
  void reserve_jobs(std::size_t n) { pool_.reserve_jobs(n); }

  /// Gray-failure hook (kCellSlow): scale this cluster's service rate;
  /// 1.0 restores nominal speed.  In-flight bursts finish later (or
  /// earlier, on restore) but never lose attained work.
  void set_service_scale(double scale) { pool_.set_capacity_scale(scale); }
  [[nodiscard]] double service_scale() const {
    return pool_.capacity_scale();
  }

  /// Number of resident processes -- the scheduler's load metric.
  [[nodiscard]] int load() const { return resident_; }

  /// Jobs currently inside the PS pool (contention diagnostics).
  [[nodiscard]] int active_jobs() const {
    return static_cast<int>(pool_.active_jobs());
  }

  [[nodiscard]] const CpuSpec& spec() const { return spec_; }
  [[nodiscard]] const sim::PsResource& pool() const { return pool_; }

 private:
  void notify_watcher() {
    if (watcher_ != nullptr) watcher_->before_load_change();
  }

  CpuSpec spec_;
  sim::PsResource pool_;
  int resident_ = 0;
  LoadWatcher* watcher_ = nullptr;
};

}  // namespace xartrek::hw
