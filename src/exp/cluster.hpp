// Cluster experiment: N testbed cells joined by an Ethernet ring.
//
// A ClusterExperiment builds an N-cell cluster from a declarative
// ClusterSpec on a sim::CellRing: cell i (a testbed's x86 host, FPGA
// card and ARM server) runs on shard i, and the ring links, cell i ->
// cell (i + 1) mod N, each carry the modeled Ethernet latency, which
// is also the window length unless the spec forces a shorter one.  The
// suite is compiled once for the whole cluster; each cell is then a
// full exp::Experiment (threshold table, scheduler, executor) on that
// shared suite, constructed against its shard's engine through the
// testbed's shard-aware hook:
//
//   * 1 cell degenerates to one shard whose trace is identical to
//     exp::Experiment on the classic single-queue testbed (pinned by
//     tests/cluster_test.cpp);
//   * N cells run the same per-cell model on N shards, serial or
//     parallel, trace-identical either way, with cross-cell job
//     handoffs and checkpoint drains riding the ring's hops.
//
// Background load scales with the cluster: set_background_load spreads
// the cohort over the cells, one apps::LoadGenerator per cell, so
// attach/detach bookkeeping is batched per shard -- the million-user
// sweep no longer funnels through one CpuCluster process table.
//
// Faults enter through one sim::FaultPlan per cluster (apply_fault_plan),
// with fixed backoff, drain and gray-fault settings, so the plan's
// validation covers every kill and partition the cluster will see.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/benchmark_spec.hpp"
#include "apps/load_generator.hpp"
#include "exp/experiment.hpp"
#include "hw/link.hpp"
#include "hw/reliable_channel.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/cell_ring.hpp"
#include "sim/exec_options.hpp"
#include "sim/fault.hpp"
#include "sim/shard.hpp"

namespace xartrek::exp {

/// Declarative description of an N-cell cluster.
struct ClusterSpec {
  std::size_t cells = 1;
  /// Per-cell platform (every cell is one paper testbed by default).
  platform::TestbedConfig cell_config = {};
  /// The cell-to-cell interconnect (ring: cell i feeds cell (i+1) mod
  /// N).  Its latency is the ring hop, and the epoch unless one is
  /// forced.
  hw::LinkSpec intercell = hw::ethernet_1gbps();
  /// Force a synchronization window, at most the hop latency when
  /// there are two or more cells (sim::CellRing throws otherwise).
  std::optional<Duration> epoch;
  /// Run shards on threads.  Traces are identical either way.
  bool parallel = false;
  /// Worker mapping (0 workers = one lane per cell) and deterministic
  /// cell stealing (on by default; it acts when 1 < workers < cells),
  /// forwarded wholesale to the engine.  Neither changes the trace --
  /// only wall-clock behavior.
  sim::ExecOptions exec;
};

/// N cells, one shard each, one experiment stack per cell.
class ClusterExperiment {
 public:
  ClusterExperiment(std::vector<apps::BenchmarkSpec> specs,
                    const runtime::ThresholdTable& seed_table,
                    ClusterSpec cluster = {},
                    ExperimentOptions options = {});
  ClusterExperiment(const ClusterExperiment&) = delete;
  ClusterExperiment& operator=(const ClusterExperiment&) = delete;

  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  /// The ring the cells run on; its engine() is the ShardedSimulation.
  [[nodiscard]] sim::CellRing& engine() { return ring_; }

  /// Cell i's full experiment stack (cell i runs on shard i).  Use it
  /// to launch apps and read results; drive time through *this* (the
  /// sharded engine), not through the cell's own run_until_complete.
  [[nodiscard]] Experiment& cell(std::size_t i) {
    XAR_EXPECTS(i < cells_.size());
    return *cells_[i];
  }

  /// Launch one run of `app_name` on cell `i` now.
  void launch(std::size_t i, const std::string& app_name) {
    cell(i).launch(app_name);
  }

  /// Spread `total_jobs` background processes across the cells, one
  /// apps::LoadGenerator cohort per cell: cell c of n gets total/n, plus
  /// one while c < total mod n (0 tears the current cohorts down).
  /// Bookkeeping is batched per shard.  The one-argument form reserves
  /// each cell's job pool for its cohort; the two-argument form takes
  /// the cohorts' options whole (demand, jitter, reserve) -- the load
  /// metric each scheduler samples depends only on the job count.
  void set_background_load(std::uint64_t total_jobs);
  void set_background_load(std::uint64_t total_jobs,
                           apps::LoadGenerator::Options opts);

  /// Hand a job off from cell `from` to its ring neighbor: `bytes` of
  /// state ride the inter-cell link, and `on_arrival` fires on the
  /// neighbor's shard once the last byte lands (plus one ring hop).
  /// Requires a multi-cell cluster.
  void handoff(std::size_t from, std::uint64_t bytes,
               sim::UniqueCallback on_arrival);
  [[nodiscard]] std::size_t handoff_target(std::size_t from) const {
    return (from + 1) % cells_.size();
  }
  [[nodiscard]] std::uint64_t handoffs() const {
    return handoffs_.load(std::memory_order_relaxed);
  }

  /// Advance the whole cluster in epoch windows until `expected`
  /// launched apps (across all cells) have exited or the horizon
  /// passes.  Returns true if the count was reached.
  bool run_until_complete(std::size_t expected,
                          Duration horizon = Duration::minutes(120));

  /// Advance the whole cluster to now() + `d`.
  void run_for(Duration d);

  [[nodiscard]] std::size_t completed_apps() const;
  [[nodiscard]] const std::vector<apps::AppResult>& results(
      std::size_t i) const {
    XAR_EXPECTS(i < cells_.size());
    return cells_[i]->results();
  }

  [[nodiscard]] TimePoint now() const { return ring_.engine().now(); }

  // --- fault injection & tracked jobs -----------------------------------
  //
  // Mutable cross-cell state (job records, death flags, cell epochs)
  // obeys one discipline: it is touched only from its owning cell's
  // shard thread during runs, or from the main thread between runs, and
  // ownership moves between cells only inside channel messages -- which
  // cross at window boundaries.  That single rule is what makes chaos
  // runs memory-safe in parallel mode AND trace-identical to serial.

  /// Schedule every event of `plan` onto its victim's shard and start
  /// health checks on every cell's scheduler.  Call between runs.  This
  /// is the cluster's only fault input, and it takes one non-empty plan,
  /// so FaultPlan::validate sees every fault the cluster will get.  A
  /// plan it cannot apply -- a second non-empty plan, one validate
  /// rejects for its cell and link counts, or one with an event in the
  /// past -- throws xartrek::Error before anything is scheduled or
  /// changed, and does not count as the cluster's plan.  Neither does an
  /// empty plan, which changes nothing: the subsequent run is
  /// bit-identical to never having called this.
  void apply_fault_plan(const sim::FaultPlan& plan);

  [[nodiscard]] bool cell_dead(std::size_t i) const {
    XAR_EXPECTS(i < cell_dead_.size());
    return cell_dead_[i] != 0;
  }

  /// Submit a *tracked* run of `app_name` on cell `i` (between runs).
  /// Unlike launch(), the job carries a cluster-wide id and the chaos
  /// invariant: if its cell dies it is checkpointed, drained to a ring
  /// neighbor, and re-placed until it completes exactly once.  Returns
  /// the job id.
  std::uint64_t submit(std::size_t i, const std::string& app_name);

  /// Advance the cluster until every submitted job has completed or the
  /// horizon passes.  Returns true when all jobs completed.
  bool run_until_jobs_complete(Duration horizon = Duration::minutes(120));

  [[nodiscard]] std::size_t submitted_jobs() const { return jobs_.size(); }
  [[nodiscard]] std::size_t completed_jobs() const;

  /// Per-job completion instant in ms by job id (-1 when incomplete).
  /// The serial/parallel determinism contract is pinned on these.
  [[nodiscard]] std::vector<double> job_completion_times_ms() const;

  struct JobStats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t drained = 0;  ///< checkpoint-drain hops at cell death
    std::uint64_t retries = 0;  ///< backoff re-placements on dead cells
    double p99_latency_ms = 0.0;
    double max_latency_ms = 0.0;
    // Gray-failure telemetry, aggregated across cells between runs.
    std::uint64_t channel_retries = 0;    ///< drain re-transmissions
    std::uint64_t corrupt_recovered = 0;  ///< checksum catches, re-sent
    std::uint64_t duplicates_suppressed = 0;  ///< slow copies swallowed
    std::uint64_t link_drops = 0;    ///< frames lost on degraded links
    std::uint64_t slow_replies = 0;  ///< in-time-but-sluggish heartbeats
    std::uint64_t late_replies = 0;  ///< replies that lost to the timeout
    std::uint64_t breaker_trips = 0;   ///< closed -> open transitions
    std::uint64_t breaker_closes = 0;  ///< half-open -> closed recoveries
    std::uint64_t slots_quarantined = 0;  ///< fabric taken out of rotation
  };
  /// Aggregate over completed jobs (main thread, between runs).
  /// p99/max come from the registry's `cluster.job.latency_ms`
  /// histogram (exact max/min; p99 is a lower-edge estimate that never
  /// exceeds the true quantile) instead of re-sorting a raw latency
  /// vector on every call.
  [[nodiscard]] JobStats job_stats() const;

  // --- observability ----------------------------------------------------

  /// The cluster's metrics registry.  Every cell's scheduler (and slot
  /// scheduler), the ring/drain links, the drain channels, and the
  /// sharded engine are registered at construction under
  /// "cell<i>.sched", "cell<i>.link", "cell<i>.drain" and "sim";
  /// tracked-job latencies feed the "cluster.job.latency_ms" histogram.
  /// Snapshot only between runs (the drained boundary or a join orders
  /// the single-writer lanes against the reader); snapshots are
  /// byte-identical serial vs parallel.
  [[nodiscard]] obs::Registry& registry() { return registry_; }

  /// Attach a tracer (one lane per cell) and wire every span source:
  /// job lifecycle (submit/run/backoff/complete), checkpointed drain
  /// legs (transform/transfer), scheduler batches and decisions, and
  /// slot programmings.  Call between runs, before the traced workload.
  void enable_tracing() { enable_tracing(obs::Tracer::Options{}); }
  void enable_tracing(obs::Tracer::Options opts);
  [[nodiscard]] obs::Tracer* tracer() { return tracer_.get(); }

  /// The trace id a tracked job's spans carry (job id + 1; 0 is
  /// reserved for untracked infrastructure work).
  [[nodiscard]] static std::uint64_t trace_id_of(std::uint64_t job_id) {
    return job_id + 1;
  }

 private:
  enum class JobState : std::uint8_t {
    kPending,     ///< placement event scheduled on the owner's shard
    kBackoff,     ///< owner found dead; forward scheduled after backoff
    kForwarding,  ///< drain in flight to the ring neighbor
    kRunning,     ///< launched as an AppProcess on the owner cell
    kCompleted,
  };

  /// One tracked job.  Owned by jobs_[id].cell's shard during runs;
  /// ownership moves to the neighbor only when a drain's ring hop
  /// carries the job id across.
  struct TrackedJob {
    std::uint32_t app_index = 0;  ///< index into cell(0).specs()
    std::uint32_t cell = 0;       ///< current owner
    std::uint32_t attempts = 0;   ///< dead-cell re-placements (backoff)
    std::uint32_t drains = 0;     ///< kill-time checkpoint drains
    JobState state = JobState::kPending;
    /// kForwarding only: drain legs (transform, transfer) still running.
    std::uint8_t drain_legs = 0;
    TimePoint submitted_at;
    TimePoint completed_at;
  };

  /// Register every component's counters with registry_.  Construction only.
  void register_all_metrics();

  // All of these run on the owning cell's shard.
  void place_job(std::uint64_t id);
  void launch_tracked(std::uint64_t id);
  void forward_job(std::uint64_t id);
  /// One drain leg finished; the last one sends the id over the ring hop.
  void finish_drain_leg(std::uint64_t id);
  /// Re-place a drained job on `dst` (runs on dst's shard).
  void land_job(std::size_t dst, std::uint64_t id);
  void kill_cell_impl(std::size_t c);
  void set_link_down_impl(std::size_t l, bool down);

 private:
  ClusterSpec cluster_;
  sim::CellRing ring_;
  std::vector<std::unique_ptr<Experiment>> cells_;
  /// Ring link i: cell i -> cell (i+1) mod N (empty for one cell).
  std::vector<std::unique_ptr<hw::Link>> intercell_;
  /// The background cohorts, one per cell (empty when there are none).
  std::vector<std::unique_ptr<apps::LoadGenerator>> load_;
  /// Atomic: in parallel mode every cell's shard thread may hand off
  /// concurrently.
  std::atomic<std::uint64_t> handoffs_{0};

  // Fault-injection state (see the ownership discipline above).
  /// Set once apply_fault_plan accepts a non-empty plan.
  bool plan_applied_ = false;
  /// Tracked jobs by id.  The vector grows only between runs (submit);
  /// during runs each element is touched only by its owner's shard.
  std::vector<TrackedJob> jobs_;
  /// Ids owned by each cell, in arrival order -- what a kill drains.
  /// cell_jobs_[c] is owned by shard c (submit appends between runs).
  std::vector<std::vector<std::uint64_t>> cell_jobs_;
  /// cell_dead_[c] / cell_epoch_[c] are owned by shard c.  The epoch
  /// bumps at kill time; exit callbacks capture the epoch at launch and
  /// a mismatch marks a ghost completion from before the kill.
  std::vector<std::uint8_t> cell_dead_;
  std::vector<std::uint64_t> cell_epoch_;
  /// Drain path, one per cell (multi-cell only): a dedicated route-less
  /// local link (same physical pipe as intercell_[i], so partitions and
  /// degradations hit both -- and its completions fire on the *sender's*
  /// shard, which is what lets the reliable channel keep all its retry
  /// state on one shard), a ReliableChannel restoring exactly-once
  /// delivery over it, and the ring hop as the cross-shard arrival --
  /// a drain's legs run on the dying shard and the job is re-placed on
  /// the neighbor's.  All are built once, at construction, and live as
  /// long as the cluster, so registry_ links the channels' counters
  /// directly.
  std::vector<std::unique_ptr<hw::Link>> drain_links_;
  std::vector<std::unique_ptr<hw::ReliableChannel>> drain_channels_;

  // Observability.  The registry owns the job-latency histogram (one
  // lane per cell: completions record on the completing cell's shard);
  // the tracer is created by enable_tracing() and is inert -- the event
  // trace is bit-identical attached or not.
  obs::Registry registry_;
  obs::Histogram* job_latency_ = nullptr;
  std::unique_ptr<obs::Tracer> tracer_;
};

}  // namespace xartrek::exp
