// Cluster experiment: N testbed cells on the sharded engine, derived.
//
// A ClusterExperiment builds an N-cell cluster from a declarative
// ClusterSpec: it registers each cell as one node of a sim::Topology
// (cell i is affinity group i -- a testbed's x86 host, FPGA card and
// ARM server always share a shard), registers the inter-cell links (a
// ring, each carrying the modeled Ethernet latency) as edges, and lets
// the partitioner map the graph onto ShardedSimulation shards,
// auto-picking the largest legal epoch.  The suite is compiled once
// for the whole cluster; each cell is then a full exp::Experiment
// (threshold table, scheduler, executor) on that shared suite,
// constructed against its shard's engine through the testbed's
// shard-aware hook, so the sharded core is the default execution
// engine rather than a hand-wired special case:
//
//   * 1 cell degenerates to one shard whose trace is identical to
//     exp::Experiment on the classic single-queue testbed (pinned by
//     tests/topology_test.cpp);
//   * N cells run the same per-cell model on N shards, serial or
//     parallel, trace-identical either way, with cross-cell job
//     handoffs riding the inter-cell links through the derived
//     channels.
//
// Background load scales with the cluster: set_background_load spreads
// the cohort over the cells through apps::ShardedLoadGenerator, whose
// attach/detach bookkeeping is batched per shard -- the million-user
// sweep no longer funnels through one CpuCluster process table.
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
#include "popcorn/checkpoint.hpp"
#include "popcorn/state_transform.hpp"
#include "sim/exec_options.hpp"
#include "sim/fault.hpp"
#include "sim/shard.hpp"
#include "sim/topology.hpp"

namespace xartrek::exp {

/// Declarative description of an N-cell cluster.
struct ClusterSpec {
  std::size_t cells = 1;
  /// Per-cell platform (every cell is one paper testbed by default).
  platform::TestbedConfig cell_config = {};
  /// The cell-to-cell interconnect (ring: cell i feeds cell (i+1) mod
  /// N).  Its latency is the lookahead the partitioner derives the
  /// epoch from.
  hw::LinkSpec intercell = hw::ethernet_1gbps();
  /// Force a synchronization window; unset auto-picks the largest
  /// legal epoch (the minimum cross-cell latency).
  std::optional<Duration> epoch;
  /// Run shards on threads.  Traces are identical either way.
  bool parallel = false;
  /// Worker mapping (0 workers = one lane per cell) and deterministic
  /// cell stealing, forwarded wholesale down through
  /// Topology::PartitionOptions to the engine.  Neither changes the
  /// trace -- only wall-clock behavior.
  sim::ExecOptions exec;
  /// How often run_until_complete re-checks the completion count.
  /// Completions carry exact event timestamps, so this affects polling
  /// granularity only, never the trace.
  Duration completion_poll = Duration::seconds(1.0);
};

/// Tunables for fault handling (apply_fault_plan).
struct FaultInjectionOptions {
  /// Re-placement delay after finding a dead cell: attempt k waits
  /// backoff.delay(k).
  hw::Backoff backoff = {Duration::ms(1.0), 6};
  /// Working-set bytes shipped alongside a drained job's checkpoint.
  std::uint64_t drain_payload_bytes = 64 * 1024;
  /// Latency inflation on a kLinkDegraded ring link (the drop
  /// probability rides in the fault event's magnitude).
  double degraded_latency_factor = 4.0;
  /// Shape of the reliable drain channels (end-to-end retry of
  /// checkpoint payloads).  The timeout must clear one drain payload's
  /// worst healthy transfer; attempts are generous because an abandoned
  /// drain is a lost job.
  hw::ReliableChannel::Options drain_channel = {
      Duration::ms(10.0), {Duration::ms(1.0), 6}, 0.25, 16};
  /// Seed of the gray-fault randomness streams (drop/corrupt/flaky
  /// draws and retry jitter), split per victim and kind so injection
  /// never perturbs the workload's own draws.
  std::uint64_t gray_seed = 0x6772617946616CULL;  // "grayFal"
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
  [[nodiscard]] sim::PartitionedEngine& engine() { return *engine_; }
  [[nodiscard]] const sim::Topology& topology() const {
    return engine_->topology();
  }

  /// Cell i's full experiment stack.  Cells are numbered like their
  /// shards (cell i is affinity group i, hence shard i).  Use it to
  /// launch apps and read results; drive time through *this* (the
  /// sharded engine), not through the cell's own run_until_complete.
  [[nodiscard]] Experiment& cell(std::size_t i) {
    XAR_EXPECTS(i < cells_.size());
    return *cells_[i];
  }

  /// Every cell's testbed (the ShardedLoadGenerator input).
  [[nodiscard]] std::vector<platform::Testbed*> testbeds();

  /// Launch one run of `app_name` on cell `i` now.
  void launch(std::size_t i, const std::string& app_name) {
    cell(i).launch(app_name);
  }

  /// Spread `total_jobs` background processes across the cells (0
  /// tears the current cohort down).  Bookkeeping is batched per
  /// shard; see apps::ShardedLoadGenerator.  The two-argument form
  /// picks the looped run's shape (demand, jitter) -- the load metric
  /// each scheduler samples depends only on the job count.
  void set_background_load(std::uint64_t total_jobs);
  void set_background_load(std::uint64_t total_jobs,
                           apps::ShardedLoadGenerator::Options opts);
  [[nodiscard]] apps::ShardedLoadGenerator* background_load() {
    return load_.get();
  }

  /// Hand a job off from cell `from` to its ring neighbor: `bytes` of
  /// state ride the inter-cell link, and `on_arrival` fires on the
  /// neighbor's shard once the last byte lands (plus the registered
  /// edge latency).  Requires a multi-cell cluster.
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

  [[nodiscard]] TimePoint now() const { return engine_->engine().now(); }

  // --- fault injection & tracked jobs -----------------------------------
  //
  // Mutable cross-cell state (job records, death flags, cell epochs)
  // obeys one discipline: it is touched only from its owning cell's
  // shard thread during runs, or from the main thread between runs, and
  // ownership moves between cells only inside channel messages -- which
  // cross at window boundaries.  That single rule is what makes chaos
  // runs memory-safe in parallel mode AND trace-identical to serial.

  /// Schedule every event of `plan` onto its victim's shard and start
  /// health checks on every cell's scheduler.  Call between runs; all
  /// events must lie in the future.  An empty plan changes nothing --
  /// the subsequent run is bit-identical to never having called this.
  void apply_fault_plan(const sim::FaultPlan& plan,
                        FaultInjectionOptions opts = {});

  /// Immediate conveniences (tests): inject one fault at now().
  void kill_cell(std::size_t i);
  void set_link_down(std::size_t i, bool down);
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
    kForwarding,  ///< checkpoint in flight to the ring neighbor
    kRunning,     ///< launched as an AppProcess on the owner cell
    kCompleted,
  };

  /// One tracked job.  Owned by jobs_[id].cell's shard during runs;
  /// ownership moves only inside the drain channel's messages.
  struct TrackedJob {
    std::uint32_t app_index = 0;  ///< index into cell(0).specs()
    std::uint32_t cell = 0;       ///< current owner
    std::uint32_t attempts = 0;   ///< dead-cell re-placements (backoff)
    std::uint32_t drains = 0;     ///< kill-time checkpoint drains
    JobState state = JobState::kPending;
    TimePoint submitted_at;
    TimePoint completed_at;
  };

  /// Register every stable component's counters (and probes for the
  /// rebuildable drain channels) with registry_.  Construction only.
  void register_all_metrics();

  // All of these run on the owning cell's shard.
  void place_job(std::uint64_t id);
  void launch_tracked(std::uint64_t id);
  void forward_job(std::uint64_t id);
  /// Re-materialize a drained checkpoint on `dst` (runs on dst's shard).
  void land_job(std::size_t dst, popcorn::ThreadStack stack);
  void kill_cell_impl(std::size_t c);
  void set_link_down_impl(std::size_t l, bool down);
  /// (Re)build the per-cell reliable drain channels from fault_opts_.
  void build_drain_channels();

 private:
  ClusterSpec cluster_;
  /// One topology node per cell (index = cell).
  std::vector<sim::NodeId> nodes_;
  std::unique_ptr<sim::PartitionedEngine> engine_;
  std::vector<std::unique_ptr<Experiment>> cells_;
  /// Ring link i: cell i -> cell (i+1) mod N (empty for one cell).
  std::vector<std::unique_ptr<hw::Link>> intercell_;
  std::unique_ptr<apps::ShardedLoadGenerator> load_;
  /// Atomic: in parallel mode every cell's shard thread may hand off
  /// concurrently.
  std::atomic<std::uint64_t> handoffs_{0};

  // Fault-injection state (see the ownership discipline above).
  FaultInjectionOptions fault_opts_;
  /// Tracked jobs by id.  The vector grows only between runs (submit);
  /// during runs each element is touched only by its owner's shard.
  std::vector<TrackedJob> jobs_;
  /// Ids owned by each cell, in arrival order -- what kill_cell drains.
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
  /// delivery over it, and the registered ring edge as the cross-shard
  /// arrival hop -- checkpoints transform on the dying shard and
  /// re-materialize on the neighbor's.
  std::unique_ptr<popcorn::StateTransformer> drain_transformer_;
  std::vector<std::unique_ptr<hw::Link>> drain_links_;
  std::vector<std::unique_ptr<hw::ReliableChannel>> drain_channels_;
  std::vector<sim::CrossShardChannel> drain_arrivals_;

  // Observability.  The registry owns the job-latency histogram (one
  // lane per cell: completions record on the completing cell's shard);
  // the tracer is created by enable_tracing() and is inert -- the event
  // trace is bit-identical attached or not.
  obs::Registry registry_;
  obs::Histogram* job_latency_ = nullptr;
  std::unique_ptr<obs::Tracer> tracer_;
};

}  // namespace xartrek::exp
