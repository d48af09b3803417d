// Epoch-synchronized sharded simulation core.
//
// A ShardedSimulation partitions a discrete-event model into N shards
// (in every experiment, one per testbed cell: see sim::CellRing), each
// owning a private `sim::Simulation` with its pooled 4-ary heap.  Shards advance in lock-step synchronization
// windows ("epochs"): within a window every shard drains its local
// queue up to the window end with no locks and no shared state;
// a cross-shard event waits in its source shard's outbox until the
// window boundary delivers it.
//
// Correctness rests on the classic conservative-PDES lookahead
// contract: every cross-shard interaction models a latency of at least
// one window, so an event executed inside window W can only create
// work for other shards at or after the end of W -- by the time the
// message is drained, its timestamp is still in the receiver's future.
// The window end is `min(next event anywhere) + epoch`, which both
// bounds the work a window can discover and fast-forwards over
// globally idle stretches in one step.
//
// Shards vs workers.  A *shard* is the unit of model state (one
// Simulation, one outbox); a *worker* is an execution lane
// that runs some set of shards each window.  By default there is one
// worker per shard; `exec.workers` packs more shards per lane.
// Because shards share nothing inside a window, WHICH worker runs a
// shard can never affect the trace -- which is what makes
// deterministic shard stealing (`exec.steal`, on by default) safe:
// whenever 1 < workers < shards, every 16 windows (kStealPeriod,
// shard.cpp) the boundary step re-evaluates the live shard->worker
// map from per-shard executed-event counters and moves the busiest
// worker's coldest shard to the idlest worker, when that lowers the
// maximum load by at least half the shard's load.  The decision is a
// pure function of deterministic counters, so the map evolves
// identically in serial and parallel runs, and the trace does not
// depend on it at all.
//
// Who runs a window.  The caller's thread runs the window loop; in
// parallel mode it picks, at every boundary, whether the next window
// stays on its own thread or goes to the worker pool.  The pick reads
// the events the window just executed, a deterministic count: below
// kDenseWindowEvents (shard.cpp) the caller runs the next window while
// the pool stays parked on its start gate; at or above it the pool
// wakes and runs windows until one comes in under the bar, and the
// boundary after that one parks the pool again and hands the loop back
// to the caller before planning.  The pool is created at the first
// dense window, so a run of thin windows starts no thread.  Pooled
// windows are separated by ONE boundary barrier.  Before arriving, each
// worker writes its lane record (one cache line): the events it ran,
// the earliest next event over its shards, and whether its shards
// posted.  The last worker to arrive plans the next window from the W
// records while the others yield the CPU, parking on the barrier's
// generation word only if the wait runs long; it touches shard state
// only to deliver the outboxes, and only when a lane reported posts.
// The caller's loop, which ran every shard itself, walks the shards
// instead.
//
// Busy time is read per stretch: the caller's run of windows between
// two handoffs (a whole span, when nothing is dense), or one worker's
// pooled span.  The thread-CPU clock -- a syscall, ~350 ns on a KVM
// guest -- is read only at a stretch's two ends, and the stretch's time
// is split over the shards it ran by their shares of its events.
//
// Determinism: each shard's local execution is the ordinary (time,
// insertion-seq) order of its own Simulation; at a boundary, the
// outboxes are delivered in source-shard order, FIFO within a source,
// so cross-shard events enter the local heap with a deterministic
// (time, source shard, source order) tie-break.  The schedule is a pure
// function of the model -- independent of thread interleaving, and a
// 1-shard ShardedSimulation executes exactly today's single-queue
// trace.  `Options::parallel` only chooses whether dense windows may
// run on pooled std::threads; both modes produce identical traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "sim/callback.hpp"
#include "sim/exec_options.hpp"
#include "sim/simulation.hpp"

namespace xartrek::obs {
class Registry;
}  // namespace xartrek::obs

namespace xartrek::sim {

using ShardId = std::uint32_t;

/// Per-shard counters (diagnostics, tests, and the scaling bench).
struct ShardStats {
  std::uint64_t executed = 0;  ///< events executed on this shard
  std::uint64_t posts = 0;     ///< cross-shard messages sent
  std::uint64_t received = 0;  ///< cross-shard messages delivered here
  /// Always 0: an outbox is unbounded, so no post ever waits.  Kept
  /// (and registered) for the benchmark, which reports it.
  std::uint64_t backpressure_stalls = 0;
  /// Thread-CPU seconds spent on this shard: each stretch that ran it
  /// (see the header) charges it the stretch's time times the shard's
  /// share of the stretch's events -- all of it when the stretch ran
  /// this shard alone, as a worker does under the identity map.  Leaves
  /// out barrier waits (the yield-waits are measured and subtracted)
  /// and time spent descheduled, so summing events/busy_seconds across
  /// shards measures aggregate processing capacity even on an
  /// oversubscribed host.
  double busy_seconds = 0.0;
  /// Most cross-shard messages delivered here at one boundary.
  std::uint64_t mailbox_hwm = 0;
};

/// Per-worker counters (the skewed-load bench's critical-path capacity
/// metric reads these).  A pooled span counts for the worker that ran
/// it; a caller-thread stretch counts each shard's events and share of
/// the time for the worker the shard is mapped to, so serial runs fill
/// these in too.
struct WorkerStats {
  std::uint64_t executed = 0;  ///< events run on this lane
  /// Thread-CPU time of the lane's stretches: event execution and the
  /// boundary steps run in them, but not barrier waits (yield-waits
  /// are subtracted) or time parked or descheduled.
  double busy_seconds = 0.0;
};

class ShardedSimulation {
 public:
  struct Options {
    std::size_t shards = 1;
    /// Base synchronization window length.  Every cross-shard latency
    /// must be >= this (the lookahead contract); smaller epochs
    /// synchronize more often, larger ones amortize the boundary cost.
    Duration epoch = Duration::micros(100.0);
    /// Let dense windows run on a persistent pool of std::threads (the
    /// caller's thread runs worker 0); thin ones stay on the calling
    /// thread.  Off = every window round-robin on the calling thread.
    /// Traces are identical either way.
    bool parallel = false;
    /// Worker mapping and stealing, shared with exp::ClusterSpec
    /// (through sim::CellRing).
    ExecOptions exec{};
  };

  ShardedSimulation() : ShardedSimulation(Options{}) {}
  explicit ShardedSimulation(Options opts);
  ~ShardedSimulation();
  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Duration epoch() const { return opts_.epoch; }
  /// Synchronization windows executed since construction.
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  /// Windows the worker pool ran, and the times it woke to run them
  /// (both 0 in serial mode).  Deterministic for a given model and
  /// options, but not registered with obs: serial and parallel runs
  /// differ here and must snapshot identically.
  [[nodiscard]] std::uint64_t pooled_windows() const {
    return pooled_windows_;
  }
  [[nodiscard]] std::uint64_t pool_wakes() const { return pool_wakes_; }

  /// The shard's local engine.  Components constructed against it work
  /// unchanged; schedule onto it freely before and between runs.
  [[nodiscard]] Simulation& shard(ShardId id) {
    XAR_EXPECTS(id < shards_.size());
    return shards_[id]->sim;
  }

  // --- live shard -> worker map ------------------------------------------

  [[nodiscard]] std::size_t worker_count() const { return workers_; }
  [[nodiscard]] std::size_t worker_of(ShardId id) const {
    XAR_EXPECTS(id < cell_worker_.size());
    return cell_worker_[id];
  }
  /// Reassign a shard to a worker (tests, or an external placement
  /// policy).  Call between runs only; counts as a steal when the
  /// assignment actually changes.
  void set_worker_of(ShardId id, std::size_t worker);
  /// Total rebalance moves (manual and automatic) since construction.
  [[nodiscard]] std::uint64_t steal_moves() const { return steal_moves_; }

  [[nodiscard]] const WorkerStats& worker_stats(std::size_t w) const {
    XAR_EXPECTS(w < worker_stats_.size());
    return worker_stats_[w];
  }

  /// Post `cb` to run on shard `dst` at absolute time `t`.  Must be
  /// called from shard `src` (its worker's thread, when parallel).
  /// Requires `t` to be at or past the current window's end, less
  /// 1e-9 ms of rounding slack -- guaranteed when the modeled latency is
  /// >= epoch(); see CrossShardChannel.  `cb` runs at `t`, or at the
  /// window end when the slack put `t` before it.
  void post(ShardId src, ShardId dst, TimePoint t, UniqueCallback cb);

  /// Run until every shard is idle and every outbox is empty.
  /// Returns events executed.  Clocks end at the final window boundary.
  std::size_t run();

  /// Run windows until no work remains at or before `horizon`; all
  /// shard clocks read exactly `horizon` afterwards.
  std::size_t run_until(TimePoint horizon);

  [[nodiscard]] const ShardStats& stats(ShardId id) const {
    XAR_EXPECTS(id < shards_.size());
    return shards_[id]->stats;
  }

  /// Most posts from `src` to `dst` in one window.  Read it between
  /// runs.
  [[nodiscard]] std::uint64_t mailbox_pair_hwm(ShardId src, ShardId dst) const;

  /// Register per-shard counters and per-(src,dst) high-water gauges
  /// under `prefix` (e.g. "sim").  Only deterministic values are
  /// registered (wall-clock busy_seconds is deliberately skipped), so
  /// serial and parallel runs snapshot identically.
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

  /// Current time (all shard clocks agree between runs).
  [[nodiscard]] TimePoint now() const { return shards_[0]->sim.now(); }

  /// Total events executed across all shards since construction.
  [[nodiscard]] std::uint64_t executed_events() const;

 private:
  /// A cross-shard message waiting in its source's outbox.
  struct Outgoing {
    ShardId dst = 0;
    double at_ms = 0.0;
    UniqueCallback cb;
  };
  /// Posts from one source to one destination.
  struct PairCount {
    std::uint64_t window = 0;  ///< in the current window
    std::uint64_t peak = 0;    ///< most in one window (mailbox_pair_hwm)
  };
  struct ShardState {
    Simulation sim;
    ShardStats stats;
    /// What this shard posted since the last boundary, in post order.
    /// Only the shard's worker appends; the boundary delivers and
    /// clears it (the barrier orders the two, so no atomics).
    std::vector<Outgoing> outbox;
    std::vector<PairCount> pairs;  ///< by destination
  };

  /// Deliver every outbox, sources in order, each FIFO, and clear them.
  /// Returns the earliest instant it scheduled, or +inf.
  double exchange();
  /// Execute one window on one shard; returns events executed.
  std::uint64_t run_shard(ShardId id, TimePoint window_end);

  /// The caller's boundary step: exchange, then plan the next window
  /// from every shard's next event.  Returns false when no work remains
  /// at or before `horizon_ms`.
  bool boundary_step(double horizon_ms);
  /// Re-evaluate the shard->worker map, then size the next window from
  /// `min_next_ms`, the earliest pending work anywhere.  Runs
  /// single-threaded (the caller's loop, or the boundary barrier's
  /// completion while every other worker waits).
  bool plan_next_window(double horizon_ms, double min_next_ms);
  void maybe_rebalance();

  /// The window loop, on the caller's thread.
  std::size_t run_span(TimePoint horizon);
  /// Wake the pool for the window the caller just planned; it runs
  /// windows until one is thin.  Returns false when the span is done.
  bool run_pooled(double horizon_ms);
  /// Split one stretch's `cpu` seconds over the events tallied in
  /// lane `row` of `ran_`, and clear the tally.  A pool worker's span
  /// counts for worker `row`; the caller's stretch (`pooled` false)
  /// counts for each shard's mapped worker.
  void charge_stretch(std::size_t row, double cpu, bool pooled);

  // Persistent worker pool (parallel mode, created at the first dense
  // window).
  struct Pool;
  void ensure_pool();
  void worker_thread(std::size_t w);
  void worker_span(std::size_t w);
  /// Boundary-barrier completion, run on worker `w`'s thread.
  void on_boundary(std::size_t w);

  Options opts_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// By destination: messages the exchange in progress delivered.
  std::vector<std::uint64_t> delivered_;

  // Live shard -> worker assignment.  Read by workers during a window,
  // written only at boundaries (single-threaded, barrier-ordered).
  std::size_t workers_ = 1;
  std::vector<std::uint32_t> cell_worker_;
  std::vector<WorkerStats> worker_stats_;
  /// Events each lane ran of each shard in its current stretch:
  /// [lane * stride_ + shard], rows padded to whole cache lines.  Row 0
  /// serves the caller's stretches and worker 0's pooled spans in turn.
  std::vector<std::uint64_t> ran_;
  std::size_t stride_ = 0;

  std::uint64_t windows_ = 0;
  std::uint64_t pooled_windows_ = 0;
  std::uint64_t pool_wakes_ = 0;
  /// Events the latest window executed: what picks who runs the next.
  std::uint64_t window_events_ = 0;

  // Rebalancer state (boundaries only).
  std::uint32_t windows_since_rebalance_ = 0;
  std::uint64_t steal_moves_ = 0;
  std::vector<std::uint64_t> executed_at_rebalance_;  ///< by shard
  std::vector<std::uint64_t> load_scratch_;           ///< by worker

  /// End of the window currently executing (what `post` checks the
  /// lookahead contract against).  Written at boundaries only.
  double window_end_ms_ = 0.0;
  double span_horizon_ms_ = 0.0;
  /// Set by the pool's boundary completion: what follows its window.
  enum class Next : std::uint8_t { kPool, kCaller, kDone };
  Next next_ = Next::kPool;
  std::unique_ptr<Pool> pool_;
};

/// A typed edge between two components living on different shards:
/// "deliver this completion to the other side, `latency` later".
/// Components hold one and stay layout-agnostic; a default-constructed
/// channel is inert (`connected()` is false) and the component falls
/// back to its in-shard behavior.  The latency
/// must be >= the engine's epoch() so the lookahead contract holds;
/// delivery timing is then identical for every shard count.
/// Channels name shards, not workers: a rebalance move never
/// invalidates one.
class CrossShardChannel {
 public:
  CrossShardChannel() = default;
  CrossShardChannel(ShardedSimulation& ssim, ShardId src, ShardId dst,
                    Duration latency)
      : ssim_(&ssim), src_(src), dst_(dst), latency_(latency) {
    XAR_EXPECTS(src < ssim.shard_count() && dst < ssim.shard_count());
    XAR_EXPECTS(latency >= Duration::zero());
    XAR_EXPECTS(src == dst || latency >= ssim.epoch());
  }

  [[nodiscard]] bool connected() const { return ssim_ != nullptr; }
  [[nodiscard]] Duration latency() const { return latency_; }

  /// Run `cb` on the destination shard `latency` after the source
  /// shard's current time.  Requires connected().
  void deliver(UniqueCallback cb) const {
    XAR_EXPECTS(ssim_ != nullptr);
    ssim_->post(src_, dst_, ssim_->shard(src_).now() + latency_,
                std::move(cb));
  }

 private:
  ShardedSimulation* ssim_ = nullptr;
  ShardId src_ = 0;
  ShardId dst_ = 0;
  Duration latency_ = Duration::zero();
};

}  // namespace xartrek::sim
