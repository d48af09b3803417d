#include "sim/shard.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <exception>
#include <limits>
#include <thread>
#include <utility>

#include "common/cpu_time.hpp"
#include "obs/registry.hpp"

namespace xartrek::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Windows between rebalance evaluations.
constexpr std::uint32_t kStealPeriod = 16;
/// Trigger: move a shard when the busiest worker's load over the period
/// exceeds this many times the idlest worker's.
constexpr double kStealImbalance = 1.5;
/// Fewest events a window must execute for the pool to run the next
/// one.  A pooled window pays one boundary-barrier round plus the
/// completion that plans from the lane records: ~1 us on a 4-vCPU KVM
/// guest (4 shards of no-op chains on 4 workers, pooled at every
/// window, against the same run on the caller; no-op events break even
/// at ~20 per window).  An event costs ~105 ns (`sim.unit.event_ns`),
/// and four workers save 3/4 of a window's event work, so the pool
/// pays off once 0.75 * 105 ns * events > 1 us: above ~13 events per
/// window.  The bar stays at 32 because no benchmark workload has a
/// window between 8 and 32 events (storm4's stay under 8; sync8's and
/// churn4's dense ones hold ~126 and ~920), so no bar in that range
/// changes which windows the pool runs.
constexpr std::uint64_t kDenseWindowEvents = 32;
/// uint64 counters per cache line: pads each lane's tally row.
constexpr std::size_t kLineWords = 64 / sizeof(std::uint64_t);

/// Sense-reversing barrier on a generation word, for the per-window
/// boundary.  The last arriver runs the completion and bumps the
/// generation; everyone else yields the CPU until the generation moves,
/// and after `kYields` yields parks on the word with std::atomic::wait.
/// Yielding instead of pausing keeps the wait live when workers share a
/// CPU (the peer it is waiting for gets the CPU).  Control-heavy models
/// run windows of a few microseconds -- shorter than a futex round trip
/// -- so most waits end before anyone parks.  The releaser only issues
/// the wake syscall when somebody did park.
class BoundaryBarrier {
 public:
  explicit BoundaryBarrier(std::size_t n)
      : n_(static_cast<std::uint32_t>(n)) {}

  /// Arrive, run `complete` if last, and wait for the release.  Returns
  /// an estimate of the thread-CPU seconds this caller burned
  /// yield-waiting (0 for the completer), so busy accounting can leave
  /// the wait out without a per-window thread-CPU clock read.
  template <class F>
  double arrive_and_wait(F&& complete) {
    // Read the generation before arriving: once our arrival counts, the
    // last arriver may bump it at any moment.
    const std::uint32_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      arrived_.store(0, std::memory_order_relaxed);
      complete();
      // seq_cst pairs with the parker's seq_cst increment of parked_:
      // either it sees the new generation or we see it parked.
      generation_.store(gen + 1, std::memory_order_seq_cst);
      if (parked_.load(std::memory_order_seq_cst) != 0) {
        generation_.notify_all();
      }
      return 0.0;
    }
    // Each yield is timed on the monotonic clock and charged at most
    // kYieldCpu: a longer one handed the CPU to a peer (or the host
    // preempted us), and that time is the peer's work, not ours.  Timing
    // the loop as a whole would charge the peers' windows to every
    // waiter whenever workers share a CPU.
    double yielded = 0.0;
    auto last = Clock::now();
    for (int i = 0; i < kYields; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) return yielded;
      std::this_thread::yield();
      const auto now = Clock::now();
      yielded += std::min(std::chrono::duration<double>(now - last).count(),
                          kYieldCpu);
      last = now;
    }
    parked_.fetch_add(1, std::memory_order_seq_cst);
    generation_.wait(gen, std::memory_order_seq_cst);
    parked_.fetch_sub(1, std::memory_order_relaxed);
    return yielded;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr int kYields = 2048;
  /// Upper bound on one yield's own CPU cost: a sched_yield that finds
  /// no other runnable thread takes ~0.4 us on a 4-vCPU KVM guest, and
  /// a round trip through a peer adds about as much in switches.
  static constexpr double kYieldCpu = 1e-6;

  const std::uint32_t n_;
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> parked_{0};
};

}  // namespace

// Persistent worker pool.  Threads for workers 1..W-1 are created at
// the first dense window and then park on `start_gate` whenever the
// caller runs windows itself; the calling thread is worker 0.
// `boundary`'s completion -- run on exactly one thread while every
// other worker waits in the barrier -- is the single-threaded boundary
// step.  The span gates stay parking std::barriers: the scheduler
// places a thread on an idle CPU when it wakes, and on a 4-vCPU KVM
// guest a pool thread that never slept stayed on the CPU that created
// it -- yield-waiting gates stacked the whole pool on one CPU.
struct ShardedSimulation::Pool {
  /// What one worker reports about the window it just ran: everything
  /// the completion needs to plan the next one, in one cache line the
  /// worker writes on its own core, so planning reads W lines instead of
  /// every shard's heap and counters.
  struct alignas(64) Lane {
    std::uint64_t events = 0;  ///< events the worker ran
    double next_ms = kInf;     ///< earliest next event over its shards
    bool posted = false;       ///< its shards posted to other shards
  };

  BoundaryBarrier boundary;
  std::barrier<> start_gate;  ///< span kickoff + shutdown release
  std::barrier<> end_gate;    ///< span completion
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors;  ///< by worker
  std::vector<double> cpu;  ///< by worker: the latest span's busy time
  std::vector<Lane> lanes;  ///< by worker: the latest window's report
  bool shutdown = false;    ///< written before start_gate, read after

  explicit Pool(std::size_t w)
      : boundary(w),
        start_gate(static_cast<std::ptrdiff_t>(w)),
        end_gate(static_cast<std::ptrdiff_t>(w)),
        errors(w),
        cpu(w, 0.0),
        lanes(w) {}
};

ShardedSimulation::ShardedSimulation(Options opts) : opts_(opts) {
  XAR_EXPECTS(opts.shards >= 1);
  XAR_EXPECTS(opts.epoch > Duration::zero());
  const std::size_t n = opts.shards;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto state = std::make_unique<ShardState>();
    state->pairs.resize(n);
    shards_.push_back(std::move(state));
  }
  delivered_.assign(n, 0);

  // Workers and the initial static shard -> worker map.  The map (and
  // the stealing that rewrites it) is maintained in serial mode too,
  // so serial and parallel runs agree on every decision and stat.
  workers_ = opts.exec.workers == 0 ? n : std::min(opts.exec.workers, n);
  cell_worker_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    cell_worker_[i] = static_cast<std::uint32_t>(i % workers_);
  }
  worker_stats_.resize(workers_);
  // One tally row per lane that can run a stretch.
  stride_ = (n + kLineWords - 1) / kLineWords * kLineWords;
  ran_.assign((opts_.parallel ? workers_ : 1) * stride_, 0);

  executed_at_rebalance_.assign(n, 0);
  // Pre-size so the rebalancer never allocates at a boundary.
  load_scratch_.reserve(workers_);
}

ShardedSimulation::~ShardedSimulation() {
  if (pool_ != nullptr) {
    pool_->shutdown = true;  // ordered by the barrier below
    pool_->start_gate.arrive_and_wait();
    for (auto& t : pool_->threads) t.join();
  }
}

std::uint64_t ShardedSimulation::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->sim.executed_events();
  return total;
}

void ShardedSimulation::set_worker_of(ShardId id, std::size_t worker) {
  XAR_EXPECTS(id < shards_.size());
  XAR_EXPECTS(worker < workers_);
  if (cell_worker_[id] == worker) return;
  cell_worker_[id] = static_cast<std::uint32_t>(worker);
  ++shards_[id]->stats.steals;
  ++steal_moves_;
}

void ShardedSimulation::post(ShardId src, ShardId dst, TimePoint t,
                             UniqueCallback cb) {
  XAR_EXPECTS(src < shards_.size() && dst < shards_.size());
  XAR_EXPECTS(cb != nullptr);
  ShardState& s = *shards_[src];
  if (src == dst) {
    // Same shard: an ordinary local event, any time >= now.
    s.sim.schedule_at(t, std::move(cb));
    return;
  }
  // Lookahead contract: the receiver is executing the same window, so
  // the message must land at or past its end.  Channel latencies are
  // checked against epoch(), so this holds for every window.  (A tiny
  // epsilon absorbs the rounding slack of `now + latency` vs
  // `min_next + epoch`.)
  XAR_EXPECTS(t.to_ms() >= window_end_ms_ - 1e-9);
  ++s.stats.posts;
  s.outbox.push_back({dst, t.to_ms(), std::move(cb)});
  PairCount& pair = s.pairs[dst];
  if (++pair.window > pair.peak) pair.peak = pair.window;
}

double ShardedSimulation::exchange() {
  // Sources in order, each FIFO: every destination receives its
  // messages in (source, post order), whichever threads posted them.
  double earliest = kInf;
  for (auto& src : shards_) {
    for (Outgoing& m : src->outbox) {
      Simulation& dst = shards_[m.dst]->sim;
      // post's rounding slack can put a message a hair before the
      // destination's clock (the window end); it runs at the clock.
      const double at = std::max(m.at_ms, dst.now().to_ms());
      dst.schedule_at(TimePoint::at_ms(at), std::move(m.cb));
      earliest = std::min(earliest, at);
      ++delivered_[m.dst];
      src->pairs[m.dst].window = 0;
    }
    src->outbox.clear();  // keeps capacity for the next window
  }
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    if (delivered_[d] == 0) continue;
    ShardStats& st = shards_[d]->stats;
    st.received += delivered_[d];
    st.mailbox_hwm = std::max(st.mailbox_hwm, delivered_[d]);
    delivered_[d] = 0;
  }
  return earliest;
}

std::uint64_t ShardedSimulation::run_shard(ShardId id, TimePoint window_end) {
  ShardState& s = *shards_[id];
  const std::uint64_t before = s.sim.executed_events();
  s.sim.run_until(window_end);
  const std::uint64_t delta = s.sim.executed_events() - before;
  s.stats.executed += delta;
  return delta;
}

void ShardedSimulation::maybe_rebalance() {
  if (++windows_since_rebalance_ < kStealPeriod) return;
  windows_since_rebalance_ = 0;
  const std::size_t n = shards_.size();
  // Per-worker load over the evaluation period, from the per-shard
  // executed-event counters -- deterministic, so serial and parallel
  // runs rewrite the map identically.
  load_scratch_.assign(workers_, 0);
  for (std::size_t c = 0; c < n; ++c) {
    load_scratch_[cell_worker_[c]] +=
        shards_[c]->sim.executed_events() - executed_at_rebalance_[c];
  }
  std::size_t wmax = 0;
  std::size_t wmin = 0;
  for (std::size_t w = 1; w < workers_; ++w) {
    if (load_scratch_[w] > load_scratch_[wmax]) wmax = w;
    if (load_scratch_[w] < load_scratch_[wmin]) wmin = w;
  }
  const std::uint64_t hot = load_scratch_[wmax];
  const std::uint64_t cold = load_scratch_[wmin];
  if (wmax != wmin && hot != 0 &&
      static_cast<double>(hot) >
          kStealImbalance * static_cast<double>(cold + 1)) {
    // Move the hot worker's coldest shard (ties -> lowest id): it
    // narrows the gap with the least disruption, and a hot shard never
    // migrates away from the lane it is keeping warm.
    std::size_t owned = 0;
    std::size_t pick = n;
    std::uint64_t pick_delta = 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (cell_worker_[c] != wmax) continue;
      ++owned;
      const std::uint64_t delta =
          shards_[c]->sim.executed_events() - executed_at_rebalance_[c];
      if (pick == n || delta < pick_delta) {
        pick = c;
        pick_delta = delta;
      }
    }
    // Guards: the donor must keep at least one shard, and the move must
    // lower the maximum load over ALL workers by at least half the
    // moved shard's load.  Once a hot shard sits alone on its lane,
    // that lane sets the maximum, so a worker whose load merely ties it
    // cannot pass a cold shard on (and next period, with loads shifted
    // by noise, back again): the move would shave nothing off the
    // maximum.
    std::uint64_t rest = 0;  // the busiest load the move leaves alone
    for (std::size_t w = 0; w < workers_; ++w) {
      if (w != wmax && w != wmin) rest = std::max(rest, load_scratch_[w]);
    }
    const std::uint64_t after =
        std::max({hot - pick_delta, cold + pick_delta, rest});
    if (owned >= 2 && after < hot && 2 * (hot - after) >= pick_delta) {
      cell_worker_[pick] = static_cast<std::uint32_t>(wmin);
      ++shards_[pick]->stats.steals;
      ++steal_moves_;
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    executed_at_rebalance_[c] = shards_[c]->sim.executed_events();
  }
}

bool ShardedSimulation::plan_next_window(double horizon_ms,
                                         double min_next_ms) {
  if (opts_.exec.steal && workers_ < shards_.size()) maybe_rebalance();
  if (min_next_ms == kInf || min_next_ms > horizon_ms) return false;
  window_end_ms_ = std::min(min_next_ms + opts_.epoch.to_ms(), horizon_ms);
  ++windows_;
  return true;
}

bool ShardedSimulation::boundary_step(double horizon_ms) {
  double min_next = exchange();
  for (auto& s : shards_) {
    min_next = std::min(min_next, s->sim.next_event_time().to_ms());
  }
  return plan_next_window(horizon_ms, min_next);
}

void ShardedSimulation::charge_stretch(std::size_t row, double cpu,
                                       bool pooled) {
  std::uint64_t* ran = &ran_[row * stride_];
  const std::size_t n = shards_.size();
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < n; ++s) total += ran[s];
  if (pooled) {
    worker_stats_[row].executed += total;
    worker_stats_[row].busy_seconds += cpu;
  }
  if (total == 0) return;
  for (std::size_t s = 0; s < n; ++s) {
    if (ran[s] == 0) continue;
    const double share = cpu * static_cast<double>(ran[s]) /
                         static_cast<double>(total);
    shards_[s]->stats.busy_seconds += share;
    if (!pooled) {
      WorkerStats& lane = worker_stats_[cell_worker_[s]];
      lane.executed += ran[s];
      lane.busy_seconds += share;
    }
    ran[s] = 0;
  }
}

std::size_t ShardedSimulation::run_span(TimePoint horizon) {
  const std::uint64_t before = executed_events();
  const double horizon_ms = horizon.to_ms();
  const bool poolable = opts_.parallel && workers_ > 1;
  std::uint64_t* ran = ran_.data();  // row 0: the caller's stretch
  double cpu0 = thread_cpu_seconds();
  while (boundary_step(horizon_ms)) {
    if (poolable && window_events_ >= kDenseWindowEvents) {
      // The last window was dense: close the caller's stretch and let
      // the pool run from here until a window comes in thin.
      charge_stretch(0, thread_cpu_seconds() - cpu0, /*pooled=*/false);
      const bool more = run_pooled(horizon_ms);
      cpu0 = thread_cpu_seconds();
      if (!more) break;
      continue;  // the pool left the next boundary step to us
    }
    const TimePoint window_end = TimePoint::at_ms(window_end_ms_);
    window_events_ = 0;
    for (ShardId s = 0; s < shards_.size(); ++s) {
      const std::uint64_t executed = run_shard(s, window_end);
      ran[s] += executed;
      window_events_ += executed;
    }
  }
  charge_stretch(0, thread_cpu_seconds() - cpu0, /*pooled=*/false);
  if (horizon_ms < kInf) {
    // Align every clock with the horizon (mirrors Simulation::run_until).
    for (auto& s : shards_) {
      if (s->sim.now() < horizon) s->sim.run_until(horizon);
    }
  }
  return executed_events() - before;
}

void ShardedSimulation::on_boundary(std::size_t w) {
  ++pooled_windows_;
  std::uint64_t events = 0;
  double min_next = kInf;
  bool posted = false;
  for (const Pool::Lane& lane : pool_->lanes) {
    events += lane.events;
    min_next = std::min(min_next, lane.next_ms);
    posted = posted || lane.posted;
  }
  window_events_ = events;
  next_ = Next::kDone;
  for (const auto& e : pool_->errors) {
    if (e != nullptr) return;
  }
  if (window_events_ < kDenseWindowEvents) {
    // Park the pool before planning: the caller's loop takes the
    // boundary step and runs the next window itself.
    next_ = Next::kCaller;
    return;
  }
  try {
    // Without a post every outbox is empty, so the exchange would find
    // nothing.  Otherwise the delivered messages join the lanes'
    // earliest events.
    if (posted) min_next = std::min(min_next, exchange());
    if (plan_next_window(span_horizon_ms_, min_next)) next_ = Next::kPool;
  } catch (...) {
    // A delivery can throw (e.g. heap growth); it ran on worker w's
    // thread.
    pool_->errors[w] = std::current_exception();
  }
}

void ShardedSimulation::worker_span(std::size_t w) {
  // One stretch: two thread-CPU reads per span, not per window, and
  // the barrier's yield-waits left out.  The caller splits the time
  // over the shards this worker ran once every worker has stopped.
  const double cpu0 = thread_cpu_seconds();
  double waited = 0.0;
  std::uint64_t* ran = &ran_[w * stride_];
  const std::size_t n = shards_.size();
  // Protocol per window: each worker runs its shards of the window the
  // caller or the last completion planned, writes its lane record, then
  // arrives at the one boundary barrier.  Its completion -- run by the
  // last worker to arrive while the rest wait -- plans from the records:
  // when a lane posted it delivers every outbox in source order, then it
  // rebalances the map and sizes the next window or declares
  // termination, unless the window was thin: then it hands the step
  // back to the caller.  Outboxes need no further ordering: post only
  // runs in the run phase, the delivery only inside the completion, and
  // the barrier separates the two.  The shard -> worker map is likewise
  // written only inside the completion.
  Pool::Lane& lane = pool_->lanes[w];
  do {
    const TimePoint window_end = TimePoint::at_ms(window_end_ms_);
    Pool::Lane report;
    try {
      for (std::size_t c = 0; c < n; ++c) {
        if (cell_worker_[c] != w) continue;
        ShardState& s = *shards_[c];
        const std::uint64_t executed =
            run_shard(static_cast<ShardId>(c), window_end);
        ran[c] += executed;
        report.events += executed;
        report.next_ms =
            std::min(report.next_ms, s.sim.next_event_time().to_ms());
        report.posted = report.posted || !s.outbox.empty();
      }
    } catch (...) {
      // Park the error and keep honoring the barrier so no peer
      // deadlocks; this boundary terminates everyone.
      pool_->errors[w] = std::current_exception();
    }
    lane = report;
    waited += pool_->boundary.arrive_and_wait([this, w] { on_boundary(w); });
  } while (next_ == Next::kPool);
  pool_->cpu[w] = std::max(0.0, thread_cpu_seconds() - cpu0 - waited);
}

void ShardedSimulation::worker_thread(std::size_t w) {
  for (;;) {
    pool_->start_gate.arrive_and_wait();
    if (pool_->shutdown) return;
    worker_span(w);
    pool_->end_gate.arrive_and_wait();
  }
}

void ShardedSimulation::ensure_pool() {
  if (pool_ != nullptr) return;
  pool_ = std::make_unique<Pool>(workers_);
  pool_->threads.reserve(workers_ - 1);
  for (std::size_t w = 1; w < workers_; ++w) {
    pool_->threads.emplace_back([this, w] { worker_thread(w); });
  }
}

bool ShardedSimulation::run_pooled(double horizon_ms) {
  ensure_pool();
  span_horizon_ms_ = horizon_ms;
  for (auto& e : pool_->errors) e = nullptr;
  ++pool_wakes_;
  // Wake the parked pool, run worker 0's share on this thread, then
  // wait for everyone to stop.
  pool_->start_gate.arrive_and_wait();
  worker_span(0);
  pool_->end_gate.arrive_and_wait();
  // A stolen shard can run on two workers within one span, so each
  // worker's time is split over what it ran only now.
  for (std::size_t w = 0; w < workers_; ++w) {
    charge_stretch(w, pool_->cpu[w], /*pooled=*/true);
  }
  for (auto& e : pool_->errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
  return next_ != Next::kDone;
}

std::uint64_t ShardedSimulation::mailbox_pair_hwm(ShardId src,
                                                  ShardId dst) const {
  XAR_EXPECTS(src < shards_.size() && dst < shards_.size());
  return shards_[src]->pairs[dst].peak;
}

void ShardedSimulation::register_metrics(obs::Registry& registry,
                                         const std::string& prefix) const {
  const std::size_t n = shards_.size();
  for (std::size_t s = 0; s < n; ++s) {
    const std::string base = prefix + ".shard" + std::to_string(s) + ".";
    const ShardStats& st = shards_[s]->stats;
    registry.link_counter(base + "executed", &st.executed);
    registry.link_counter(base + "posts", &st.posts);
    registry.link_counter(base + "received", &st.received);
    registry.link_counter(base + "backpressure_stalls",
                          &st.backpressure_stalls);
    // steals (like busy_seconds) is wall-clock scheduling state -- 0 in
    // serial mode, worker-dependent in parallel -- so registering it
    // would break the byte-identical serial-vs-parallel snapshot.
    registry.link_gauge(base + "mailbox_hwm", &st.mailbox_hwm);
  }
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      registry.probe(
          prefix + ".mailbox." + std::to_string(src) + "_" +
              std::to_string(dst) + ".hwm",
          [this, src, dst] {
            return static_cast<double>(mailbox_pair_hwm(
                static_cast<ShardId>(src), static_cast<ShardId>(dst)));
          },
          obs::Registry::Kind::kGauge);
    }
  }
}

std::size_t ShardedSimulation::run() {
  return run_span(TimePoint::at_ms(kInf));
}

std::size_t ShardedSimulation::run_until(TimePoint horizon) {
  XAR_EXPECTS(horizon >= now());
  return run_span(horizon);
}

}  // namespace xartrek::sim
