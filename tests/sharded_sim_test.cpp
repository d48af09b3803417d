// Tests for the epoch-synchronized sharded simulation core: trace
// determinism across shard counts and across serial/parallel execution,
// outbox delivery (on time, FIFO, counted), lookahead-contract
// enforcement, and the density switch that hands dense windows to the
// worker pool.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpu_time.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"

namespace xartrek::sim {
namespace {

// --- single-shard equivalence ----------------------------------------------

TEST(ShardedSimulationTest, OneShardReproducesPlainSimulationTrace) {
  // The same self-rescheduling workload on a plain Simulation and on a
  // 1-shard ShardedSimulation must produce the identical event trace.
  struct Chain {
    Simulation* sim;
    std::vector<std::pair<double, int>>* trace;
    int id;
    double period;
    int remaining;
    void fire() {
      trace->emplace_back(sim->now().to_ms(), id);
      if (remaining-- > 0) {
        sim->schedule_in(Duration::ms(period), [this] { fire(); });
      }
    }
  };
  auto drive = [](Simulation& sim, std::vector<std::pair<double, int>>& out) {
    std::vector<std::unique_ptr<Chain>> chains;
    for (int id = 0; id < 4; ++id) {
      chains.push_back(std::make_unique<Chain>(
          Chain{&sim, &out, id, 0.7 + 0.4 * id, 30}));
      Chain* c = chains.back().get();
      sim.schedule_in(Duration::ms(c->period), [c] { c->fire(); });
    }
    return chains;  // keep alive while running
  };

  std::vector<std::pair<double, int>> plain_trace;
  Simulation plain;
  auto keep1 = drive(plain, plain_trace);
  plain.run();

  std::vector<std::pair<double, int>> sharded_trace;
  ShardedSimulation sharded(
      ShardedSimulation::Options{.shards = 1, .epoch = Duration::ms(0.5)});
  auto keep2 = drive(sharded.shard(0), sharded_trace);
  sharded.run();

  EXPECT_EQ(sharded_trace, plain_trace);
  EXPECT_EQ(sharded.executed_events(), plain.executed_events());
}

// --- ballast ----------------------------------------------------------------

// The engine hands a window to its worker pool only when the window
// before it was dense (shard.cpp's kDenseWindowEvents, 32 events); the
// caller's thread runs thin ones.  The workloads below carry ~8 events
// per window, so tests that exercise the pool add ballast: no-op chains
// that record nothing, so every trace a test compares is untouched.
struct BallastChain {
  Simulation* sim;
  Duration gap;
  int remaining;
  void fire() {
    if (--remaining > 0) sim->schedule_in(gap, [this] { fire(); });
  }
};
using Ballast = std::vector<std::unique_ptr<BallastChain>>;

/// `count` no-op events on each of `shards`, one every `gap` from `gap`
/// on.  Keep the result alive while the engine runs.
Ballast add_ballast(ShardedSimulation& ssim, const std::vector<ShardId>& shards,
                    Duration gap, int count) {
  Ballast out;
  for (const ShardId s : shards) {
    out.push_back(std::make_unique<BallastChain>(
        BallastChain{&ssim.shard(s), gap, count}));
    BallastChain* chain = out.back().get();
    chain->sim->schedule_in(gap, [chain] { chain->fire(); });
  }
  return out;
}

// --- cross-shard determinism ------------------------------------------------

// A ring of chains, one per "component": each chain self-reschedules on
// its own shard and every fourth firing hands a token to the next chain
// through a CrossShardChannel (latency 2 ms >= the 1 ms epoch).  The
// per-chain timeline (own firings and token arrivals) must be identical
// for every shard count and for serial vs parallel execution.
struct RingResult {
  std::vector<std::vector<double>> fires;     // per chain
  std::vector<std::vector<double>> arrivals;  // per chain
  std::uint64_t executed = 0;
  std::uint64_t pooled_windows = 0;  // windows the worker pool ran
  std::vector<std::uint64_t> hwm;    // ShardStats::mailbox_hwm, by shard
};

struct RingChain {
  ShardedSimulation* ssim;
  Simulation* local;
  CrossShardChannel to_next;
  std::vector<double>* fires;
  std::vector<double>* arrivals;
  int remaining;
  double period;
  std::size_t post_every = 4;
  int burst = 1;  ///< tokens per post
  void fire() {
    fires->push_back(local->now().to_ms());
    if (fires->size() % post_every == 0) {
      for (int b = 0; b < burst; ++b) {
        to_next.deliver([this] {
          next_arrivals->push_back(next_local->now().to_ms());
        });
      }
    }
    if (remaining-- > 0) {
      local->schedule_in(Duration::ms(period), [this] { fire(); });
    }
  }
  std::vector<double>* next_arrivals = nullptr;
  Simulation* next_local = nullptr;
};

std::vector<std::unique_ptr<RingChain>> build_ring(ShardedSimulation& ssim,
                                                   RingResult& result,
                                                   std::size_t post_every,
                                                   int fires = 40,
                                                   int burst = 1) {
  constexpr int kChains = 8;
  result.fires.resize(kChains);
  result.arrivals.resize(kChains);
  const std::size_t shards = ssim.shard_count();
  std::vector<std::unique_ptr<RingChain>> chains;
  for (int c = 0; c < kChains; ++c) {
    const ShardId home = static_cast<ShardId>(c % shards);
    const ShardId next = static_cast<ShardId>((c + 1) % kChains % shards);
    auto chain = std::make_unique<RingChain>();
    chain->ssim = &ssim;
    chain->local = &ssim.shard(home);
    chain->to_next = CrossShardChannel(ssim, home, next, Duration::ms(2.0));
    chain->fires = &result.fires[c];
    chain->arrivals = &result.arrivals[c];
    chain->remaining = fires;
    chain->period = 0.31 + 0.173 * c;  // no cross-chain ties
    chain->post_every = post_every;
    chain->burst = burst;
    chains.push_back(std::move(chain));
  }
  for (int c = 0; c < kChains; ++c) {
    chains[c]->next_arrivals = &result.arrivals[(c + 1) % kChains];
    chains[c]->next_local = chains[(c + 1) % kChains]->local;
    RingChain* chain = chains[c].get();
    chain->local->schedule_in(Duration::ms(chain->period),
                              [chain] { chain->fire(); });
  }
  return chains;
}

/// Ballast for the 40-fire ring (it runs ~61 ms): one no-op every
/// 0.1 ms on each shard, so a 4-shard window carries ~48 events.
Ballast ring_ballast(ShardedSimulation& ssim) {
  std::vector<ShardId> all;
  for (ShardId s = 0; s < ssim.shard_count(); ++s) all.push_back(s);
  return add_ballast(ssim, all, Duration::ms(0.1), 620);
}

/// Run the ring workload on an engine built from `opts`, plus whatever
/// `ballast` adds.  When `mid` is set, the run pauses at `mid_at_ms` to
/// let the test poke the engine (e.g. force a shard steal) before
/// finishing.
RingResult run_ring_opts(
    const ShardedSimulation::Options& opts, std::size_t post_every = 4,
    const std::function<void(ShardedSimulation&)>& mid = nullptr,
    double mid_at_ms = 0.0,
    const std::function<Ballast(ShardedSimulation&)>& ballast = nullptr,
    int burst = 1) {
  ShardedSimulation ssim(opts);
  RingResult result;
  auto chains = build_ring(ssim, result, post_every, 40, burst);
  const Ballast keep = ballast ? ballast(ssim) : Ballast{};
  if (mid) {
    result.executed = ssim.run_until(TimePoint::at_ms(mid_at_ms));
    mid(ssim);
    result.executed += ssim.run();
  } else {
    result.executed = ssim.run();
  }
  for (ShardId s = 0; s < ssim.shard_count(); ++s) {
    result.hwm.push_back(ssim.stats(s).mailbox_hwm);
  }
  result.pooled_windows = ssim.pooled_windows();
  return result;
}

ShardedSimulation::Options ring_options(std::size_t shards, bool parallel) {
  return {.shards = shards, .epoch = Duration::ms(1.0), .parallel = parallel};
}

RingResult run_ring(std::size_t shards, bool parallel,
                    std::size_t post_every = 4) {
  return run_ring_opts(ring_options(shards, parallel), post_every);
}

/// The ring with ring_ballast: dense enough windows for the pool.
RingResult run_dense_ring(std::size_t shards, bool parallel) {
  return run_ring_opts(ring_options(shards, parallel), 4, nullptr, 0.0,
                       ring_ballast);
}

TEST(ShardedSimulationTest, TracesIdenticalAcrossShardCounts) {
  const RingResult one = run_ring(1, false);
  const RingResult two = run_ring(2, false);
  const RingResult four = run_ring(4, false);
  EXPECT_EQ(two.fires, one.fires);
  EXPECT_EQ(four.fires, one.fires);
  EXPECT_EQ(two.arrivals, one.arrivals);
  EXPECT_EQ(four.arrivals, one.arrivals);
  // Each chain fired kFires+1 times and received every token.
  for (const auto& f : one.fires) EXPECT_EQ(f.size(), 41u);
  for (const auto& a : one.arrivals) EXPECT_EQ(a.size(), 10u);
}

TEST(ShardedSimulationTest, ParallelMatchesSerial) {
  const RingResult serial = run_dense_ring(4, false);
  const RingResult parallel = run_dense_ring(4, true);
  EXPECT_EQ(parallel.fires, serial.fires);
  EXPECT_EQ(parallel.arrivals, serial.arrivals);
  EXPECT_EQ(parallel.executed, serial.executed);
  EXPECT_EQ(serial.pooled_windows, 0u);
  EXPECT_GT(parallel.pooled_windows, 0u);
}

TEST(ShardedSimulationTest, PostOnEveryFiringDeliversEverything) {
  // Every firing posts a token, so boundaries deliver multi-message
  // bursts: each token arrives exactly once, at the same instant for
  // every shard count, and the inbound high-water stat sees the bursts.
  const RingResult one = run_ring(1, false, 1);
  const RingResult four = run_ring(4, false, 1);
  const RingResult sparse = run_ring(4, false, 4);
  for (const auto& a : four.arrivals) EXPECT_EQ(a.size(), 41u);
  EXPECT_EQ(four.arrivals, one.arrivals);
  EXPECT_EQ(four.fires, sparse.fires);  // local timelines unaffected
  std::uint64_t max_hwm = 0;
  for (const std::uint64_t h : four.hwm) max_hwm = std::max(max_hwm, h);
  EXPECT_GT(max_hwm, 1u);
}

TEST(ShardedSimulationTest, MailboxBurstArrivesOnTimeInOrder) {
  // 100 posts in one window from shard 0 to shard 1: every message runs
  // at its posted instant (t + 2 ms, no slip), in post order, and the
  // counters see the whole burst at one boundary.  A later window's
  // burst of 30 adds to `received` but not to either high-water mark.
  ShardedSimulation ssim(ring_options(2, false));
  std::vector<std::pair<int, double>> received;
  const auto burst = [&](int first, int count) {
    for (int i = first; i < first + count; ++i) {
      ssim.post(0, 1, ssim.shard(0).now() + Duration::ms(2.0), [&, i] {
        received.emplace_back(i, ssim.shard(1).now().to_ms());
      });
    }
  };
  ssim.shard(0).schedule_at(TimePoint::at_ms(1.0), [&] { burst(0, 100); });
  ssim.shard(0).schedule_at(TimePoint::at_ms(10.0), [&] { burst(100, 30); });
  ssim.run();
  ASSERT_EQ(received.size(), 130u);
  for (int i = 0; i < 130; ++i) {
    EXPECT_EQ(received[i].first, i);
    EXPECT_EQ(received[i].second, i < 100 ? 3.0 : 12.0);
  }
  EXPECT_EQ(ssim.stats(0).posts, 130u);
  EXPECT_EQ(ssim.stats(1).received, 130u);
  EXPECT_EQ(ssim.stats(1).mailbox_hwm, 100u);
  EXPECT_EQ(ssim.mailbox_pair_hwm(0, 1), 100u);
  EXPECT_EQ(ssim.mailbox_pair_hwm(1, 0), 0u);
}

TEST(ShardedSimulationTest, SameInstantMessagesRunInSourceOrder) {
  // Shards 2 and 1 post to shard 0 for the same instant, shard 2 first
  // in simulated time: shard 0 runs them in source order.
  ShardedSimulation ssim(ring_options(3, false));
  std::vector<int> order;
  const TimePoint at = TimePoint::at_ms(5.0);
  ssim.shard(2).schedule_at(TimePoint::at_ms(1.0), [&] {
    ssim.post(2, 0, at, [&order] { order.push_back(2); });
  });
  ssim.shard(1).schedule_at(TimePoint::at_ms(1.5), [&] {
    ssim.post(1, 0, at, [&order] { order.push_back(1); });
  });
  ssim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- deterministic shard stealing -------------------------------------------

TEST(ShardedSimulationTest, ForcedMidRunStealPreservesTrace) {
  const RingResult baseline = run_dense_ring(4, false);
  auto opts = [](bool parallel) {
    ShardedSimulation::Options o = ring_options(4, parallel);
    o.exec.workers = 2;
    return o;
  };
  for (const bool parallel : {false, true}) {
    std::uint64_t moves = 0;
    std::size_t new_worker = 99;
    const RingResult stolen = run_ring_opts(
        opts(parallel), 4,
        [&](ShardedSimulation& ssim) {
          // Mid-run, between spans: move shard 0 off worker 0.
          EXPECT_EQ(ssim.worker_of(0), 0u);
          ssim.set_worker_of(0, 1);
          moves = ssim.steal_moves();
          new_worker = ssim.worker_of(0);
        },
        /*mid_at_ms=*/20.0, ring_ballast);
    EXPECT_EQ(moves, 1u);
    EXPECT_EQ(new_worker, 1u);
    EXPECT_EQ(stolen.fires, baseline.fires) << "parallel=" << parallel;
    EXPECT_EQ(stolen.arrivals, baseline.arrivals);
    EXPECT_EQ(stolen.executed, baseline.executed);
    EXPECT_EQ(stolen.pooled_windows > 0, parallel);
  }
}

TEST(ShardedSimulationTest, OrganicStealingIsDeterministicAcrossModes) {
  // 8 shards on 4 workers with the ring's uneven per-shard load: the
  // rebalancer moves shards, its decisions must be identical in serial
  // and parallel mode, and the trace must not notice them.  Ballast
  // sits on worker 0's two shards only, so windows are dense and the
  // load stays skewed enough for the rebalancer to act.
  const RingResult baseline = run_ring(8, false);
  const auto skewed_ballast = [](ShardedSimulation& ssim) {
    return add_ballast(ssim, {0, 4}, Duration::ms(0.05), 1300);
  };
  auto opts = [](bool parallel) {
    ShardedSimulation::Options o = ring_options(8, parallel);
    o.exec.workers = 4;
    return o;
  };
  std::uint64_t serial_moves = 0;
  std::uint64_t parallel_moves = 0;
  std::vector<std::size_t> serial_map;
  std::vector<std::size_t> parallel_map;
  auto capture = [](std::uint64_t& moves, std::vector<std::size_t>& map) {
    return [&moves, &map](ShardedSimulation& ssim) {
      moves = ssim.steal_moves();
      for (ShardId s = 0; s < ssim.shard_count(); ++s) {
        map.push_back(ssim.worker_of(s));
      }
    };
  };
  // The "mid" hook past the end of the workload reads the final map
  // (the engine is destroyed when run_ring_opts returns).
  const RingResult serial =
      run_ring_opts(opts(false), 4, capture(serial_moves, serial_map),
                    /*mid_at_ms=*/80.0, skewed_ballast);
  const RingResult parallel =
      run_ring_opts(opts(true), 4, capture(parallel_moves, parallel_map),
                    /*mid_at_ms=*/80.0, skewed_ballast);
  EXPECT_EQ(serial.fires, baseline.fires);
  EXPECT_EQ(serial.arrivals, baseline.arrivals);
  EXPECT_EQ(parallel.fires, baseline.fires);
  EXPECT_EQ(parallel.arrivals, baseline.arrivals);
  EXPECT_GE(serial_moves, 1u);  // the identity below is not vacuous
  EXPECT_EQ(parallel_moves, serial_moves);
  EXPECT_EQ(parallel_map, serial_map);
  EXPECT_GT(parallel.pooled_windows, 0u);
}

/// A chain on one shard that records its firing times: fires every
/// `period_ms`, `remaining` more times.
struct Periodic {
  Simulation* sim;
  std::vector<double>* trace;
  double period_ms;
  int remaining;
  void fire() {
    trace->push_back(sim->now().to_ms());
    if (remaining-- > 0) {
      sim->schedule_in(Duration::ms(period_ms), [this] { fire(); });
    }
  }
};

TEST(ShardedSimulationTest, RebalancerIsolatesHotShard) {
  // One hot shard (20x the event rate, doubled again by ballast so its
  // windows are dense enough for the pool) sharing worker 0 with a
  // cold shard: the rebalancer must move the cold shard away --
  // exactly once (the donor then owns a single shard and may not give
  // it up) -- and identically in serial and parallel mode.
  auto run_mode = [](bool parallel, std::uint64_t& moves,
                     std::vector<std::size_t>& map,
                     std::vector<std::vector<double>>& traces,
                     std::uint64_t& pooled) {
    ShardedSimulation::Options o;
    o.shards = 4;
    o.epoch = Duration::ms(1.0);
    o.parallel = parallel;
    o.exec.workers = 2;
    ShardedSimulation ssim(o);
    traces.assign(4, {});
    std::vector<std::unique_ptr<Periodic>> chains;
    for (ShardId s = 0; s < 4; ++s) {
      auto c = std::make_unique<Periodic>();
      c->sim = &ssim.shard(s);
      c->trace = &traces[s];
      c->period_ms = s == 0 ? 0.05 : 1.0;  // shard 0 is the hot one
      c->remaining = s == 0 ? 400 : 20;
      Periodic* raw = c.get();
      c->sim->schedule_in(Duration::ms(c->period_ms), [raw] { raw->fire(); });
      chains.push_back(std::move(c));
    }
    const Ballast ballast = add_ballast(ssim, {0}, Duration::ms(0.05), 400);
    ssim.run();
    moves = ssim.steal_moves();
    map.clear();
    for (ShardId s = 0; s < 4; ++s) map.push_back(ssim.worker_of(s));
    pooled = ssim.pooled_windows();
  };

  std::uint64_t serial_moves = 0;
  std::uint64_t parallel_moves = 0;
  std::vector<std::size_t> serial_map;
  std::vector<std::size_t> parallel_map;
  std::vector<std::vector<double>> serial_traces;
  std::vector<std::vector<double>> parallel_traces;
  std::uint64_t serial_pooled = 0;
  std::uint64_t parallel_pooled = 0;
  run_mode(false, serial_moves, serial_map, serial_traces, serial_pooled);
  run_mode(true, parallel_moves, parallel_map, parallel_traces,
           parallel_pooled);

  EXPECT_EQ(serial_moves, 1u);  // cold shard 2 leaves worker 0, once
  EXPECT_EQ(serial_map, (std::vector<std::size_t>{0, 1, 1, 1}));
  EXPECT_EQ(parallel_moves, serial_moves);
  EXPECT_EQ(parallel_map, serial_map);
  EXPECT_EQ(parallel_traces, serial_traces);
  EXPECT_EQ(serial_pooled, 0u);
  EXPECT_GT(parallel_pooled, 0u);
}

TEST(ShardedSimulationTest, RebalancerStopsPingPong) {
  // sync8's shape: 8 shards on 4 workers, shard 3 three times as busy
  // as each of the others.  The first move leaves shard 3 alone on
  // worker 3 and gives another worker three cold shards, a load that
  // ties worker 3's.  The cold shards' rates swing by +-6% every 16 ms,
  // even shards against odd ones, so from one evaluation period to the
  // next that tie tips either way.  A move that does not lower the
  // maximum over all workers must not happen, or cold shards pass back
  // and forth between the lanes all run long.
  struct Swing {
    Simulation* sim;
    std::vector<double>* trace;
    int parity;
    double end_ms;
    void fire() {
      const double now = sim->now().to_ms();
      trace->push_back(now);
      const bool fast = (static_cast<int>(now / 16.0) + parity) % 2 == 0;
      const double period = fast ? 0.235 : 0.265;
      if (now + period < end_ms) {
        sim->schedule_in(Duration::ms(period), [this] { fire(); });
      }
    }
  };
  struct Run {
    std::uint64_t moves = 0;
    std::uint64_t pooled = 0;
    std::vector<std::vector<double>> traces;
  };
  auto run_mode = [](bool parallel) {
    ShardedSimulation::Options o;
    o.shards = 8;
    o.epoch = Duration::ms(1.0);
    o.parallel = parallel;
    o.exec.workers = 4;
    ShardedSimulation ssim(o);
    Run run;
    run.traces.assign(8, {});
    // ~40 events per window: dense, so the pool runs the windows.
    constexpr double kRunMs = 2100.0;
    Periodic hot{&ssim.shard(3), &run.traces[3], 0.25 / 3.0,
                 static_cast<int>(kRunMs * 12.0)};
    ssim.shard(3).schedule_in(Duration::ms(hot.period_ms),
                              [&hot] { hot.fire(); });
    std::vector<std::unique_ptr<Swing>> cold;
    for (ShardId s = 0; s < 8; ++s) {
      if (s == 3) continue;
      cold.push_back(std::make_unique<Swing>(Swing{
          &ssim.shard(s), &run.traces[s], static_cast<int>(s % 2), kRunMs}));
      Swing* raw = cold.back().get();
      raw->sim->schedule_in(Duration::ms(0.25 + 0.01 * s),
                            [raw] { raw->fire(); });
    }
    ssim.run();
    run.moves = ssim.steal_moves();
    run.pooled = ssim.pooled_windows();
    return run;
  };
  const Run serial = run_mode(false);
  const Run parallel = run_mode(true);
  EXPECT_GE(serial.moves, 1u);
  EXPECT_LE(serial.moves, 2u);
  EXPECT_EQ(parallel.moves, serial.moves);
  EXPECT_EQ(parallel.traces, serial.traces);
  EXPECT_GE(parallel.pooled, 2000u);
}

TEST(ShardedSimulationTest, WorkerStatsAccountEveryEvent) {
  // Pooled spans count for the worker that ran them; caller-thread
  // windows -- every window of a serial run -- count for each shard's
  // mapped worker.  Either way every event lands on exactly one lane.
  for (const bool parallel : {false, true}) {
    ShardedSimulation::Options opts = ring_options(4, parallel);
    opts.exec.workers = 2;
    ShardedSimulation ssim(opts);
    RingResult result;
    auto keep = build_ring(ssim, result, 4);
    const Ballast ballast = ring_ballast(ssim);
    result.executed = ssim.run();
    ASSERT_EQ(ssim.worker_count(), 2u);
    std::uint64_t by_worker = 0;
    for (std::size_t w = 0; w < ssim.worker_count(); ++w) {
      by_worker += ssim.worker_stats(w).executed;
      EXPECT_GT(ssim.worker_stats(w).executed, 0u) << "worker " << w;
    }
    EXPECT_EQ(by_worker, result.executed) << "parallel=" << parallel;
    std::uint64_t by_shard = 0;
    for (ShardId s = 0; s < ssim.shard_count(); ++s) {
      by_shard += ssim.stats(s).executed;
    }
    EXPECT_EQ(by_shard, result.executed);
    EXPECT_EQ(ssim.pooled_windows() > 0, parallel);
  }
}

TEST(ShardedSimulationTest, BusyTimeFollowsShardsAfterManualRemap) {
  // Two shards on two workers (the identity map), then shard 0 moved
  // onto worker 1 between runs: worker 1 now runs both shards and
  // worker 0 none, so busy time must be attributed per shard rather
  // than per worker.  Every spin burns the same thread-CPU time, and
  // both shards carry the same ballast, so the windows are dense and
  // the pool runs them.
  struct Spin {
    Simulation* sim;
    int remaining;
    void fire() {
      const double until = thread_cpu_seconds() + 50e-6;
      while (thread_cpu_seconds() < until) continue;
      if (remaining-- > 0) {
        sim->schedule_in(Duration::ms(1.0), [this] { fire(); });
      }
    }
  };
  ShardedSimulation ssim(ring_options(2, true));
  ssim.set_worker_of(0, 1);
  std::vector<std::unique_ptr<Spin>> spins;
  for (ShardId s = 0; s < 2; ++s) {
    spins.push_back(std::make_unique<Spin>(Spin{&ssim.shard(s), 199}));
    Spin* raw = spins.back().get();
    ssim.shard(s).schedule_in(Duration::ms(1.0), [raw] { raw->fire(); });
  }
  constexpr int kBallast = 4000;  // one no-op per shard every 0.05 ms
  const Ballast ballast =
      add_ballast(ssim, {0, 1}, Duration::ms(0.05), kBallast);
  ssim.run();
  EXPECT_GT(ssim.pooled_windows(), 0u);
  EXPECT_EQ(ssim.worker_stats(0).executed, 0u);
  EXPECT_EQ(ssim.worker_stats(1).executed, 400u + 2 * kBallast);
  const double busy0 = ssim.stats(0).busy_seconds;
  const double busy1 = ssim.stats(1).busy_seconds;
  EXPECT_EQ(ssim.stats(0).executed, 200u + kBallast);
  EXPECT_GT(busy0, 200 * 50e-6 * 0.9);  // its own spins, not worker 0's
  EXPECT_GT(busy0, 0.5 * busy1);
  EXPECT_GT(busy1, 0.5 * busy0);
}

TEST(ShardedSimulationTest, PooledWindowsDeliverBurstsLikeSerial) {
  // The dense ring with a burst of three posts on every firing: pooled
  // windows post, their lanes report it, and the boundary must deliver
  // the bursts exactly as the caller's loop does.
  const auto run_mode = [](bool parallel) {
    return run_ring_opts(ring_options(4, parallel), 1, nullptr, 0.0,
                         ring_ballast, /*burst=*/3);
  };
  const RingResult serial = run_mode(false);
  const RingResult parallel = run_mode(true);
  EXPECT_EQ(parallel.fires, serial.fires);
  EXPECT_EQ(parallel.arrivals, serial.arrivals);
  EXPECT_EQ(parallel.executed, serial.executed);
  EXPECT_EQ(parallel.hwm, serial.hwm);
  for (const auto& a : parallel.arrivals) EXPECT_EQ(a.size(), 3u * 41u);
  EXPECT_GT(parallel.pooled_windows, 0u);
}

// --- boundary barrier under stress -----------------------------------------

RingResult run_long_ring(bool parallel) {
  ShardedSimulation ssim(ring_options(4, parallel));
  RingResult result;
  auto keep = build_ring(ssim, result, 4, 4000);
  // The ring runs ~6.1 s; ballast keeps its windows dense throughout.
  const Ballast ballast =
      add_ballast(ssim, {0, 1, 2, 3}, Duration::ms(0.1), 61'000);
  result.executed = ssim.run();
  result.pooled_windows = ssim.pooled_windows();
  EXPECT_GT(ssim.windows(), 2000u);
  return result;
}

#if defined(__linux__)
// Four workers sharing one CPU: every boundary wait must hand the CPU
// to the peers it is waiting for, or each window costs a scheduler
// tick.  Pool threads inherit the affinity mask of the thread that
// creates them, so restricting the test thread first confines them all.
TEST(ShardedSimulationTest, ParallelStaysLiveOnOneCpu) {
  struct RestoreMask {
    cpu_set_t saved;
    ~RestoreMask() { (void)sched_setaffinity(0, sizeof(saved), &saved); }
  } restore{};
  ASSERT_EQ(sched_getaffinity(0, sizeof(restore.saved), &restore.saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &restore.saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const RingResult serial = run_long_ring(false);
  const auto t0 = std::chrono::steady_clock::now();
  const RingResult parallel = run_long_ring(true);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_EQ(parallel.fires, serial.fires);
  EXPECT_EQ(parallel.arrivals, serial.arrivals);
  EXPECT_EQ(parallel.executed, serial.executed);
  EXPECT_GT(parallel.pooled_windows, 2000u);
  EXPECT_LT(wall_s, 2.0);
}
#endif

// Hundreds of short run_until spans, a few windows each (some none),
// with cross-shard posts submitted from outside between spans -- the
// shape of a 50 ms run_for stepping loop.  Every span re-enters the
// pool through the parking gates and the boundary barrier.
struct SpanResult {
  RingResult ring;
  std::vector<std::vector<double>> posted;  // arrival times, by shard
  std::vector<std::uint64_t> received;      // ShardStats::received
  std::uint64_t pool_wakes = 0;
};

constexpr int kShortSpans = 600;

SpanResult run_short_spans(bool parallel) {
  constexpr ShardId kShards = 4;
  ShardedSimulation ssim(ring_options(kShards, parallel));
  SpanResult result;
  result.posted.resize(kShards);
  auto keep = build_ring(ssim, result.ring, 4, 400);
  // The ring runs ~608 ms; at one no-op per shard every 0.05 ms a
  // 0.7 ms span's window carries ~56 ballast events, so whenever the
  // previous window was dense the span opens on the pool.
  const Ballast ballast =
      add_ballast(ssim, {0, 1, 2, 3}, Duration::ms(0.05), 12'200);
  for (int i = 0; i < kShortSpans; ++i) {
    const auto src = static_cast<ShardId>(i % kShards);
    const auto dst = static_cast<ShardId>((i + 1 + i / kShards) % kShards);
    if (src != dst) {
      auto* log = &result.posted[dst];
      Simulation* local = &ssim.shard(dst);
      ssim.post(src, dst, ssim.now() + Duration::ms(1.0 + 0.01 * (i % 7)),
                [log, local] { log->push_back(local->now().to_ms()); });
    }
    result.ring.executed += ssim.run_until(ssim.now() + Duration::ms(0.7));
  }
  result.ring.executed += ssim.run();
  for (ShardId s = 0; s < kShards; ++s) {
    result.received.push_back(ssim.stats(s).received);
  }
  result.ring.pooled_windows = ssim.pooled_windows();
  result.pool_wakes = ssim.pool_wakes();
  return result;
}

TEST(ShardedSimulationTest, ManyShortSpansMatchSerial) {
  const SpanResult serial = run_short_spans(false);
  const SpanResult parallel = run_short_spans(true);
  EXPECT_EQ(parallel.ring.fires, serial.ring.fires);
  EXPECT_EQ(parallel.ring.arrivals, serial.ring.arrivals);
  EXPECT_EQ(parallel.posted, serial.posted);
  EXPECT_EQ(parallel.ring.executed, serial.ring.executed);
  EXPECT_EQ(parallel.received, serial.received);
  // Exactly what arrived: ring tokens land on the receiving chain's
  // home shard (chain c lives on shard c % 4), plus the posts.
  for (ShardId s = 0; s < 4; ++s) {
    std::uint64_t expected = parallel.posted[s].size();
    for (std::size_t c = s; c < parallel.ring.arrivals.size(); c += 4) {
      expected += parallel.ring.arrivals[c].size();
    }
    EXPECT_EQ(parallel.received[s], expected) << "shard " << s;
  }
  std::size_t posts = 0;
  for (const auto& p : parallel.posted) posts += p.size();
  EXPECT_GT(posts, 400u);
  EXPECT_GT(parallel.ring.pooled_windows, 0u);
  // Every span after the first opens on a dense window's heels, so it
  // re-enters the pool through the parking gates.
  EXPECT_GE(parallel.pool_wakes, std::uint64_t{kShortSpans - 1});
}

// --- density switch ----------------------------------------------------------

// Bursts and lulls.  Every 10 ms each of the 4 shards fires a burst of
// 40 events 0.05 ms apart (~80 events per 1 ms window, 2.5x the bar);
// every 4th of its first 17 firings posts a token to the next shard,
// which lands inside the burst.  In between, only a ticker on shard 0
// runs: every 1.5 ms it posts a token to one of the other shards, so a
// lull window holds at most the tick and one arrival.  Each burst
// wakes the pool and each lull parks it again.
constexpr int kCycles = 60;
constexpr double kCycleMs = 10.0;
constexpr int kBurstEvents = 40;
constexpr double kBurstGapMs = 0.05;

using ShardTrace = std::vector<std::pair<double, int>>;  // (time, tag)

struct Burst {
  Simulation* local;
  CrossShardChannel to_next;
  ShardTrace* trace;
  ShardTrace* next_trace;
  Simulation* next_local;
  int tag;
  int cycles_left = kCycles;
  int fired = 0;
  void fire() {
    trace->emplace_back(local->now().to_ms(), tag);
    if (fired % 4 == 0 && fired <= 16) {
      to_next.deliver([this] {
        next_trace->emplace_back(next_local->now().to_ms(), 100 + tag);
      });
    }
    if (++fired < kBurstEvents) {
      local->schedule_in(Duration::ms(kBurstGapMs), [this] { fire(); });
    } else if (--cycles_left > 0) {
      fired = 0;
      local->schedule_in(
          Duration::ms(kCycleMs - (kBurstEvents - 1) * kBurstGapMs),
          [this] { fire(); });
    }
  }
};

struct Ticker {
  ShardedSimulation* ssim;
  std::vector<ShardTrace>* traces;
  int remaining;
  int ticks = 0;
  void fire() {
    Simulation& local = ssim->shard(0);
    (*traces)[0].emplace_back(local.now().to_ms(), -1);
    const auto dst = static_cast<ShardId>(1 + ticks++ % 3);
    ShardTrace* log = &(*traces)[dst];
    Simulation* remote = &ssim->shard(dst);
    ssim->post(0, dst, local.now() + Duration::ms(1.0), [log, remote] {
      log->emplace_back(remote->now().to_ms(), -2);
    });
    if (--remaining > 0) {
      local.schedule_in(Duration::ms(1.5), [this] { fire(); });
    }
  }
};

struct SwitchResult {
  std::vector<ShardTrace> traces;  // by shard
  std::uint64_t executed = 0;
  std::uint64_t windows = 0;
  std::uint64_t pooled_windows = 0;
  std::uint64_t pool_wakes = 0;
  std::uint64_t by_worker = 0;  // sum of WorkerStats::executed
};

SwitchResult run_bursts_and_lulls(bool parallel) {
  constexpr ShardId kShards = 4;
  ShardedSimulation::Options opts = ring_options(kShards, parallel);
  opts.exec.workers = 2;
  ShardedSimulation ssim(opts);
  SwitchResult result;
  result.traces.resize(kShards);
  std::vector<std::unique_ptr<Burst>> bursts;
  for (ShardId s = 0; s < kShards; ++s) {
    const auto next = static_cast<ShardId>((s + 1) % kShards);
    bursts.push_back(std::make_unique<Burst>(Burst{
        &ssim.shard(s), CrossShardChannel(ssim, s, next, Duration::ms(1.0)),
        &result.traces[s], &result.traces[next], &ssim.shard(next),
        static_cast<int>(s)}));
    Burst* burst = bursts.back().get();
    // Staggered starts: the shards' bursts overlap but do not tie.
    burst->local->schedule_at(TimePoint::at_ms(0.5 + 0.01 * s),
                              [burst] { burst->fire(); });
  }
  Ticker ticker{&ssim, &result.traces,
                static_cast<int>(kCycles * kCycleMs / 1.5)};
  ssim.shard(0).schedule_at(TimePoint::at_ms(0.3),
                            [&ticker] { ticker.fire(); });
  // Several spans whose horizons fall anywhere in the cycle.
  while (ssim.now().to_ms() < kCycles * kCycleMs) {
    result.executed += ssim.run_until(ssim.now() + Duration::ms(37.0));
  }
  result.executed += ssim.run();
  result.windows = ssim.windows();
  result.pooled_windows = ssim.pooled_windows();
  result.pool_wakes = ssim.pool_wakes();
  for (std::size_t w = 0; w < ssim.worker_count(); ++w) {
    result.by_worker += ssim.worker_stats(w).executed;
  }
  return result;
}

TEST(ShardedSimulationTest, DensitySwitchCrossedManyTimesMatchesSerial) {
  const SwitchResult serial = run_bursts_and_lulls(false);
  const SwitchResult parallel = run_bursts_and_lulls(true);
  EXPECT_EQ(parallel.traces, serial.traces);
  EXPECT_EQ(parallel.executed, serial.executed);
  EXPECT_EQ(parallel.windows, serial.windows);
  // Every burst event ran, and so did every token, both kinds.
  std::size_t ticks = 0;
  std::size_t tick_tokens = 0;
  std::size_t burst_events = 0;
  std::size_t burst_tokens = 0;
  for (const ShardTrace& trace : serial.traces) {
    for (const auto& [at, tag] : trace) {
      (void)at;
      if (tag == -1) ++ticks;
      if (tag == -2) ++tick_tokens;
      if (tag >= 0 && tag < 100) ++burst_events;
      if (tag >= 100) ++burst_tokens;
    }
  }
  EXPECT_EQ(tick_tokens, ticks);
  EXPECT_EQ(burst_events, std::size_t{4} * kCycles * kBurstEvents);
  EXPECT_EQ(burst_tokens, std::size_t{4} * kCycles * 5);
  // Both modes ran: the pool took the dense windows, the caller the
  // thin ones, and the switch was crossed at every burst.
  EXPECT_EQ(serial.pooled_windows, 0u);
  EXPECT_GT(parallel.pooled_windows, 0u);
  EXPECT_LT(parallel.pooled_windows, parallel.windows);
  EXPECT_GE(parallel.pool_wakes, 50u);
  EXPECT_EQ(serial.by_worker, serial.executed);
  EXPECT_EQ(parallel.by_worker, parallel.executed);
}

// --- API contracts ----------------------------------------------------------

TEST(ShardedSimulationTest, ChannelLatencyMustCoverEpoch) {
  ShardedSimulation ssim(ring_options(2, false));
  EXPECT_THROW(CrossShardChannel(ssim, 0, 1, Duration::micros(10.0)),
               ContractViolation);
  // Same-shard channels may be arbitrarily fast.
  EXPECT_NO_THROW(CrossShardChannel(ssim, 0, 0, Duration::micros(10.0)));
}

// An event at 1 ms with a 1 ms epoch runs in the window that ends at
// 2 ms.  A post from it must land at or past that end, less 1e-9 ms of
// rounding slack.
TEST(ShardedSimulationTest, PostBeforeWindowEndBreaksLookahead) {
  ShardedSimulation ssim(ring_options(2, false));
  bool ran = false;
  ssim.shard(0).schedule_at(TimePoint::at_ms(1.0), [&] {
    ssim.post(0, 1, TimePoint::at_ms(2.0 - 2e-9), [&ran] { ran = true; });
  });
  EXPECT_THROW(ssim.run(), ContractViolation);
  EXPECT_FALSE(ran);
  EXPECT_EQ(ssim.stats(0).posts, 0u);
}

TEST(ShardedSimulationTest, PostInsideSlackRunsAtWindowEnd) {
  ShardedSimulation ssim(ring_options(2, false));
  double ran_at = -1.0;
  ssim.shard(0).schedule_at(TimePoint::at_ms(1.0), [&] {
    ssim.post(0, 1, TimePoint::at_ms(2.0 - 5e-10),
              [&] { ran_at = ssim.shard(1).now().to_ms(); });
  });
  EXPECT_EQ(ssim.run(), 2u);
  // The destination's clock already reads the window end: the message
  // runs there, never before it.
  EXPECT_EQ(ran_at, 2.0);
  EXPECT_EQ(ssim.stats(1).received, 1u);
}

TEST(ShardedSimulationTest, RunUntilAlignsEveryShardClock) {
  ShardedSimulation ssim(ring_options(3, false));
  int fired = 0;
  ssim.shard(1).schedule_at(TimePoint::at_ms(5.0), [&] { ++fired; });
  ssim.shard(2).schedule_at(TimePoint::at_ms(50.0), [&] { ++fired; });
  EXPECT_EQ(ssim.run_until(TimePoint::at_ms(20.0)), 1u);
  EXPECT_EQ(fired, 1);
  for (ShardId s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(ssim.shard(s).now().to_ms(), 20.0);
  }
  EXPECT_EQ(ssim.run(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(ShardedSimulationTest, FastForwardsOverIdleGaps) {
  // Two events 10 seconds apart with a 0.1 ms epoch: the window
  // scheduler must jump the gap instead of grinding 100k empty epochs.
  ShardedSimulation ssim(ShardedSimulation::Options{
      .shards = 2, .epoch = Duration::micros(100.0)});
  int fired = 0;
  ssim.shard(0).schedule_at(TimePoint::at_ms(1.0), [&] { ++fired; });
  ssim.shard(1).schedule_at(TimePoint::at_ms(10'000.0), [&] { ++fired; });
  EXPECT_EQ(ssim.run(), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(ShardedSimulationTest, ErrorInParallelShardPropagates) {
  // Ballast makes every window dense, so the pool runs them from the
  // second window on and the throw at 5 ms happens on the pool thread
  // that runs shard 1; it must surface on the calling thread.
  ShardedSimulation ssim(ring_options(2, true));
  const Ballast ballast = add_ballast(ssim, {0, 1}, Duration::ms(0.05), 200);
  std::thread::id thrower;
  ssim.shard(1).schedule_at(TimePoint::at_ms(5.0), [&thrower] {
    thrower = std::this_thread::get_id();
    throw Error("shard boom");
  });
  ssim.shard(0).schedule_at(TimePoint::at_ms(0.5), [] {});
  EXPECT_THROW(ssim.run(), Error);
  EXPECT_GT(ssim.pooled_windows(), 0u);
  EXPECT_NE(thrower, std::thread::id{});
  EXPECT_NE(thrower, std::this_thread::get_id());
}

}  // namespace
}  // namespace xartrek::sim
