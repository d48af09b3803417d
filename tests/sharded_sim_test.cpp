// Tests for the epoch-synchronized sharded simulation core: SPSC
// mailbox semantics, trace determinism across shard counts and across
// serial/parallel execution, lookahead-contract enforcement, and
// mailbox overflow backpressure.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"

namespace xartrek::sim {
namespace {

// --- SPSC ring --------------------------------------------------------------

TEST(SpscRingTest, FifoAcrossWrapAround) {
  SpscRing<int> ring(4);
  int out = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(ring.try_push(round * 10 + i));
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, round * 10 + i);
    }
  }
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRingTest, RefusesWhenFull) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  EXPECT_FALSE(ring.try_push(99));
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(4));  // slot freed by the pop
  EXPECT_EQ(ring.size(), 4u);
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SpscRingTest, TracksHighWaterDepth) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.high_water(), 0u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(ring.high_water(), 3u);  // pops don't lower the mark
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  EXPECT_EQ(ring.high_water(), 6u);  // 1 left + 5 pushed
}

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
  ShardedSimulation sharded(ShardedSimulation::Options{
      1, Duration::ms(0.5), 64, false, Duration::zero(), {}});
  auto keep2 = drive(sharded.shard(0), sharded_trace);
  sharded.run();

  EXPECT_EQ(sharded_trace, plain_trace);
  EXPECT_EQ(sharded.executed_events(), plain.executed_events());
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
  std::uint64_t stalls = 0;
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
  void fire() {
    fires->push_back(local->now().to_ms());
    if (fires->size() % post_every == 0) {
      to_next.deliver([this] {
        next_arrivals->push_back(next_local->now().to_ms());
      });
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
                                                   int fires = 40) {
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

/// Run the ring workload on an engine built from `opts`.  When `mid`
/// is set, the run pauses at `mid_at_ms` to let the test poke the
/// engine (e.g. force a shard steal) before finishing.
RingResult run_ring_opts(
    const ShardedSimulation::Options& opts, std::size_t post_every = 4,
    const std::function<void(ShardedSimulation&)>& mid = nullptr,
    double mid_at_ms = 0.0) {
  ShardedSimulation ssim(opts);
  RingResult result;
  auto chains = build_ring(ssim, result, post_every);
  if (mid) {
    result.executed = ssim.run_until(TimePoint::at_ms(mid_at_ms));
    mid(ssim);
    result.executed += ssim.run();
  } else {
    result.executed = ssim.run();
  }
  for (ShardId s = 0; s < ssim.shard_count(); ++s) {
    result.stalls += ssim.stats(s).backpressure_stalls;
  }
  return result;
}

RingResult run_ring(std::size_t shards, bool parallel,
                    std::size_t mailbox_capacity = 64,
                    std::size_t post_every = 4) {
  return run_ring_opts(
      ShardedSimulation::Options{shards, Duration::ms(1.0), mailbox_capacity,
                                 parallel, Duration::zero(), {}},
      post_every);
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
  const RingResult serial = run_ring(4, false);
  const RingResult parallel = run_ring(4, true);
  EXPECT_EQ(parallel.fires, serial.fires);
  EXPECT_EQ(parallel.arrivals, serial.arrivals);
  EXPECT_EQ(parallel.executed, serial.executed);
}

TEST(ShardedSimulationTest, BackpressureDelaysButDeliversEverything) {
  // Every firing posts a token; a capacity-2 mailbox forces part of
  // each window's burst through the spill path.
  const RingResult roomy = run_ring(4, false, 64, 1);
  const RingResult tight = run_ring(4, false, 2, 1);
  EXPECT_EQ(roomy.stalls, 0u);
  EXPECT_GT(tight.stalls, 0u);
  // Every token still arrives exactly once.
  for (const auto& a : tight.arrivals) EXPECT_EQ(a.size(), 41u);
  EXPECT_EQ(tight.fires, roomy.fires);  // local timelines unaffected
}

TEST(ShardedSimulationTest, MailboxOverflowBurstSpillsAndDrains) {
  // 100 same-window posts through a capacity-4 mailbox: all must land,
  // FIFO, even though delivery slips across several boundaries.
  ShardedSimulation ssim(ShardedSimulation::Options{
      2, Duration::ms(1.0), 4, false, Duration::zero(), {}});
  std::vector<int> received;
  ssim.shard(0).schedule_at(TimePoint::at_ms(1.0), [&] {
    for (int i = 0; i < 100; ++i) {
      ssim.post(0, 1, ssim.shard(0).now() + Duration::ms(2.0),
                [&received, i] { received.push_back(i); });
    }
  });
  ssim.run();
  ASSERT_EQ(received.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(received[i], i);
  EXPECT_GT(ssim.stats(0).backpressure_stalls, 0u);
  EXPECT_EQ(ssim.stats(1).received, 100u);
}

// --- adaptive epochs --------------------------------------------------------

TEST(ShardedSimulationTest, AdaptiveEpochCoarsensWhenQuietAndSnapsBack) {
  // A purely local workload (no cross-shard posts) on a 0.1 ms base
  // epoch: the fixed engine grinds a boundary every ~0.1 ms, the
  // adaptive one coarsens geometrically to the 5 ms ceiling.
  auto make_opts = [](bool adaptive) {
    ShardedSimulation::Options opts;
    opts.shards = 2;
    opts.epoch = Duration::micros(100.0);
    opts.exec.adaptive = adaptive;
    opts.max_epoch = Duration::ms(5.0);
    opts.exec.adapt_quiet_windows = 2;
    return opts;
  };
  auto drive = [](ShardedSimulation& ssim) {
    struct Local {
      Simulation* sim;
      std::vector<double>* trace;
      int remaining;
      void fire() {
        trace->push_back(sim->now().to_ms());
        if (remaining-- > 0) {
          sim->schedule_in(Duration::micros(50.0), [this] { fire(); });
        }
      }
    };
    auto local = std::make_unique<Local>();
    local->sim = &ssim.shard(0);
    local->remaining = 400;
    auto trace = std::make_unique<std::vector<double>>();
    local->trace = trace.get();
    Local* l = local.get();
    ssim.shard(0).schedule_in(Duration::micros(50.0), [l] { l->fire(); });
    ssim.run();
    return std::make_pair(std::move(trace), std::move(local));
  };

  ShardedSimulation fixed(make_opts(false));
  const auto fixed_run = drive(fixed);
  ShardedSimulation adaptive(make_opts(true));
  const auto adaptive_run = drive(adaptive);

  EXPECT_EQ(*adaptive_run.first, *fixed_run.first);  // trace unchanged
  EXPECT_EQ(adaptive.current_epoch(), Duration::ms(5.0));  // hit the cap
  EXPECT_EQ(fixed.current_epoch(), fixed.epoch());  // never moved
  // Coarsening is the point: the quiet stretch costs far fewer
  // synchronization windows.
  EXPECT_LT(adaptive.windows(), fixed.windows() / 4);

  // Cross-shard traffic snaps the window back to the base epoch.
  double arrived = -1.0;
  adaptive.shard(0).schedule_in(Duration::ms(1.0), [&] {
    adaptive.post(0, 1, adaptive.shard(0).now() + Duration::ms(5.0),
                  [&] { arrived = adaptive.shard(1).now().to_ms(); });
  });
  adaptive.run();
  EXPECT_GT(arrived, 0.0);
  EXPECT_EQ(adaptive.current_epoch(), adaptive.epoch());
}

TEST(ShardedSimulationTest, AdaptiveTraceMatchesFixedSerialAndParallel) {
  // The ring's cross-shard channels model 2 ms, so windows may legally
  // coarsen to 2 ms; the trace must not notice, serial or parallel.
  const RingResult fixed = run_ring(4, false);
  auto opts = [](bool parallel) {
    ShardedSimulation::Options o;
    o.shards = 4;
    o.epoch = Duration::ms(1.0);
    o.mailbox_capacity = 64;
    o.parallel = parallel;
    o.exec.adaptive = true;
    o.max_epoch = Duration::ms(2.0);
    o.exec.adapt_quiet_windows = 1;
    return o;
  };
  const RingResult serial = run_ring_opts(opts(false));
  const RingResult parallel = run_ring_opts(opts(true));
  EXPECT_EQ(serial.fires, fixed.fires);
  EXPECT_EQ(serial.arrivals, fixed.arrivals);
  EXPECT_EQ(parallel.fires, fixed.fires);
  EXPECT_EQ(parallel.arrivals, fixed.arrivals);
  EXPECT_EQ(serial.executed, fixed.executed);
  EXPECT_EQ(parallel.executed, fixed.executed);
}

TEST(ShardedSimulationTest, AdaptiveOffPinsFixedEpochBehavior) {
  // adaptive=false with every new knob at its default must reproduce
  // the fixed-epoch engine exactly: same trace, same window count,
  // window length never moves, and the ceiling degenerates to the
  // epoch itself (so channel validation is unchanged).
  ShardedSimulation::Options defaults;
  defaults.shards = 4;
  defaults.epoch = Duration::ms(1.0);
  defaults.mailbox_capacity = 64;
  ShardedSimulation probe(defaults);
  EXPECT_EQ(probe.max_epoch(), probe.epoch());
  EXPECT_EQ(probe.current_epoch(), probe.epoch());

  ShardedSimulation a(defaults);
  ShardedSimulation b(defaults);
  RingResult ra;
  RingResult rb;
  auto keep_a = build_ring(a, ra, 4);
  auto keep_b = build_ring(b, rb, 4);
  ra.executed = a.run();
  rb.executed = b.run();
  EXPECT_EQ(ra.fires, rb.fires);
  EXPECT_EQ(a.windows(), b.windows());
  EXPECT_GT(a.windows(), 0u);
  EXPECT_EQ(a.current_epoch(), a.epoch());
  EXPECT_EQ(ra.fires, run_ring(1, false).fires);  // today's trace
}

// --- deterministic shard stealing -------------------------------------------

TEST(ShardedSimulationTest, ForcedMidRunStealPreservesTrace) {
  const RingResult baseline = run_ring(4, false);
  auto opts = [](bool parallel) {
    ShardedSimulation::Options o;
    o.shards = 4;
    o.epoch = Duration::ms(1.0);
    o.mailbox_capacity = 64;
    o.parallel = parallel;
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
        /*mid_at_ms=*/20.0);
    EXPECT_EQ(moves, 1u);
    EXPECT_EQ(new_worker, 1u);
    EXPECT_EQ(stolen.fires, baseline.fires) << "parallel=" << parallel;
    EXPECT_EQ(stolen.arrivals, baseline.arrivals);
    EXPECT_EQ(stolen.executed, baseline.executed);
  }
}

TEST(ShardedSimulationTest, OrganicStealingIsDeterministicAcrossModes) {
  // 8 shards on 2 workers with the ring's uneven per-shard load: the
  // rebalancer's decisions (whatever they are) must be identical in
  // serial and parallel mode, and the trace must not notice them.
  const RingResult baseline = run_ring(8, false);
  auto opts = [](bool parallel) {
    ShardedSimulation::Options o;
    o.shards = 8;
    o.epoch = Duration::ms(1.0);
    o.mailbox_capacity = 64;
    o.parallel = parallel;
    o.exec.workers = 2;
    o.exec.steal = true;
    o.exec.steal_period = 4;
    o.exec.steal_imbalance = 1.1;
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
  const RingResult serial = run_ring_opts(
      opts(false), 4, capture(serial_moves, serial_map), /*mid_at_ms=*/80.0);
  const RingResult parallel = run_ring_opts(
      opts(true), 4, capture(parallel_moves, parallel_map),
      /*mid_at_ms=*/80.0);
  EXPECT_EQ(serial.fires, baseline.fires);
  EXPECT_EQ(serial.arrivals, baseline.arrivals);
  EXPECT_EQ(parallel.fires, baseline.fires);
  EXPECT_EQ(parallel.arrivals, baseline.arrivals);
  EXPECT_EQ(parallel_moves, serial_moves);
  EXPECT_EQ(parallel_map, serial_map);
}

TEST(ShardedSimulationTest, RebalancerIsolatesHotShard) {
  // One hot shard (20x the event rate) sharing worker 0 with a cold
  // shard: the rebalancer must move the cold shard away -- exactly
  // once (the donor then owns a single shard and may not give it up)
  // -- and identically in serial and parallel mode.
  struct Local {
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
  auto run_mode = [](bool parallel, std::uint64_t& moves,
                     std::vector<std::size_t>& map,
                     std::vector<std::vector<double>>& traces) {
    ShardedSimulation::Options o;
    o.shards = 4;
    o.epoch = Duration::ms(1.0);
    o.parallel = parallel;
    o.exec.workers = 2;
    o.exec.steal = true;
    o.exec.steal_period = 4;
    o.exec.steal_imbalance = 1.5;
    ShardedSimulation ssim(o);
    traces.assign(4, {});
    std::vector<std::unique_ptr<Local>> chains;
    for (ShardId s = 0; s < 4; ++s) {
      auto c = std::make_unique<Local>();
      c->sim = &ssim.shard(s);
      c->trace = &traces[s];
      c->period_ms = s == 0 ? 0.05 : 1.0;  // shard 0 is the hot one
      c->remaining = s == 0 ? 400 : 20;
      Local* raw = c.get();
      c->sim->schedule_in(Duration::ms(c->period_ms), [raw] { raw->fire(); });
      chains.push_back(std::move(c));
    }
    ssim.run();
    moves = ssim.steal_moves();
    map.clear();
    for (ShardId s = 0; s < 4; ++s) map.push_back(ssim.worker_of(s));
  };

  std::uint64_t serial_moves = 0;
  std::uint64_t parallel_moves = 0;
  std::vector<std::size_t> serial_map;
  std::vector<std::size_t> parallel_map;
  std::vector<std::vector<double>> serial_traces;
  std::vector<std::vector<double>> parallel_traces;
  run_mode(false, serial_moves, serial_map, serial_traces);
  run_mode(true, parallel_moves, parallel_map, parallel_traces);

  EXPECT_EQ(serial_moves, 1u);  // cold shard 2 leaves worker 0, once
  EXPECT_EQ(serial_map, (std::vector<std::size_t>{0, 1, 1, 1}));
  EXPECT_EQ(parallel_moves, serial_moves);
  EXPECT_EQ(parallel_map, serial_map);
  EXPECT_EQ(parallel_traces, serial_traces);
}

TEST(ShardedSimulationTest, WorkerStatsAccountEveryEvent) {
  ShardedSimulation::Options opts;
  opts.shards = 4;
  opts.epoch = Duration::ms(1.0);
  opts.mailbox_capacity = 64;
  opts.parallel = true;
  opts.exec.workers = 2;
  ShardedSimulation ssim(opts);
  RingResult result;
  auto keep = build_ring(ssim, result, 4);
  result.executed = ssim.run();
  ASSERT_EQ(ssim.worker_count(), 2u);
  std::uint64_t by_worker = 0;
  for (std::size_t w = 0; w < ssim.worker_count(); ++w) {
    by_worker += ssim.worker_stats(w).executed;
  }
  EXPECT_EQ(by_worker, result.executed);
  std::uint64_t by_shard = 0;
  for (ShardId s = 0; s < ssim.shard_count(); ++s) {
    by_shard += ssim.stats(s).executed;
  }
  EXPECT_EQ(by_shard, result.executed);
}

TEST(ShardedSimulationTest, MailboxHighWaterStatTracksInboundBursts) {
  // Capacity-2 mailboxes with a post on every firing: boundaries drain
  // multi-message bursts, and the stat must see them.
  const RingResult tight = run_ring(4, false, 2, 1);
  EXPECT_GT(tight.stalls, 0u);
  ShardedSimulation::Options opts;
  opts.shards = 4;
  opts.epoch = Duration::ms(1.0);
  opts.mailbox_capacity = 2;
  ShardedSimulation ssim(opts);
  RingResult result;
  auto keep = build_ring(ssim, result, 1);
  result.executed = ssim.run();
  std::uint64_t max_hwm = 0;
  for (ShardId s = 0; s < ssim.shard_count(); ++s) {
    max_hwm = std::max(max_hwm, ssim.stats(s).mailbox_hwm);
  }
  EXPECT_GT(max_hwm, 1u);
}

// --- boundary barrier under stress -----------------------------------------

RingResult run_long_ring(bool parallel) {
  ShardedSimulation::Options opts;
  opts.shards = 4;
  opts.epoch = Duration::ms(1.0);
  opts.mailbox_capacity = 64;
  opts.parallel = parallel;
  ShardedSimulation ssim(opts);
  RingResult result;
  auto keep = build_ring(ssim, result, 4, 4000);
  result.executed = ssim.run();
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
};

SpanResult run_short_spans(bool parallel) {
  constexpr ShardId kShards = 4;
  constexpr int kSpans = 600;
  ShardedSimulation::Options opts;
  opts.shards = kShards;
  opts.epoch = Duration::ms(1.0);
  opts.mailbox_capacity = 64;
  opts.parallel = parallel;
  ShardedSimulation ssim(opts);
  SpanResult result;
  result.posted.resize(kShards);
  auto keep = build_ring(ssim, result.ring, 4, 400);
  for (int i = 0; i < kSpans; ++i) {
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
}

// --- API contracts ----------------------------------------------------------

TEST(ShardedSimulationTest, ChannelLatencyMustCoverEpoch) {
  ShardedSimulation ssim(ShardedSimulation::Options{
      2, Duration::ms(1.0), 64, false, Duration::zero(), {}});
  EXPECT_THROW(CrossShardChannel(ssim, 0, 1, Duration::micros(10.0)),
               ContractViolation);
  // Same-shard channels may be arbitrarily fast.
  EXPECT_NO_THROW(CrossShardChannel(ssim, 0, 0, Duration::micros(10.0)));
}

TEST(ShardedSimulationTest, RunUntilAlignsEveryShardClock) {
  ShardedSimulation ssim(ShardedSimulation::Options{
      3, Duration::ms(1.0), 64, false, Duration::zero(), {}});
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
      2, Duration::micros(100.0), 64, false, Duration::zero(), {}});
  int fired = 0;
  ssim.shard(0).schedule_at(TimePoint::at_ms(1.0), [&] { ++fired; });
  ssim.shard(1).schedule_at(TimePoint::at_ms(10'000.0), [&] { ++fired; });
  EXPECT_EQ(ssim.run(), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(ShardedSimulationTest, ErrorInParallelShardPropagates) {
  ShardedSimulation ssim(ShardedSimulation::Options{
      2, Duration::ms(1.0), 64, true, Duration::zero(), {}});
  ssim.shard(1).schedule_at(TimePoint::at_ms(1.0),
                            [] { throw Error("shard boom"); });
  ssim.shard(0).schedule_at(TimePoint::at_ms(0.5), [] {});
  EXPECT_THROW(ssim.run(), Error);
}

}  // namespace
}  // namespace xartrek::sim
