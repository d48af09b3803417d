// Cluster-scaling benchmark for the sharded engine under a cell ring.
//
// Drives the identical per-cell workload -- a full testbed stack per
// cell with a micro-churn background cohort -- through exp::Experiment
// on the classic single queue and through exp::ClusterExperiment at
// 1/2/4 cells, and compares aggregate event-processing capacity
// (sum over shards of events per busy-CPU-second, the same metric
// BENCH_sim_core.json's sharded section gates).  A second section
// measures the million-job attach/detach sweep through
// ClusterExperiment's per-cell cohorts -- per-shard batched bookkeeping --
// against the same cohort funneled through one CpuCluster process
// table.  A third section measures fault-handling overhead: the same
// tracked-job workload with and without a chaos plan (cell kill with a
// partitioned drain path), gating the event-count overhead ratio and
// the exactly-once completion contract.  A fourth section repeats the
// comparison against a gray-failure storm (slowed cells, lossy and
// corrupting links, flaky reconfiguration ports), gating conservation
// and the retry-overhead ratio of the reliability layer.  A thin-window
// section times a storm-shaped run -- sparse control traffic, about two
// events per window -- on the serial engine and on 4 workers in the
// same process; a dense-window section does the same for a sync8-shaped
// run of ~125 events per window, where the pool must win.  A last
// section pins the cluster drain path --
// ReliableChannel sends over a route-less link -- at zero allocations
// per send.  Results land in BENCH_cluster.json (schema: docs/perf.md).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "apps/benchmark_spec.hpp"
#include "apps/load_generator.hpp"
#include "bench/alloc_hook.hpp"
#include "common/cpu_time.hpp"
#include "exp/cluster.hpp"
#include "exp/experiment.hpp"
#include "exp/threshold_estimator.hpp"
#include "fpga/device.hpp"
#include "hw/link.hpp"
#include "hw/reliable_channel.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/fault.hpp"

namespace xartrek::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool smoke_mode() { return std::getenv("XARTREK_BENCH_SMOKE") != nullptr; }

/// The churn cohort every config runs: short batch jobs whose demand is
/// spread per lane so completions pave the timeline instead of landing
/// on one tick.  The job count is what the schedulers' load metric
/// sees; the demand sets the event rate.
apps::LoadGenerator::Options churn_options() {
  apps::LoadGenerator::Options opts;
  opts.run_demand = Duration::ms(0.05);
  opts.demand_jitter = 0.5;
  opts.reserve = true;
  return opts;
}

struct ConfigResult {
  double wall_seconds = 0;
  double busy_seconds = 0;  ///< summed per-shard thread-CPU time
  std::uint64_t events = 0;
  std::uint64_t posts = 0;
  /// Sum over shards of events_i / busy_i: capacity with one core per
  /// shard (converges to the wall rate on an unloaded multicore).
  double aggregate_events_per_sec = 0;
};

/// The classic default engine: one exp::Experiment, one global queue.
ConfigResult run_single_queue(std::uint64_t total_jobs,
                              Duration sim_span) {
  exp::ExperimentOptions options;
  exp::Experiment exp(apps::paper_benchmarks(), runtime::ThresholdTable{},
                      options);
  apps::LoadGenerator load(exp.testbed(), static_cast<int>(total_jobs),
                           churn_options());
  sim::Simulation& sim = exp.simulation();
  const std::uint64_t before = sim.executed_events();
  const double cpu0 = thread_cpu_seconds();
  const auto start = Clock::now();
  sim.run_until(sim.now() + sim_span);
  ConfigResult r;
  r.wall_seconds = seconds_since(start);
  r.busy_seconds = thread_cpu_seconds() - cpu0;
  r.events = sim.executed_events() - before;
  r.aggregate_events_per_sec =
      static_cast<double>(r.events) / r.busy_seconds;
  return r;
}

/// Cross-cell traffic: every 5 ms each cell ships a 64 KiB job image
/// to its ring neighbor, so the mailbox path carries real load while
/// the cohorts churn.
struct HandoffPump {
  exp::ClusterExperiment* cluster = nullptr;
  std::size_t cell = 0;
  Duration period = Duration::ms(5.0);
  void fire() {
    cluster->handoff(cell, 64 * 1024, [] {});
    cluster->cell(cell).simulation().schedule_in(period,
                                                 [this] { fire(); });
  }
};

/// The sharded cluster: the same per-cell stack and cohort, N cells
/// joined by a 2 ms datacenter interconnect (the ring hop, and the
/// epoch).
ConfigResult run_cluster(std::size_t cells, std::uint64_t total_jobs,
                         Duration sim_span) {
  exp::ClusterSpec spec;
  spec.cells = cells;
  spec.parallel = cells > 1;
  spec.intercell.latency = Duration::ms(2.0);
  spec.epoch = Duration::ms(2.0);  // also sizes the 1-cell windows
  exp::ClusterExperiment cluster(apps::paper_benchmarks(),
                                 runtime::ThresholdTable{}, spec);
  cluster.set_background_load(total_jobs, churn_options());
  std::vector<HandoffPump> pumps(cells > 1 ? cells : 0);
  for (std::size_t c = 0; c < pumps.size(); ++c) {
    pumps[c] = HandoffPump{&cluster, c};
    HandoffPump* pump = &pumps[c];
    cluster.cell(c).simulation().schedule_in(Duration::ms(5.0),
                                             [pump] { pump->fire(); });
  }
  const std::uint64_t before = cluster.engine().engine().executed_events();
  const auto start = Clock::now();
  cluster.run_for(sim_span);
  ConfigResult r;
  r.wall_seconds = seconds_since(start);
  r.events = cluster.engine().engine().executed_events() - before;
  for (std::size_t c = 0; c < cells; ++c) {
    const sim::ShardStats& st =
        cluster.engine().engine().stats(static_cast<sim::ShardId>(c));
    r.busy_seconds += st.busy_seconds;
    r.posts += st.posts;
    if (st.busy_seconds > 0.0) {
      r.aggregate_events_per_sec +=
          static_cast<double>(st.executed) / st.busy_seconds;
    }
  }
  return r;
}

struct SkewResult {
  double wall_seconds = 0;
  double busy_seconds = 0;      ///< summed over workers
  double max_worker_busy = 0;   ///< the critical path on real cores
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t steals = 0;
  /// Events per second of the busiest worker: the rate the cluster
  /// would sustain with one real core per worker.  Machine-neutral as
  /// a ratio between configs (same workload, same host).
  double cp_events_per_sec = 0;
};

/// The skewed-load section: 8 cells multiplexed onto 4 workers, with
/// cell 0's cohort looping `hot_scale`x shorter runs.  Cohort *size*
/// would not skew anything -- lanes share the cell's cores under
/// processor sharing, so a cell's event rate is capacity-bound, not
/// job-bound -- but loop *demand* does: every completion costs the
/// same few events, so a cell looping 3x shorter runs executes 3x the
/// events per simulated second.  The fixed config forces the epoch
/// 20x tighter than the 2 ms interconnect, so it pays maximal
/// synchronization; the plan-epoch configs run at the ring's own
/// epoch, the link latency itself.  The static map pairs
/// the hot cell with a cold one on worker 0 (cells c and c+4 share
/// worker c%4); stealing moves that cold cell off the hot worker at
/// the first rebalance, shortening the critical path.  All three
/// configs execute the identical event trace -- the bench asserts it
/// -- so the capacity ratios measure pure engine overhead.
SkewResult run_skew_config(bool plan_epoch, bool steal,
                           std::uint64_t jobs_per_cell, double hot_scale,
                           Duration sim_span) {
  constexpr std::size_t kCells = 8;
  exp::ClusterSpec spec;
  spec.cells = kCells;
  spec.parallel = true;
  spec.exec.workers = 4;
  spec.exec.steal = steal;
  spec.intercell.latency = Duration::ms(2.0);
  if (!plan_epoch) spec.epoch = Duration::ms(0.1);  // 20x below the link
  exp::ClusterExperiment cluster(apps::paper_benchmarks(),
                                 runtime::ThresholdTable{}, spec);
  std::vector<std::unique_ptr<apps::LoadGenerator>> cohorts;
  cohorts.reserve(kCells);
  for (std::size_t c = 0; c < kCells; ++c) {
    apps::LoadGenerator::Options lopts;
    lopts.run_demand =
        c == 0 ? Duration::ms(0.05 / hot_scale) : Duration::ms(0.05);
    lopts.demand_jitter = 0.5;
    lopts.reserve = true;
    cohorts.push_back(std::make_unique<apps::LoadGenerator>(
        cluster.cell(c).testbed(), static_cast<int>(jobs_per_cell), lopts));
  }
  // Sparse cross traffic: only the hot cell ships handoffs, every
  // 25 ms.
  HandoffPump pump{&cluster, 0, Duration::ms(25.0)};
  cluster.cell(0).simulation().schedule_in(Duration::ms(25.0),
                                           [&pump] { pump.fire(); });
  sim::ShardedSimulation& engine = cluster.engine().engine();
  const std::uint64_t before = engine.executed_events();
  const auto start = Clock::now();
  cluster.run_for(sim_span);
  SkewResult r;
  r.wall_seconds = seconds_since(start);
  r.events = engine.executed_events() - before;
  r.windows = engine.windows();
  r.steals = engine.steal_moves();
  for (std::uint32_t w = 0; w < engine.worker_count(); ++w) {
    const double busy = engine.worker_stats(w).busy_seconds;
    r.busy_seconds += busy;
    if (busy > r.max_worker_busy) r.max_worker_busy = busy;
  }
  if (r.max_worker_busy > 0.0) {
    r.cp_events_per_sec =
        static_cast<double>(r.events) / r.max_worker_busy;
  }
  return r;
}

void emit_skew_config(std::ostream& os, const char* key,
                      const SkewResult& r) {
  os << "    \"" << key << "\": {\n"
     << "      \"wall_seconds\": " << r.wall_seconds << ",\n"
     << "      \"events\": " << r.events << ",\n"
     << "      \"windows\": " << r.windows << ",\n"
     << "      \"steals\": " << r.steals << ",\n"
     << "      \"busy_seconds\": " << r.busy_seconds << ",\n"
     << "      \"max_worker_busy_seconds\": " << r.max_worker_busy
     << ",\n"
     << "      \"cp_events_per_sec\": " << r.cp_events_per_sec
     << "\n    }";
}

struct SweepResult {
  std::uint64_t jobs = 0;
  double attach_seconds = 0;
  double detach_seconds = 0;
};

/// Attach `jobs` across `cells` testbed cells, let the cohort settle
/// for one short window, tear it down.
SweepResult run_attach_detach(std::size_t cells, std::uint64_t jobs) {
  exp::ClusterSpec spec;
  spec.cells = cells;
  spec.parallel = cells > 1;
  exp::ClusterExperiment cluster(apps::paper_benchmarks(),
                                 runtime::ThresholdTable{}, spec);
  SweepResult r;
  r.jobs = jobs;
  auto start = Clock::now();
  cluster.set_background_load(jobs);
  r.attach_seconds = seconds_since(start);
  cluster.run_for(Duration::ms(10.0));
  start = Clock::now();
  cluster.set_background_load(0);
  r.detach_seconds = seconds_since(start);
  return r;
}

/// The pre-sharding path, replicated faithfully: every job funnels
/// through ONE CpuCluster with one process-table update per job (the
/// seed LoadGenerator's attach_process/detach_process loop), one
/// submit per job into one big PS heap, no up-front reservation.
SweepResult run_attach_detach_single(std::uint64_t jobs) {
  exp::Experiment exp(apps::paper_benchmarks(), runtime::ThresholdTable{});
  hw::CpuCluster& x86 = exp.testbed().x86();
  std::vector<hw::CpuCluster::JobId> ids(jobs);
  SweepResult r;
  r.jobs = jobs;
  auto start = Clock::now();
  for (std::uint64_t j = 0; j < jobs; ++j) {
    x86.attach_process();
    ids[j] = x86.run(apps::mg_b_run_demand(), [] {});
  }
  r.attach_seconds = seconds_since(start);
  exp.simulation().run_until(exp.simulation().now() + Duration::ms(10.0));
  start = Clock::now();
  for (std::uint64_t j = 0; j < jobs; ++j) {
    x86.cancel(ids[j]);
    x86.detach_process();
  }
  r.detach_seconds = seconds_since(start);
  return r;
}

struct FaultConfigResult {
  double wall_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t spans = 0;
  exp::ClusterExperiment::JobStats stats;
};

enum class FaultMode { kNone, kIdleHealth, kChaos, kGray };

/// Tracked jobs on a four-cell cluster: no faults, no faults with every
/// cell's health checks on, the chaos plan from the CHAOS smoke (drain
/// path partitioned, then cell 1 dies), or the gray storm from the gray
/// smoke (slowed CPUs, a lossy corrupting ring link, a coin-flip
/// reconfiguration port, plus a kill).  Event
/// counts are simulation-deterministic, so the faulted/no-fault ratios
/// are machine-neutral measures of what the fault machinery --
/// heartbeats, backoff, checksum retries, breaker demotion -- costs.
FaultConfigResult run_fault_config(const runtime::ThresholdTable& table,
                                   FaultMode mode, bool traced = false) {
  constexpr std::size_t kCells = 4;
  exp::ClusterSpec spec;
  spec.cells = kCells;
  spec.parallel = true;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(apps::paper_benchmarks(), table, spec,
                                 options);
  if (traced) cluster.enable_tracing();
  for (std::size_t c = 0; c < kCells; ++c) {
    cluster.submit(c, "facedet320");
    cluster.submit(c, "digit500");
  }
  if (mode == FaultMode::kIdleHealth) {
    for (std::size_t c = 0; c < kCells; ++c) {
      cluster.cell(c).server().start_health_checks();
    }
  } else if (mode == FaultMode::kChaos) {
    sim::FaultPlan plan;
    plan.add({sim::FaultEvent::Kind::kLinkDown, TimePoint::at_ms(40.0), 1});
    plan.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(50.0), 1});
    plan.add({sim::FaultEvent::Kind::kLinkUp, TimePoint::at_ms(160.0), 1});
    cluster.apply_fault_plan(plan);
  } else if (mode == FaultMode::kGray) {
    sim::FaultPlan plan;
    plan.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(20.0), 0,
              0.25, TimePoint::at_ms(120.0)});
    plan.add({sim::FaultEvent::Kind::kLinkDegraded, TimePoint::at_ms(30.0),
              1, 0.3, TimePoint::at_ms(200.0)});
    plan.add({sim::FaultEvent::Kind::kPortFlaky, TimePoint::at_ms(20.0), 2,
              0.5, TimePoint::at_ms(250.0)});
    plan.add({sim::FaultEvent::Kind::kDsmCorrupt, TimePoint::at_ms(30.0), 1,
              0.5, TimePoint::at_ms(200.0)});
    plan.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(50.0), 1});
    cluster.apply_fault_plan(plan);
  }
  const std::uint64_t before = cluster.engine().engine().executed_events();
  const auto start = Clock::now();
  cluster.run_until_jobs_complete(Duration::minutes(5));
  FaultConfigResult r;
  r.wall_seconds = seconds_since(start);
  r.events = cluster.engine().engine().executed_events() - before;
  r.stats = cluster.job_stats();
  if (traced) r.spans = cluster.tracer()->span_count();
  return r;
}

/// One timed run of the thin- or dense-window section.
struct WindowsResult {
  double wall_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t pooled_windows = 0;
  bool all_completed = false;
};

/// Thin windows: storm4's shape at bench size.  Four cells with FPGA
/// slots take one tracked job per 50 ms step, round-robin over cells and
/// apps, through a gray storm (slowed CPUs, a lossy corrupting ring
/// link, a flaky reconfiguration port) with one kill, then run until
/// every job completes.  The traffic is sparse control -- placements,
/// slot programming, health pings, drains -- so the timed run measures
/// what each window costs the engine, not event work.
WindowsResult run_thin_config(const runtime::ThresholdTable& table,
                              std::size_t workers, int steps) {
  constexpr std::size_t kCells = 4;
  constexpr Duration kStep = Duration::ms(50.0);
  exp::ClusterSpec spec;
  spec.cells = kCells;
  spec.parallel = workers > 1;
  spec.exec.workers = workers;
  spec.cell_config.fpga_slots = fpga::SlotConfig{};
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(apps::paper_benchmarks(), table, spec,
                                 options);
  const double span_ms = steps * kStep.to_ms();
  const auto at = [span_ms](double fraction) {
    return TimePoint::at_ms(fraction * span_ms);
  };
  using Kind = sim::FaultEvent::Kind;
  sim::FaultPlan plan;
  plan.add({Kind::kCellSlow, at(0.1), 0, 0.25, at(0.6)});
  plan.add({Kind::kLinkDegraded, at(0.15), 1, 0.3, at(0.7)});
  plan.add({Kind::kPortFlaky, at(0.1), 2, 0.5, at(0.8)});
  plan.add({Kind::kDsmCorrupt, at(0.15), 1, 0.5, at(0.7)});
  plan.add({Kind::kCellKill, at(0.3), 1});
  cluster.apply_fault_plan(plan);
  const auto& apps = apps::paper_benchmarks();
  sim::ShardedSimulation& engine = cluster.engine().engine();
  const std::uint64_t before = engine.executed_events();
  const auto start = Clock::now();
  for (int i = 0; i < steps; ++i) {
    const auto k = static_cast<std::size_t>(i);
    cluster.submit(k % kCells, apps[k % apps.size()].name);
    cluster.run_for(kStep);
  }
  WindowsResult r;
  r.all_completed = cluster.run_until_jobs_complete(Duration::minutes(60));
  r.wall_seconds = seconds_since(start);
  r.events = engine.executed_events() - before;
  r.windows = engine.windows();
  r.pooled_windows = engine.pooled_windows();
  return r;
}

/// Dense windows: sync8's shape at bench size.  Eight cells on
/// `workers` workers over a 100 us ring, so the ring runs 0.1 ms
/// windows; 32 looping processes per cell, cell 0's bursts 3x
/// shorter; one handoff per cell every 1 ms.  About 125 events per
/// window, so the pool runs nearly every window.
WindowsResult run_dense_config(std::size_t workers, Duration sim_span) {
  constexpr std::size_t kCells = 8;
  constexpr double kHotScale = 3.0;
  exp::ClusterSpec spec;
  spec.cells = kCells;
  spec.parallel = workers > 1;
  spec.exec.workers = workers;
  spec.intercell.latency = Duration::micros(100.0);
  exp::ClusterExperiment cluster(apps::paper_benchmarks(),
                                 runtime::ThresholdTable{}, spec);
  std::vector<std::unique_ptr<apps::LoadGenerator>> cohorts;
  cohorts.reserve(kCells);
  for (std::size_t c = 0; c < kCells; ++c) {
    apps::LoadGenerator::Options lopts;
    lopts.run_demand =
        c == 0 ? Duration::ms(0.05 / kHotScale) : Duration::ms(0.05);
    lopts.demand_jitter = 0.5;
    lopts.reserve = true;
    cohorts.push_back(std::make_unique<apps::LoadGenerator>(
        cluster.cell(c).testbed(), 32, lopts));
  }
  std::vector<HandoffPump> pumps(kCells);
  for (std::size_t c = 0; c < kCells; ++c) {
    pumps[c] = HandoffPump{&cluster, c, Duration::ms(1.0)};
    HandoffPump* pump = &pumps[c];
    // Staggered phases: the cells' handoffs do not share a window.
    cluster.cell(c).simulation().schedule_in(
        Duration::micros(125.0 * static_cast<double>(c + 1)),
        [pump] { pump->fire(); });
  }
  sim::ShardedSimulation& engine = cluster.engine().engine();
  const std::uint64_t before = engine.executed_events();
  const auto start = Clock::now();
  cluster.run_for(sim_span);
  WindowsResult r;
  r.all_completed = true;  // no tracked jobs: nothing to complete
  r.wall_seconds = seconds_since(start);
  r.events = engine.executed_events() - before;
  r.windows = engine.windows();
  r.pooled_windows = engine.pooled_windows();
  return r;
}

/// The same run on the serial engine and on 4 workers, in five
/// interleaved pairs.  The ratio is the median of the per-pair ratios:
/// a vCPU's slow phase often spans a whole pair, which then reads like
/// the rest, where a best-of-N ratio skews whenever a phase change
/// splits the two engines' runs (ratios of best-of-3 and best-of-5
/// walls read 0.68 and 0.63, under the thin gate's 0.75 floor, in 44
/// smoke runs).  Walls are best of 5.
struct PairedWalls {
  WindowsResult w1;  ///< the fastest serial run
  WindowsResult w4;  ///< the fastest 4-worker run
  double ratio_w4_vs_w1 = 0;  ///< serial wall / 4-worker wall, median
  /// 1 iff every run executed the same events in the same windows and
  /// completed every job.
  int conserved = 0;
};

template <class Run>  // WindowsResult(std::size_t workers)
PairedWalls pair_walls(const Run& run) {
  constexpr int kPairs = 5;
  PairedWalls p;
  std::vector<double> ratios;
  bool same = true;
  for (int i = 0; i < kPairs; ++i) {
    const WindowsResult w1 = run(1);
    const WindowsResult w4 = run(4);
    ratios.push_back(w1.wall_seconds / w4.wall_seconds);
    same = same && w1.all_completed && w4.all_completed &&
           w1.events == w4.events && w1.windows == w4.windows &&
           (i == 0 || w1.events == p.w1.events);
    if (i == 0 || w1.wall_seconds < p.w1.wall_seconds) p.w1 = w1;
    if (i == 0 || w4.wall_seconds < p.w4.wall_seconds) p.w4 = w4;
  }
  std::sort(ratios.begin(), ratios.end());
  p.ratio_w4_vs_w1 = ratios[kPairs / 2];
  p.conserved = same ? 1 : 0;
  return p;
}

void emit_paired(std::ostream& os, const PairedWalls& p) {
  os << "    \"events\": " << p.w4.events << ",\n"
     << "    \"windows\": " << p.w4.windows << ",\n"
     << "    \"w1_wall_seconds\": " << p.w1.wall_seconds << ",\n"
     << "    \"w4_wall_seconds\": " << p.w4.wall_seconds << ",\n"
     << "    \"w4_pooled_windows\": " << p.w4.pooled_windows << ",\n"
     << "    \"events_conserved\": " << p.conserved << ",\n"
     << "    \"wall_ratio_w4_vs_w1\": " << p.ratio_w4_vs_w1;
}

struct ObsResult {
  double off_wall_seconds = 0;   ///< best-of-3 untraced gray run
  double on_wall_seconds = 0;    ///< best-of-3 traced gray run
  double overhead_ratio = 0;     ///< on / off, both best-of-3
  std::uint64_t spans = 0;
  std::uint64_t events = 0;      ///< identical on/off (pure metadata)
  int trace_nonempty = 0;
  int events_identical = 0;
  double alloc_calls_per_event = 0;
  double alloc_bytes_per_event = 0;
  std::uint64_t alloc_events = 0;
};

/// Tracer overhead + the zero-alloc steady-state contract.
///
/// Overhead: the gray-storm fault config with tracing off and on,
/// interleaved, best-of-3 walls per arm so a noisy timeslice cannot
/// land in the ratio.  Tracing is pure metadata -- the event counts
/// must match exactly -- so the wall ratio isolates the observability
/// layer's cost.
///
/// Allocation: after one warm-up pass has sized the span slab and the
/// histogram/counter pools, a measured pass of counter increments,
/// histogram records, and span emits must allocate nothing at all.
ObsResult run_obs_section(const runtime::ThresholdTable& table) {
  ObsResult r;
  double best_off = 0.0;
  double best_on = 0.0;
  std::uint64_t off_events = 0;
  for (int i = 0; i < 3; ++i) {
    const auto off = run_fault_config(table, FaultMode::kGray, false);
    const auto on = run_fault_config(table, FaultMode::kGray, true);
    if (i == 0 || off.wall_seconds < best_off) best_off = off.wall_seconds;
    if (i == 0 || on.wall_seconds < best_on) best_on = on.wall_seconds;
    off_events = off.events;
    r.events = on.events;
    r.spans = on.spans;
  }
  r.off_wall_seconds = best_off;
  r.on_wall_seconds = best_on;
  r.overhead_ratio = best_on / best_off;
  r.trace_nonempty = r.spans > 0 ? 1 : 0;
  r.events_identical = off_events == r.events ? 1 : 0;

  // Steady-state allocation contract on the hot primitives.
  constexpr std::uint64_t kAllocEvents = 100'000;
  obs::Registry registry;
  obs::Registry::Counter* counter = registry.counter("bench.events");
  obs::Histogram::Options hopts;
  hopts.lanes = 1;
  obs::Histogram* hist = registry.histogram("bench.latency_ms", hopts);
  obs::Tracer tracer(1);
  auto pump = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      counter->add(1);
      hist->record(0.001 * static_cast<double>(i % 4096));
      const auto span =
          tracer.begin(0, obs::kTrackJob, "bench.span", i + 1,
                       TimePoint::at_ms(static_cast<double>(i)));
      tracer.end(span, TimePoint::at_ms(static_cast<double>(i) + 0.5));
    }
  };
  pump(kAllocEvents);  // warm-up: size the slab and pools
  tracer.clear();      // keeps capacity
  const AllocSnapshot before = alloc_snapshot();
  pump(kAllocEvents);
  const AllocSnapshot after = alloc_snapshot();
  r.alloc_events = kAllocEvents;
  r.alloc_calls_per_event =
      static_cast<double>(after.calls - before.calls) /
      static_cast<double>(kAllocEvents);
  r.alloc_bytes_per_event =
      static_cast<double>(after.bytes - before.bytes) /
      static_cast<double>(kAllocEvents);
  return r;
}

struct DrainResult {
  std::uint64_t sends = 0;
  std::uint64_t delivered = 0;
  double alloc_calls_per_send = 0;
  double alloc_bytes_per_send = 0;
};

/// The zero-alloc contract on the cluster drain path: every
/// ReliableChannel attempt is a verified link transfer.  After one
/// warm-up pass has sized the engine, link and channel pools, a
/// measured pass of sends, each run to delivery, must allocate nothing.
DrainResult run_drain_probe() {
  constexpr std::uint64_t kSends = 10'000;
  sim::Simulation sim;
  hw::Link link(sim, hw::ethernet_1gbps());
  hw::ReliableChannel channel(sim, link, hw::ReliableChannel::Options{},
                              Rng(2021));
  DrainResult r;
  auto pump = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      channel.send(64 * 1024, [&r] { ++r.delivered; });
      sim.run();
    }
  };
  pump(kSends);  // warm-up: size the event, job and message pools
  const AllocSnapshot before = alloc_snapshot();
  pump(kSends);
  const AllocSnapshot after = alloc_snapshot();
  r.sends = kSends;
  r.alloc_calls_per_send = static_cast<double>(after.calls - before.calls) /
                           static_cast<double>(kSends);
  r.alloc_bytes_per_send = static_cast<double>(after.bytes - before.bytes) /
                           static_cast<double>(kSends);
  return r;
}

void emit_config(std::ostream& os, const char* key, const ConfigResult& r) {
  os << "    \"" << key << "\": {\n"
     << "      \"wall_seconds\": " << r.wall_seconds << ",\n"
     << "      \"busy_seconds\": " << r.busy_seconds << ",\n"
     << "      \"events\": " << r.events << ",\n"
     << "      \"wall_events_per_sec\": "
     << static_cast<double>(r.events) / r.wall_seconds << ",\n"
     << "      \"aggregate_events_per_sec\": "
     << r.aggregate_events_per_sec << ",\n"
     << "      \"posts\": " << r.posts << "\n    }";
}

int bench_main() {
  const bool smoke = smoke_mode();
  const std::uint64_t kJobsPerCell = smoke ? 384 : 512;
  const Duration kSpan =
      smoke ? Duration::seconds(0.75) : Duration::seconds(2.0);
  const std::uint64_t kSweepJobs = smoke ? 100'000 : 1'000'000;
  constexpr std::size_t kSweepCells = 4;
  const std::uint64_t kTotalJobs = 4 * kJobsPerCell;

  std::cerr << "[cluster_bench] churn: " << kTotalJobs << " jobs over "
            << kSpan.to_seconds() << " sim-seconds per config...\n";
  // Best of two per config, selected by the gated metric, so a noisy
  // neighbor's timeslice does not land in the scaling ratios.
  auto best2 = [](auto f) {
    const auto a = f();
    const auto b = f();
    return a.aggregate_events_per_sec >= b.aggregate_events_per_sec ? a
                                                                    : b;
  };
  const auto single =
      best2([&] { return run_single_queue(kTotalJobs, kSpan); });
  const auto cells_1 =
      best2([&] { return run_cluster(1, kTotalJobs, kSpan); });
  const auto cells_2 =
      best2([&] { return run_cluster(2, kTotalJobs, kSpan); });
  const auto cells_4 =
      best2([&] { return run_cluster(4, kTotalJobs, kSpan); });

  const double single_rate = single.aggregate_events_per_sec;
  const double ratio_1cell = cells_1.aggregate_events_per_sec / single_rate;
  const double speedup_2 = cells_2.aggregate_events_per_sec / single_rate;
  const double speedup_4 = cells_4.aggregate_events_per_sec / single_rate;

  const std::uint64_t kSkewJobsPerCell = smoke ? 16 : 32;
  const double kHotScale = 3.0;
  const Duration kSkewSpan =
      smoke ? Duration::seconds(0.3) : Duration::seconds(1.0);
  std::cerr << "[cluster_bench] skewed load: 8 cells / 4 workers, hot "
               "cell at "
            << kHotScale << "x event rate, fixed vs plan epoch vs "
            << "plan epoch+steal...\n";
  auto best_skew = [&](bool plan_epoch, bool steal) {
    const auto a = run_skew_config(plan_epoch, steal, kSkewJobsPerCell,
                                   kHotScale, kSkewSpan);
    const auto b = run_skew_config(plan_epoch, steal, kSkewJobsPerCell,
                                   kHotScale, kSkewSpan);
    return a.cp_events_per_sec >= b.cp_events_per_sec ? a : b;
  };
  const auto skew_fixed = best_skew(false, false);
  const auto skew_plan = best_skew(true, false);
  const auto skew_steal = best_skew(true, true);
  const int skew_conserved = skew_fixed.events == skew_plan.events &&
                                     skew_fixed.events == skew_steal.events
                                 ? 1
                                 : 0;
  const double skew_speedup_plan =
      skew_plan.cp_events_per_sec / skew_fixed.cp_events_per_sec;
  const double skew_speedup_steal =
      skew_steal.cp_events_per_sec / skew_fixed.cp_events_per_sec;

  std::cerr << "[cluster_bench] attach/detach sweep: " << kSweepJobs
            << " jobs across " << kSweepCells << " cells...\n";
  const auto sweep = run_attach_detach(kSweepCells, kSweepJobs);
  const auto sweep_single = run_attach_detach_single(kSweepJobs);

  std::cerr << "[cluster_bench] fault overhead: tracked jobs with and "
               "without a chaos plan...\n";
  const auto fault_table =
      exp::ThresholdEstimator().estimate(apps::paper_benchmarks()).table;
  const auto fault_plain = run_fault_config(fault_table, FaultMode::kNone);
  // Health pings on a healthy card are steady, so the loop goes quiet
  // after each cell's first tick: what they cost is a small constant.
  const auto fault_idle = run_fault_config(fault_table, FaultMode::kIdleHealth);
  const auto idle_health_events =
      static_cast<std::int64_t>(fault_idle.events) -
      static_cast<std::int64_t>(fault_plain.events);
  const auto fault_chaos = run_fault_config(fault_table, FaultMode::kChaos);
  const double fault_overhead = static_cast<double>(fault_chaos.events) /
                                static_cast<double>(fault_plain.events);
  const int fault_conserved =
      fault_plain.stats.completed == fault_plain.stats.submitted &&
              fault_idle.stats.completed == fault_idle.stats.submitted &&
              fault_chaos.stats.completed == fault_chaos.stats.submitted
          ? 1
          : 0;

  std::cerr << "[cluster_bench] gray overhead: the same tracked jobs "
               "through a degraded-fault storm...\n";
  const auto fault_gray = run_fault_config(fault_table, FaultMode::kGray);
  // Retries, duplicate copies, heartbeat re-arms, and breaker-demoted
  // placements all show up as extra events; the ratio against the
  // clean run bounds what gray resilience costs end to end.
  const double gray_overhead = static_cast<double>(fault_gray.events) /
                               static_cast<double>(fault_plain.events);
  const int gray_conserved =
      fault_gray.stats.completed == fault_gray.stats.submitted ? 1 : 0;

  const int kThinSteps = smoke ? 1000 : 4000;
  std::cerr << "[cluster_bench] thin windows: " << kThinSteps
            << " tracked jobs in 50 ms steps through a gray storm, serial "
               "vs 4 workers...\n";
  const PairedWalls thin = pair_walls([&](std::size_t workers) {
    return run_thin_config(fault_table, workers, kThinSteps);
  });
  const Duration kDenseSpan =
      smoke ? Duration::seconds(0.3) : Duration::seconds(1.0);
  std::cerr << "[cluster_bench] dense windows: 8 cells, 0.1 ms epoch, "
               "32 looping processes per cell, serial vs 4 workers...\n";
  const PairedWalls dense = pair_walls([&](std::size_t workers) {
    return run_dense_config(workers, kDenseSpan);
  });

  std::cerr << "[cluster_bench] obs overhead: the gray storm with the "
               "tracer off vs on, plus the zero-alloc contract...\n";
  const auto obs = run_obs_section(fault_table);
  const int obs_budget_met = obs.overhead_ratio <= 1.05 ? 1 : 0;
  const auto drain = run_drain_probe();
  const double sweep_rate =
      2.0 * static_cast<double>(sweep.jobs) /
      (sweep.attach_seconds + sweep.detach_seconds);
  const double sweep_single_rate =
      2.0 * static_cast<double>(sweep_single.jobs) /
      (sweep_single.attach_seconds + sweep_single.detach_seconds);

  std::ofstream out("BENCH_cluster.json");
  out.precision(6);
  out << "{\n  \"bench\": \"cluster\",\n  \"cluster\": {\n"
      << "    \"sim_seconds\": " << kSpan.to_seconds() << ",\n"
      << "    \"total_jobs\": " << kTotalJobs << ",\n"
      << "    \"run_demand_ms\": 0.05,\n";
  emit_config(out, "single_queue", single);
  out << ",\n";
  emit_config(out, "cells_1", cells_1);
  out << ",\n";
  emit_config(out, "cells_2", cells_2);
  out << ",\n";
  emit_config(out, "cells_4", cells_4);
  out << ",\n    \"ratio_1cell_vs_single_queue\": " << ratio_1cell
      << ",\n    \"aggregate_speedup_2_cells\": " << speedup_2
      << ",\n    \"aggregate_speedup_4_cells\": " << speedup_4
      << "\n  },\n  \"skew\": {\n"
      << "    \"cells\": 8,\n    \"workers\": 4,\n"
      << "    \"jobs_per_cell\": " << kSkewJobsPerCell << ",\n"
      << "    \"hot_demand_scale\": " << kHotScale << ",\n"
      << "    \"sim_seconds\": " << kSkewSpan.to_seconds() << ",\n"
      << "    \"epoch_ms\": 0.1,\n    \"plan_epoch_ms\": 2,\n";
  emit_skew_config(out, "fixed", skew_fixed);
  out << ",\n";
  emit_skew_config(out, "plan_epoch", skew_plan);
  out << ",\n";
  emit_skew_config(out, "plan_epoch_steal", skew_steal);
  out << ",\n    \"events_conserved\": " << skew_conserved
      << ",\n    \"speedup_plan_epoch_vs_fixed\": " << skew_speedup_plan
      << ",\n    \"speedup_plan_epoch_steal_vs_fixed\": "
      << skew_speedup_steal << "\n  },\n  \"attach_detach\": {\n"
      << "    \"jobs\": " << sweep.jobs << ",\n"
      << "    \"cells\": " << kSweepCells << ",\n"
      << "    \"attach_seconds\": " << sweep.attach_seconds << ",\n"
      << "    \"detach_seconds\": " << sweep.detach_seconds << ",\n"
      << "    \"attach_jobs_per_sec\": "
      << static_cast<double>(sweep.jobs) / sweep.attach_seconds << ",\n"
      << "    \"jobs_per_sec\": " << sweep_rate << ",\n"
      << "    \"single_table_attach_seconds\": "
      << sweep_single.attach_seconds << ",\n"
      << "    \"single_table_jobs_per_sec\": " << sweep_single_rate
      << ",\n    \"sharded_vs_single_table_ratio\": "
      << sweep_rate / sweep_single_rate << "\n  },\n  \"fault\": {\n"
      << "    \"jobs\": " << fault_plain.stats.submitted << ",\n"
      << "    \"no_fault\": {\n"
      << "      \"wall_seconds\": " << fault_plain.wall_seconds << ",\n"
      << "      \"events\": " << fault_plain.events << ",\n"
      << "      \"sim_ms_to_complete\": "
      << fault_plain.stats.max_latency_ms << "\n    },\n"
      << "    \"idle_health_events\": " << idle_health_events << ",\n"
      << "    \"chaos\": {\n"
      << "      \"wall_seconds\": " << fault_chaos.wall_seconds << ",\n"
      << "      \"events\": " << fault_chaos.events << ",\n"
      << "      \"sim_ms_to_complete\": "
      << fault_chaos.stats.max_latency_ms << ",\n"
      << "      \"drained\": " << fault_chaos.stats.drained << ",\n"
      << "      \"retries\": " << fault_chaos.stats.retries << ",\n"
      << "      \"p99_latency_ms\": " << fault_chaos.stats.p99_latency_ms
      << "\n    },\n"
      << "    \"completed_conserved\": " << fault_conserved << ",\n"
      << "    \"event_overhead_ratio\": " << fault_overhead
      << "\n  },\n  \"gray\": {\n"
      << "    \"jobs\": " << fault_gray.stats.submitted << ",\n"
      << "    \"wall_seconds\": " << fault_gray.wall_seconds << ",\n"
      << "    \"events\": " << fault_gray.events << ",\n"
      << "    \"sim_ms_to_complete\": " << fault_gray.stats.max_latency_ms
      << ",\n"
      << "    \"p99_latency_ms\": " << fault_gray.stats.p99_latency_ms
      << ",\n"
      << "    \"drained\": " << fault_gray.stats.drained << ",\n"
      << "    \"channel_retries\": " << fault_gray.stats.channel_retries
      << ",\n"
      << "    \"corrupt_recovered\": " << fault_gray.stats.corrupt_recovered
      << ",\n"
      << "    \"duplicates_suppressed\": "
      << fault_gray.stats.duplicates_suppressed << ",\n"
      << "    \"link_drops\": " << fault_gray.stats.link_drops << ",\n"
      << "    \"slow_replies\": " << fault_gray.stats.slow_replies << ",\n"
      << "    \"late_replies\": " << fault_gray.stats.late_replies << ",\n"
      << "    \"breaker_trips\": " << fault_gray.stats.breaker_trips
      << ",\n"
      << "    \"breaker_closes\": " << fault_gray.stats.breaker_closes
      << ",\n"
      << "    \"slots_quarantined\": "
      << fault_gray.stats.slots_quarantined << ",\n"
      << "    \"completed_conserved\": " << gray_conserved << ",\n"
      << "    \"retry_overhead_ratio\": " << gray_overhead
      << "\n  },\n  \"thin\": {\n"
      << "    \"jobs\": " << kThinSteps << ",\n";
  emit_paired(out, thin);
  out << "\n  },\n  \"dense\": {\n"
      << "    \"cells\": 8,\n    \"workers\": 4,\n"
      << "    \"sim_seconds\": " << kDenseSpan.to_seconds() << ",\n";
  emit_paired(out, dense);
  out << "\n  },\n  \"obs\": {\n"
      << "    \"tracer_off_wall_seconds\": " << obs.off_wall_seconds
      << ",\n"
      << "    \"tracer_on_wall_seconds\": " << obs.on_wall_seconds
      << ",\n"
      << "    \"overhead_ratio\": " << obs.overhead_ratio << ",\n"
      << "    \"budget_met\": " << obs_budget_met << ",\n"
      << "    \"spans\": " << obs.spans << ",\n"
      << "    \"trace_nonempty\": " << obs.trace_nonempty << ",\n"
      << "    \"events_identical\": " << obs.events_identical << ",\n"
      << "    \"alloc_events\": " << obs.alloc_events << ",\n"
      << "    \"alloc_calls_per_event\": " << obs.alloc_calls_per_event
      << ",\n"
      << "    \"alloc_bytes_per_event\": " << obs.alloc_bytes_per_event
      << "\n  },\n  \"drain\": {\n"
      << "    \"sends\": " << drain.sends << ",\n"
      << "    \"delivered\": " << drain.delivered << ",\n"
      << "    \"alloc_calls_per_send\": " << drain.alloc_calls_per_send
      << ",\n"
      << "    \"alloc_bytes_per_send\": " << drain.alloc_bytes_per_send
      << "\n  }\n}\n";
  out.close();

  std::cerr << "[cluster_bench] aggregate capacity: single="
            << single_rate / 1e6 << "M ev/s, 1-cell ratio=" << ratio_1cell
            << ", 2-cell=" << speedup_2 << "x, 4-cell=" << speedup_4
            << "x\n"
            << "[cluster_bench] skew: plan epoch=" << skew_speedup_plan
            << "x, plan epoch+steal=" << skew_speedup_steal
            << "x vs fixed (windows " << skew_fixed.windows << " -> "
            << skew_steal.windows << ", steals=" << skew_steal.steals
            << ", conserved=" << skew_conserved << ")\n"
            << "[cluster_bench] attach/detach: " << sweep.jobs
            << " jobs @ " << sweep_rate / 1e6 << "M ops/s sharded vs "
            << sweep_single_rate / 1e6 << "M single-table (ratio "
            << sweep_rate / sweep_single_rate << ")\n"
            << "[cluster_bench] idle health checks: " << idle_health_events
            << " events over the clean run\n"
            << "[cluster_bench] fault overhead: " << fault_overhead
            << "x events under chaos (" << fault_chaos.stats.drained
            << " drained, conserved=" << fault_conserved << ")\n"
            << "[cluster_bench] gray overhead: " << gray_overhead
            << "x events under gray storm ("
            << fault_gray.stats.channel_retries << " retries, "
            << fault_gray.stats.corrupt_recovered << " checksum catches, "
            << fault_gray.stats.breaker_trips
            << " breaker trips, conserved=" << gray_conserved << ")\n"
            << "[cluster_bench] thin windows: " << thin.w4.events
            << " events in " << thin.w4.windows << " windows, serial "
            << thin.w1.wall_seconds * 1e3 << " ms vs 4 workers "
            << thin.w4.wall_seconds * 1e3 << " ms (ratio "
            << thin.ratio_w4_vs_w1 << ", " << thin.w4.pooled_windows
            << " pooled, conserved=" << thin.conserved << ")\n"
            << "[cluster_bench] dense windows: " << dense.w4.events
            << " events in " << dense.w4.windows << " windows, serial "
            << dense.w1.wall_seconds * 1e3 << " ms vs 4 workers "
            << dense.w4.wall_seconds * 1e3 << " ms (ratio "
            << dense.ratio_w4_vs_w1 << ", " << dense.w4.pooled_windows
            << " pooled, conserved=" << dense.conserved << ")\n"
            << "[cluster_bench] obs overhead: " << obs.overhead_ratio
            << "x wall with tracing on (" << obs.spans << " spans, "
            << "events identical=" << obs.events_identical
            << ", alloc/event=" << obs.alloc_calls_per_event << ")\n"
            << "[cluster_bench] drain: " << drain.delivered << " of "
            << 2 * drain.sends << " sends delivered, alloc/send="
            << drain.alloc_calls_per_send << "\n"
            << "[cluster_bench] wrote BENCH_cluster.json\n";
  return 0;
}

}  // namespace
}  // namespace xartrek::bench

int main() { return xartrek::bench::bench_main(); }
