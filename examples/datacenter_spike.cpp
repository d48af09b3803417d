// Datacenter workload spike: a multi-tenant x86 server hosting five
// tenant applications gets hit by a burst of background jobs.  The
// example narrates every placement decision the Xar-Trek scheduler
// makes before, during and after the spike (the Figure 4/5 scenario,
// one run, verbose).
//
// Build & run:  ./build/examples/datacenter_spike
//
// XARTREK_CHAOS_ONLY=1 runs just the chaos phase (the CHAOS-labelled
// CI smoke entry), exiting non-zero if any resilience invariant breaks.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

#include <string>

#include "apps/application.hpp"
#include "apps/benchmark_spec.hpp"
#include "apps/load_generator.hpp"
#include "common/table.hpp"
#include "exp/cluster.hpp"
#include "exp/experiment.hpp"
#include "exp/threshold_estimator.hpp"
#include "obs/export.hpp"
#include "sim/fault.hpp"

namespace {

// XARTREK_OBS_EXPORT=<dir> turns on tracing for the chaos/gray phases
// and writes <dir>/{chaos,gray}_trace.json (Perfetto-loadable),
// <dir>/{chaos,gray}_metrics.json (full registry snapshot) and
// <dir>/{chaos,gray}_metrics_delta.txt (the run's per-phase delta:
// counters subtract, gauges keep the later value).
const char* obs_export_dir() { return std::getenv("XARTREK_OBS_EXPORT"); }

void export_obs(xartrek::exp::ClusterExperiment& cluster,
                const std::string& phase,
                const xartrek::obs::Snapshot& before) {
  using namespace xartrek;
  const char* dir = obs_export_dir();
  if (dir == nullptr) return;
  const std::string base = std::string(dir) + "/" + phase;
  const obs::Snapshot after = cluster.registry().snapshot();
  bool ok = obs::write_file(base + "_metrics.json", obs::metrics_json(after));
  ok = obs::write_file(base + "_metrics_delta.txt",
                       obs::metrics_text(after.delta(before))) &&
       ok;
  if (cluster.tracer() != nullptr) {
    ok = obs::write_file(base + "_trace.json",
                         obs::perfetto_trace_json(*cluster.tracer())) &&
         ok;
    std::cout << "[" << phase << "] exported "
              << cluster.tracer()->span_count() << " spans and "
              << cluster.registry().size() << " metrics to " << base
              << "_*\n";
  }
  if (!ok) {
    std::cout << "[" << phase << "] WARN: observability export to " << dir
              << " failed\n";
  }
}

// Chaos phase: a four-cell cluster takes a spike while cell 1 dies and
// the ring link its jobs drain over is partitioned.  The invariants --
// the whole point of the fault machinery -- are checked here and the
// phase exits non-zero on violation:
//   * conservation: every submitted job completes exactly once;
//   * bounded tail: p99 job latency stays under a fixed budget even
//     with a cell dead and checkpoints parked behind the partition.
int run_chaos_phase() {
  using namespace xartrek;
  const auto specs = apps::paper_benchmarks();
  const auto estimation = exp::ThresholdEstimator().estimate(specs);
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;

  constexpr std::size_t kCells = 4;
  exp::ClusterSpec cluster_spec;
  cluster_spec.cells = kCells;
  cluster_spec.parallel = true;
  exp::ClusterExperiment cluster(specs, estimation.table, cluster_spec,
                                 options);
  if (obs_export_dir() != nullptr) cluster.enable_tracing();
  const obs::Snapshot obs_before = cluster.registry().snapshot();

  // Mid-spike churn load so the faults land on busy cells.
  apps::ShardedLoadGenerator::Options churn;
  churn.run_demand = Duration::ms(2.0);
  churn.demand_jitter = 0.5;
  cluster.set_background_load(kCells * 60, churn);

  const std::vector<std::string> jobs = {"facedet320", "digit500",
                                         "facedet640"};
  for (std::size_t c = 0; c < kCells; ++c) {
    for (const auto& j : jobs) cluster.submit(c, j);
  }

  // The chaos: ring link 1 (cell 1 -> cell 2, the dying cell's drain
  // path) partitions at 40 ms, cell 1 dies at 50 ms -- its in-flight
  // jobs checkpoint and park on the downed link -- and the partition
  // heals at 160 ms, releasing the drained checkpoints to cell 2.
  sim::FaultPlan plan;
  plan.add({sim::FaultEvent::Kind::kLinkDown, TimePoint::at_ms(40.0), 1});
  plan.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(50.0), 1});
  plan.add({sim::FaultEvent::Kind::kLinkUp, TimePoint::at_ms(160.0), 1});
  cluster.apply_fault_plan(plan);

  const bool all_done =
      cluster.run_until_jobs_complete(Duration::minutes(5));
  cluster.set_background_load(0);
  export_obs(cluster, "chaos", obs_before);

  const auto stats = cluster.job_stats();
  std::cout << "[chaos] " << stats.submitted << " jobs submitted, "
            << stats.completed << " completed, " << stats.drained
            << " checkpoint-drained, " << stats.retries
            << " backoff retries; p99 "
            << TextTable::num(stats.p99_latency_ms, 0) << " ms, max "
            << TextTable::num(stats.max_latency_ms, 0) << " ms\n";

  int failures = 0;
  if (!all_done || stats.completed != stats.submitted) {
    std::cout << "[chaos] FAIL: completion-count conservation violated ("
              << stats.completed << " != " << stats.submitted << ")\n";
    ++failures;
  }
  if (!cluster.cell_dead(1) || stats.drained == 0) {
    std::cout << "[chaos] FAIL: the kill drained nothing\n";
    ++failures;
  }
  constexpr double kP99BudgetMs = 10'000.0;
  if (!(stats.p99_latency_ms > 0.0 &&
        stats.p99_latency_ms <= kP99BudgetMs)) {
    std::cout << "[chaos] FAIL: p99 " << stats.p99_latency_ms
              << " ms outside (0, " << kP99BudgetMs << "] budget\n";
    ++failures;
  }
  if (failures == 0) {
    std::cout << "[chaos] invariants held: no job lost, tail bounded\n\n";
  }
  return failures == 0 ? 0 : 1;
}

// Gray-failure storm: nothing dies cleanly.  Cell 0's CPUs crawl at
// quarter speed, ring link 1 inflates latency and drops frames, cell
// 2's reconfiguration port flips a coin per programming, cell 1's drain
// link corrupts drain frames -- and cell 1 is killed mid-storm so its
// checkpoints must cross the degraded, corrupting link.  The reliability
// layer (frame checksums, reliable drain channel, circuit breaker) has
// to absorb all of it:
//   * conservation: every submitted job still completes exactly once;
//   * detection: the storm is *seen* (retries or checksum catches, and
//     at least one breaker trip on the slowed cell);
//   * bounded tail: p99 stays under the same budget as hard faults.
int run_gray_phase() {
  using namespace xartrek;
  const auto specs = apps::paper_benchmarks();
  const auto estimation = exp::ThresholdEstimator().estimate(specs);
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;

  constexpr std::size_t kCells = 4;
  exp::ClusterSpec cluster_spec;
  cluster_spec.cells = kCells;
  cluster_spec.parallel = true;
  exp::ClusterExperiment cluster(specs, estimation.table, cluster_spec,
                                 options);
  if (obs_export_dir() != nullptr) cluster.enable_tracing();
  const obs::Snapshot obs_before = cluster.registry().snapshot();

  apps::ShardedLoadGenerator::Options churn;
  churn.run_demand = Duration::ms(2.0);
  churn.demand_jitter = 0.5;
  cluster.set_background_load(kCells * 60, churn);

  const std::vector<std::string> jobs = {"facedet320", "digit500",
                                         "facedet640"};
  for (std::size_t c = 0; c < kCells; ++c) {
    for (const auto& j : jobs) cluster.submit(c, j);
  }

  sim::FaultPlan plan;
  plan.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(20.0), 0,
            0.25, TimePoint::at_ms(120.0)});
  plan.add({sim::FaultEvent::Kind::kLinkDegraded, TimePoint::at_ms(30.0), 1,
            0.3, TimePoint::at_ms(200.0)});
  plan.add({sim::FaultEvent::Kind::kPortFlaky, TimePoint::at_ms(20.0), 2,
            0.5, TimePoint::at_ms(250.0)});
  plan.add({sim::FaultEvent::Kind::kDsmCorrupt, TimePoint::at_ms(30.0), 1,
            0.5, TimePoint::at_ms(200.0)});
  plan.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(50.0), 1});
  cluster.apply_fault_plan(plan);

  const bool all_done =
      cluster.run_until_jobs_complete(Duration::minutes(5));
  cluster.set_background_load(0);
  export_obs(cluster, "gray", obs_before);

  const auto stats = cluster.job_stats();
  std::cout << "[gray] " << stats.submitted << " jobs submitted, "
            << stats.completed << " completed, " << stats.drained
            << " drained; " << stats.channel_retries << " channel retries, "
            << stats.corrupt_recovered << " checksum catches, "
            << stats.link_drops << " frames dropped, "
            << stats.slow_replies << " slow replies, "
            << stats.breaker_trips << " breaker trips ("
            << stats.breaker_closes << " recovered); p99 "
            << TextTable::num(stats.p99_latency_ms, 0) << " ms, max "
            << TextTable::num(stats.max_latency_ms, 0) << " ms\n";

  int failures = 0;
  if (!all_done || stats.completed != stats.submitted) {
    std::cout << "[gray] FAIL: completion-count conservation violated ("
              << stats.completed << " != " << stats.submitted << ")\n";
    ++failures;
  }
  if (stats.channel_retries + stats.corrupt_recovered == 0 &&
      stats.link_drops == 0) {
    std::cout << "[gray] FAIL: the storm left no reliability-layer "
                 "fingerprints (nothing dropped, corrupted, or retried)\n";
    ++failures;
  }
  if (stats.breaker_trips == 0) {
    std::cout << "[gray] FAIL: the slowed cell never tripped its "
                 "circuit breaker\n";
    ++failures;
  }
  constexpr double kP99BudgetMs = 10'000.0;
  if (!(stats.p99_latency_ms > 0.0 &&
        stats.p99_latency_ms <= kP99BudgetMs)) {
    std::cout << "[gray] FAIL: p99 " << stats.p99_latency_ms
              << " ms outside (0, " << kP99BudgetMs << "] budget\n";
    ++failures;
  }
  if (failures == 0) {
    std::cout << "[gray] invariants held: storm absorbed, no job lost, "
                 "tail bounded\n\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main() {
  using namespace xartrek;
  if (std::getenv("XARTREK_CHAOS_ONLY") != nullptr) {
    std::cout << "== Datacenter spike: chaos phase only ==\n\n";
    return run_chaos_phase() + run_gray_phase();
  }
  std::cout << "== Datacenter spike scenario ==\n\n";

  const auto specs = apps::paper_benchmarks();
  const auto estimation = exp::ThresholdEstimator().estimate(specs);

  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::Experiment exp(specs, estimation.table, options);
  auto& sim = exp.simulation();

  const std::vector<std::string> tenants = {
      "facedet320", "facedet640", "digit500", "digit2000", "cg_a"};

  TextTable log("Timeline");
  log.set_header({"t (s)", "event", "x86 load", "detail"});
  auto note = [&](const std::string& event, const std::string& detail) {
    log.add_row({TextTable::num(sim.now().to_ms() / 1000.0, 1), event,
                 std::to_string(exp.testbed().x86().load()), detail});
  };

  // Phase 1: calm -- each tenant runs once on an idle server.
  note("phase 1", "idle server, tenants arrive");
  for (const auto& t : tenants) exp.launch(t);
  exp.run_until_complete(tenants.size());
  for (const auto& r : exp.results()) {
    note("tenant done",
         r.app + " on " + to_string(r.func_target) + " in " +
             TextTable::num(r.elapsed().to_ms(), 0) + " ms");
  }

  // Phase 2: spike -- 80 batch jobs land on the host.
  exp.add_background_load(80);
  sim.run_until(sim.now() + Duration::ms(100));
  note("phase 2", "80-process spike lands");
  const std::size_t before = exp.completed_apps();
  for (const auto& t : tenants) exp.launch(t);
  exp.run_until_complete(before + tenants.size());
  for (std::size_t i = before; i < exp.results().size(); ++i) {
    const auto& r = exp.results()[i];
    note("tenant done",
         r.app + " on " + to_string(r.func_target) + " in " +
             TextTable::num(r.elapsed().to_ms(), 0) + " ms");
  }

  // Phase 3: spike drains.
  exp.set_background_load(0);
  sim.run_until(sim.now() + Duration::ms(100));
  note("phase 3", "spike drains, server idle again");
  const std::size_t before3 = exp.completed_apps();
  for (const auto& t : tenants) exp.launch(t);
  exp.run_until_complete(before3 + tenants.size());
  for (std::size_t i = before3; i < exp.results().size(); ++i) {
    const auto& r = exp.results()[i];
    note("tenant done",
         r.app + " on " + to_string(r.func_target) + " in " +
             TextTable::num(r.elapsed().to_ms(), 0) + " ms");
  }

  // Phase 4: hyperscale burst -- 100,000 concurrent batch jobs land on
  // the host (the "millions of users" regime).  The virtual-time
  // processor-sharing core keeps every submit/cancel/complete at
  // O(log n), so the scheduler still answers placement requests
  // immediately; all five tenants escape the saturated x86 server.
  {
    const auto wall_start = std::chrono::steady_clock::now();
    exp.add_background_load(100'000);
    sim.run_until(sim.now() + Duration::ms(100));
    note("phase 4", "100k-concurrent-job spike lands");
    const std::size_t before4 = exp.completed_apps();
    for (const auto& t : tenants) exp.launch(t);
    exp.run_until_complete(before4 + tenants.size());
    for (std::size_t i = before4; i < exp.results().size(); ++i) {
      const auto& r = exp.results()[i];
      note("tenant done",
           r.app + " on " + to_string(r.func_target) + " in " +
               TextTable::num(r.elapsed().to_ms(), 0) + " ms");
    }
    // Tear the burst down: 100k cancellations through the same
    // O(log n) path.
    exp.set_background_load(0);
    sim.run_until(sim.now() + Duration::ms(100));
    note("phase 4 end", "burst cancelled, server idle again");
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    std::cout << "[phase 4] 100k-job spike simulated in " << wall_s
              << " s wall time\n\n";
  }

  // Phase 5: scale-out -- four datacenter cells as a declarative
  // ClusterSpec.  Each cell is a full testbed (tenants, scheduler,
  // FPGA) living on its own shard of the epoch-synchronized engine,
  // and the cells form a ring whose hop latency, the inter-cell link's,
  // is the epoch.  Every cell takes its own spike while jobs hand off
  // around the ring.
  {
    constexpr std::size_t kCells = 4;
    constexpr int kSpikePerCell = 120;
    exp::ClusterSpec cluster_spec;
    cluster_spec.cells = kCells;
    cluster_spec.parallel = true;
    exp::ClusterExperiment cluster(specs, estimation.table, cluster_spec,
                                   options);

    // Every 25 ms each cell ships a 256 KiB job image to its ring
    // neighbor over the inter-cell link.
    struct HandoffPump {
      exp::ClusterExperiment* cluster = nullptr;
      std::size_t cell = 0;
      int remaining = 0;
      void fire() {
        cluster->handoff(cell, 256 * 1024, [] {});
        if (--remaining > 0) {
          cluster->cell(cell).simulation().schedule_in(
              Duration::ms(25.0), [this] { fire(); });
        }
      }
    };
    std::vector<HandoffPump> pumps(kCells);
    for (std::size_t c = 0; c < kCells; ++c) {
      pumps[c] = HandoffPump{&cluster, c, 200};
      HandoffPump* pump = &pumps[c];
      cluster.cell(c).simulation().schedule_in(Duration::ms(25.0),
                                               [pump] { pump->fire(); });
    }

    const auto wall_start = std::chrono::steady_clock::now();
    // Micro-churn batch jobs: same per-cell load figure as MG-B loops
    // (the scheduler samples the process count, not the demand), but
    // each run completes in milliseconds, so the cells' queues churn
    // hundreds of thousands of events while the tenants run.
    apps::ShardedLoadGenerator::Options churn;
    churn.run_demand = Duration::ms(2.0);
    churn.demand_jitter = 0.5;
    cluster.set_background_load(kCells * kSpikePerCell, churn);
    for (std::size_t c = 0; c < kCells; ++c) {
      for (const auto& t : tenants) cluster.launch(c, t);
    }
    cluster.run_until_complete(kCells * tenants.size());
    cluster.set_background_load(0);
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();

    const std::uint64_t events =
        cluster.engine().engine().executed_events();
    double aggregate = 0.0;
    int escaped = 0;
    for (std::size_t c = 0; c < kCells; ++c) {
      const auto& st = cluster.engine().engine().stats(
          static_cast<sim::ShardId>(c));
      if (st.busy_seconds > 0.0) {
        aggregate += static_cast<double>(st.executed) / st.busy_seconds;
      }
      for (const auto& r : cluster.results(c)) {
        escaped += r.func_target != runtime::Target::kX86;
      }
    }
    note("phase 5", std::to_string(events) + " events across " +
                        std::to_string(kCells) + " cells");
    std::cout << "[phase 5] " << kCells << "-cell cluster (epoch "
              << cluster.engine().engine().epoch() << "): "
              << kCells * tenants.size() << " tenants done, " << escaped
              << " escaped x86, " << cluster.handoffs()
              << " ring handoffs, " << events << " events in " << wall_s
              << " s wall (" << aggregate / 1e6
              << " M events/s aggregate per-core capacity)\n\n";
  }

  // Phase 6: the million-user sweep -- 1,000,000 concurrent background
  // jobs spread over the four cells through the sharded load
  // generator.  Attach/detach bookkeeping is batched per shard (one
  // process-table update and one pool reservation per cell), so the
  // burst costs one O(log n) submit per job instead of funneling a
  // million per-process updates through one CpuCluster.
  {
    constexpr std::size_t kCells = 4;
    constexpr std::uint64_t kJobs = 1'000'000;
    exp::ClusterSpec cluster_spec;
    cluster_spec.cells = kCells;
    cluster_spec.parallel = true;
    exp::ClusterExperiment cluster(specs, estimation.table, cluster_spec,
                                   options);

    auto wall_start = std::chrono::steady_clock::now();
    cluster.set_background_load(kJobs);
    const double attach_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                wall_start)
                                .count();
    cluster.run_for(Duration::ms(100.0));
    note("phase 6", std::to_string(kJobs) + " concurrent jobs across " +
                        std::to_string(kCells) + " cells");

    // All tenants still get placement decisions instantly at 250k
    // resident jobs per cell -- and all of them escape the x86 servers.
    for (std::size_t c = 0; c < kCells; ++c) {
      for (const auto& t : tenants) cluster.launch(c, t);
    }
    cluster.run_until_complete(kCells * tenants.size());
    int escaped = 0;
    std::size_t done = 0;
    for (std::size_t c = 0; c < kCells; ++c) {
      for (const auto& r : cluster.results(c)) {
        ++done;
        escaped += r.func_target != runtime::Target::kX86;
      }
    }

    wall_start = std::chrono::steady_clock::now();
    cluster.set_background_load(0);
    const double detach_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                wall_start)
                                .count();
    note("phase 6 end", "burst cancelled, cells idle again");
    std::cout << "[phase 6] " << kJobs << " jobs attached in " << attach_s
              << " s (" << static_cast<double>(kJobs) / attach_s / 1e6
              << " M jobs/s), detached in " << detach_s << " s; " << done
              << " tenants completed under load, " << escaped
              << " escaped x86\n\n";
  }

  // Phase 7: chaos -- the cluster from phase 5 under fire: a cell dies
  // mid-spike with its drain path partitioned, and the resilience
  // invariants (exactly-once completion, bounded tail) are asserted.
  std::cout << "== Phase 7: chaos ==\n";
  const int chaos_failures = run_chaos_phase();

  // Phase 8: gray-failure storm -- nothing dies cleanly this time.
  // Slowed CPUs, a lossy corrupting ring link, and a coin-flip
  // reconfiguration port, with a kill in the middle; the reliability
  // layer must keep the conservation and tail invariants regardless.
  std::cout << "== Phase 8: gray-failure storm ==\n";
  const int gray_failures = run_gray_phase();

  std::cout << log.render() << "\n";
  std::cout << "During the spike the FPGA-profitable tenants moved to their\n"
               "hardware kernels and CG-A escaped to the ARM server; after\n"
               "the spike everything returned to plain x86 execution.\n";

  const auto& stats = exp.server().stats();
  std::cout << "\nScheduler decisions: " << stats.requests << " requests -> "
            << stats.to_x86 << " x86, " << stats.to_arm << " ARM, "
            << stats.to_fpga << " FPGA; " << stats.reconfigurations_started
            << " FPGA reconfiguration(s) started.\n";
  return chaos_failures + gray_failures;
}
