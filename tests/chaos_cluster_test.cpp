// Cluster-scale chaos: deterministic fault plans, cell kills with
// checkpointed drain, partitioned and lossy ring links, and the
// conservation invariant -- every submitted job completes exactly once
// (even when a drain is abandoned), serial and parallel runs
// trace-identical under the same FaultPlan, and an empty plan is a
// bit-identical no-op.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/benchmark_spec.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "exp/cluster.hpp"
#include "exp/threshold_estimator.hpp"
#include "hw/link.hpp"
#include "obs/registry.hpp"
#include "sim/fault.hpp"
#include "sim/simulation.hpp"

namespace xartrek {
namespace {

const runtime::ThresholdTable& shared_table() {
  static const exp::EstimationResult result =
      exp::ThresholdEstimator().estimate(apps::paper_benchmarks());
  return result.table;
}

// --- rng stream splitting ---------------------------------------------------

TEST(RngSplitTest, SplitIsPureKeyedAndNonPerturbing) {
  Rng base(42);
  Rng probe(42);

  // Pure: the same (seed, stream) pair always lands in the same state.
  Rng s1 = base.split(7);
  Rng s2 = base.split(7);
  EXPECT_EQ(s1.seed(), s2.seed());
  EXPECT_EQ(s1.uniform_int(0, 1'000'000), s2.uniform_int(0, 1'000'000));

  // Keyed: adjacent streams are different states.
  EXPECT_NE(base.split(8).seed(), base.split(7).seed());

  // Non-perturbing: splitting never advanced `base` -- its draw stream
  // is still bit-identical to a fresh Rng with the same seed.  (fork()
  // deliberately does advance; split exists for the side channels.)
  EXPECT_EQ(base.uniform_int(0, 1'000'000), probe.uniform_int(0, 1'000'000));
}

// --- fault plan generation --------------------------------------------------

TEST(FaultPlanTest, GenerateIsPureSortedAndBudgeted) {
  sim::ChaosProfile profile;
  profile.cells = 4;
  profile.links = 4;
  profile.window_begin = TimePoint::at_ms(10.0);
  profile.window_end = TimePoint::at_ms(100.0);
  profile.cell_kill_probability = 1.0;
  profile.link_flap_probability = 1.0;
  profile.reconfigure_fail_probability = 1.0;
  profile.mean_partition = Duration::ms(20.0);

  const auto a = sim::FaultPlan::generate(profile, Rng(2026).split(3));
  const auto b = sim::FaultPlan::generate(profile, Rng(2026).split(3));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_DOUBLE_EQ(a.events()[i].at.to_ms(), b.events()[i].at.to_ms());
    EXPECT_EQ(a.events()[i].index, b.events()[i].index);
  }

  // Sorted, inside the window, and kill-budgeted: at least one cell
  // survives so drained jobs always have somewhere to land.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a.events()[i - 1].at.to_ms(), a.events()[i].at.to_ms());
  }
  for (const auto& ev : a.events()) {
    EXPECT_GE(ev.at.to_ms(), 10.0);
    EXPECT_LE(ev.at.to_ms(), 100.0);
  }
  EXPECT_EQ(a.count(sim::FaultEvent::Kind::kCellKill), profile.cells - 1u);
  // Every partition heals inside the window.
  EXPECT_EQ(a.count(sim::FaultEvent::Kind::kLinkDown),
            a.count(sim::FaultEvent::Kind::kLinkUp));
  EXPECT_EQ(a.count(sim::FaultEvent::Kind::kLinkDown), profile.links);
  EXPECT_EQ(a.count(sim::FaultEvent::Kind::kReconfigureFail),
            profile.cells);
}

// --- link partition semantics ----------------------------------------------

TEST(LinkPartitionTest, ParksFifoAndStoreAndForwardsInFlight) {
  sim::Simulation sim;
  hw::Link link(sim, hw::ethernet_1gbps());

  // An in-flight transfer survives the partition (store-and-forward:
  // the bytes already left the source NIC).
  double first_done = -1.0;
  link.transfer(1024 * 1024, [&] { first_done = sim.now().to_ms(); });
  sim.schedule_in(Duration::ms(1.0), [&] { link.set_down(true); });
  sim.run();
  EXPECT_GT(first_done, 0.0);
  EXPECT_TRUE(link.down());

  // New admissions park while down, then replay in arrival order.
  std::vector<int> order;
  link.transfer(1024, [&] { order.push_back(1); });
  link.transfer(1024, [&] { order.push_back(2); });
  link.transfer(1024, [&] { order.push_back(3); });
  sim.run();
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(link.parked(), 3u);
  EXPECT_EQ(link.stats().parked_transfers, 3u);
  EXPECT_EQ(link.stats().downs, 1u);

  link.set_down(false);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(link.parked(), 0u);
}

// --- cluster chaos ----------------------------------------------------------

TEST(ChaosClusterTest, KillCellDrainsRunningJobsExactlyOnce) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 3;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);

  // Two jobs on the doomed cell (facedet320 runs for hundreds of ms,
  // so both are mid-flight at the 50 ms kill), one bystander.
  cluster.submit(1, "facedet320");
  cluster.submit(1, "facedet320");
  cluster.submit(0, "facedet320");

  sim::FaultPlan plan;
  plan.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(50.0), 1});
  cluster.apply_fault_plan(plan);

  ASSERT_TRUE(cluster.run_until_jobs_complete());
  EXPECT_TRUE(cluster.cell_dead(1));
  EXPECT_FALSE(cluster.cell_dead(0));
  EXPECT_FALSE(cluster.cell_dead(2));

  // Conservation: every job completed exactly once, and the doomed
  // cell's jobs got there via checkpoint drain.
  const auto stats = cluster.job_stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.drained, 2u);
  for (const double t : cluster.job_completion_times_ms()) {
    EXPECT_GT(t, 0.0);
  }
  // Health checks were live from the moment the plan was applied.
  EXPECT_TRUE(cluster.cell(0).server().health_checks_active());
}

/// Events queued on every cell's shard.
std::size_t queued_events(exp::ClusterExperiment& cluster) {
  std::size_t total = 0;
  for (std::size_t c = 0; c < cluster.cell_count(); ++c) {
    total += cluster.engine().cell(c).queued_events();
  }
  return total;
}

TEST(ChaosClusterTest, RejectedPlanThrowsAndSchedulesNothing) {
  // A plan the cluster cannot apply is refused whole: none of its
  // events is scheduled, not even those ahead of the one at fault, and
  // no health check starts.
  const auto specs = apps::paper_benchmarks();

  // One cell: a slow window, then a kill with no neighbor to drain to.
  exp::ClusterExperiment lone(specs, shared_table());
  sim::FaultPlan lone_plan;
  lone_plan.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(1.0), 0,
                 0.25, TimePoint::at_ms(2.0)});
  lone_plan.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(5.0), 0});
  const std::size_t lone_queued = queued_events(lone);
  EXPECT_THROW(lone.apply_fault_plan(lone_plan), Error);
  EXPECT_EQ(queued_events(lone), lone_queued);
  EXPECT_FALSE(lone.cell(0).server().health_checks_active());

  // Two cells, both killed: the tracked jobs would circle a dead ring.
  exp::ClusterSpec spec;
  spec.cells = 2;
  exp::ClusterExperiment pair(specs, shared_table(), spec);
  for (std::size_t i = 0; i < 4; ++i) pair.submit(i % 2, "facedet320");
  sim::FaultPlan both;
  both.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(10.0), 0});
  both.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(20.0), 1});
  const std::size_t pair_queued = queued_events(pair);
  EXPECT_THROW(pair.apply_fault_plan(both), Error);
  EXPECT_EQ(queued_events(pair), pair_queued);
  EXPECT_FALSE(pair.cell(0).server().health_checks_active());
  ASSERT_TRUE(pair.run_until_jobs_complete());
  EXPECT_EQ(pair.job_stats().retries, 0u);  // no kill ever fired

  // An event in the past: refused whole as well.
  sim::FaultPlan stale;
  stale.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(1.0), 0,
             0.25, TimePoint::at_ms(2.0)});
  stale.add({sim::FaultEvent::Kind::kCellSlow,
             pair.now() + Duration::ms(10.0), 1, 0.25,
             pair.now() + Duration::ms(20.0)});
  const std::size_t stale_queued = queued_events(pair);
  EXPECT_THROW(pair.apply_fault_plan(stale), Error);
  EXPECT_EQ(queued_events(pair), stale_queued);

  // The same two kills split over two plans, each valid alone: the
  // cluster takes the first, so the second is refused too.
  sim::FaultPlan kill0;
  kill0.add({sim::FaultEvent::Kind::kCellKill,
             pair.now() + Duration::ms(10.0), 0});
  pair.apply_fault_plan(kill0);
  sim::FaultPlan kill1;
  kill1.add({sim::FaultEvent::Kind::kCellKill,
             pair.now() + Duration::ms(20.0), 1});
  const std::size_t kill_queued = queued_events(pair);
  EXPECT_THROW(pair.apply_fault_plan(kill1), Error);
  EXPECT_EQ(queued_events(pair), kill_queued);
  pair.run_for(Duration::ms(30.0));
  EXPECT_TRUE(pair.cell_dead(0));
  EXPECT_FALSE(pair.cell_dead(1));
}

TEST(ChaosClusterTest, DeadCellBackoffRetriesOntoRingNeighbor) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 2;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);

  sim::FaultPlan kill;
  kill.add({sim::FaultEvent::Kind::kCellKill, cluster.now(), 1});
  cluster.apply_fault_plan(kill);
  cluster.run_for(Duration::ms(1.0));
  ASSERT_TRUE(cluster.cell_dead(1));

  // Submitting to a dead cell: the placement finds the corpse, backs
  // off, and forwards the checkpoint to the surviving neighbor.
  cluster.submit(1, "facedet320");
  ASSERT_TRUE(cluster.run_until_jobs_complete());

  const auto stats = cluster.job_stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.retries, 1u);  // backoff re-placement, not a drain
  EXPECT_EQ(stats.drained, 0u);  // it was never running on the corpse
}

TEST(ChaosClusterTest, KillWithPartitionedDrainPathStillConservesJobs) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 3;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);

  cluster.submit(1, "facedet320");
  cluster.submit(1, "facedet320");

  // The drain path out of cell 1 is already partitioned when the cell
  // dies: checkpoints park on the downed link and deliver at repair.
  sim::FaultPlan plan;
  plan.add({sim::FaultEvent::Kind::kLinkDown, TimePoint::at_ms(40.0), 1});
  plan.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(50.0), 1});
  plan.add({sim::FaultEvent::Kind::kLinkUp, TimePoint::at_ms(150.0), 1});
  cluster.apply_fault_plan(plan);

  ASSERT_TRUE(cluster.run_until_jobs_complete());
  const auto stats = cluster.job_stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.drained, 2u);
  // Nothing could land before the link healed.
  EXPECT_GE(stats.max_latency_ms, 150.0);
}

/// Completions the cluster's job-latency histogram recorded: one per
/// job that completed, so a job completing twice shows here.
std::uint64_t recorded_completions(exp::ClusterExperiment& cluster) {
  for (const obs::Snapshot::Hist& h : cluster.registry().snapshot().hists) {
    if (h.name == "cluster.job.latency_ms") return h.count;
  }
  ADD_FAILURE() << "no cluster.job.latency_ms histogram";
  return 0;
}

double abandoned_drains(exp::ClusterExperiment& cluster, std::size_t cell) {
  const std::string name = "cell" + std::to_string(cell) + ".drain.abandoned";
  for (const obs::Snapshot::Scalar& s : cluster.registry().snapshot().scalars) {
    if (s.name == name) return s.value;
  }
  ADD_FAILURE() << "no " << name;
  return 0.0;
}

/// Kill `victim` at 50 ms with its drain path dropping frames at
/// probability `drop` from 20 ms to 5 s.
sim::FaultPlan lossy_drain_plan(std::size_t victim, double drop) {
  sim::FaultPlan plan;
  plan.add({sim::FaultEvent::Kind::kLinkDegraded, TimePoint::at_ms(20.0),
            static_cast<std::uint32_t>(victim), drop,
            TimePoint::at_ms(5000.0)});
  plan.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(50.0),
            static_cast<std::uint32_t>(victim)});
  return plan;
}

TEST(ChaosClusterTest, AbandonedDrainIsForwardedAgain) {
  // Every frame on cell 1's drain path is lost for ~5 s, so each drain
  // out of the dead cell uses up its channel's 16 attempts and is
  // abandoned.  The job goes back on the dead cell, whose backoff
  // forwards it again, until the link heals: loss becomes delay.
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 3;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);
  cluster.submit(1, "facedet320");
  cluster.submit(1, "facedet320");
  cluster.apply_fault_plan(lossy_drain_plan(1, 1.0));

  ASSERT_TRUE(cluster.run_until_jobs_complete(Duration::seconds(60.0)));
  const auto stats = cluster.job_stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(recorded_completions(cluster), 2u);
  EXPECT_EQ(stats.drained, 2u);
  // Each abandonment re-entered the dead cell's backoff.
  EXPECT_GE(abandoned_drains(cluster, 1), 2.0);
  EXPECT_GE(stats.retries, 2u);
  // Nothing could land before the link healed.
  for (const double t : cluster.job_completion_times_ms()) {
    EXPECT_GT(t, 5000.0);
  }
}

TEST(ChaosClusterTest, LossyDrainPathConservesJobsForEveryVictim) {
  // At drop probability 0.9 a drain is abandoned with probability
  // 0.9^16 ~ 0.19: some drains get through, some are abandoned and
  // re-sent.  Each victim's drain link and channel draw from their own
  // split streams, so the three victims are three seeds.  Threaded runs
  // must complete every job at the serial run's instants.
  const auto specs = apps::paper_benchmarks();
  double abandoned = 0.0;
  for (std::size_t victim = 0; victim < 3; ++victim) {
    std::vector<double> serial;
    for (const bool parallel : {false, true}) {
      exp::ClusterSpec spec;
      spec.cells = 3;
      spec.parallel = parallel;
      exp::ExperimentOptions options;
      options.mode = apps::SystemMode::kXarTrek;
      exp::ClusterExperiment cluster(specs, shared_table(), spec, options);
      for (int j = 0; j < 4; ++j) cluster.submit(victim, "facedet320");
      cluster.apply_fault_plan(lossy_drain_plan(victim, 0.9));

      ASSERT_TRUE(cluster.run_until_jobs_complete(Duration::seconds(60.0)))
          << "victim " << victim << " parallel " << parallel;
      const auto stats = cluster.job_stats();
      EXPECT_EQ(stats.completed, 4u) << "victim " << victim;
      EXPECT_EQ(recorded_completions(cluster), 4u) << "victim " << victim;
      EXPECT_EQ(stats.drained, 4u) << "victim " << victim;
      if (!parallel) {
        serial = cluster.job_completion_times_ms();
        abandoned += abandoned_drains(cluster, victim);
      } else {
        EXPECT_EQ(cluster.job_completion_times_ms(), serial)
            << "victim " << victim;
      }
    }
  }
  EXPECT_GT(abandoned, 0.0);  // the abandonment path was taken
}

TEST(ChaosClusterTest, SecondPlanIsRefusedWhileDrainsAreInFlight) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 3;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);

  cluster.submit(1, "facedet320");
  cluster.submit(1, "facedet320");
  sim::FaultPlan plan;
  plan.add({sim::FaultEvent::Kind::kLinkDown, TimePoint::at_ms(40.0), 1});
  plan.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(50.0), 1});
  plan.add({sim::FaultEvent::Kind::kLinkUp, TimePoint::at_ms(150.0), 1});
  cluster.apply_fault_plan(plan);

  // Cell 1 is dead and both checkpoints are parked on its downed drain
  // link.  A second plan -- here, an earlier repair of that link -- is
  // refused whole, and the drain channels carrying the checkpoints are
  // left alone.
  cluster.run_for(Duration::ms(60.0));
  ASSERT_TRUE(cluster.cell_dead(1));
  sim::FaultPlan second;
  second.add({sim::FaultEvent::Kind::kLinkUp,
              cluster.now() + Duration::ms(10.0), 1});
  const std::size_t queued = queued_events(cluster);
  EXPECT_THROW(cluster.apply_fault_plan(second), Error);
  EXPECT_EQ(queued_events(cluster), queued);

  ASSERT_TRUE(cluster.run_until_jobs_complete());
  const auto stats = cluster.job_stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.drained, 2u);
}

std::vector<double> run_chaos_cluster(bool parallel) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 3;
  spec.parallel = parallel;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);

  for (std::size_t c = 0; c < 3; ++c) {
    cluster.submit(c, "facedet320");
    cluster.submit(c, "digit500");
  }

  sim::ChaosProfile profile;
  profile.cells = 3;
  profile.links = 3;
  profile.window_begin = TimePoint::at_ms(10.0);
  profile.window_end = TimePoint::at_ms(200.0);
  profile.cell_kill_probability = 0.6;
  profile.link_flap_probability = 0.6;
  profile.reconfigure_fail_probability = 0.6;
  profile.mean_partition = Duration::ms(20.0);
  const auto plan = sim::FaultPlan::generate(profile, Rng(2026).split(7));
  EXPECT_FALSE(plan.empty());
  cluster.apply_fault_plan(plan);

  EXPECT_TRUE(cluster.run_until_jobs_complete());
  EXPECT_EQ(cluster.completed_jobs(), cluster.submitted_jobs());
  return cluster.job_completion_times_ms();
}

TEST(ChaosClusterTest, SerialAndParallelChaosTracesIdentical) {
  // The determinism contract under fire: the same generated FaultPlan
  // produces bit-identical per-job completion instants across a rerun
  // and across serial vs threaded shard execution.
  const auto serial_a = run_chaos_cluster(false);
  const auto serial_b = run_chaos_cluster(false);
  const auto threaded = run_chaos_cluster(true);
  ASSERT_EQ(serial_a.size(), serial_b.size());
  ASSERT_EQ(serial_a.size(), threaded.size());
  for (std::size_t i = 0; i < serial_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial_a[i], serial_b[i]) << "job " << i;
    EXPECT_DOUBLE_EQ(serial_a[i], threaded[i]) << "job " << i;
  }
}

std::vector<double> run_fault_free_cluster(bool apply_empty_plan) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 2;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);
  cluster.submit(0, "facedet320");
  cluster.submit(1, "digit500");
  if (apply_empty_plan) {
    // An empty plan must not start health checks or schedule anything.
    cluster.apply_fault_plan(sim::FaultPlan{});
    EXPECT_FALSE(cluster.cell(0).server().health_checks_active());
  }
  EXPECT_TRUE(cluster.run_until_jobs_complete());
  return cluster.job_completion_times_ms();
}

std::vector<double> run_kill_after_empty_plan(bool apply_empty_plan) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 2;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);
  cluster.submit(0, "facedet320");
  cluster.submit(0, "digit500");
  if (apply_empty_plan) cluster.apply_fault_plan(sim::FaultPlan{});
  cluster.run_for(Duration::ms(5.0));
  sim::FaultPlan kill;
  kill.add({sim::FaultEvent::Kind::kCellKill, cluster.now(), 0});
  cluster.apply_fault_plan(kill);
  EXPECT_TRUE(cluster.run_until_jobs_complete());
  return cluster.job_completion_times_ms();
}

TEST(ChaosClusterTest, EmptyFaultPlanIsBitIdenticalNoOp) {
  const auto baseline = run_fault_free_cluster(false);
  const auto with_empty_plan = run_fault_free_cluster(true);
  ASSERT_EQ(baseline.size(), with_empty_plan.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_DOUBLE_EQ(baseline[i], with_empty_plan[i]) << "job " << i;
  }
  // Nor does it use up the cluster's one plan: a later kill plan is
  // taken and runs exactly as on a cluster that never saw the empty one.
  const auto killed = run_kill_after_empty_plan(false);
  const auto killed_after_empty_plan = run_kill_after_empty_plan(true);
  ASSERT_EQ(killed.size(), killed_after_empty_plan.size());
  for (std::size_t i = 0; i < killed.size(); ++i) {
    EXPECT_DOUBLE_EQ(killed[i], killed_after_empty_plan[i]) << "job " << i;
  }
}

}  // namespace
}  // namespace xartrek
