// Tests for the cell ring and the cluster experiment: the ring's
// lookahead contract as ClusterSpec sets it, ring-hop channels across a
// worker remap, Link::route, and the 1-cell ClusterExperiment
// reproducing exp::Experiment's trace exactly.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "apps/benchmark_spec.hpp"
#include "apps/load_generator.hpp"
#include "exp/cluster.hpp"
#include "exp/experiment.hpp"
#include "exp/threshold_estimator.hpp"
#include "hw/link.hpp"
#include "sim/cell_ring.hpp"

namespace xartrek {
namespace {

const runtime::ThresholdTable& shared_table() {
  static const exp::EstimationResult result =
      exp::ThresholdEstimator().estimate(apps::paper_benchmarks());
  return result.table;
}

// --- lookahead contract -----------------------------------------------------

TEST(CellRingTest, RejectsForcedEpochAboveTheHopNamingBoth) {
  exp::ClusterSpec spec;
  spec.cells = 2;
  spec.epoch = Duration::ms(1.0);  // over the default 120 us link
  try {
    exp::ClusterExperiment cluster(apps::paper_benchmarks(), shared_table(),
                                   spec);
    FAIL() << "expected a lookahead-contract error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 ms"), std::string::npos) << what;
    EXPECT_NE(what.find("0.12 ms"), std::string::npos) << what;
    EXPECT_NE(what.find("lookahead"), std::string::npos) << what;
  }
}

TEST(CellRingTest, RejectsZeroLatencyHopAndNonPositiveEpoch) {
  exp::ClusterSpec spec;
  spec.cells = 2;
  spec.intercell.latency = Duration::zero();
  EXPECT_THROW(exp::ClusterExperiment(apps::paper_benchmarks(),
                                      shared_table(), spec),
               Error);
  // One cell has no hop, but a forced epoch must still be positive.
  EXPECT_THROW(sim::CellRing(1, Duration::zero(), Duration::zero()), Error);
}

TEST(CellRingTest, ForcedEpochBelowTheHopIsUsedAsGiven) {
  exp::ClusterSpec spec;
  spec.cells = 2;
  spec.epoch = Duration::micros(50.0);
  exp::ClusterExperiment forced(apps::paper_benchmarks(), shared_table(),
                                spec);
  EXPECT_EQ(forced.engine().engine().epoch(), Duration::micros(50.0));
  // Unforced, the epoch is the hop; one cell runs the engine default.
  spec.epoch.reset();
  exp::ClusterExperiment picked(apps::paper_benchmarks(), shared_table(),
                                spec);
  EXPECT_EQ(picked.engine().engine().epoch(), Duration::micros(120.0));
  EXPECT_EQ(sim::CellRing(1, Duration::zero()).engine().epoch(),
            Duration::micros(100.0));
}

// --- ring hops --------------------------------------------------------------

TEST(CellRingTest, OneCellHopIsInert) {
  sim::CellRing ring(1, Duration::ms(2.0));
  EXPECT_EQ(ring.engine().shard_count(), 1u);
  EXPECT_FALSE(ring.next(0).connected());
}

TEST(CellRingTest, HopDeliversAtItsLatencyAcrossAWorkerRemap) {
  // Three cells on two workers.  Cell i stays on shard i for good; the
  // live shard -> worker map starts round-robin and may be rewritten
  // between runs.  Channels name shards, so a remap never invalidates
  // one.
  sim::ExecOptions exec;
  exec.workers = 2;
  sim::CellRing ring(3, Duration::ms(2.0), std::nullopt, false, exec);
  sim::ShardedSimulation& eng = ring.engine();
  ASSERT_EQ(eng.worker_count(), 2u);
  EXPECT_EQ(eng.epoch(), Duration::ms(2.0));
  EXPECT_EQ(eng.worker_of(0), 0u);
  EXPECT_EQ(eng.worker_of(1), 1u);
  EXPECT_EQ(eng.worker_of(2), 0u);

  const sim::CrossShardChannel hop = ring.next(0);
  ASSERT_TRUE(hop.connected());
  EXPECT_EQ(hop.latency(), Duration::ms(2.0));
  double first = -1.0;
  ring.cell(0).schedule_at(TimePoint::at_ms(1.0), [&] {
    hop.deliver([&] { first = ring.cell(1).now().to_ms(); });
  });
  eng.run();
  EXPECT_DOUBLE_EQ(first, 3.0);

  // Move cell 0's shard to worker 1: only the execution lane changes.
  eng.set_worker_of(0, 1);
  EXPECT_EQ(eng.worker_of(0), 1u);
  EXPECT_EQ(eng.steal_moves(), 1u);
  double second = -1.0;
  const TimePoint sent = eng.now() + Duration::ms(1.0);
  ring.cell(0).schedule_at(sent, [&] {
    hop.deliver([&] { second = ring.cell(1).now().to_ms(); });
  });
  eng.run();
  EXPECT_DOUBLE_EQ(second, sent.to_ms() + 2.0);

  // The last cell's hop wraps around to cell 0.
  double wrapped = -1.0;
  const TimePoint from_last = eng.now() + Duration::ms(1.0);
  ring.cell(2).schedule_at(from_last, [&] {
    ring.next(2).deliver([&] { wrapped = ring.cell(0).now().to_ms(); });
  });
  eng.run();
  EXPECT_DOUBLE_EQ(wrapped, from_last.to_ms() + 2.0);
}

TEST(CellRingTest, RoutedLinkCompletesOnTheNeighborOneHopLater) {
  sim::CellRing ring(2, Duration::ms(2.0));
  hw::Link link(ring.cell(0), hw::LinkSpec{"wire", 1.0, Duration::ms(0.25)});
  link.route(ring.next(0));
  double arrived_at = -1.0;
  ring.cell(0).schedule_at(TimePoint::at_ms(1.0), [&] {
    link.transfer(0, [&] { arrived_at = ring.cell(1).now().to_ms(); });
  });
  ring.engine().run();
  // send + link latency + 0-byte payload + one ring hop.
  EXPECT_NEAR(arrived_at, 1.0 + 0.25 + 2.0, 1e-9);
}

// --- cluster experiment -----------------------------------------------------

TEST(ClusterExperimentTest, OneCellTraceIdenticalToExperiment) {
  // The acceptance bar: a 1-cell ClusterExperiment reproduces
  // exp::Experiment exactly (same completion times, same order, same
  // placements) on a Figure-3-sized workload -- five tenants, idle
  // server, Xar-Trek mode.
  const auto specs = apps::paper_benchmarks();
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;

  exp::Experiment plain(specs, shared_table(), options);
  for (const auto& s : specs) plain.launch(s.name);
  ASSERT_TRUE(plain.run_until_complete(specs.size()));

  exp::ClusterExperiment cluster(specs, shared_table(), exp::ClusterSpec{},
                                 options);
  EXPECT_EQ(cluster.cell_count(), 1u);
  for (const auto& s : specs) cluster.launch(0, s.name);
  ASSERT_TRUE(cluster.run_until_complete(specs.size()));

  const auto& expected = plain.results();
  const auto& actual = cluster.results(0);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].app, expected[i].app);
    EXPECT_EQ(actual[i].func_target, expected[i].func_target);
    EXPECT_DOUBLE_EQ(actual[i].started.to_ms(),
                     expected[i].started.to_ms());
    EXPECT_DOUBLE_EQ(actual[i].finished.to_ms(),
                     expected[i].finished.to_ms());
  }
  // Same scheduler story, decision for decision.
  EXPECT_EQ(cluster.cell(0).server().stats().requests,
            plain.server().stats().requests);
  EXPECT_EQ(cluster.cell(0).server().stats().to_fpga,
            plain.server().stats().to_fpga);
}

struct CellRun {
  std::string app;
  double started_ms;
  double finished_ms;
};

struct TwoCellRun {
  std::vector<std::vector<CellRun>> cells;
  std::uint64_t pooled_windows = 0;  // windows the engine's pool ran
};

/// Two tracked apps per cell, placed and started over a background
/// cohort of short looping jobs: for the first 200 ms its completions
/// make the windows dense enough for a parallel engine to hand them to
/// its worker pool; then it stops and the apps run out.
TwoCellRun run_two_cell_cluster(bool parallel) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 2;
  spec.parallel = parallel;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);
  apps::LoadGenerator::Options churn;
  churn.run_demand = Duration::ms(0.02);
  churn.demand_jitter = 0.5;
  churn.reserve = true;
  cluster.set_background_load(16, churn);
  cluster.launch(0, "facedet320");
  cluster.launch(0, "cg_a");
  cluster.launch(1, "digit2000");
  cluster.launch(1, "facedet640");
  cluster.run_for(Duration::ms(200.0));
  cluster.set_background_load(0);
  EXPECT_TRUE(cluster.run_until_complete(4));
  TwoCellRun out;
  out.cells.resize(2);
  for (std::size_t c = 0; c < 2; ++c) {
    for (const auto& r : cluster.results(c)) {
      out.cells[c].push_back(CellRun{r.app, r.started.to_ms(),
                                     r.finished.to_ms()});
    }
  }
  out.pooled_windows = cluster.engine().engine().pooled_windows();
  return out;
}

TEST(ClusterExperimentTest, MultiCellDeterministicAndParallelIdentical) {
  const TwoCellRun run_a = run_two_cell_cluster(false);
  const TwoCellRun run_b = run_two_cell_cluster(false);
  const TwoCellRun run_threaded = run_two_cell_cluster(true);
  EXPECT_GT(run_threaded.pooled_windows, 0u);
  const auto& serial_a = run_a.cells;
  const auto& serial_b = run_b.cells;
  const auto& threaded = run_threaded.cells;
  for (std::size_t c = 0; c < 2; ++c) {
    ASSERT_EQ(serial_a[c].size(), 2u);
    for (std::size_t i = 0; i < serial_a[c].size(); ++i) {
      EXPECT_EQ(serial_b[c][i].app, serial_a[c][i].app);
      EXPECT_DOUBLE_EQ(serial_b[c][i].finished_ms,
                       serial_a[c][i].finished_ms);
      EXPECT_EQ(threaded[c][i].app, serial_a[c][i].app);
      EXPECT_DOUBLE_EQ(threaded[c][i].finished_ms,
                       serial_a[c][i].finished_ms);
    }
  }
}

std::vector<std::vector<CellRun>> run_four_cell_cluster(
    exp::ClusterSpec spec) {
  const auto specs = apps::paper_benchmarks();
  spec.cells = 4;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);
  cluster.launch(0, "facedet320");
  cluster.launch(0, "cg_a");
  cluster.launch(1, "digit2000");
  cluster.launch(2, "facedet640");
  cluster.launch(3, "facedet320");
  EXPECT_TRUE(cluster.run_until_complete(5));
  std::vector<std::vector<CellRun>> out(4);
  for (std::size_t c = 0; c < 4; ++c) {
    for (const auto& r : cluster.results(c)) {
      out[c].push_back(CellRun{r.app, r.started.to_ms(),
                               r.finished.to_ms()});
    }
  }
  return out;
}

TEST(ClusterExperimentTest, StealingKeepsTheTraceIdentical) {
  // Four cells on two workers with stealing on must reproduce the
  // plain one-lane-per-cell serial trace exactly, serial and parallel
  // alike.
  const auto baseline = run_four_cell_cluster(exp::ClusterSpec{});
  for (const bool parallel : {false, true}) {
    exp::ClusterSpec spec;
    spec.parallel = parallel;
    spec.exec.steal = true;
    spec.exec.workers = 2;
    const auto tuned = run_four_cell_cluster(spec);
    for (std::size_t c = 0; c < 4; ++c) {
      ASSERT_EQ(tuned[c].size(), baseline[c].size());
      for (std::size_t i = 0; i < baseline[c].size(); ++i) {
        EXPECT_EQ(tuned[c][i].app, baseline[c][i].app);
        EXPECT_DOUBLE_EQ(tuned[c][i].started_ms, baseline[c][i].started_ms);
        EXPECT_DOUBLE_EQ(tuned[c][i].finished_ms,
                         baseline[c][i].finished_ms);
      }
    }
  }
}

TEST(ClusterExperimentTest, CellsShareOneCompiledSuite) {
  // One compile per cluster: every cell reads the same immutable suite,
  // including while the cells run in parallel.
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 4;
  spec.parallel = true;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);
  const compiler::CompiledSuite* suite = &cluster.cell(0).suite();
  for (std::size_t i = 0; i < cluster.cell_count(); ++i) {
    EXPECT_EQ(&cluster.cell(i).suite(), suite) << "cell " << i;
    cluster.launch(i, specs[i].name);
  }
  EXPECT_TRUE(cluster.run_until_complete(cluster.cell_count()));
}

TEST(ClusterExperimentTest, HandoffRidesTheIntercellLink) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 2;
  exp::ClusterExperiment cluster(specs, shared_table(), spec);
  // The epoch is the ring hop: the 1 Gbps intercell latency (120 us).
  EXPECT_EQ(cluster.engine().engine().epoch(), Duration::micros(120.0));

  double arrived_at = -1.0;
  cluster.cell(0).simulation().schedule_at(TimePoint::at_ms(1.0), [&] {
    cluster.handoff(0, 0, [&] {
      arrived_at = cluster.cell(1).simulation().now().to_ms();
    });
  });
  cluster.run_for(Duration::ms(10.0));
  // send + link latency + one ring hop (two 120 us legs).
  EXPECT_NEAR(arrived_at, 1.0 + 0.12 + 0.12, 1e-9);
  EXPECT_EQ(cluster.handoffs(), 1u);
}

TEST(ClusterExperimentTest, ShardedBackgroundLoadBatchesPerCell) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 2;
  exp::ClusterExperiment cluster(specs, shared_table(), spec);
  cluster.set_background_load(11);
  EXPECT_EQ(cluster.cell(0).testbed().x86().load(), 6);
  EXPECT_EQ(cluster.cell(1).testbed().x86().load(), 5);
  cluster.run_for(Duration::seconds(1.0));
  EXPECT_EQ(cluster.cell(0).testbed().x86().load(), 6);  // loops persist
  cluster.set_background_load(0);
  EXPECT_EQ(cluster.cell(0).testbed().x86().load(), 0);
  EXPECT_EQ(cluster.cell(1).testbed().x86().load(), 0);
}

}  // namespace
}  // namespace xartrek
