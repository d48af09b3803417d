// Tests for the topology auto-partitioner and the cluster experiment:
// deterministic shard maps, lookahead validation with named edges,
// largest-legal-epoch auto-pick, derived channel wiring, and the
// 1-cell ClusterExperiment reproducing exp::Experiment's trace exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/benchmark_spec.hpp"
#include "apps/load_generator.hpp"
#include "exp/cluster.hpp"
#include "exp/experiment.hpp"
#include "exp/threshold_estimator.hpp"
#include "hw/link.hpp"
#include "isa/isa.hpp"
#include "popcorn/machine_state.hpp"
#include "popcorn/metadata.hpp"
#include "popcorn/migration_runtime.hpp"
#include "popcorn/state_transform.hpp"
#include "sim/topology.hpp"

namespace xartrek {
namespace {

// --- partitioner ------------------------------------------------------------

TEST(TopologyTest, ShardMapIsDeterministicAndSortedByCell) {
  // Cells registered out of order: the map must order shards by
  // ascending CellId, independent of registration order.
  sim::Topology a;
  const auto a9 = a.add_node("nine", 9);
  const auto a2 = a.add_node("two", 2);
  const auto a5 = a.add_node("five", 5);
  const auto a2b = a.add_node("two-bis", 2);
  const auto plan_a = a.plan();

  EXPECT_EQ(plan_a.shards, 3u);
  EXPECT_EQ(plan_a.shard_cell, (std::vector<sim::CellId>{2, 5, 9}));
  EXPECT_EQ(plan_a.shard_of(a2), 0u);
  EXPECT_EQ(plan_a.shard_of(a2b), 0u);
  EXPECT_EQ(plan_a.shard_of(a5), 1u);
  EXPECT_EQ(plan_a.shard_of(a9), 2u);

  // Same graph, different registration order: same cell -> shard map.
  sim::Topology b;
  const auto b2 = b.add_node("two", 2);
  const auto b5 = b.add_node("five", 5);
  const auto b9 = b.add_node("nine", 9);
  const auto plan_b = b.plan();
  EXPECT_EQ(plan_b.shard_cell, plan_a.shard_cell);
  EXPECT_EQ(plan_b.shard_of(b2), plan_a.shard_of(a2));
  EXPECT_EQ(plan_b.shard_of(b5), plan_a.shard_of(a5));
  EXPECT_EQ(plan_b.shard_of(b9), plan_a.shard_of(a9));

  // Planning twice is bit-identical (pure function of the graph).
  const auto plan_a2 = a.plan();
  EXPECT_EQ(plan_a2.node_shard, plan_a.node_shard);
  EXPECT_EQ(plan_a2.epoch, plan_a.epoch);
}

TEST(TopologyTest, AutoPicksLargestLegalEpoch) {
  sim::Topology topo;
  const auto a = topo.add_node("a", 0);
  const auto b = topo.add_node("b", 1);
  const auto c = topo.add_node("c", 2);
  topo.add_edge(a, b, Duration::ms(3.0));
  topo.add_edge(b, c, Duration::ms(2.0));       // the binding constraint
  topo.add_edge(a, a, Duration::micros(1.0));   // in-cell: no constraint
  const auto plan = topo.plan();
  EXPECT_EQ(plan.epoch, Duration::ms(2.0));
  EXPECT_EQ(plan.cross_edges, 2u);
}

TEST(TopologyTest, PlanDerivesAdaptiveCeilingFromCrossEdges) {
  sim::Topology topo;
  const auto a = topo.add_node("a", 0);
  const auto b = topo.add_node("b", 1);
  topo.add_edge(a, b, Duration::ms(3.0));
  topo.add_edge(b, a, Duration::ms(2.0));

  // Auto-picked epoch: ceiling == epoch == the tightest cross edge.
  const auto auto_plan = topo.plan();
  EXPECT_EQ(auto_plan.epoch, Duration::ms(2.0));
  EXPECT_EQ(auto_plan.max_epoch, Duration::ms(2.0));

  // Forced tighter epoch: the ceiling stays at the tightest cross
  // edge, so adaptation may legally coarsen past the forced value.
  sim::Topology::PartitionOptions opts;
  opts.epoch = Duration::ms(0.5);
  const auto forced = topo.plan(opts);
  EXPECT_EQ(forced.epoch, Duration::ms(0.5));
  EXPECT_EQ(forced.max_epoch, Duration::ms(2.0));

  // Nothing crossing shards: any window is legal; the ceiling is the
  // bounded 256x cap.
  sim::Topology isolated;
  (void)isolated.add_node("solo", 0);
  const auto solo = isolated.plan();
  EXPECT_DOUBLE_EQ(solo.max_epoch.to_ms(), solo.epoch.to_ms() * 256.0);
}

TEST(TopologyTest, FallbackEpochWhenNothingCrosses) {
  sim::Topology topo;
  const auto a = topo.add_node("a", 0);
  topo.add_edge(a, a, Duration::zero());
  const auto plan = topo.plan();
  EXPECT_EQ(plan.shards, 1u);
  EXPECT_EQ(plan.cross_edges, 0u);
  EXPECT_EQ(plan.epoch, Duration::micros(100.0));
}

TEST(TopologyTest, RejectsEpochAboveCrossLatencyWithNamedEdge) {
  sim::Topology topo;
  const auto a = topo.add_node("cell0/x86", 0);
  const auto b = topo.add_node("cell1/x86", 1);
  topo.add_edge(a, b, Duration::ms(0.5));
  sim::Topology::PartitionOptions opts;
  opts.epoch = Duration::ms(1.0);
  try {
    (void)topo.plan(opts);
    FAIL() << "expected a lookahead-contract error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cell0/x86 -> cell1/x86"), std::string::npos)
        << what;
    EXPECT_NE(what.find("lookahead"), std::string::npos) << what;
    EXPECT_NE(what.find("0.5 ms"), std::string::npos) << what;
  }
}

TEST(TopologyTest, RejectsZeroLatencyCrossEdge) {
  sim::Topology topo;
  const auto a = topo.add_node("a", 0);
  const auto b = topo.add_node("b", 1);
  topo.add_edge(a, b, Duration::zero());
  EXPECT_THROW((void)topo.plan(), Error);
}

// --- derived channels -------------------------------------------------------

TEST(PartitionedEngineTest, DerivesInertAndMailboxChannels) {
  sim::Topology topo;
  const auto a = topo.add_node("a", 0);
  const auto a2 = topo.add_node("a2", 0);
  const auto b = topo.add_node("b", 1);
  topo.add_edge(a, a2, Duration::micros(1.0));
  const auto cross = topo.add_edge(a, b, Duration::ms(2.0));
  sim::PartitionedEngine eng(std::move(topo));

  // Same shard: inert channel, the component keeps local behavior.
  EXPECT_FALSE(eng.channel_between(a, a2).connected());
  // Cross shard: mailbox channel carrying the edge's modeled latency.
  const auto channel = eng.channel(cross);
  EXPECT_TRUE(channel.connected());
  EXPECT_EQ(channel.latency(), Duration::ms(2.0));
  // Undeclared interaction: refused, not silently zero-latency.
  EXPECT_THROW((void)eng.channel_between(a2, b), Error);

  // End to end: a delivery crosses shards at the modeled latency.
  double arrived_at = -1.0;
  eng.sim_of(a).schedule_at(TimePoint::at_ms(1.0), [&] {
    channel.deliver([&eng, &arrived_at, b] {
      arrived_at = eng.sim_of(b).now().to_ms();
    });
  });
  eng.engine().run();
  EXPECT_DOUBLE_EQ(arrived_at, 3.0);
}

TEST(PartitionedEngineTest, LiveRemapMovesShardsAndKeepsChannelsValid) {
  // Three cells on two workers.  The plan fixes the node -> shard map
  // forever; the live shard -> worker map starts round-robin and may
  // be rewritten between runs.  Channels name shards, so a remap never
  // invalidates one -- a channel derived before the move and one
  // re-derived after must behave identically.
  sim::Topology topo;
  const auto a = topo.add_node("a", 0);
  const auto b = topo.add_node("b", 1);
  const auto c = topo.add_node("c", 2);
  const auto ab = topo.add_edge(a, b, Duration::ms(2.0));
  topo.add_edge(b, c, Duration::ms(2.0));
  sim::Topology::PartitionOptions opts;
  opts.exec.workers = 2;
  sim::PartitionedEngine eng(std::move(topo), opts);

  ASSERT_EQ(eng.engine().worker_count(), 2u);
  EXPECT_EQ(eng.worker_of(a), 0u);
  EXPECT_EQ(eng.worker_of(b), 1u);
  EXPECT_EQ(eng.worker_of(c), 0u);

  const auto before = eng.channel(ab);
  double first = -1.0;
  eng.sim_of(a).schedule_at(TimePoint::at_ms(1.0), [&] {
    before.deliver([&] { first = eng.sim_of(b).now().to_ms(); });
  });
  eng.engine().run();
  EXPECT_DOUBLE_EQ(first, 3.0);

  // Move node a's shard to worker 1 between runs; the node -> shard
  // map is untouched, only the execution lane changes.
  eng.engine().set_worker_of(eng.shard_of(a), 1);
  EXPECT_EQ(eng.worker_of(a), 1u);
  EXPECT_EQ(eng.shard_of(a), 0u);
  EXPECT_EQ(eng.engine().steal_moves(), 1u);

  // The old channel still delivers, and re-deriving it yields the
  // same shard pair and latency.
  const auto after = eng.channel(ab);
  EXPECT_TRUE(after.connected());
  EXPECT_EQ(after.latency(), before.latency());
  double second = -1.0;
  eng.sim_of(a).schedule_in(Duration::ms(1.0), [&] {
    before.deliver([&] { second = eng.sim_of(b).now().to_ms(); });
  });
  eng.engine().run();
  EXPECT_GT(second, first);
}

TEST(PartitionedEngineTest, LinkRegistersRouteAcrossCells) {
  sim::Topology topo;
  const auto src = topo.add_node("cell0/x86", 0);
  const auto dst = topo.add_node("cell1/x86", 1);
  topo.add_edge(src, dst, Duration::ms(2.0));
  sim::PartitionedEngine eng(std::move(topo));

  hw::Link link(eng.sim_of(src), hw::LinkSpec{"wire", 1.0,
                                              Duration::ms(0.25)});
  link.register_route(eng, src, dst);
  double arrived_at = -1.0;
  eng.sim_of(src).schedule_at(TimePoint::at_ms(1.0), [&] {
    link.transfer(0, [&] { arrived_at = eng.sim_of(dst).now().to_ms(); });
  });
  eng.engine().run();
  // send + link latency + 0-byte payload + registered edge latency.
  EXPECT_NEAR(arrived_at, 1.0 + 0.25 + 2.0, 1e-9);
}

TEST(PartitionedEngineTest, MigrationArrivalResumesOnDestinationShard) {
  sim::Topology topo;
  const auto src = topo.add_node("x86", 0);
  const auto dst = topo.add_node("arm", 1);
  topo.add_edge(src, dst, Duration::ms(2.0));
  sim::PartitionedEngine eng(std::move(topo));

  hw::Link eth(eng.sim_of(src), hw::ethernet_1gbps());
  popcorn::CallSiteMetadata site;
  site.function = "hot";
  site.site_id = 1;
  site.frame_size[isa::IsaKind::kX86_64] = 32;
  site.frame_size[isa::IsaKind::kAarch64] = 32;
  popcorn::MigrationMetadata md;
  md.add_site(std::move(site));
  const popcorn::StateTransformer transformer(md);
  popcorn::MigrationRuntime runtime(eng.sim_of(src), eth, transformer);
  runtime.register_arrival(eng, src, dst);

  double arrived_at = -1.0;
  popcorn::MachineState x86(isa::IsaKind::kX86_64, "hot", 1, 32);
  runtime.migrate(x86, isa::IsaKind::kAarch64, /*working_set_bytes=*/0,
                  [&](popcorn::MachineState st) {
                    EXPECT_EQ(st.isa(), isa::IsaKind::kAarch64);
                    arrived_at = eng.sim_of(dst).now().to_ms();
                  });
  eng.engine().run();
  // The resume fires on the destination shard, the registered 2 ms
  // edge latency after the wire burst lands.
  EXPECT_GT(arrived_at, 2.0);
  EXPECT_EQ(runtime.migrations(), 1u);
}

// --- cluster experiment -----------------------------------------------------

const runtime::ThresholdTable& shared_table() {
  static const exp::EstimationResult result =
      exp::ThresholdEstimator().estimate(apps::paper_benchmarks());
  return result.table;
}

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

std::vector<std::vector<CellRun>> run_two_cell_cluster(exp::ClusterSpec spec) {
  const auto specs = apps::paper_benchmarks();
  spec.cells = 2;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);
  cluster.launch(0, "facedet320");
  cluster.launch(0, "cg_a");
  cluster.launch(1, "digit2000");
  cluster.launch(1, "facedet640");
  EXPECT_TRUE(cluster.run_until_complete(4));
  std::vector<std::vector<CellRun>> out(2);
  for (std::size_t c = 0; c < 2; ++c) {
    for (const auto& r : cluster.results(c)) {
      out[c].push_back(CellRun{r.app, r.started.to_ms(),
                               r.finished.to_ms()});
    }
  }
  return out;
}

std::vector<std::vector<CellRun>> run_two_cell_cluster(bool parallel) {
  exp::ClusterSpec spec;
  spec.parallel = parallel;
  return run_two_cell_cluster(spec);
}

TEST(ClusterExperimentTest, MultiCellDeterministicAndParallelIdentical) {
  const auto serial_a = run_two_cell_cluster(false);
  const auto serial_b = run_two_cell_cluster(false);
  const auto threaded = run_two_cell_cluster(true);
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

TEST(ClusterExperimentTest, AdaptiveAndStealingKeepTheTraceIdentical) {
  // The acceptance pin for the adaptive sharded core: adaptive epochs,
  // two pinned workers carrying four cells, and stealing all switched
  // on at once must reproduce the plain fixed-epoch serial trace
  // exactly, serial and parallel alike.
  const auto baseline = run_four_cell_cluster(exp::ClusterSpec{});
  for (const bool parallel : {false, true}) {
    exp::ClusterSpec spec;
    spec.parallel = parallel;
    spec.exec.adaptive = true;
    spec.exec.steal = true;
    spec.exec.workers = 2;
    spec.exec.pin_threads = parallel;
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
  // Auto-picked epoch: the 1 Gbps intercell latency (120 us).
  EXPECT_EQ(cluster.engine().plan().epoch, Duration::micros(120.0));

  double arrived_at = -1.0;
  cluster.cell(0).simulation().schedule_at(TimePoint::at_ms(1.0), [&] {
    cluster.handoff(0, 0, [&] {
      arrived_at = cluster.cell(1).simulation().now().to_ms();
    });
  });
  cluster.run_for(Duration::ms(10.0));
  // send + link latency + registered edge latency (two 120 us hops).
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
  ASSERT_NE(cluster.background_load(), nullptr);
  EXPECT_EQ(cluster.background_load()->total_jobs(), 11u);
  cluster.run_for(Duration::seconds(1.0));
  EXPECT_EQ(cluster.cell(0).testbed().x86().load(), 6);  // loops persist
  cluster.set_background_load(0);
  EXPECT_EQ(cluster.cell(0).testbed().x86().load(), 0);
  EXPECT_EQ(cluster.cell(1).testbed().x86().load(), 0);
}

}  // namespace
}  // namespace xartrek
