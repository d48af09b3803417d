// Batched decision passes in the SchedulerServer: same-instant
// requests share one scheduled event, one load-monitor sample and one
// kernel-residency probe per distinct app, while per-request semantics
// (decision values, round-trip delay, error propagation) stay exactly
// the unbatched ones.  Also covers cross-shard decision delivery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fpga/device.hpp"
#include "hw/cpu_cluster.hpp"
#include "hw/link.hpp"
#include "platform/testbed.hpp"
#include "runtime/load_monitor.hpp"
#include "runtime/scheduler_server.hpp"
#include "runtime/threshold_table.hpp"
#include "sim/shard.hpp"

namespace xartrek::runtime {
namespace {

ThresholdEntry entry(const std::string& app, const std::string& kernel,
                     int fpga_thr, int arm_thr) {
  ThresholdEntry e;
  e.app = app;
  e.kernel_name = kernel;
  e.fpga_threshold = fpga_thr;
  e.arm_threshold = arm_thr;
  return e;
}

struct BatchFixture : ::testing::Test {
  platform::Testbed testbed;
  ThresholdTable table;
  std::unique_ptr<LoadMonitor> monitor;
  std::unique_ptr<SchedulerServer> server;

  void SetUp() override {
    table.upsert(entry("alpha", "KNL_alpha", 1 << 20, 1 << 20));
    table.upsert(entry("beta", "KNL_beta", 1 << 20, 1 << 20));
    monitor = std::make_unique<LoadMonitor>(testbed.simulation(),
                                            testbed.x86());
    server = std::make_unique<SchedulerServer>(
        testbed.simulation(), *monitor, testbed.fpga(), table,
        std::vector<fpga::XclbinImage>{});
  }
};

TEST_F(BatchFixture, SameInstantRequestsShareOneDecisionPass) {
  std::vector<double> decided_at;
  std::vector<int> loads;
  for (int i = 0; i < 16; ++i) {
    server->request_placement(i % 2 == 0 ? "alpha" : "beta",
                              [&](PlacementDecision d) {
                                decided_at.push_back(
                                    testbed.simulation().now().to_ms());
                                loads.push_back(d.observed_load);
                              });
  }
  testbed.simulation().run_until(TimePoint::at_ms(10.0));
  ASSERT_EQ(decided_at.size(), 16u);
  const auto& stats = server->stats();
  EXPECT_EQ(stats.requests, 16u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch, 16u);
  // One residency probe per distinct app, not per request.
  EXPECT_EQ(stats.residency_probes, 2u);
  // Every decision fires at the same round-trip instant with the same
  // shared load sample.
  for (double t : decided_at) EXPECT_DOUBLE_EQ(t, decided_at.front());
  for (int l : loads) EXPECT_EQ(l, loads.front());
  EXPECT_NEAR(decided_at.front(), 0.08, 1e-9);  // 80 us default overhead
}

TEST_F(BatchFixture, LaterInstantOpensItsOwnBatch) {
  int decisions = 0;
  auto count = [&](PlacementDecision) { ++decisions; };
  server->request_placement("alpha", count);
  testbed.simulation().schedule_at(TimePoint::at_ms(1.0), [&] {
    server->request_placement("alpha", count);
    server->request_placement("beta", count);
  });
  testbed.simulation().run_until(TimePoint::at_ms(10.0));
  EXPECT_EQ(decisions, 3);
  EXPECT_EQ(server->stats().batches, 2u);
  EXPECT_EQ(server->stats().max_batch, 2u);
  // The second batch re-probes: memoization is per-pass, not global.
  EXPECT_EQ(server->stats().residency_probes, 3u);
}

TEST_F(BatchFixture, CallbackMayImmediatelyIssueTheNextRequest) {
  // The classic closed loop: each decision triggers the next request.
  int decisions = 0;
  std::function<void()> next = [&] {
    server->request_placement("alpha", [&](PlacementDecision) {
      if (++decisions < 5) next();
    });
  };
  next();
  testbed.simulation().run_until(TimePoint::at_ms(10.0));
  EXPECT_EQ(decisions, 5);
  EXPECT_EQ(server->stats().batches, 5u);  // sequential -> one each
  EXPECT_EQ(server->stats().max_batch, 1u);
}

TEST_F(BatchFixture, UnknownAppStillThrowsButBatchMatesAreAnswered) {
  int decisions = 0;
  server->request_placement("alpha", [&](PlacementDecision) { ++decisions; });
  server->request_placement("nope", [](PlacementDecision) {});
  server->request_placement("beta", [&](PlacementDecision) { ++decisions; });
  bool threw = false;
  try {
    testbed.simulation().run_until(TimePoint::at_ms(10.0));
  } catch (const Error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  // Every valid request in the batch got its decision -- exactly as
  // the old per-request events would have delivered them -- and the
  // server keeps serving new batches afterwards.
  EXPECT_EQ(decisions, 2);
  server->request_placement("beta", [&](PlacementDecision) { ++decisions; });
  testbed.simulation().run_until(testbed.simulation().now() +
                                 Duration::ms(10.0));
  EXPECT_EQ(decisions, 3);
}

TEST_F(BatchFixture, MidBatchReconfigurationInvalidatesProbeCache) {
  // Batch [gamma, delta, gamma]: gamma's kernel is resident, delta's
  // request starts a reconfiguration -- which tears the loaded image
  // down synchronously -- so the second gamma must re-probe and see
  // the kernel gone, exactly as the per-request path would have.
  fpga::XclbinImage img_c;
  img_c.id = "img_gamma";
  img_c.size_bytes = 1 << 20;
  fpga::HwKernelConfig kc;
  kc.name = "KNL_gamma";
  img_c.kernels.push_back(kc);
  fpga::XclbinImage img_d = img_c;
  img_d.id = "img_delta";
  img_d.kernels[0].name = "KNL_delta";

  table.upsert(entry("gamma", "KNL_gamma", /*fpga_thr=*/5, /*arm_thr=*/100));
  table.upsert(entry("delta", "KNL_delta", /*fpga_thr=*/5, /*arm_thr=*/100));
  SchedulerServer srv(testbed.simulation(), *monitor, testbed.fpga(), table,
                      {img_c, img_d});

  // Make gamma's kernel resident, then raise the load past FPGA_THR.
  bool warm = false;
  testbed.fpga().reconfigure(img_c, [&](fpga::ReconfigureResult) { warm = true; });
  testbed.simulation().run_until(TimePoint::at_ms(2'000.0));
  ASSERT_TRUE(warm);
  ASSERT_TRUE(testbed.fpga().has_kernel("KNL_gamma"));
  for (int i = 0; i < 20; ++i) testbed.x86().attach_process();
  testbed.simulation().run_until(testbed.simulation().now() +
                                 Duration::ms(50.0));

  std::vector<PlacementDecision> decisions;
  auto record = [&](PlacementDecision d) { decisions.push_back(d); };
  srv.request_placement("gamma", record);
  srv.request_placement("delta", record);
  srv.request_placement("gamma", record);
  testbed.simulation().run_until(testbed.simulation().now() +
                                 Duration::ms(1.0));

  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_EQ(decisions[0].target, Target::kFpga);   // resident, past thr
  EXPECT_TRUE(decisions[1].reconfiguration_started);
  // The stale cache would say "resident" and pick the FPGA while the
  // fabric is mid-reprogram; the fresh probe keeps the job on a CPU.
  EXPECT_NE(decisions[2].target, Target::kFpga);
  EXPECT_EQ(srv.stats().residency_probes, 3u);  // gamma probed twice
}

TEST(SchedulerCrossShardTest, DecisionArrivesOnClientShard) {
  // Server stack on shard 0, client on shard 1: the decision crosses
  // through the reply channel and fires on the client's shard one
  // channel latency after the decision pass.
  sim::ShardedSimulation ssim(sim::ShardedSimulation::Options{
      2, Duration::micros(50.0), 64, false, Duration::zero(), {}});
  sim::Simulation& server_sim = ssim.shard(0);
  hw::CpuCluster x86(server_sim, hw::xeon_bronze_3104());
  hw::Link pcie(server_sim, hw::pcie_gen3());
  fpga::FpgaDevice device(server_sim, pcie, fpga::alveo_u50_spec());
  ThresholdTable table;
  table.upsert(entry("alpha", "KNL_alpha", 1 << 20, 1 << 20));
  LoadMonitor monitor(server_sim, x86);
  SchedulerServer::Options opts;
  opts.reply_channel =
      sim::CrossShardChannel(ssim, 0, 1, Duration::micros(60.0));
  SchedulerServer server(server_sim, monitor, device, table, {}, opts);

  double decided_at = -1.0;
  server_sim.schedule_at(TimePoint::at_ms(1.0), [&] {
    server.request_placement("alpha", [&](PlacementDecision d) {
      decided_at = ssim.shard(1).now().to_ms();
      EXPECT_EQ(d.target, Target::kX86);
    });
  });
  ssim.run_until(TimePoint::at_ms(10.0));
  // 1 ms send + 80 us round trip + 60 us cross-shard delivery.
  EXPECT_NEAR(decided_at, 1.0 + 0.08 + 0.06, 1e-9);
}

}  // namespace
}  // namespace xartrek::runtime
