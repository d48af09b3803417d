// Batched decision passes in the SchedulerServer: same-instant
// requests share one scheduled event, one load-monitor sample and one
// kernel-residency probe per distinct app, while per-request semantics
// (decision values, round-trip delay, trace ids) stay exactly the
// unbatched ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fpga/device.hpp"
#include "obs/trace.hpp"
#include "platform/testbed.hpp"
#include "runtime/load_monitor.hpp"
#include "runtime/scheduler_server.hpp"
#include "runtime/threshold_table.hpp"

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
  // A name without a row throws at the call, before it takes a slot or
  // opens a batch: the requests on either side of it share one pass.
  int decisions = 0;
  server->request_placement("alpha", [&](PlacementDecision) { ++decisions; });
  try {
    server->request_placement("nope", [](PlacementDecision) {});
    ADD_FAILURE() << "an unknown app must throw at the call";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("`nope`"), std::string::npos);
  }
  server->request_placement("beta", [&](PlacementDecision) { ++decisions; });
  testbed.simulation().run_until(TimePoint::at_ms(10.0));
  EXPECT_EQ(decisions, 2);
  EXPECT_EQ(server->stats().batches, 1u);
  EXPECT_EQ(server->stats().max_batch, 2u);
  EXPECT_EQ(server->stats().requests, 2u);
  // The server keeps serving new batches afterwards.
  server->request_placement("beta", [&](PlacementDecision) { ++decisions; });
  testbed.simulation().run_until(testbed.simulation().now() +
                                 Duration::ms(10.0));
  EXPECT_EQ(decisions, 3);
  EXPECT_EQ(server->stats().batches, 2u);
}

TEST_F(BatchFixture, ThrowingCallbackDoesNotStrandItsBatchMates) {
  // A decision callback that throws still lets the rest of its batch be
  // answered; the pass then rethrows the first error.
  int decisions = 0;
  server->request_placement("alpha",
                            [](PlacementDecision) { throw Error("cb"); });
  server->request_placement("beta", [&](PlacementDecision) { ++decisions; });
  EXPECT_THROW(testbed.simulation().run_until(TimePoint::at_ms(10.0)), Error);
  EXPECT_EQ(decisions, 1);
  EXPECT_EQ(server->stats().requests, 2u);
}

TEST_F(BatchFixture, PendingSlotCarriesTraceIdAndResolvedApp) {
  // The pid tags the request's "sched.decide" span, and the app is
  // resolved at the call, so the caller's name may die before the pass.
  obs::Tracer tracer(1);
  server->set_tracer(&tracer, 0);
  // At load 1, gamma goes to ARM (past ARM_THR) and alpha stays on x86.
  table.upsert(entry("gamma", "KNL_gamma", 1 << 20, 0));
  testbed.x86().attach_process();
  testbed.simulation().run_until(TimePoint::at_ms(50.0));

  std::vector<Target> targets;
  auto record = [&](PlacementDecision d) { targets.push_back(d.target); };
  auto name = std::make_unique<std::string>("gamma");
  server->request_placement(*name, /*pid=*/42, record);
  name.reset();
  server->request_placement("alpha", /*pid=*/0, record);
  testbed.simulation().run_until(TimePoint::at_ms(60.0));

  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0], Target::kArm);
  EXPECT_EQ(targets[1], Target::kX86);
  EXPECT_EQ(server->stats().batches, 1u);
  std::vector<std::uint64_t> decided;
  for (const obs::Span& span : tracer.sorted_spans()) {
    if (std::string_view(span.name) == "sched.decide") {
      decided.push_back(span.trace_id);
    }
  }
  // The pid-0 request is untracked and emits no decision span.
  EXPECT_EQ(decided, std::vector<std::uint64_t>{42});
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

}  // namespace
}  // namespace xartrek::runtime
