// Edge-case and contention tests across the stack: links under
// contention, zero-cost operations, single-ISA builds, multi-function
// instrumentation, the decision explainer, and the periodic load
// controller.
#include <gtest/gtest.h>

#include "apps/benchmark_spec.hpp"
#include "compiler/instrumenter.hpp"
#include "compiler/multi_isa_builder.hpp"
#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "exp/threshold_estimator.hpp"
#include "exp/trace.hpp"
#include "hw/link.hpp"
#include "runtime/migration_executor.hpp"
#include "runtime/scheduler_server.hpp"
#include "sim/fifo_station.hpp"

namespace xartrek {
namespace {

TEST(LinkEdgeTest, ZeroByteTransferPaysOnlyLatency) {
  sim::Simulation sim;
  hw::Link eth(sim, hw::ethernet_1gbps());
  double done = -1;
  eth.transfer(0, [&] { done = sim.now().to_ms(); });
  sim.run();
  EXPECT_NEAR(done, 0.12, 1e-9);  // the fixed latency only
}

TEST(FifoEdgeTest, ZeroServiceRequestCompletesInstantly) {
  sim::Simulation sim;
  sim::FifoStation cu(sim, "cu");
  bool done = false;
  cu.enqueue(Duration::zero(), [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now().to_ms(), 0.0);
}

TEST(ExecutorContentionTest, ConcurrentArmMigrationsShareEthernet) {
  // Two simultaneous ARM migrations halve each other's wire bandwidth;
  // both finish later than a lone migration would.
  platform::Testbed testbed;
  runtime::MigrationExecutor executor(testbed);
  runtime::FunctionCosts costs;
  costs.arm_ms = Duration::ms(100);
  costs.migrate_bytes = 4 << 20;  // 4 MiB -> 32 ms alone
  costs.return_bytes = 0;
  costs.transform_ms = Duration::zero();

  auto run_n = [&](int n) {
    platform::Testbed tb;
    runtime::MigrationExecutor ex(tb);
    std::vector<double> done;
    for (int i = 0; i < n; ++i) {
      ex.execute(runtime::Target::kArm, costs,
                 [&done](Duration d) { done.push_back(d.to_ms()); });
    }
    while (static_cast<int>(done.size()) < n &&
           tb.simulation().step_one(TimePoint::at_ms(1e9))) {
    }
    return done.back();
  };
  const double lone = run_n(1);
  const double paired = run_n(2);
  EXPECT_GT(paired, lone + 20.0);  // the 32 ms payload became ~64 ms
}

TEST(MultiIsaBuilderTest, SingleIsaBuildHasNoPadding) {
  compiler::MultiIsaBuildOptions opts;
  opts.targets = {isa::IsaKind::kX86_64};
  const compiler::MultiIsaBuilder builder(opts);
  const auto binary =
      builder.build(compiler::make_app_ir("demo", "hot", 400, 150));
  EXPECT_EQ(binary.layout().padding_bytes.at(isa::IsaKind::kX86_64), 0u);
}

TEST(InstrumenterTest, TwoSelectedFunctionsGetTwoStubs) {
  auto ir = compiler::make_app_ir("demo", "hot", 500, 150);
  // Add a second self-contained hot function, called from main.
  compiler::IrFunction hot2;
  hot2.name = "hot2";
  hot2.lines_of_code = 80;
  hot2.ops.int_ops = 640;
  hot2.num_locals = 6;
  ir.functions.push_back(hot2);
  ir.find_mutable("main")->call_sites.push_back({"hot2", 3});

  compiler::ApplicationProfile profile;
  profile.name = "demo";
  compiler::SelectedFunction f1;
  f1.function = "hot";
  f1.kernel_name = "K1";
  compiler::SelectedFunction f2;
  f2.function = "hot2";
  f2.kernel_name = "K2";
  profile.functions = {f1, f2};

  const compiler::Instrumenter pass;
  const auto out = pass.instrument(ir, profile);
  EXPECT_EQ(out.dispatch_stubs.size(), 2u);
  EXPECT_EQ(out.count(compiler::Insertion::Kind::kDispatchRewrite), 2u);
  // The scheduler hooks are inserted once, not per function.
  EXPECT_EQ(out.count(compiler::Insertion::Kind::kSchedulerClientInit), 1u);
  EXPECT_NE(out.ir.find("__xar_dispatch_hot2"), nullptr);
}

TEST(ExplainPlacementTest, NamesTheFiringBranch) {
  using runtime::explain_placement;
  EXPECT_NE(explain_placement(5, 31, 16, true).find("lines 19-21"),
            std::string::npos);
  EXPECT_NE(explain_placement(20, 31, 16, false).find("lines 9-13"),
            std::string::npos);
  EXPECT_NE(explain_placement(40, 31, 16, false).find("lines 14-18"),
            std::string::npos);
  EXPECT_NE(explain_placement(40, 31, 50, true).find("lines 22-24"),
            std::string::npos);
  EXPECT_NE(explain_placement(40, 31, 16, true).find("lines 25-31"),
            std::string::npos);
  EXPECT_NE(explain_placement(40, 16, 31, true).find("ARM is the faster"),
            std::string::npos);
}

TEST(ExplainPlacementTest, ExplanationMatchesDecision) {
  for (int load : {0, 10, 20, 40, 120}) {
    for (int arm : {0, 17, 31}) {
      for (int fpga : {0, 16, 31}) {
        for (bool kernel : {false, true}) {
          bool reconfig = false;
          const auto target =
              runtime::decide_placement(load, arm, fpga, kernel, reconfig);
          const auto text =
              runtime::explain_placement(load, arm, fpga, kernel);
          EXPECT_NE(text.find(to_string(target)), std::string::npos)
              << text;
        }
      }
    }
  }
}

TEST(PeriodicLoadTest, TriangularControllerActuallySwings) {
  // Drive the Figure-8 load controller standalone and verify the load
  // wave covers the configured range.
  const auto specs = apps::paper_benchmarks();
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kVanillaX86;
  exp::Experiment exp(specs, runtime::ThresholdTable{}, options);
  exp::TraceRecorder trace(exp.simulation(), Duration::seconds(5));
  trace.add_probe("load", [&exp] {
    return static_cast<double>(exp.testbed().x86().load());
  });

  const double period_ms = Duration::minutes(2).to_ms();
  std::function<void()> adjust = [&] {
    const double phase =
        std::fmod(exp.simulation().now().to_ms(), period_ms) / period_ms;
    const double tri = phase < 0.5 ? 2.0 * phase : 2.0 * (1.0 - phase);
    exp.set_background_load(10 + static_cast<int>(tri * 110));
    exp.simulation().schedule_in(Duration::seconds(5), [&] { adjust(); });
  };
  adjust();
  exp.simulation().run_until(TimePoint::origin() + Duration::minutes(4));
  exp.set_background_load(0);

  const auto summary = trace.summarize("load");
  EXPECT_LE(summary.min, 15.0);
  EXPECT_GE(summary.max, 100.0);
}

TEST(ExperimentTest, WarmFpgaIsIdempotent) {
  const auto specs = apps::paper_benchmarks();
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::Experiment exp(specs, runtime::ThresholdTable{}, options);
  exp.warm_fpga_for("digit500");
  const auto reconfigs = exp.testbed().fpga().reconfigurations();
  exp.warm_fpga_for("digit500");  // already resident: no new download
  EXPECT_EQ(exp.testbed().fpga().reconfigurations(), reconfigs);
}

TEST(ServerOptionsTest, RequestOverheadDelaysDecision) {
  platform::Testbed testbed;
  runtime::ThresholdTable table;
  runtime::ThresholdEntry e;
  e.app = "a";
  e.kernel_name = "K";
  table.upsert(e);
  runtime::LoadMonitor monitor(testbed.simulation(), testbed.x86());
  runtime::SchedulerServer server(testbed.simulation(), monitor,
                                  testbed.fpga(), table, {});
  TimePoint decided_at = TimePoint::at_ms(-1);
  server.request_placement("a", [&](runtime::PlacementDecision) {
    decided_at = testbed.simulation().now();
  });
  testbed.simulation().run_until(TimePoint::at_ms(100));
  EXPECT_EQ(decided_at, TimePoint::origin() +
                            runtime::SchedulerServer::kRequestOverhead);
}

}  // namespace
}  // namespace xartrek
