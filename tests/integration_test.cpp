// Integration tests: whole-stack scenarios crossing module boundaries.
#include <gtest/gtest.h>

#include <set>

#include "apps/application.hpp"
#include "apps/benchmark_spec.hpp"
#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "exp/threshold_estimator.hpp"
#include "fpga/device.hpp"
#include "hls/xclbin.hpp"
#include "hw/link.hpp"
#include "sim/simulation.hpp"

namespace xartrek {
namespace {

const runtime::ThresholdTable& seeded_table() {
  static const runtime::ThresholdTable table =
      exp::ThresholdEstimator().estimate(apps::paper_benchmarks()).table;
  return table;
}

// --- Multi-CU device behaviour -------------------------------------------

TEST(MultiCuTest, ParallelInvocationsAcrossComputeUnits) {
  sim::Simulation sim;
  hw::Link pcie(sim, hw::pcie_gen3());
  fpga::FpgaDevice device(sim, pcie, fpga::alveo_u50_spec());

  fpga::XclbinImage image;
  image.id = "multi-cu";
  image.size_bytes = 4 << 20;
  fpga::HwKernelConfig k;
  k.name = "K";
  k.clock_mhz = 300;
  k.fixed_cycles = 0;
  k.cycles_per_item = 3'000'000;  // 10 ms
  k.compute_units = 3;
  image.kernels.push_back(k);
  device.reconfigure(image, [](fpga::ReconfigureResult) {});
  sim.run();

  const double t0 = sim.now().to_ms();
  std::vector<double> done;
  for (int i = 0; i < 6; ++i) {
    device.execute("K", 1, [&] { done.push_back(sim.now().to_ms() - t0); });
  }
  sim.run();
  ASSERT_EQ(done.size(), 6u);
  // Three CUs: invocations finish in two batches of three.
  EXPECT_NEAR(done[0], 10.0, 1e-9);
  EXPECT_NEAR(done[2], 10.0, 1e-9);
  EXPECT_NEAR(done[3], 20.0, 1e-9);
  EXPECT_NEAR(done[5], 20.0, 1e-9);
}

TEST(MultiCuTest, ComputeUnitsMultiplyAreaInPartitioning) {
  const hls::HlsCompiler hls;
  hls::KernelSource src;
  src.kernel_name = "K";
  src.source_function = "k";
  src.ops = {20, 2, 6, 0, 1e6};
  src.iface = {64 * 1024, 4 * 1024};
  src.compute_units = 4;
  const auto xo = hls.compile(src);
  EXPECT_EQ(xo.config.compute_units, 4);

  fpga::XclbinImage image;
  image.kernels.push_back(xo.config);
  fpga::XclbinImage single;
  auto cfg = xo.config;
  cfg.compute_units = 1;
  single.kernels.push_back(cfg);
  EXPECT_EQ(image.total_kernel_resources().luts,
            4 * single.total_kernel_resources().luts);
}

// --- Multi-XCLBIN run-time behaviour ---------------------------------------

TEST(MultiXclbinTest, SchedulerSwapsImagesAndExecutorSurvives) {
  // Shrink the device so the five kernels cannot share one image; the
  // scheduler must reconfigure between applications whose kernels live
  // in different images, and in-flight FPGA decisions whose kernel got
  // evicted must fall back to x86 rather than deadlock.
  const auto specs = apps::paper_benchmarks();
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::Experiment exp(specs, seeded_table(), options);

  // Build two artificial images, each holding a subset.
  const auto& all = exp.suite().xclbins;
  ASSERT_EQ(all.size(), 1u);
  fpga::XclbinImage img_a;
  img_a.id = "subset-a";
  fpga::XclbinImage img_b;
  img_b.id = "subset-b";
  for (const auto& k : all[0].kernels) {
    if (k.name == "KNL_HW_DR200" || k.name == "KNL_HW_DR500") {
      img_a.kernels.push_back(k);
    } else {
      img_b.kernels.push_back(k);
    }
  }
  img_a.size_bytes = img_b.size_bytes = 8 << 20;

  auto& device = exp.testbed().fpga();
  device.reconfigure(img_a, [](fpga::ReconfigureResult) {});
  exp.simulation().run_until(exp.simulation().now() + Duration::seconds(2));
  ASSERT_TRUE(device.has_kernel("KNL_HW_DR200"));

  // digit2000's kernel is resident -> FPGA; then swap to image B while
  // nothing protects residency, and run digit2000 again -> the decision
  // depends on the new image, never crashing.
  exp.add_background_load(30);
  exp.simulation().run_until(exp.simulation().now() + Duration::ms(50));
  exp.launch("digit2000");
  ASSERT_TRUE(exp.run_until_complete(1));
  EXPECT_EQ(exp.results()[0].func_target, runtime::Target::kFpga);

  device.reconfigure(img_b, [](fpga::ReconfigureResult) {});
  exp.simulation().run_until(exp.simulation().now() + Duration::seconds(2));
  EXPECT_FALSE(device.has_kernel("KNL_HW_DR200"));
  exp.launch("digit2000");
  ASSERT_TRUE(exp.run_until_complete(2));
  // The server sees the kernel missing; Algorithm 2's no-kernel branches
  // keep it off the FPGA (x86 or ARM at this load).
  EXPECT_NE(exp.results()[1].func_target, runtime::Target::kFpga);
}

// --- Whole-figure smoke paths ----------------------------------------------

TEST(EndToEndTest, AllSystemsCompleteAMixedSet) {
  for (auto mode :
       {apps::SystemMode::kVanillaX86, apps::SystemMode::kVanillaArm,
        apps::SystemMode::kAlwaysFpga, apps::SystemMode::kXarTrek}) {
    exp::ExperimentOptions options;
    options.mode = mode;
    exp::Experiment exp(apps::paper_benchmarks(), seeded_table(), options);
    for (const auto& spec : exp.specs()) exp.launch(spec.name);
    EXPECT_TRUE(exp.run_until_complete(exp.specs().size()))
        << to_string(mode);
    EXPECT_EQ(exp.completed_apps(), 5u) << to_string(mode);
  }
}

TEST(EndToEndTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    exp::AvgExecConfig config;
    config.set_sizes = {3};
    config.total_processes = 30;
    config.systems = {apps::SystemMode::kXarTrek};
    config.runs = 2;
    config.seed = 7;
    const auto result = exp::run_avg_exec_experiment(
        apps::paper_benchmarks(), seeded_table(), config);
    return result.cells[0].mean_ms;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(EndToEndTest, ColdStartConvergesTowardSeededBehaviour) {
  // Ablation 4: start with a cold (zero) threshold table and run the
  // same app repeatedly under load; Algorithm 1's refinement should
  // raise the ARM threshold after each disappointing migration until
  // decisions stabilize, and never crash meanwhile.
  const auto specs = apps::paper_benchmarks();
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::Experiment exp(specs, runtime::ThresholdTable{}, options);
  exp.warm_fpga_for("cg_a");
  exp.add_background_load(10);
  exp.simulation().run_until(exp.simulation().now() + Duration::ms(50));

  for (int run = 0; run < 6; ++run) {
    const std::size_t before = exp.completed_apps();
    exp.launch("cg_a");
    ASSERT_TRUE(exp.run_until_complete(before + 1));
  }
  // Cold FPGA_THR = 0 < cold ARM_THR? both 0: Algorithm 2 routes to the
  // FPGA (kernel resident, thresholds equal -> ARM? fpga_thr < arm_thr
  // is false when equal, so ARM).  Either way, each disappointing
  // migration raises its threshold by one.
  const auto& entry = exp.table().at("cg_a");
  EXPECT_GT(entry.fpga_threshold + entry.arm_threshold, 0);
}

TEST(EndToEndTest, ServerStatsAccountAllRequests) {
  const auto specs = apps::paper_benchmarks();
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::Experiment exp(specs, seeded_table(), options);
  for (int i = 0; i < 3; ++i) {
    for (const auto& spec : specs) exp.launch(spec.name);
  }
  ASSERT_TRUE(exp.run_until_complete(15));
  const auto& stats = exp.server().stats();
  EXPECT_EQ(stats.requests, 15u);
  EXPECT_EQ(stats.to_x86 + stats.to_arm + stats.to_fpga, 15u);
}

TEST(EndToEndTest, ThroughputExperimentShapesHold) {
  // Condensed Figure 6 invariants: Xar-Trek >= vanilla at load 50 by
  // ~4x, and >= always-FPGA (eager configuration + per-call init).
  exp::ThroughputConfig config;
  config.background_loads = {50};
  config.systems = {apps::SystemMode::kVanillaX86,
                    apps::SystemMode::kAlwaysFpga,
                    apps::SystemMode::kXarTrek};
  config.runs = 2;
  const auto result = exp::run_throughput_experiment(
      apps::paper_benchmarks(), seeded_table(), config);
  const double x86 =
      result.cell(apps::SystemMode::kVanillaX86, 50).mean_images;
  const double fpga =
      result.cell(apps::SystemMode::kAlwaysFpga, 50).mean_images;
  const double xar = result.cell(apps::SystemMode::kXarTrek, 50).mean_images;
  EXPECT_GT(xar, 3.0 * x86);
  EXPECT_GE(xar, fpga);
}

// --- Randomized PS-resource stress (property) -------------------------------

class PsStressTest : public ::testing::TestWithParam<int> {};

TEST_P(PsStressTest, RandomArrivalsCancellationsConserveWork) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  sim::Simulation sim;
  sim::PsResource cpu(sim, {"cpu", 6.0, 1.0});

  double expected_completed_work = 0.0;
  int completed = 0;
  int launched = 0;
  std::vector<sim::PsResource::JobId> cancellable;

  // 60 arrivals at random times with random demands; a third get
  // cancelled at random later times.
  for (int i = 0; i < 60; ++i) {
    const double at = rng.uniform_real(0.0, 200.0);
    const double demand = rng.uniform_real(1.0, 40.0);
    const bool cancel_later = i % 3 == 0;
    sim.schedule_at(TimePoint::at_ms(at), [&, demand, cancel_later] {
      ++launched;
      const auto id = cpu.submit(demand, [&, demand] {
        ++completed;
        expected_completed_work += demand;
      });
      if (cancel_later) cancellable.push_back(id);
    });
    if (cancel_later) {
      sim.schedule_at(TimePoint::at_ms(at + rng.uniform_real(0.5, 30.0)),
                      [&] {
                        if (!cancellable.empty()) {
                          cpu.cancel(cancellable.back());
                          cancellable.pop_back();
                        }
                      });
    }
  }
  sim.run();
  EXPECT_EQ(launched, 60);
  EXPECT_EQ(cpu.active_jobs(), 0u);
  // Completed jobs received exactly their demand; cancelled ones
  // strictly less -- so delivered work is bounded by both sides.
  EXPECT_GE(cpu.delivered_work() + 1e-6, expected_completed_work);
  EXPECT_GT(completed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsStressTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace xartrek
