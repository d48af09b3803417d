// Tests for the application layer: benchmark cost models (calibrated
// against the paper's Table 1), the process model, the load generator,
// and the multi-image throughput app.
#include <gtest/gtest.h>

#include "apps/application.hpp"
#include "apps/benchmark_spec.hpp"
#include "apps/load_generator.hpp"
#include "apps/multi_image_app.hpp"
#include "exp/experiment.hpp"
#include "exp/threshold_estimator.hpp"

namespace xartrek::apps {
namespace {

TEST(BenchmarkSpecTest, FiveBenchmarksWellFormed) {
  const auto specs = paper_benchmarks();
  ASSERT_EQ(specs.size(), 5u);
  const char* expected[] = {"cg_a", "facedet320", "facedet640", "digit500",
                            "digit2000"};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(specs[i].name, expected[i]);
    EXPECT_FALSE(specs[i].kernel_name.empty());
    EXPECT_GT(specs[i].func_x86, Duration::zero());
    EXPECT_GT(specs[i].func_arm, specs[i].func_x86);  // ARM cores slower
    EXPECT_GT(specs[i].total_loc, specs[i].hot_loc);
  }
  EXPECT_EQ(benchmark_by_name(specs, "cg_a").kernel_name, "KNL_HW_CG_A");
  EXPECT_THROW((void)benchmark_by_name(specs, "nope"), Error);
}

TEST(BenchmarkSpecTest, KernelNamesMatchPaperTable2) {
  const auto specs = paper_benchmarks();
  EXPECT_EQ(benchmark_by_name(specs, "cg_a").kernel_name, "KNL_HW_CG_A");
  EXPECT_EQ(benchmark_by_name(specs, "facedet320").kernel_name,
            "KNL_HW_FD320");
  EXPECT_EQ(benchmark_by_name(specs, "facedet640").kernel_name,
            "KNL_HW_FD640");
  EXPECT_EQ(benchmark_by_name(specs, "digit500").kernel_name,
            "KNL_HW_DR500");
  EXPECT_EQ(benchmark_by_name(specs, "digit2000").kernel_name,
            "KNL_HW_DR200");
}

// The paper's Table 1 (milliseconds).  The three in-isolation scenarios
// of each benchmark must land within 5% of the authors' measurements:
// these are the *calibration* targets everything else derives from.
struct Table1Row {
  const char* app;
  double vanilla_x86;
  double xar_fpga;
  double xar_arm;
};
constexpr Table1Row kTable1[] = {
    {"cg_a", 2182, 10597, 8406},      {"facedet320", 175, 332, 642},
    {"facedet640", 885, 832, 2991},   {"digit500", 883, 470, 2281},
    {"digit2000", 3521, 1229, 8963},
};

class Table1CalibrationTest : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1CalibrationTest, ScenarioTimesMatchPaper) {
  const auto& row = GetParam();
  const auto specs = paper_benchmarks();
  const auto compiled = exp::compile_suite(specs);
  const exp::ThresholdEstimator estimator;

  const double x86 =
      estimator.scenario_time(specs, compiled, row.app, runtime::Target::kX86)
          .to_ms();
  const double fpga =
      estimator.scenario_time(specs, compiled, row.app, runtime::Target::kFpga)
          .to_ms();
  const double arm =
      estimator.scenario_time(specs, compiled, row.app, runtime::Target::kArm)
          .to_ms();

  EXPECT_NEAR(x86, row.vanilla_x86, 0.05 * row.vanilla_x86) << row.app;
  EXPECT_NEAR(fpga, row.xar_fpga, 0.05 * row.xar_fpga) << row.app;
  EXPECT_NEAR(arm, row.xar_arm, 0.05 * row.xar_arm) << row.app;
}

INSTANTIATE_TEST_SUITE_P(PaperTable1, Table1CalibrationTest,
                         ::testing::ValuesIn(kTable1));

TEST(BenchmarkSpecTest, FpgaWinnersAndLosersMatchPaper) {
  // The paper's headline split: FPGA wins for FaceDet640/Digit500/
  // Digit2000, x86 wins for CG-A and FaceDet320; ARM is always the
  // slowest scenario in isolation.
  const auto specs = paper_benchmarks();
  const auto compiled = exp::compile_suite(specs);
  const exp::ThresholdEstimator estimator;
  for (const auto& row : kTable1) {
    const double x86 =
        estimator.scenario_time(specs, compiled, row.app, runtime::Target::kX86)
            .to_ms();
    const double fpga =
        estimator
            .scenario_time(specs, compiled, row.app, runtime::Target::kFpga)
            .to_ms();
    const double arm =
        estimator.scenario_time(specs, compiled, row.app, runtime::Target::kArm)
            .to_ms();
    const bool fpga_wins = std::string(row.app) == "facedet640" ||
                           std::string(row.app) == "digit500" ||
                           std::string(row.app) == "digit2000";
    EXPECT_EQ(fpga < x86, fpga_wins) << row.app;
    EXPECT_GT(arm, x86) << row.app;
  }
}

TEST(BenchmarkSpecTest, BfsReferenceTimesMatchTable4) {
  // x86 column: exact at the measured sizes (piecewise interpolation);
  // FPGA column: quadratic fit, exact at the endpoints and within 8%
  // in between.  x86 wins by orders of magnitude everywhere (§4.4).
  const struct {
    int nodes;
    double x86;
    double fpga;
  } rows[] = {{1000, 3.36, 726.50},
              {2000, 115.74, 2282.54},
              {3000, 256.94, 4981.05},
              {4000, 458.04, 8760.80},
              {5000, 721.48, 13524.76}};
  for (const auto& row : rows) {
    const auto t = bfs_reference_times(row.nodes);
    EXPECT_NEAR(t.x86.to_ms(), row.x86, 1e-6);
    EXPECT_NEAR(t.fpga.to_ms(), row.fpga, 0.08 * row.fpga);
    EXPECT_GT(t.fpga.to_ms(), 15.0 * t.x86.to_ms());
  }
}

TEST(BenchmarkSpecTest, ProfileSpecRoundTrip) {
  const auto specs = paper_benchmarks();
  const auto profile = make_profile_spec(specs);
  const auto again =
      compiler::ProfileSpec::parse_string(profile.serialize());
  EXPECT_EQ(again.applications.size(), 5u);
  EXPECT_EQ(again.platform, "alveo-u50");
}

// --- Application process model -----------------------------------------

struct AppProcessFixture : ::testing::Test {
  std::vector<BenchmarkSpec> specs = paper_benchmarks();
  runtime::ThresholdTable seeded;

  void SetUp() override {
    // Paper Table 2 thresholds (the run-time consumes them as given).
    auto add = [&](const char* app, const char* kernel, int fpga, int arm,
                   double x86_ms, double arm_ms, double fpga_ms) {
      runtime::ThresholdEntry e;
      e.app = app;
      e.kernel_name = kernel;
      e.fpga_threshold = fpga;
      e.arm_threshold = arm;
      e.x86_exec = Duration::ms(x86_ms);
      e.arm_exec = Duration::ms(arm_ms);
      e.fpga_exec = Duration::ms(fpga_ms);
      seeded.upsert(e);
    };
    add("cg_a", "KNL_HW_CG_A", 31, 25, 2182, 8406, 10597);
    add("facedet320", "KNL_HW_FD320", 16, 31, 175, 642, 332);
    add("facedet640", "KNL_HW_FD640", 0, 23, 885, 2991, 832);
    add("digit500", "KNL_HW_DR500", 0, 18, 883, 2281, 470);
    add("digit2000", "KNL_HW_DR200", 0, 17, 3521, 8963, 1229);
  }

  exp::Experiment make(apps::SystemMode mode) {
    exp::ExperimentOptions options;
    options.mode = mode;
    return exp::Experiment(specs, seeded, options);
  }
};

TEST_F(AppProcessFixture, VanillaX86RunsEverythingLocally) {
  auto exp_ = make(SystemMode::kVanillaX86);
  exp_.launch("facedet320");
  ASSERT_TRUE(exp_.run_until_complete(1));
  const auto& r = exp_.results().front();
  EXPECT_EQ(r.func_target, runtime::Target::kX86);
  EXPECT_NEAR(r.elapsed().to_ms(), 175.0, 5.0);
}

TEST_F(AppProcessFixture, VanillaArmIsSlowest) {
  auto exp_ = make(SystemMode::kVanillaArm);
  exp_.launch("facedet320");
  ASSERT_TRUE(exp_.run_until_complete(1));
  const auto& r = exp_.results().front();
  EXPECT_EQ(r.func_target, runtime::Target::kArm);
  // Whole app on ARM: phases * factor + native ARM function (no
  // migration traffic) -- slower than every Table 1 scenario.
  EXPECT_GT(r.elapsed().to_ms(), 642.0);
}

TEST_F(AppProcessFixture, AlwaysFpgaPaysLazyConfiguration) {
  auto exp_ = make(SystemMode::kAlwaysFpga);
  exp_.launch("digit500");
  ASSERT_TRUE(exp_.run_until_complete(1));
  const auto& r = exp_.results().front();
  EXPECT_EQ(r.func_target, runtime::Target::kFpga);
  // Isolation FPGA time (470) plus the blocking XCLBIN configuration
  // (~300ms programming + download).
  EXPECT_GT(r.elapsed().to_ms(), 700.0);
  EXPECT_LT(r.elapsed().to_ms(), 900.0);
}

TEST_F(AppProcessFixture, XarTrekIdleStaysOnX86) {
  auto exp_ = make(SystemMode::kXarTrek);
  exp_.launch("facedet320");  // FPGA_THR 16 > load 1
  ASSERT_TRUE(exp_.run_until_complete(1));
  const auto& r = exp_.results().front();
  EXPECT_EQ(r.func_target, runtime::Target::kX86);
  EXPECT_NEAR(r.elapsed().to_ms(), 175.0, 10.0);
}

TEST_F(AppProcessFixture, XarTrekColdFpgaFirstRunHidesConfiguration) {
  // Algorithm 2 lines 9-13: the kernel is not live when the first
  // digit2000 run reaches its function call (its 50ms pre phase is
  // shorter than the XCLBIN programming), so it continues on x86 while
  // the image loads in the background -- latency hiding, not stalling.
  auto exp_ = make(SystemMode::kXarTrek);
  exp_.launch("digit2000");
  ASSERT_TRUE(exp_.run_until_complete(1));
  EXPECT_EQ(exp_.results().front().func_target, runtime::Target::kX86);
}

TEST_F(AppProcessFixture, XarTrekSendsFpgaFavouredAppToHardware) {
  // digit2000 has FPGA_THR = 0: once the image is live, any load routes
  // it to the FPGA.
  auto exp_ = make(SystemMode::kXarTrek);
  exp_.warm_fpga_for("digit2000");
  exp_.launch("digit2000");
  ASSERT_TRUE(exp_.run_until_complete(1));
  const auto& r = exp_.results().front();
  EXPECT_EQ(r.func_target, runtime::Target::kFpga);
  EXPECT_NEAR(r.elapsed().to_ms(), 1229.0, 62.0);  // Table 1 x86/FPGA
}

TEST_F(AppProcessFixture, XarTrekMigratesToArmUnderHighLoad) {
  auto exp_ = make(SystemMode::kXarTrek);
  exp_.add_background_load(60);
  // Let the load monitor observe the background processes.
  exp_.simulation().run_until(TimePoint::at_ms(250));
  exp_.launch("cg_a");  // load 60 > ARM_THR 25, FPGA_THR 31 < ARM? no:
                        // 31 > 25, so Algorithm 2 picks ARM.
  ASSERT_TRUE(exp_.run_until_complete(1));
  const auto& r = exp_.results().front();
  EXPECT_EQ(r.func_target, runtime::Target::kArm);
  // Far better than x86 under 60-process contention (2182 * 10).
  EXPECT_LT(r.elapsed().to_ms(), 12'000.0);
}

TEST_F(AppProcessFixture, ThresholdRefinementRunsAtExit) {
  auto exp_ = make(SystemMode::kXarTrek);
  exp_.add_background_load(12);
  exp_.simulation().run_until(TimePoint::at_ms(250));
  // facedet320 at load 13 stays on x86 (below FPGA_THR 16) but runs
  // ~13/6 slower than the isolation 175ms, exceeding the stored FPGA
  // time (332): Algorithm 1 lines 4-5 lower FPGA_THR to the observed
  // load.
  exp_.launch("facedet320");
  ASSERT_TRUE(exp_.run_until_complete(1));
  EXPECT_LT(exp_.table().at("facedet320").fpga_threshold, 16);
  EXPECT_EQ(exp_.results().front().func_target, runtime::Target::kX86);
}

// --- Load generator -------------------------------------------------------

TEST(LoadGeneratorTest, MaintainsRequestedLoad) {
  platform::Testbed testbed;
  LoadGenerator gen(testbed, 30);
  EXPECT_EQ(testbed.x86().load(), 30);
  // MG-B runs loop: still 30 resident processes after several runs.
  testbed.simulation().run_until(TimePoint::at_ms(60'000));
  EXPECT_EQ(testbed.x86().load(), 30);
  gen.stop();
  EXPECT_EQ(testbed.x86().load(), 0);
  EXPECT_FALSE(gen.running());
}

TEST(LoadGeneratorTest, StopIsIdempotentAndDestructorSafe) {
  platform::Testbed testbed;
  {
    LoadGenerator gen(testbed, 5);
    gen.stop();
    gen.stop();
  }  // destructor after stop: no crash
  testbed.simulation().run_until(TimePoint::at_ms(1000));
  EXPECT_EQ(testbed.x86().load(), 0);
}

// --- Multi-image app --------------------------------------------------------

TEST_F(AppProcessFixture, MultiImageAppHitsDeadline) {
  auto exp_ = make(SystemMode::kVanillaX86);
  MultiImageConfig config;
  config.target_images = 1000;
  config.deadline = Duration::seconds(60);
  bool done = false;
  MultiImageResult result;
  MultiImageFaceApp::launch(exp_.env(), exp_.spec("facedet320"),
                            SystemMode::kVanillaX86, config,
                            [&](const MultiImageResult& r) {
                              done = true;
                              result = r;
                            });
  const TimePoint horizon = TimePoint::at_ms(120'000);
  while (!done && exp_.simulation().step_one(horizon)) {
  }
  ASSERT_TRUE(done);
  // Per image: 2ms I/O + 150ms detect -> ~394 images in 60s.
  EXPECT_GT(result.images_processed, 350);
  EXPECT_LT(result.images_processed, 420);
  EXPECT_GE(result.elapsed, Duration::seconds(60));
}

TEST_F(AppProcessFixture, MultiImageXarTrekBeatsVanillaUnderLoad) {
  MultiImageConfig config;
  config.target_images = 1000;
  config.deadline = Duration::seconds(60);

  auto run_mode = [&](SystemMode mode) {
    auto exp_ = make(mode);
    exp_.add_background_load(50);
    exp_.simulation().run_until(TimePoint::at_ms(250));
    bool done = false;
    MultiImageResult result;
    MultiImageFaceApp::launch(exp_.env(), exp_.spec("facedet320"), mode,
                              config,
                              [&](const MultiImageResult& r) {
                                done = true;
                                result = r;
                              });
    const TimePoint horizon =
        exp_.simulation().now() + Duration::minutes(10);
    while (!done && exp_.simulation().step_one(horizon)) {
    }
    EXPECT_TRUE(done);
    return result.images_processed;
  };

  const int vanilla = run_mode(SystemMode::kVanillaX86);
  const int xartrek = run_mode(SystemMode::kXarTrek);
  // Paper Figure 6: ~4x gain above 25 background processes.
  EXPECT_GT(xartrek, 3 * vanilla);
}

}  // namespace
}  // namespace xartrek::apps
