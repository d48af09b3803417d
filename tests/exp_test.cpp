// Tests for the experiment layer: the step-G threshold estimator
// (Table 2), load classification (Table 3), workload generation, and
// small end-to-end figure experiments.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <set>

#include "apps/multi_image_app.hpp"
#include "common/stats.hpp"
#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "exp/threshold_estimator.hpp"

namespace xartrek::exp {
namespace {

const runtime::ThresholdTable& shared_estimate_table() {
  static const EstimationResult result =
      ThresholdEstimator().estimate(apps::paper_benchmarks());
  return result.table;
}

const EstimationResult& shared_estimate() {
  static const EstimationResult result =
      ThresholdEstimator().estimate(apps::paper_benchmarks());
  return result;
}

TEST(ThresholdEstimatorTest, Table2Shape) {
  const auto& result = shared_estimate();
  ASSERT_EQ(result.rows.size(), 5u);

  auto row = [&](const std::string& app) -> const EstimationRow& {
    for (const auto& r : result.rows) {
      if (r.app == app) return r;
    }
    throw Error("missing row " + app);
  };

  // FPGA-favoured apps: threshold exactly 0 (paper Table 2 rows 3-5).
  EXPECT_EQ(row("facedet640").fpga_threshold, 0);
  EXPECT_EQ(row("digit500").fpga_threshold, 0);
  EXPECT_EQ(row("digit2000").fpga_threshold, 0);

  // CG-A: paper reports FPGA_THR 31, ARM_THR 25; the processor-sharing
  // model derives the crossing load from Table 1 isolation times
  // (10597/2182*6 ~ 29, 8406/2182*6 ~ 23) -- within a few processes.
  EXPECT_NEAR(row("cg_a").fpga_threshold, 31, 3);
  EXPECT_NEAR(row("cg_a").arm_threshold, 25, 3);

  // FaceDet320: paper 16/31; the derived crossings are 332/175*6 ~ 11
  // and 642/175*6 ~ 21 -- same ordering and regime, looser tolerance
  // (the paper's measured thresholds include effects our substrate
  // cannot see, e.g. frequency scaling).
  EXPECT_NEAR(row("facedet320").fpga_threshold, 16, 6);
  EXPECT_NEAR(row("facedet320").arm_threshold, 31, 10);

  // Digit ARM thresholds: paper 18/17, derived ~15.
  EXPECT_NEAR(row("digit500").arm_threshold, 18, 4);
  EXPECT_NEAR(row("digit2000").arm_threshold, 17, 4);

  // Ordering invariants the scheduler relies on: for FPGA-favoured apps
  // FPGA_THR < ARM_THR (Algorithm 2 then picks the FPGA); for CG-A the
  // ARM threshold is the smaller one (ARM is its better escape).
  EXPECT_LT(row("digit2000").fpga_threshold,
            row("digit2000").arm_threshold);
  EXPECT_LT(row("cg_a").arm_threshold, row("cg_a").fpga_threshold);
}

// Step G's exact output on the paper suite: Table 1 times (ms) and
// Table 2 thresholds.  Any drift means the simulation itself moved.
struct PinnedRow {
  const char* app;
  double x86_ms;
  double fpga_ms;
  double arm_ms;
  int fpga_threshold;
  int arm_threshold;
};
constexpr PinnedRow kPinnedEstimate[] = {
    {"cg_a", 2182, 10597.845837860108, 8405.5400000000009, 29, 23},
    {"facedet320", 175, 332.01907755533853, 641.53999847412115, 11, 21},
    {"facedet640", 885, 832.02606608072927, 2990.5400030517576, 0, 20},
    {"digit500", 883, 470.01770401000977, 2280.5700030517578, 0, 15},
    {"digit2000", 3521, 1229.05598429362, 8962.6499972534184, 0, 15},
};

TEST(ThresholdEstimatorTest, RowsPinnedExactly) {
  const auto& rows = shared_estimate().rows;
  ASSERT_EQ(rows.size(), std::size(kPinnedEstimate));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PinnedRow& pin = kPinnedEstimate[i];
    EXPECT_EQ(rows[i].app, pin.app);
    EXPECT_EQ(rows[i].x86_exec.to_ms(), pin.x86_ms) << pin.app;
    EXPECT_EQ(rows[i].fpga_exec.to_ms(), pin.fpga_ms) << pin.app;
    EXPECT_EQ(rows[i].arm_exec.to_ms(), pin.arm_ms) << pin.app;
    EXPECT_EQ(rows[i].fpga_threshold, pin.fpga_threshold) << pin.app;
    EXPECT_EQ(rows[i].arm_threshold, pin.arm_threshold) << pin.app;
  }
}

TEST(ThresholdEstimatorTest, TableMatchesRows) {
  const auto& result = shared_estimate();
  for (const auto& row : result.rows) {
    const auto& entry = result.table.at(row.app);
    EXPECT_EQ(entry.fpga_threshold, row.fpga_threshold);
    EXPECT_EQ(entry.arm_threshold, row.arm_threshold);
    EXPECT_EQ(entry.kernel_name, row.kernel);
    EXPECT_DOUBLE_EQ(entry.x86_exec.to_ms(), row.x86_exec.to_ms());
  }
}

TEST(ThresholdEstimatorTest, LoadSweepIsMonotone) {
  const ThresholdEstimator estimator;
  const auto specs = apps::paper_benchmarks();
  const auto compiled = compile_suite(specs);
  double prev = 0.0;
  for (int load : {1, 6, 12, 24}) {
    const double t =
        estimator.x86_time_under_load(specs, compiled, "facedet320", load)
            .to_ms();
    EXPECT_GE(t, prev);
    prev = t;
  }
  // Beyond the core count, time scales ~linearly with load.
  const double t12 =
      estimator.x86_time_under_load(specs, compiled, "facedet320", 12)
          .to_ms();
  const double t24 =
      estimator.x86_time_under_load(specs, compiled, "facedet320", 24)
          .to_ms();
  EXPECT_NEAR(t24 / t12, 2.0, 0.2);
}

// --- Table 3 ---------------------------------------------------------------

TEST(LoadClassTest, PaperBoundaries) {
  // 6 x86 cores, 102 total.
  EXPECT_EQ(classify_load(1, 6, 102), LoadClass::kLow);
  EXPECT_EQ(classify_load(5, 6, 102), LoadClass::kLow);
  EXPECT_EQ(classify_load(60, 6, 102), LoadClass::kMedium);
  EXPECT_EQ(classify_load(101, 6, 102), LoadClass::kMedium);
  EXPECT_EQ(classify_load(120, 6, 102), LoadClass::kHigh);
}

// --- Workload generation ------------------------------------------------------

TEST(RandomSetTest, DeterministicAndInRange) {
  const auto specs = apps::paper_benchmarks();
  Rng a(99);
  Rng b(99);
  const auto set1 = random_app_set(a, specs, 20);
  const auto set2 = random_app_set(b, specs, 20);
  EXPECT_EQ(set1, set2);
  std::set<std::string> valid;
  for (const auto& s : specs) valid.insert(s.name);
  for (const auto& app : set1) EXPECT_TRUE(valid.contains(app));
}

TEST(RandomSetTest, UniformishCoverage) {
  const auto specs = apps::paper_benchmarks();
  Rng rng(7);
  std::map<std::string, int> counts;
  for (const auto& app : random_app_set(rng, specs, 2000)) ++counts[app];
  for (const auto& s : specs) {
    EXPECT_GT(counts[s.name], 300) << s.name;  // ~400 expected
  }
}

// --- Small end-to-end experiments -----------------------------------------

TEST(FigureExperimentTest, MediumLoadXarTrekBeatsVanilla) {
  // A scaled-down Figure 4 point: one set of 5 apps at 60 processes.
  AvgExecConfig config;
  config.set_sizes = {5};
  config.total_processes = 60;
  config.systems = {apps::SystemMode::kVanillaX86,
                    apps::SystemMode::kXarTrek};
  config.runs = 2;
  const auto result = run_avg_exec_experiment(
      apps::paper_benchmarks(), shared_estimate_table(), config);
  const double vanilla =
      result.cell(apps::SystemMode::kVanillaX86, 5).mean_ms;
  const double xartrek = result.cell(apps::SystemMode::kXarTrek, 5).mean_ms;
  EXPECT_LT(xartrek, vanilla);
}

TEST(FigureExperimentTest, AvgExecCellsPinnedExactly) {
  // A small Figure 4 run on one shared suite: every cell's mean, exact.
  AvgExecConfig config;
  config.set_sizes = {1, 3};
  config.total_processes = 60;
  config.systems = {apps::SystemMode::kVanillaX86, apps::SystemMode::kXarTrek,
                    apps::SystemMode::kVanillaArm,
                    apps::SystemMode::kAlwaysFpga};
  config.runs = 2;
  config.seed = 2021;
  const auto result = run_avg_exec_experiment(
      apps::paper_benchmarks(), shared_estimate_table(), config);
  const struct {
    apps::SystemMode system;
    int set_size;
    double mean_ms;
  } pins[] = {
      {apps::SystemMode::kVanillaX86, 1, 8840},
      {apps::SystemMode::kXarTrek, 1, 1943.3780345662435},
      {apps::SystemMode::kVanillaArm, 1, 2755.4499999999998},
      {apps::SystemMode::kAlwaysFpga, 1, 1373.0218850453696},
      {apps::SystemMode::kVanillaX86, 3, 12849.000000000002},
      {apps::SystemMode::kXarTrek, 3, 2763.186452331543},
      {apps::SystemMode::kVanillaArm, 3, 4121.6666666666661},
      {apps::SystemMode::kAlwaysFpga, 3, 2981.1936097208654},
  };
  ASSERT_EQ(result.cells.size(), std::size(pins));
  for (const auto& pin : pins) {
    EXPECT_EQ(result.cell(pin.system, pin.set_size).mean_ms, pin.mean_ms)
        << apps::to_string(pin.system) << " x" << pin.set_size;
  }
}

TEST(FigureExperimentTest, LowLoadXarTrekCompetitiveWithVanilla) {
  // Figure 3 regime: no background load; Xar-Trek must not lose badly
  // anywhere (it mostly does not migrate, paper §4.1).
  AvgExecConfig config;
  config.set_sizes = {2};
  config.total_processes = 0;
  config.systems = {apps::SystemMode::kVanillaX86,
                    apps::SystemMode::kXarTrek};
  config.runs = 3;
  const auto result = run_avg_exec_experiment(
      apps::paper_benchmarks(), shared_estimate_table(), config);
  const double vanilla =
      result.cell(apps::SystemMode::kVanillaX86, 2).mean_ms;
  const double xartrek = result.cell(apps::SystemMode::kXarTrek, 2).mean_ms;
  EXPECT_LT(xartrek, vanilla * 1.3);
}

TEST(FigureExperimentTest, ProfitabilityMixMonotoneForVanilla) {
  // Scaled-down Figure 9: more CG-A (cheaper per run on x86) lowers the
  // vanilla mean; Xar-Trek beats vanilla on the all-Digit2000 mix.
  ProfitabilityConfig config;
  config.cg_counts = {0, 10};
  config.runs = 1;
  config.total_processes = 120;
  config.systems = {apps::SystemMode::kVanillaX86,
                    apps::SystemMode::kXarTrek};
  const auto result = run_profitability_experiment(
      apps::paper_benchmarks(), shared_estimate_table(), config);
  const double vanilla_digits =
      result.cell(apps::SystemMode::kVanillaX86, 0).mean_ms;
  const double xartrek_digits =
      result.cell(apps::SystemMode::kXarTrek, 0).mean_ms;
  EXPECT_LT(xartrek_digits, vanilla_digits / 2.0);
}

// The Figure 6 and 9 runners simulate each cell once and weigh it
// `runs` times.  That is right only while every run of a cell is the
// same simulation; these references build and run one Experiment per
// run, as the paper's repeated runs do, so a per-run seed or set would
// make them disagree with the runner.
double throughput_reference(const ThroughputConfig& config,
                            apps::SystemMode system, int load) {
  const auto specs = apps::paper_benchmarks();
  const auto compiled = compile_suite(specs);
  RunningStats images;
  for (int run = 0; run < config.runs; ++run) {
    ExperimentOptions options = config.base_options;
    options.mode = system;
    Experiment exp(specs, compiled, shared_estimate_table(), options);
    exp.add_background_load(load);
    bool finished = false;
    apps::MultiImageResult mi_result;
    apps::MultiImageFaceApp::launch(
        exp.env(), apps::benchmark_by_name(specs, config.face_app), system,
        config.image_config,
        [&finished, &mi_result](const apps::MultiImageResult& r) {
          finished = true;
          mi_result = r;
        });
    const TimePoint horizon = exp.simulation().now() +
                              config.image_config.deadline +
                              Duration::minutes(5);
    while (!finished && exp.simulation().step_one(horizon)) {
    }
    EXPECT_TRUE(finished);
    images.add(static_cast<double>(mi_result.images_processed));
  }
  return images.mean();
}

double profitability_reference(const ProfitabilityConfig& config,
                               apps::SystemMode system, int cg) {
  const auto specs = apps::paper_benchmarks();
  const auto compiled = compile_suite(specs);
  RunningStats stats;
  for (int run = 0; run < config.runs; ++run) {
    ExperimentOptions options = config.base_options;
    options.mode = system;
    Experiment exp(specs, compiled, shared_estimate_table(), options);
    exp.add_background_load(config.total_processes - config.set_size);
    for (int i = 0; i < config.set_size; ++i) {
      exp.launch(i < cg ? "cg_a" : "digit2000");
    }
    EXPECT_TRUE(
        exp.run_until_complete(static_cast<std::size_t>(config.set_size)));
    for (const auto& r : exp.results()) stats.add(r.elapsed().to_ms());
  }
  return stats.mean();
}

TEST(FigureExperimentTest, ThroughputCellsEqualSeparateRuns) {
  ThroughputConfig config;
  config.background_loads = {25};
  config.systems = {apps::SystemMode::kVanillaX86, apps::SystemMode::kXarTrek,
                    apps::SystemMode::kAlwaysFpga};
  config.runs = 3;
  const auto result = run_throughput_experiment(
      apps::paper_benchmarks(), shared_estimate_table(), config);
  ASSERT_EQ(result.cells.size(), 3u);
  for (apps::SystemMode system : config.systems) {
    EXPECT_EQ(result.cell(system, 25).mean_images,
              throughput_reference(config, system, 25))
        << apps::to_string(system);
  }
}

TEST(FigureExperimentTest, ProfitabilityCellsEqualSeparateRuns) {
  ProfitabilityConfig config;
  config.cg_counts = {2, 8};
  config.systems = {apps::SystemMode::kVanillaX86,
                    apps::SystemMode::kXarTrek};
  config.runs = 3;
  const auto result = run_profitability_experiment(
      apps::paper_benchmarks(), shared_estimate_table(), config);
  ASSERT_EQ(result.cells.size(), 4u);
  for (int cg : config.cg_counts) {
    for (apps::SystemMode system : config.systems) {
      EXPECT_EQ(result.cell(system, cg).mean_ms,
                profitability_reference(config, system, cg))
          << apps::to_string(system) << " cg " << cg;
    }
  }
}

TEST(FigureExperimentTest, ProfitabilityNeedsRunsAndSystems) {
  // The same preconditions as the throughput runner, checked up front.
  ProfitabilityConfig config;
  config.cg_counts = {0};
  config.systems = {apps::SystemMode::kVanillaX86};
  config.runs = 0;
  EXPECT_THROW((void)run_profitability_experiment(
                   apps::paper_benchmarks(), shared_estimate_table(), config),
               ContractViolation);
  config.runs = 1;
  config.systems.clear();
  EXPECT_THROW((void)run_profitability_experiment(
                   apps::paper_benchmarks(), shared_estimate_table(), config),
               ContractViolation);
}

// The Figure 7 and 8 runners check their config before they simulate
// anything: a zero load step would otherwise re-arm the load controller
// at one instant for ever, and a zero period would feed fmod(t, 0) into
// the load wave.
TEST(FigureExperimentTest, PeriodicExecNeedsSystems) {
  PeriodicExecConfig config;
  EXPECT_THROW((void)run_periodic_exec_experiment(
                   apps::paper_benchmarks(), shared_estimate_table(), config),
               ContractViolation);
}

TEST(FigureExperimentTest, PeriodicTputNeedsSystems) {
  PeriodicTputConfig config;
  EXPECT_THROW((void)run_periodic_throughput_experiment(
                   apps::paper_benchmarks(), shared_estimate_table(), config),
               ContractViolation);
}

TEST(FigureExperimentTest, PeriodicTputNeedsPositiveLoadPeriod) {
  PeriodicTputConfig config;
  config.systems = {apps::SystemMode::kXarTrek};
  config.app_runs = 1;
  config.load_period = Duration::zero();
  EXPECT_THROW((void)run_periodic_throughput_experiment(
                   apps::paper_benchmarks(), shared_estimate_table(), config),
               ContractViolation);
}

TEST(FigureExperimentTest, PeriodicTputNeedsPositiveLoadStep) {
  PeriodicTputConfig config;
  config.systems = {apps::SystemMode::kXarTrek};
  config.app_runs = 1;
  config.load_step_interval = Duration::zero();
  EXPECT_THROW((void)run_periodic_throughput_experiment(
                   apps::paper_benchmarks(), shared_estimate_table(), config),
               ContractViolation);
}

TEST(ExperimentTest, ColdStartStillCompletes) {
  // Ablation 4: no step-G seeding.  Zero thresholds route everything
  // with a resident kernel to the FPGA; runs must still complete.
  ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  Experiment exp(apps::paper_benchmarks(), runtime::ThresholdTable{},
                 options);
  exp.launch("facedet320");
  EXPECT_TRUE(exp.run_until_complete(1));
}

std::array<std::uint64_t, 16> stats_fields(
    const runtime::SchedulerServer::Stats& s) {
  return {s.requests,         s.to_x86,          s.to_arm,
          s.to_fpga,          s.batches,         s.max_batch,
          s.residency_probes, s.heartbeats_sent, s.heartbeats_missed,
          s.late_replies,     s.evictions,       s.reinstatements,
          s.slow_replies,     s.breaker_trips,   s.breaker_closes,
          s.reconfigurations_started};
}

TEST(ExperimentTest, SharedSuiteRunsIdenticallyToOwnCompile) {
  // An Experiment on a compile_suite result and one that compiles for
  // itself must run the same simulation, placement for placement.
  const auto specs = apps::paper_benchmarks();
  ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  Experiment own(specs, shared_estimate_table(), options);
  Experiment shared(specs, compile_suite(specs), shared_estimate_table(),
                    options);
  for (Experiment* exp : {&own, &shared}) {
    exp->add_background_load(60);
    for (int round = 0; round < 2; ++round) {
      for (const auto& s : specs) exp->launch(s.name);
    }
    ASSERT_TRUE(exp->run_until_complete(2 * specs.size()));
  }

  ASSERT_EQ(shared.results().size(), own.results().size());
  for (std::size_t i = 0; i < own.results().size(); ++i) {
    const auto& want = own.results()[i];
    const auto& got = shared.results()[i];
    EXPECT_EQ(got.app, want.app) << i;
    EXPECT_EQ(got.func_target, want.func_target) << i;
    EXPECT_EQ(got.elapsed().to_ms(), want.elapsed().to_ms()) << i;
  }
  EXPECT_GT(own.server().stats().to_fpga, 0u);  // the run did place work
  EXPECT_EQ(stats_fields(shared.server().stats()),
            stats_fields(own.server().stats()));
}

TEST(ExperimentTest, SharedSuiteMustHoldEverySpec) {
  const auto specs = apps::paper_benchmarks();
  EXPECT_THROW(Experiment(specs, nullptr, runtime::ThresholdTable{}),
               ContractViolation);
  auto fewer = specs;
  fewer.pop_back();
  EXPECT_THROW(
      Experiment(specs, compile_suite(fewer), runtime::ThresholdTable{}),
      ContractViolation);
}

TEST(ExperimentTest, BackgroundLoadAdjustable) {
  ExperimentOptions options;
  options.mode = apps::SystemMode::kVanillaX86;
  Experiment exp(apps::paper_benchmarks(), runtime::ThresholdTable{},
                 options);
  exp.set_background_load(40);
  EXPECT_EQ(exp.testbed().x86().load(), 40);
  exp.set_background_load(10);
  EXPECT_EQ(exp.testbed().x86().load(), 10);
  exp.set_background_load(0);
  EXPECT_EQ(exp.testbed().x86().load(), 0);
}

}  // namespace
}  // namespace xartrek::exp
