// Tests for the IR validation pass, the table-sync broadcast,
// Algorithm-1 boundary conditions, and the threshold->decision property
// that ties step G to the run-time.
#include <gtest/gtest.h>

#include "apps/benchmark_spec.hpp"
#include "compiler/validate.hpp"
#include "exp/experiment.hpp"
#include "exp/threshold_estimator.hpp"
#include "runtime/protocol.hpp"
#include "runtime/scheduler_client.hpp"
#include "runtime/scheduler_server.hpp"

namespace xartrek {
namespace {

// --- IR validation ---------------------------------------------------------

TEST(ValidateIrTest, CleanIrPasses) {
  const auto ir = compiler::make_app_ir("demo", "hot", 400, 150);
  for (const auto& issue : compiler::validate_ir(ir)) {
    EXPECT_NE(issue.severity, compiler::ValidationIssue::Severity::kError)
        << issue.message;
  }
  EXPECT_NO_THROW(compiler::validate_ir_or_throw(ir));
}

TEST(ValidateIrTest, CatchesMissingMain) {
  compiler::AppIr ir;
  ir.name = "x";
  compiler::IrFunction f;
  f.name = "f";
  f.lines_of_code = 10;
  f.ops.int_ops = 10;
  ir.functions.push_back(f);
  EXPECT_THROW(compiler::validate_ir_or_throw(ir), Error);
}

TEST(ValidateIrTest, CatchesDuplicateFunctionsAndUnknownCallees) {
  auto ir = compiler::make_app_ir("demo", "hot", 400, 150);
  ir.functions.push_back(ir.functions[1]);  // duplicate "hot"
  ir.functions[0].call_sites.push_back({"nowhere", 9});
  const auto issues = compiler::validate_ir(ir);
  int errors = 0;
  for (const auto& issue : issues) {
    if (issue.severity == compiler::ValidationIssue::Severity::kError) {
      ++errors;
    }
  }
  EXPECT_GE(errors, 2);
}

TEST(ValidateIrTest, RuntimeHooksAreExempt) {
  auto ir = compiler::make_app_ir("demo", "hot", 400, 150);
  ir.functions[0].call_sites.push_back({"__xar_client_init", 10});
  EXPECT_NO_THROW(compiler::validate_ir_or_throw(ir));
}

TEST(ValidateIrTest, WarnsOnRecursion) {
  auto ir = compiler::make_app_ir("demo", "hot", 400, 150);
  ir.find_mutable("hot")->call_sites.push_back({"hot", 0});
  bool warned = false;
  for (const auto& issue : compiler::validate_ir(ir)) {
    if (issue.severity == compiler::ValidationIssue::Severity::kWarning &&
        issue.message.find("recursive") != std::string::npos) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
}

TEST(ValidateIrTest, DuplicateCallSiteIdsRejected) {
  auto ir = compiler::make_app_ir("demo", "hot", 400, 150);
  ir.functions[0].call_sites.push_back({"load_input", 0});  // id 0 reused
  EXPECT_THROW(compiler::validate_ir_or_throw(ir), Error);
}

// --- table-sync broadcast ----------------------------------------------------

TEST(TableBroadcastTest, EveryRowArrivesIntact) {
  const auto specs = apps::paper_benchmarks();
  const auto estimation = exp::ThresholdEstimator().estimate(specs);
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::Experiment exp(specs, estimation.table, options);

  const auto frames = exp.server().broadcast_table();
  ASSERT_EQ(frames.size(), 5u);
  runtime::ThresholdTable mirror;
  for (const auto& frame : frames) {
    const auto msg = runtime::decode_message(frame);
    ASSERT_TRUE(std::holds_alternative<runtime::TableSyncMsg>(msg));
    mirror.upsert(std::get<runtime::TableSyncMsg>(msg).entry);
  }
  for (const auto& app : exp.table().app_names()) {
    EXPECT_EQ(mirror.at(app).fpga_threshold,
              exp.table().at(app).fpga_threshold);
    EXPECT_EQ(mirror.at(app).arm_threshold,
              exp.table().at(app).arm_threshold);
  }
}

// --- Algorithm 1 boundary grid ------------------------------------------------

struct Algo1Case {
  runtime::Target executed;
  double exec_ms;
  int load;
  runtime::ThresholdUpdate expect;
};

class Algorithm1BoundaryTest : public ::testing::TestWithParam<Algo1Case> {};

TEST_P(Algorithm1BoundaryTest, BranchesExactlyAsPublished) {
  // Row under test: x86 175 / ARM 642 / FPGA 332, thresholds 16 / 31.
  runtime::ThresholdTable table;
  runtime::ThresholdEntry e;
  e.app = "face";
  e.kernel_name = "K";
  e.fpga_threshold = 16;
  e.arm_threshold = 31;
  e.x86_exec = Duration::ms(175);
  e.arm_exec = Duration::ms(642);
  e.fpga_exec = Duration::ms(332);
  table.upsert(e);
  runtime::SchedulerClient client(table);

  const auto& c = GetParam();
  EXPECT_EQ(client.on_function_return(
                {"face", c.executed, Duration::ms(c.exec_ms), c.load}),
            c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, Algorithm1BoundaryTest,
    ::testing::Values(
        // Exactly at the stored FPGA time: NOT greater -> falls through.
        Algo1Case{runtime::Target::kX86, 332.0, 10,
                  runtime::ThresholdUpdate::kRecordedX86Exec},
        // Just above, load exactly at FPGA_THR: NOT below -> ARM branch
        // (642 not exceeded) -> records.
        Algo1Case{runtime::Target::kX86, 333.0, 16,
                  runtime::ThresholdUpdate::kRecordedX86Exec},
        // Just above, load below: lowers FPGA_THR.
        Algo1Case{runtime::Target::kX86, 333.0, 15,
                  runtime::ThresholdUpdate::kLoweredFpgaThreshold},
        // Above ARM time, load between thresholds: lowers ARM_THR.
        Algo1Case{runtime::Target::kX86, 643.0, 20,
                  runtime::ThresholdUpdate::kLoweredArmThreshold},
        // Above both with load below FPGA_THR: FPGA branch wins (it is
        // checked first in the published pseudocode).
        Algo1Case{runtime::Target::kX86, 700.0, 10,
                  runtime::ThresholdUpdate::kLoweredFpgaThreshold},
        // ARM run exactly at the stored x86 time: not greater ->
        // recorded only.
        Algo1Case{runtime::Target::kArm, 175.0, 40,
                  runtime::ThresholdUpdate::kRecordedOnly},
        Algo1Case{runtime::Target::kArm, 176.0, 40,
                  runtime::ThresholdUpdate::kRaisedArmThreshold},
        Algo1Case{runtime::Target::kFpga, 175.0, 40,
                  runtime::ThresholdUpdate::kRecordedOnly},
        Algo1Case{runtime::Target::kFpga, 176.0, 40,
                  runtime::ThresholdUpdate::kRaisedFpgaThreshold}));

// --- thresholds -> decisions (the step-G / Algorithm-2 contract) -------------

class ThresholdDecisionTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ThresholdDecisionTest, RuntimeHonorsEstimatedThresholds) {
  static const auto specs = apps::paper_benchmarks();
  static const auto estimation =
      exp::ThresholdEstimator().estimate(specs);
  const std::string app = GetParam();
  const auto& entry = estimation.table.at(app);

  auto decide_at_load = [&](int background) {
    exp::ExperimentOptions options;
    options.mode = apps::SystemMode::kXarTrek;
    exp::Experiment exp(specs, estimation.table, options);
    exp.warm_fpga_for(app);
    exp.add_background_load(background);
    exp.simulation().run_until(exp.simulation().now() + Duration::ms(50));
    exp.launch(app);
    XAR_ASSERT(exp.run_until_complete(1));
    return exp.results().front().func_target;
  };

  // Sufficiently below every threshold: stays on x86.  (Load includes
  // the app itself, so background = threshold - 2.)
  const int lo =
      std::max(0, std::min(entry.fpga_threshold, entry.arm_threshold) - 2);
  if (lo >= 0 && std::min(entry.fpga_threshold, entry.arm_threshold) > 1) {
    EXPECT_EQ(decide_at_load(lo), runtime::Target::kX86) << app << " low";
  }

  // Far above both thresholds: migrates to the faster escape target
  // (the smaller threshold, Algorithm 2 lines 25-31).
  const int hi =
      std::max(entry.fpga_threshold, entry.arm_threshold) + 20;
  const runtime::Target expected =
      entry.fpga_threshold < entry.arm_threshold ? runtime::Target::kFpga
                                                 : runtime::Target::kArm;
  EXPECT_EQ(decide_at_load(hi), expected) << app << " high";
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ThresholdDecisionTest,
                         ::testing::Values("cg_a", "facedet320",
                                           "facedet640", "digit500",
                                           "digit2000"));

}  // namespace
}  // namespace xartrek
