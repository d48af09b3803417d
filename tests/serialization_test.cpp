// Tests for the threshold-table text format.
#include <gtest/gtest.h>

#include "apps/benchmark_spec.hpp"
#include "runtime/threshold_table_io.hpp"

namespace xartrek {
namespace {

// --- threshold-table text format ------------------------------------------

TEST(ThresholdTableIoTest, RoundTripsStepGOutput) {
  runtime::ThresholdTable table;
  runtime::ThresholdEntry e;
  e.app = "cg_a";
  e.kernel_name = "KNL_HW_CG_A";
  e.fpga_threshold = 29;
  e.arm_threshold = 23;
  e.x86_exec = Duration::ms(2182);
  e.arm_exec = Duration::ms(8406.5);
  e.fpga_exec = Duration::ms(10597.75);
  table.upsert(e);
  e.app = "digit500";
  e.kernel_name = "KNL_HW_DR500";
  e.fpga_threshold = 0;
  e.arm_threshold = 15;
  table.upsert(e);

  const auto text = runtime::serialize_threshold_table(table);
  const auto parsed = runtime::parse_threshold_table_string(text);
  EXPECT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.at("cg_a").fpga_threshold, 29);
  EXPECT_EQ(parsed.at("cg_a").kernel_name, "KNL_HW_CG_A");
  EXPECT_DOUBLE_EQ(parsed.at("cg_a").fpga_exec.to_ms(), 10597.75);
  EXPECT_EQ(parsed.at("digit500").fpga_threshold, 0);
}

TEST(ThresholdTableIoTest, CommentsAndBlankLinesIgnored) {
  const auto table = runtime::parse_threshold_table_string(
      "# header comment\n\n"
      "app a kernel K fpga_thr 1 arm_thr 2  # trailing comment\n");
  EXPECT_EQ(table.at("a").arm_threshold, 2);
}

class ThresholdTableIoErrorTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ThresholdTableIoErrorTest, RejectsMalformedInput) {
  try {
    (void)runtime::parse_threshold_table_string(GetParam());
    FAIL() << "expected parse failure for: " << GetParam();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ThresholdTableIoErrorTest,
    ::testing::Values(
        "bogus a kernel K fpga_thr 1 arm_thr 2\n",        // keyword
        "app a fpga_thr 1 arm_thr 2\n",                   // missing kernel
        "app a kernel K arm_thr 2\n",                     // missing fpga
        "app a kernel K fpga_thr -3 arm_thr 2\n",          // negative
        "app a kernel K fpga_thr 1 arm_thr 2 wat 9\n",     // unknown key
        "app a kernel K fpga_thr 1 arm_thr 2\n"
        "app a kernel K fpga_thr 1 arm_thr 2\n"));         // duplicate

TEST(ThresholdTableIoTest, EstimatorOutputRoundTrips) {
  // The real step-G artifact survives serialize -> parse intact.
  const auto specs = apps::paper_benchmarks();
  // (Reuse a tiny subset for speed: two apps.)
  std::vector<apps::BenchmarkSpec> two = {specs[1], specs[3]};
  runtime::ThresholdTable table;
  runtime::ThresholdEntry a;
  a.app = two[0].name;
  a.kernel_name = two[0].kernel_name;
  a.fpga_threshold = 11;
  a.arm_threshold = 22;
  table.upsert(a);
  const auto parsed = runtime::parse_threshold_table_string(
      runtime::serialize_threshold_table(table));
  EXPECT_TRUE(parsed.contains(two[0].name));
}

}  // namespace
}  // namespace xartrek
