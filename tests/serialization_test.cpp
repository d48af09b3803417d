// Tests for the serialization layers: the scheduler wire protocol and
// the threshold-table text format.
#include <gtest/gtest.h>

#include "apps/benchmark_spec.hpp"
#include "common/rng.hpp"
#include "runtime/protocol.hpp"
#include "runtime/threshold_table_io.hpp"

namespace xartrek {
namespace {

using runtime::decode_message;
using runtime::encode_message;
using runtime::Message;
using runtime::MessageType;
using runtime::peek_message_type;

// --- wire protocol -------------------------------------------------------

TEST(ProtocolTest, PlacementRequestRoundTrip) {
  runtime::PlacementRequestMsg msg{"digit2000", "KNL_HW_DR200", 4242};
  const auto bytes = encode_message(msg);
  EXPECT_EQ(peek_message_type(bytes), MessageType::kPlacementRequest);
  const auto decoded = decode_message(bytes);
  ASSERT_TRUE(std::holds_alternative<runtime::PlacementRequestMsg>(decoded));
  EXPECT_EQ(std::get<runtime::PlacementRequestMsg>(decoded), msg);
}

TEST(ProtocolTest, PlacementReplyRoundTrip) {
  runtime::PlacementReplyMsg msg{runtime::Target::kFpga, true, 67};
  const auto decoded = decode_message(encode_message(msg));
  ASSERT_TRUE(std::holds_alternative<runtime::PlacementReplyMsg>(decoded));
  EXPECT_EQ(std::get<runtime::PlacementReplyMsg>(decoded), msg);
}

TEST(ProtocolTest, ThresholdReportRoundTrip) {
  runtime::ThresholdReportMsg msg{"cg_a", runtime::Target::kArm, 8406.25,
                                  120};
  const auto decoded = decode_message(encode_message(msg));
  ASSERT_TRUE(std::holds_alternative<runtime::ThresholdReportMsg>(decoded));
  EXPECT_EQ(std::get<runtime::ThresholdReportMsg>(decoded), msg);
}

TEST(ProtocolTest, TableSyncRoundTrip) {
  runtime::TableSyncMsg msg;
  msg.entry.app = "facedet320";
  msg.entry.kernel_name = "KNL_HW_FD320";
  msg.entry.fpga_threshold = 16;
  msg.entry.arm_threshold = 31;
  msg.entry.x86_exec = Duration::ms(175);
  msg.entry.arm_exec = Duration::ms(642);
  msg.entry.fpga_exec = Duration::ms(332);
  const auto decoded = decode_message(encode_message(msg));
  ASSERT_TRUE(std::holds_alternative<runtime::TableSyncMsg>(decoded));
  EXPECT_EQ(std::get<runtime::TableSyncMsg>(decoded), msg);
}

TEST(ProtocolTest, EmptyStringsSurvive) {
  runtime::PlacementRequestMsg msg{"", "", 0};
  const auto decoded = decode_message(encode_message(msg));
  EXPECT_EQ(std::get<runtime::PlacementRequestMsg>(decoded), msg);
}

TEST(ProtocolTest, RejectsBadMagicVersionType) {
  auto bytes = encode_message(
      runtime::PlacementRequestMsg{"a", "k", 1});
  auto corrupt = bytes;
  corrupt[0] = std::byte{0x00};  // magic
  EXPECT_THROW((void)decode_message(corrupt), Error);
  corrupt = bytes;
  corrupt[2] = std::byte{99};  // version
  EXPECT_THROW((void)decode_message(corrupt), Error);
  corrupt = bytes;
  corrupt[3] = std::byte{42};  // type
  EXPECT_THROW((void)decode_message(corrupt), Error);
}

TEST(ProtocolTest, RejectsTruncationAndTrailing) {
  const auto bytes =
      encode_message(runtime::ThresholdReportMsg{"app", runtime::Target::kX86,
                                                 1.0, 2});
  // Truncated payload.
  std::vector<std::byte> shorter(bytes.begin(), bytes.end() - 3);
  EXPECT_THROW((void)decode_message(shorter), Error);
  // Header alone.
  std::vector<std::byte> header_only(bytes.begin(),
                                     bytes.begin() + 4);
  EXPECT_THROW((void)decode_message(header_only), Error);
  // Trailing garbage (length field no longer matches).
  auto longer = bytes;
  longer.push_back(std::byte{0xAA});
  EXPECT_THROW((void)decode_message(longer), Error);
}

TEST(ProtocolTest, RejectsInvalidTargetId) {
  auto bytes = encode_message(
      runtime::PlacementReplyMsg{runtime::Target::kX86, false, 0});
  bytes[runtime::kHeaderBytes] = std::byte{7};  // bogus target
  EXPECT_THROW((void)decode_message(bytes), Error);
}

// Property: every message type round-trips through encode/decode.
class ProtocolRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(ProtocolRoundTripTest, RandomizedMessagesRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 50; ++i) {
    const auto pick = rng.uniform_int(0, 3);
    Message msg;
    const std::string name = "app" + std::to_string(rng.uniform_int(0, 999));
    switch (pick) {
      case 0:
        msg = runtime::PlacementRequestMsg{
            name, "KNL_" + name,
            static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20))};
        break;
      case 1:
        msg = runtime::PlacementReplyMsg{
            static_cast<runtime::Target>(rng.uniform_int(0, 2)),
            rng.bernoulli(0.5),
            static_cast<std::int32_t>(rng.uniform_int(0, 4096))};
        break;
      case 2:
        msg = runtime::ThresholdReportMsg{
            name, static_cast<runtime::Target>(rng.uniform_int(0, 2)),
            rng.uniform_real(0.0, 1e6),
            static_cast<std::int32_t>(rng.uniform_int(0, 4096))};
        break;
      default: {
        runtime::TableSyncMsg sync;
        sync.entry.app = name;
        sync.entry.kernel_name = "KNL_" + name;
        sync.entry.fpga_threshold =
            static_cast<int>(rng.uniform_int(0, 128));
        sync.entry.arm_threshold = static_cast<int>(rng.uniform_int(0, 128));
        sync.entry.x86_exec = Duration::ms(rng.uniform_real(0, 1e5));
        sync.entry.arm_exec = Duration::ms(rng.uniform_real(0, 1e5));
        sync.entry.fpga_exec = Duration::ms(rng.uniform_real(0, 1e5));
        msg = sync;
      }
    }
    const auto decoded = decode_message(encode_message(msg));
    EXPECT_EQ(decoded.index(), msg.index());
    EXPECT_TRUE(decoded == msg);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolRoundTripTest,
                         ::testing::Range(1, 7));

// Property: the single-pass scratch-buffer encoder produces exactly the
// bytes of the allocating encoder, for randomized messages reusing ONE
// buffer across the whole sequence (the per-connection pattern).
TEST(ProtocolTest, EncodeIntoReusedScratchMatchesEncodeMessage) {
  Rng rng(99);
  std::vector<std::byte> scratch;
  for (int i = 0; i < 200; ++i) {
    Message msg;
    const std::string name =
        std::string(static_cast<std::size_t>(rng.uniform_int(0, 40)), 'x') +
        std::to_string(rng.uniform_int(0, 999));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        msg = runtime::PlacementRequestMsg{
            name, "KNL_" + name,
            static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20))};
        break;
      case 1:
        msg = runtime::PlacementReplyMsg{
            static_cast<runtime::Target>(rng.uniform_int(0, 2)),
            rng.bernoulli(0.5),
            static_cast<std::int32_t>(rng.uniform_int(0, 4096))};
        break;
      case 2:
        msg = runtime::ThresholdReportMsg{
            name, static_cast<runtime::Target>(rng.uniform_int(0, 2)),
            rng.uniform_real(0.0, 1e6),
            static_cast<std::int32_t>(rng.uniform_int(0, 4096))};
        break;
      default: {
        runtime::TableSyncMsg sync;
        sync.entry.app = name;
        sync.entry.kernel_name = "KNL_" + name;
        sync.entry.fpga_threshold = static_cast<int>(rng.uniform_int(0, 128));
        sync.entry.arm_threshold = static_cast<int>(rng.uniform_int(0, 128));
        sync.entry.x86_exec = Duration::ms(rng.uniform_real(0, 1e5));
        msg = sync;
      }
    }
    runtime::encode_message_into(msg, scratch);
    EXPECT_EQ(scratch, encode_message(msg));
    EXPECT_TRUE(decode_message(scratch) == msg);
  }
}

TEST(ProtocolTest, EncodeTableSyncIntoMatchesMessagePath) {
  runtime::ThresholdEntry e;
  e.app = "cg_a";
  e.kernel_name = "KNL_HW_CG_A";
  e.fpga_threshold = 29;
  e.arm_threshold = 23;
  e.x86_exec = Duration::ms(2182);
  e.arm_exec = Duration::ms(8406.5);
  e.fpga_exec = Duration::ms(10597.75);
  std::vector<std::byte> direct;
  runtime::encode_table_sync_into(e, direct);
  runtime::TableSyncMsg msg;
  msg.entry = e;
  EXPECT_EQ(direct, encode_message(msg));
  // The scratch overload clears previous contents.
  runtime::encode_table_sync_into(e, direct);
  EXPECT_EQ(direct, encode_message(msg));
}

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
