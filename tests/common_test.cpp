// Unit tests for the common utilities.
#include <gtest/gtest.h>

#include <sstream>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace xartrek {
namespace {

TEST(DurationTest, NamedConstructorsAgree) {
  EXPECT_DOUBLE_EQ(Duration::seconds(1.5).to_ms(), 1500.0);
  EXPECT_DOUBLE_EQ(Duration::minutes(2.0).to_ms(), 120'000.0);
  EXPECT_DOUBLE_EQ(Duration::micros(1500.0).to_ms(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::zero().to_ms(), 0.0);
}

TEST(DurationTest, Arithmetic) {
  const Duration a = Duration::ms(100);
  const Duration b = Duration::ms(40);
  EXPECT_DOUBLE_EQ((a + b).to_ms(), 140.0);
  EXPECT_DOUBLE_EQ((a - b).to_ms(), 60.0);
  EXPECT_DOUBLE_EQ((a * 2.5).to_ms(), 250.0);
  EXPECT_DOUBLE_EQ((2.0 * b).to_ms(), 80.0);
  EXPECT_DOUBLE_EQ((a / 4.0).to_ms(), 25.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_LT(b, a);
  Duration c = a;
  c += b;
  EXPECT_DOUBLE_EQ(c.to_ms(), 140.0);
  c -= a;
  EXPECT_DOUBLE_EQ(c.to_ms(), 40.0);
}

TEST(TimePointTest, PointsAndDurations) {
  const TimePoint t0 = TimePoint::at_ms(1000);
  const TimePoint t1 = t0 + Duration::ms(500);
  EXPECT_DOUBLE_EQ(t1.to_ms(), 1500.0);
  EXPECT_DOUBLE_EQ((t1 - t0).to_ms(), 500.0);
  EXPECT_DOUBLE_EQ((t1 - Duration::ms(250)).to_ms(), 1250.0);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(TimePoint::origin().to_ms(), 0.0);
}

TEST(ContractTest, ExpectsThrowsWithContext) {
  try {
    XAR_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(ContractTest, EnsuresAndAssertDistinguishKinds) {
  EXPECT_THROW(XAR_ENSURES(false), ContractViolation);
  EXPECT_THROW(XAR_ASSERT(false), ContractViolation);
  EXPECT_NO_THROW(XAR_EXPECTS(true));
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.fork();
  // Child stream differs from the parent's continuation.
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (parent.uniform_int(0, 1 << 30) != child.uniform_int(0, 1 << 30)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(StatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StatsTest, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StatsTest, EmptyThrows) {
  RunningStats s;
  EXPECT_THROW((void)s.mean(), ContractViolation);
  EXPECT_THROW((void)s.min(), ContractViolation);
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable t("Demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("== Demo =="), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
}

TEST(TableTest, RowWidthMustMatchHeader) {
  TextTable t("bad");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(TableTest, NumFormatsFixedPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(LogTest, LevelFilteringAndSink) {
  std::vector<std::string> lines;
  Logger log(LogLevel::kInfo, [&lines](LogLevel, std::string_view msg) {
    lines.emplace_back(msg);
  });
  log.debug("hidden ", 1);
  log.info("shown ", 2);
  log.warn("also shown ", 3.5);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "shown 2");
  EXPECT_EQ(lines[1], "also shown 3.5");
}

TEST(LogTest, LazyArgumentsEvaluateOnlyWhenEnabled) {
  std::vector<std::string> lines;
  Logger log(LogLevel::kInfo, [&lines](LogLevel, std::string_view msg) {
    lines.emplace_back(msg);
  });
  int expensive_calls = 0;
  const auto expensive = [&expensive_calls] {
    ++expensive_calls;
    return std::string("rendered");
  };
  log.debug("hidden ", expensive);  // below threshold: never invoked
  EXPECT_EQ(expensive_calls, 0);
  log.info("shown ", expensive);
  EXPECT_EQ(expensive_calls, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "shown rendered");
}

TEST(LogTest, FixedBufferTruncatesOverlongMessages) {
  std::string line;
  Logger log(LogLevel::kInfo, [&line](LogLevel, std::string_view msg) {
    line = std::string(msg);
  });
  const std::string big(2000, 'x');
  log.info("head ", big);
  EXPECT_EQ(line.size(), LogBuffer::kCapacity);
  EXPECT_EQ(line.substr(0, 5), "head ");
  EXPECT_EQ(line.substr(line.size() - 3), "...");
}

TEST(LogTest, FormatsMixedArgumentTypes) {
  std::string line;
  Logger log(LogLevel::kTrace, [&line](LogLevel, std::string_view msg) {
    line = std::string(msg);
  });
  const std::string name = "facedet320";
  log.trace("app=", name, " load=", 17, " ok=", true, " ms=", 2.25,
            " u64=", std::uint64_t{1} << 40);
  EXPECT_EQ(line, "app=facedet320 load=17 ok=true ms=2.25 u64=1099511627776");
}

TEST(LogTest, DefaultLoggerDropsEverything) {
  Logger log;
  EXPECT_FALSE(log.enabled(LogLevel::kWarn));
  log.warn("no sink, no crash");
}

}  // namespace
}  // namespace xartrek
