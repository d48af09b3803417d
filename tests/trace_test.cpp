// Tests for the experiment trace recorder.
#include <gtest/gtest.h>

#include "exp/trace.hpp"
#include "hw/cpu_cluster.hpp"
#include "sim/simulation.hpp"

namespace xartrek::exp {
namespace {

TEST(TraceTest, SamplesProbesPeriodically) {
  sim::Simulation sim;
  int value = 0;
  TraceRecorder trace(sim, Duration::ms(10));
  trace.add_probe("v", [&value] { return static_cast<double>(value); });
  sim.schedule_at(TimePoint::at_ms(15), [&value] { value = 7; });
  sim.run_until(TimePoint::at_ms(45));

  ASSERT_EQ(trace.sample_count(), 4u);  // t=10,20,30,40
  const auto& s = trace.series("v");
  EXPECT_DOUBLE_EQ(s.values[0], 0.0);
  EXPECT_DOUBLE_EQ(s.values[1], 7.0);
  EXPECT_DOUBLE_EQ(s.values[3], 7.0);
  EXPECT_DOUBLE_EQ(trace.timestamps()[2].to_ms(), 30.0);
}

TEST(TraceTest, Summary) {
  sim::Simulation sim;
  double v = 0.0;
  TraceRecorder trace(sim, Duration::ms(1));
  trace.add_probe("ramp", [&v] { return v++; });
  trace.add_probe("flat", [] { return 5.0; });
  sim.run_until(TimePoint::at_ms(4));

  const auto ramp = trace.summarize("ramp");
  EXPECT_DOUBLE_EQ(ramp.min, 0.0);
  EXPECT_DOUBLE_EQ(ramp.max, 3.0);
  EXPECT_DOUBLE_EQ(ramp.mean, 1.5);
  const auto flat = trace.summarize("flat");
  EXPECT_DOUBLE_EQ(flat.min, 5.0);
  EXPECT_DOUBLE_EQ(flat.max, 5.0);
}

TEST(TraceTest, UnknownSeriesThrows) {
  sim::Simulation sim;
  TraceRecorder trace(sim, Duration::ms(1));
  EXPECT_THROW((void)trace.series("nope"), Error);
}

TEST(TraceTest, TracksClusterLoad) {
  sim::Simulation sim;
  hw::CpuCluster x86(sim, hw::xeon_bronze_3104());
  TraceRecorder trace(sim, Duration::ms(5));
  trace.add_probe("load",
                  [&x86] { return static_cast<double>(x86.load()); });
  sim.schedule_at(TimePoint::at_ms(7), [&x86] {
    for (int i = 0; i < 12; ++i) x86.attach_process();
  });
  sim.schedule_at(TimePoint::at_ms(22), [&x86] {
    for (int i = 0; i < 12; ++i) x86.detach_process();
  });
  sim.run_until(TimePoint::at_ms(30));
  const auto summary = trace.summarize("load");
  EXPECT_DOUBLE_EQ(summary.min, 0.0);
  EXPECT_DOUBLE_EQ(summary.max, 12.0);
}

}  // namespace
}  // namespace xartrek::exp
