// Failure injection: the accelerator card goes away.
//
// The multi-tenant premise (paper §1) is that the FPGA is an
// opportunistic escape valve, not a dependency: when the card is
// reclaimed by a paying tenant -- or simply dies -- Xar-Trek must keep
// serving from the CPUs, while the traditional always-FPGA flow has
// nowhere to go.  The health-check tests pin the target-health state
// machine: its late-reply handling, the reinstatement path, the quiet
// loop's steady pairs, wakes and same-instant order, and a gray storm's
// decisions; the link tests pin partition park/replay down to the
// DSM's windowed data path.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/application.hpp"
#include "apps/benchmark_spec.hpp"
#include "common/assert.hpp"
#include "common/hash.hpp"
#include "exp/cluster.hpp"
#include "exp/experiment.hpp"
#include "exp/threshold_estimator.hpp"
#include "fpga/device.hpp"
#include "hw/link.hpp"
#include "obs/registry.hpp"
#include "platform/testbed.hpp"
#include "popcorn/dsm.hpp"
#include "runtime/load_monitor.hpp"
#include "runtime/scheduler_server.hpp"
#include "sim/fault.hpp"
#include "sim/simulation.hpp"

namespace xartrek {
namespace {

const runtime::ThresholdTable& seeded_table() {
  static const runtime::ThresholdTable table =
      exp::ThresholdEstimator().estimate(apps::paper_benchmarks()).table;
  return table;
}

TEST(FpgaOfflineTest, DeviceDropsKernelsAndRejectsLoads) {
  platform::Testbed testbed;
  auto& device = testbed.fpga();

  fpga::XclbinImage image;
  image.id = "img";
  image.size_bytes = 4 << 20;
  fpga::HwKernelConfig k;
  k.name = "K";
  k.clock_mhz = 300;
  k.fixed_cycles = 300'000;
  image.kernels.push_back(k);

  device.reconfigure(image, [](fpga::ReconfigureResult) {});
  testbed.simulation().run_until(TimePoint::at_ms(2000));
  ASSERT_TRUE(device.has_kernel("K"));

  device.set_offline(true);
  EXPECT_FALSE(device.has_kernel("K"));
  EXPECT_EQ(device.loaded_image(), std::nullopt);

  // Reconfiguration requests complete -- reporting the offline drop --
  // and install nothing.
  bool completed = false;
  auto offline_result = fpga::ReconfigureResult::kOk;
  device.reconfigure(image, [&](fpga::ReconfigureResult r) {
    completed = true;
    offline_result = r;
  });
  testbed.simulation().run_until(testbed.simulation().now() +
                                 Duration::seconds(2));
  EXPECT_TRUE(completed);
  EXPECT_EQ(offline_result, fpga::ReconfigureResult::kOfflineDrop);
  EXPECT_FALSE(device.has_kernel("K"));

  // Back online: a fresh download works again and reports success.
  device.set_offline(false);
  auto online_result = fpga::ReconfigureResult::kOfflineDrop;
  device.reconfigure(image,
                     [&](fpga::ReconfigureResult r) { online_result = r; });
  testbed.simulation().run_until(testbed.simulation().now() +
                                 Duration::seconds(2));
  EXPECT_EQ(online_result, fpga::ReconfigureResult::kOk);
  EXPECT_TRUE(device.has_kernel("K"));
}

TEST(FpgaOfflineTest, DeathMidProgrammingInstallsNothing) {
  platform::Testbed testbed;
  auto& device = testbed.fpga();
  fpga::XclbinImage image;
  image.id = "img";
  image.size_bytes = 4 << 20;
  fpga::HwKernelConfig k;
  k.name = "K";
  k.clock_mhz = 300;
  image.kernels.push_back(k);

  bool completed = false;
  auto reported = fpga::ReconfigureResult::kOk;
  device.reconfigure(image, [&](fpga::ReconfigureResult r) {
    completed = true;
    reported = r;
  });
  // Kill the card halfway through the ~300 ms programming.
  testbed.simulation().schedule_at(TimePoint::at_ms(150),
                                   [&device] { device.set_offline(true); });
  testbed.simulation().run_until(TimePoint::at_ms(2000));
  EXPECT_TRUE(completed);
  EXPECT_EQ(reported, fpga::ReconfigureResult::kTornWrite);
  EXPECT_FALSE(device.has_kernel("K"));
  EXPECT_FALSE(device.reconfiguring());
}

TEST(FpgaOfflineTest, OfflineFlapDuringInFlightReconfigure) {
  // The card blips: offline at 150 ms, back at 160 ms -- inside the
  // programming window of a request issued at t=0.  The in-flight
  // request must fail cleanly (the bitstream write was torn) and the
  // recovered card must accept a fresh download.
  platform::Testbed testbed;
  auto& device = testbed.fpga();
  fpga::XclbinImage image;
  image.id = "img";
  image.size_bytes = 4 << 20;
  fpga::HwKernelConfig k;
  k.name = "K";
  k.clock_mhz = 300;
  k.fixed_cycles = 300'000;
  image.kernels.push_back(k);

  bool completed = false;
  auto flapped = fpga::ReconfigureResult::kOk;
  device.reconfigure(image, [&](fpga::ReconfigureResult r) {
    completed = true;
    flapped = r;
  });
  testbed.simulation().schedule_at(TimePoint::at_ms(150),
                                   [&device] { device.set_offline(true); });
  testbed.simulation().schedule_at(TimePoint::at_ms(160),
                                   [&device] { device.set_offline(false); });
  testbed.simulation().run_until(TimePoint::at_ms(2000));
  EXPECT_TRUE(completed);
  EXPECT_EQ(flapped, fpga::ReconfigureResult::kTornWrite);
  EXPECT_FALSE(device.has_kernel("K"));
  EXPECT_FALSE(device.reconfiguring());

  // The flap is over: a fresh download succeeds.
  auto retry = fpga::ReconfigureResult::kOfflineDrop;
  device.reconfigure(image, [&](fpga::ReconfigureResult r) { retry = r; });
  testbed.simulation().run_until(testbed.simulation().now() +
                                 Duration::seconds(2));
  EXPECT_EQ(retry, fpga::ReconfigureResult::kOk);
  EXPECT_TRUE(device.has_kernel("K"));
}

TEST(FpgaOfflineTest, InjectedReconfigureFailureIsOneShot) {
  platform::Testbed testbed;
  auto& device = testbed.fpga();
  fpga::XclbinImage image;
  image.id = "img";
  image.size_bytes = 4 << 20;
  fpga::HwKernelConfig k;
  k.name = "K";
  k.clock_mhz = 300;
  k.fixed_cycles = 300'000;
  image.kernels.push_back(k);

  const std::uint64_t v0 = device.residency_epoch();
  device.inject_reconfigure_failure();
  auto first = fpga::ReconfigureResult::kOk;
  device.reconfigure(image, [&](fpga::ReconfigureResult r) { first = r; });
  testbed.simulation().run_until(TimePoint::at_ms(2000));
  EXPECT_EQ(first, fpga::ReconfigureResult::kInjectedFailure);
  EXPECT_FALSE(device.has_kernel("K"));
  // The failure bumped the residency epoch: stale probe memos that
  // predicted this image must re-check.
  EXPECT_GT(device.residency_epoch(), v0);

  // One-shot: the next attempt programs normally.
  auto second = fpga::ReconfigureResult::kOfflineDrop;
  device.reconfigure(image, [&](fpga::ReconfigureResult r) { second = r; });
  testbed.simulation().run_until(testbed.simulation().now() +
                                 Duration::seconds(2));
  EXPECT_TRUE(succeeded(second));
  EXPECT_TRUE(device.has_kernel("K"));
}

TEST(FpgaOfflineTest, SlotFailuresAreConfinedToTheirSlot) {
  // Virtualized card: a programming failure (injected, or a torn write
  // from an offline blip) must cost only the slot being written, while
  // kernels in the other slots stay resident and callable.
  sim::Simulation sim;
  hw::Link pcie(sim, hw::pcie_gen3());
  fpga::FpgaDevice device(sim, pcie, fpga::alveo_u50_spec());
  device.enable_slots(fpga::SlotConfig{});

  fpga::HwKernelConfig a;
  a.name = "A";
  a.resources = device.slot_capacity() / 2;
  fpga::HwKernelConfig b = a;
  b.name = "B";

  auto a_result = fpga::ReconfigureResult::kOfflineDrop;
  device.reconfigure_slot(0, a, 1,
                          [&](fpga::ReconfigureResult r) { a_result = r; });
  sim.run();
  ASSERT_EQ(a_result, fpga::ReconfigureResult::kOk);
  ASSERT_TRUE(device.has_kernel("A"));

  // Injected one-shot failure lands on slot 1's write: slot 1 stays
  // empty, slot 0's tenant never notices.
  device.inject_reconfigure_failure();
  auto b_result = fpga::ReconfigureResult::kOk;
  device.reconfigure_slot(1, b, 1,
                          [&](fpga::ReconfigureResult r) { b_result = r; });
  sim.run();
  EXPECT_EQ(b_result, fpga::ReconfigureResult::kInjectedFailure);
  EXPECT_EQ(device.slot_kernel(1), std::nullopt);
  EXPECT_TRUE(device.has_kernel("A"));
  EXPECT_EQ(device.residency("A").cus, 1u);

  // An offline blip inside slot 1's programming window tears that
  // write.  The blip also wipes the card (device lost), so slot 0's
  // view must read as stale afterwards -- a memoized decision pass may
  // not keep routing to a kernel the outage removed.
  const fpga::ResidencyView a_view = device.residency("A");
  auto torn = fpga::ReconfigureResult::kOk;
  device.reconfigure_slot(1, b, 1,
                          [&](fpga::ReconfigureResult r) { torn = r; });
  sim.schedule_in(Duration::ms(1.0), [&] { device.set_offline(true); });
  sim.schedule_in(Duration::ms(2.0), [&] { device.set_offline(false); });
  sim.run();
  EXPECT_EQ(torn, fpga::ReconfigureResult::kTornWrite);
  EXPECT_FALSE(device.has_kernel("A"));
  EXPECT_FALSE(device.residency_current(a_view));
  EXPECT_FALSE(device.reconfiguring());

  // Recovered card accepts fresh slot programmings.
  auto again = fpga::ReconfigureResult::kOfflineDrop;
  device.reconfigure_slot(0, a, 1,
                          [&](fpga::ReconfigureResult r) { again = r; });
  sim.run();
  EXPECT_EQ(again, fpga::ReconfigureResult::kOk);
  EXPECT_TRUE(device.has_kernel("A"));
}

TEST(FpgaOfflineTest, OfflineSlotDeviceDropsQueuedProgrammings) {
  // Queued slot requests behind a dead card complete as offline drops,
  // same contract as whole-image mode.
  sim::Simulation sim;
  hw::Link pcie(sim, hw::pcie_gen3());
  fpga::FpgaDevice device(sim, pcie, fpga::alveo_u50_spec());
  device.enable_slots(fpga::SlotConfig{});

  fpga::HwKernelConfig a;
  a.name = "A";
  a.resources = device.slot_capacity() / 2;

  auto first = fpga::ReconfigureResult::kOk;
  auto queued = fpga::ReconfigureResult::kOk;
  device.reconfigure_slot(0, a, 1,
                          [&](fpga::ReconfigureResult r) { first = r; });
  device.reconfigure_slot(1, a, 1,
                          [&](fpga::ReconfigureResult r) { queued = r; });
  // Kill the card while the first write is in flight: it tears, and the
  // queued one is dropped without ever touching the fabric.
  sim.schedule_in(Duration::ms(1.0), [&] { device.set_offline(true); });
  sim.run();
  EXPECT_EQ(first, fpga::ReconfigureResult::kTornWrite);
  EXPECT_EQ(queued, fpga::ReconfigureResult::kOfflineDrop);
  EXPECT_FALSE(device.reconfiguring());
  EXPECT_EQ(device.slot_kernel(0), std::nullopt);
  EXPECT_EQ(device.slot_kernel(1), std::nullopt);
}

TEST(FpgaOfflineTest, XarTrekDegradesToCpuOnlyPlacement) {
  const auto specs = apps::paper_benchmarks();
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::Experiment exp(specs, seeded_table(), options);
  exp.testbed().fpga().set_offline(true);
  exp.add_background_load(60);
  exp.simulation().run_until(TimePoint::at_ms(250));

  // All five apps complete without the FPGA: digit/facedet fall into
  // Algorithm 2's no-kernel branches (x86 or ARM), CG-A to ARM.
  for (const auto& spec : specs) exp.launch(spec.name);
  ASSERT_TRUE(exp.run_until_complete(5));
  for (const auto& r : exp.results()) {
    EXPECT_NE(r.func_target, runtime::Target::kFpga) << r.app;
  }
  EXPECT_EQ(exp.server().stats().to_fpga, 0u);
}

TEST(FpgaOfflineTest, AlwaysFpgaBaselineStallsForever) {
  const auto specs = apps::paper_benchmarks();
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kAlwaysFpga;
  exp::Experiment exp(specs, seeded_table(), options);
  exp.testbed().fpga().set_offline(true);
  exp.launch("digit500");
  // The traditional flow waits for a kernel that will never arrive.
  EXPECT_FALSE(exp.run_until_complete(1, Duration::minutes(5)));
  EXPECT_EQ(exp.completed_apps(), 0u);
}

TEST(FpgaOfflineTest, MidFlightOutageFallsBackToSoftware) {
  // The card dies after the placement decision but before the offload
  // reaches it: the executor's residency re-check falls back to x86
  // instead of crashing or hanging (the benign race of §3.2, plus an
  // outage).
  const auto specs = apps::paper_benchmarks();
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::Experiment exp(specs, seeded_table(), options);
  exp.warm_fpga_for("digit2000");
  exp.add_background_load(30);
  exp.simulation().run_until(exp.simulation().now() + Duration::ms(50));

  exp.launch("digit2000");
  // Kill the card while the app is still in its 50 ms pre phase, after
  // which the (stale-positive) decision may still say FPGA.
  exp.simulation().schedule_in(Duration::ms(60), [&exp] {
    exp.testbed().fpga().set_offline(true);
  });
  ASSERT_TRUE(exp.run_until_complete(1));
  // Completed on a CPU path either via the scheduler's no-kernel branch
  // or the executor fallback.
  EXPECT_NE(exp.results().front().func_target, runtime::Target::kFpga);
}

// --- heartbeat health checks ------------------------------------------------

using TargetHealth = runtime::SchedulerServer::TargetHealth;

TEST(SchedulerHealthTest, TimeoutRacingLateReplyEvictsAndIgnoresReply) {
  // A live card whose ping handler is 25x slow: every reply (5 ms)
  // would land after the 2 ms timeout, so every ping is a miss.  The
  // state machine must stay monotone: a late reply is counted and
  // dropped, never resurrecting the target its own miss just condemned.
  const auto specs = apps::paper_benchmarks();
  exp::Experiment exp(specs, seeded_table());
  auto& server = exp.server();

  server.set_reply_latency_scale(25.0);
  server.start_health_checks();
  EXPECT_TRUE(server.health_checks_active());

  exp.simulation().run_until(TimePoint::at_ms(100));
  EXPECT_FALSE(server.fpga_healthy());  // evicted despite a live card
  EXPECT_EQ(server.stats().evictions, 1u);
  EXPECT_GE(server.stats().late_replies, 5u);
  EXPECT_EQ(server.stats().reinstatements, 0u);

  server.stop_health_checks();
  EXPECT_FALSE(server.health_checks_active());
  EXPECT_TRUE(server.fpga_healthy());  // health off: pinned healthy
}

TEST(SchedulerHealthTest, OfflineCardEvictedThenReinstatedOnRecovery) {
  // Pings leave every 10 ms; a reply lands 0.2 ms later, a miss 2 ms.
  const auto specs = apps::paper_benchmarks();
  exp::Experiment exp(specs, seeded_table());
  auto& server = exp.server();
  auto& sim = exp.simulation();

  server.start_health_checks();
  EXPECT_EQ(server.health(), TargetHealth::kClosed);
  exp.testbed().fpga().set_offline(true);
  // Misses at 12, 22, 32, 42, 52 ms: the second trips the target open,
  // the third evicts it.
  sim.run_until(TimePoint::at_ms(55));
  EXPECT_EQ(server.health(), TargetHealth::kEvicted);
  EXPECT_FALSE(server.fpga_healthy());
  EXPECT_EQ(server.stats().heartbeats_missed, 5u);
  EXPECT_EQ(server.stats().breaker_trips, 1u);
  EXPECT_EQ(server.stats().evictions, 1u);

  exp.testbed().fpga().set_offline(false);
  // The first in-time reply (60.2 ms) reinstates it -- open, not closed.
  sim.run_until(TimePoint::at_ms(61));
  EXPECT_EQ(server.health(), TargetHealth::kOpen);
  EXPECT_TRUE(server.fpga_healthy());
  EXPECT_EQ(server.stats().reinstatements, 1u);
  // 70.2 ms is 18.2 ms after the last gray signal (the 52 ms miss):
  // still inside the 20 ms cooldown.
  sim.run_until(TimePoint::at_ms(71));
  EXPECT_EQ(server.health(), TargetHealth::kOpen);
  // 80.2 ms is the first clean reply past the cooldown: half-open.
  sim.run_until(TimePoint::at_ms(81));
  EXPECT_EQ(server.health(), TargetHealth::kHalfOpen);
  EXPECT_EQ(server.stats().breaker_closes, 0u);
  // The next clean reply closes it.
  sim.run_until(TimePoint::at_ms(91));
  EXPECT_EQ(server.health(), TargetHealth::kClosed);
  EXPECT_EQ(server.stats().breaker_closes, 1u);
  EXPECT_EQ(server.stats().evictions, 1u);
  EXPECT_EQ(server.stats().breaker_trips, 1u);
}

constexpr Duration kPeriod = runtime::SchedulerServer::kHeartbeatPeriod;

/// A registry scalar by name (0 when absent).
double metric(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& s : snap.scalars) {
    if (s.name == name) return s.value;
  }
  return 0.0;
}

struct IdleRun {
  std::uint64_t events = 0;
  std::uint64_t sent = 0;    ///< through stats()
  double sent_metric = 0.0;  ///< through a registry snapshot
};

IdleRun idle_run(int periods, bool health) {
  const auto specs = apps::paper_benchmarks();
  exp::Experiment exp(specs, seeded_table());
  obs::Registry registry;
  exp.server().register_metrics(registry, "sched");
  if (health) exp.server().start_health_checks();
  // Stop between ticks, after the last ping's outcome has resolved.
  exp.simulation().run_until(TimePoint::origin() + kPeriod * (periods + 0.5));
  IdleRun r;
  r.events = exp.simulation().executed_events();
  // The snapshot goes first: stats() settles the stored counters too.
  r.sent_metric = metric(registry.snapshot(), "sched.heartbeats_sent");
  r.sent = exp.server().stats().heartbeats_sent;
  return r;
}

TEST(SchedulerHealthTest, AnsweredPingCostsNoEvents) {
  // A clean reply while closed is steady: after the first tick the loop
  // schedules nothing, yet every ping still counts, read through stats()
  // and the registry alike.
  const std::uint64_t cost =
      idle_run(1, true).events - idle_run(1, false).events;
  EXPECT_LE(cost, 1u);
  for (const int n : {1, 5, 20, 1'000'000}) {
    const IdleRun on = idle_run(n, true);
    EXPECT_EQ(on.events - idle_run(n, false).events, cost) << n << " periods";
    EXPECT_EQ(on.sent, static_cast<std::uint64_t>(n)) << n << " periods";
    EXPECT_EQ(on.sent_metric, static_cast<double>(n)) << n << " periods";
  }
}

// --- quiet heartbeat loop: the steady pairs and their wakes ---------------

using Stats = runtime::SchedulerServer::Stats;

/// Long enough that scheduling each ping would show in the event count.
constexpr std::uint64_t kQuietPeriods = 1'000'000;
/// The chain is exact whole milliseconds here, so this many periods
/// shift every ping by exactly this much.
constexpr double kShiftMs =
    kPeriod.to_ms() * static_cast<double>(kQuietPeriods);

TimePoint shifted(double ms) { return TimePoint::at_ms(kShiftMs + ms); }

/// From 55 ms (between ticks) the target sits in a steady pair: run it
/// kQuietPeriods more periods and check that no event runs, that its
/// health and transition counts hold, and that one ping per period is
/// sent.  Returns the counters before and after.
std::pair<Stats, Stats> run_quiet(exp::Experiment& exp, TargetHealth steady) {
  auto& server = exp.server();
  auto& sim = exp.simulation();
  sim.run_until(TimePoint::at_ms(55));
  EXPECT_EQ(server.health(), steady);
  const std::uint64_t events = sim.executed_events();
  const Stats before = server.stats();
  sim.run_until(shifted(55));
  EXPECT_EQ(sim.executed_events(), events);
  EXPECT_EQ(server.health(), steady);
  const Stats after = server.stats();
  EXPECT_EQ(after.heartbeats_sent - before.heartbeats_sent, kQuietPeriods);
  EXPECT_EQ(after.breaker_trips, before.breaker_trips);
  EXPECT_EQ(after.evictions, before.evictions);
  return {before, after};
}

/// After an input edge at shifted(55), which is not a chain instant:
/// the recovery of OfflineCardEvictedThenReinstatedOnRecovery, shifted
/// by kQuietPeriods periods.  At shifted(70.2) the cooldown must still
/// run from the last skipped gray outcome (shifted(50.8) or
/// shifted(52)), not from the last scheduled one.
void expect_shifted_recovery(exp::Experiment& exp) {
  auto& server = exp.server();
  auto& sim = exp.simulation();
  const std::uint64_t closes = server.stats().breaker_closes;
  sim.run_until(shifted(61));  // first clean reply at shifted(60.2)
  EXPECT_EQ(server.health(), TargetHealth::kOpen);
  sim.run_until(shifted(71));
  EXPECT_EQ(server.health(), TargetHealth::kOpen);
  sim.run_until(shifted(81));  // the first clean reply past the cooldown
  EXPECT_EQ(server.health(), TargetHealth::kHalfOpen);
  sim.run_until(shifted(91));
  EXPECT_EQ(server.health(), TargetHealth::kClosed);
  EXPECT_EQ(server.stats().breaker_closes, closes + 1);
  EXPECT_EQ(server.stats().heartbeats_sent, kQuietPeriods + 9);
}

TEST(SchedulerHealthTest, QuietClosedCleanRepliesWakeOnOffline) {
  const auto specs = apps::paper_benchmarks();
  exp::Experiment exp(specs, seeded_table());
  auto& server = exp.server();
  auto& sim = exp.simulation();
  server.start_health_checks();
  sim.run_until(TimePoint::at_ms(15));
  const std::uint64_t events = sim.executed_events();
  sim.run_until(shifted(15));
  EXPECT_EQ(sim.executed_events(), events);
  EXPECT_EQ(server.stats().heartbeats_sent, kQuietPeriods + 1);
  EXPECT_EQ(server.health(), TargetHealth::kClosed);

  // Off the chain at shifted(15): the loop resumes at shifted(20), and
  // its pings miss at shifted(22), trip at 32 and evict at 42.
  exp.testbed().fpga().set_offline(true);
  sim.run_until(shifted(23));
  EXPECT_EQ(server.health(), TargetHealth::kClosed);
  EXPECT_EQ(server.stats().heartbeats_missed, 1u);
  sim.run_until(shifted(33));
  EXPECT_EQ(server.health(), TargetHealth::kOpen);
  EXPECT_EQ(server.stats().breaker_trips, 1u);
  sim.run_until(shifted(43));
  EXPECT_EQ(server.health(), TargetHealth::kEvicted);
  EXPECT_EQ(server.stats().evictions, 1u);
  EXPECT_EQ(server.stats().heartbeats_sent, kQuietPeriods + 4);
}

TEST(SchedulerHealthTest, QuietOpenSlowRepliesWakeOnRestore) {
  // 0.8 ms replies: in time but slow.  They trip the target at 20.8 ms;
  // from the ping at 30 ms on, each one only restarts the cooldown.
  const auto specs = apps::paper_benchmarks();
  exp::Experiment exp(specs, seeded_table());
  exp.server().set_reply_latency_scale(4.0);
  exp.server().start_health_checks();
  const auto [before, after] = run_quiet(exp, TargetHealth::kOpen);
  EXPECT_EQ(after.slow_replies - before.slow_replies, kQuietPeriods);
  exp.server().set_reply_latency_scale(1.0);
  expect_shifted_recovery(exp);
  EXPECT_EQ(exp.server().stats().reinstatements, 0u);
}

TEST(SchedulerHealthTest, QuietEvictedOfflineMissesWakeOnRecovery) {
  const auto specs = apps::paper_benchmarks();
  exp::Experiment exp(specs, seeded_table());
  exp.server().start_health_checks();
  exp.testbed().fpga().set_offline(true);
  const auto [before, after] = run_quiet(exp, TargetHealth::kEvicted);
  EXPECT_EQ(after.heartbeats_missed - before.heartbeats_missed, kQuietPeriods);
  EXPECT_EQ(after.late_replies, 0u);
  exp.testbed().fpga().set_offline(false);
  expect_shifted_recovery(exp);
  EXPECT_EQ(exp.server().stats().reinstatements, 1u);
}

TEST(SchedulerHealthTest, QuietEvictedLateMissesWakeOnRestore) {
  // 5 ms replies from a live card: every ping is a late miss.
  const auto specs = apps::paper_benchmarks();
  exp::Experiment exp(specs, seeded_table());
  exp.server().set_reply_latency_scale(25.0);
  exp.server().start_health_checks();
  const auto [before, after] = run_quiet(exp, TargetHealth::kEvicted);
  EXPECT_EQ(after.heartbeats_missed - before.heartbeats_missed, kQuietPeriods);
  EXPECT_EQ(after.late_replies - before.late_replies, kQuietPeriods);
  exp.server().set_reply_latency_scale(1.0);
  expect_shifted_recovery(exp);
  EXPECT_EQ(exp.server().stats().reinstatements, 1u);
}

TEST(SchedulerHealthTest, StopSettlesAndFreesTheOfflineWatcher) {
  // stop_health_checks is the third wake edge: the pings before it
  // count, nothing stays scheduled, and the card's one offline watcher
  // is free again -- for a restart, or for another server on the card.
  platform::Testbed testbed;
  runtime::LoadMonitor monitor(testbed.simulation(), testbed.x86());
  runtime::ThresholdTable table;
  auto& device = testbed.fpga();
  auto& sim = testbed.simulation();
  runtime::SchedulerServer server(sim, monitor, device, table, {});
  server.start_health_checks();
  EXPECT_NE(device.offline_watcher(), nullptr);
  sim.run_until(TimePoint::at_ms(105));
  const std::uint64_t events = sim.executed_events();
  server.stop_health_checks();
  EXPECT_EQ(device.offline_watcher(), nullptr);
  sim.run_until(TimePoint::at_ms(1000));
  EXPECT_EQ(sim.executed_events(), events);
  EXPECT_EQ(server.stats().heartbeats_sent, 10u);
  {
    runtime::SchedulerServer second(sim, monitor, device, table, {});
    second.start_health_checks();
    EXPECT_THROW(server.start_health_checks(), ContractViolation);
  }
  // The destructor freed it.
  EXPECT_EQ(device.offline_watcher(), nullptr);
  server.start_health_checks();
  EXPECT_TRUE(server.health_checks_active());
}

/// One cell's health counters: {sent, missed, late, slow, trips,
/// closes, evictions, reinstatements}.
void expect_health_counts(exp::ClusterExperiment& cluster, std::size_t c,
                          const std::array<std::uint64_t, 8>& want) {
  const Stats s = cluster.cell(c).server().stats();
  EXPECT_EQ(s.heartbeats_sent, want[0]) << "cell " << c;
  EXPECT_EQ(s.heartbeats_missed, want[1]) << "cell " << c;
  EXPECT_EQ(s.late_replies, want[2]) << "cell " << c;
  EXPECT_EQ(s.slow_replies, want[3]) << "cell " << c;
  EXPECT_EQ(s.breaker_trips, want[4]) << "cell " << c;
  EXPECT_EQ(s.breaker_closes, want[5]) << "cell " << c;
  EXPECT_EQ(s.evictions, want[6]) << "cell " << c;
  EXPECT_EQ(s.reinstatements, want[7]) << "cell " << c;
}

TEST(SchedulerHealthTest, PlanEdgesOnChainInstantsKeepEagerCounts) {
  // Every kCellSlow edge and the kill fall exactly on ping instants
  // (the chain is 10, 20, ... ms), and cell 3's two windows touch.  A
  // plan edge runs before its instant's ping, as under the eager timer
  // that scheduled every ping: the counts are those of that timer.
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 4;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, seeded_table(), spec, options);
  for (std::size_t c = 0; c < 4; ++c) {
    cluster.submit(c, "facedet320");
    cluster.submit(c, "digit500");
  }
  using Kind = sim::FaultEvent::Kind;
  sim::FaultPlan plan;
  plan.add({Kind::kCellSlow, TimePoint::at_ms(20.0), 0, 0.25,
            TimePoint::at_ms(120.0)});
  plan.add({Kind::kCellSlow, TimePoint::at_ms(30.0), 2, 0.05,
            TimePoint::at_ms(90.0)});
  plan.add({Kind::kCellSlow, TimePoint::at_ms(40.0), 3, 0.25,
            TimePoint::at_ms(60.0)});
  plan.add({Kind::kCellSlow, TimePoint::at_ms(60.0), 3, 0.05,
            TimePoint::at_ms(100.0)});
  plan.add({Kind::kCellKill, TimePoint::at_ms(50.0), 1});
  cluster.apply_fault_plan(plan);
  ASSERT_TRUE(cluster.run_until_jobs_complete());
  // The run stops on a ping instant, whose ping counts.
  EXPECT_EQ(cluster.now(), TimePoint::at_ms(1000.0));

  std::uint64_t hash = kFnvOffset;
  for (const double t : cluster.job_completion_times_ms()) {
    hash = fnv_mix(hash, std::bit_cast<std::uint64_t>(t));
  }
  EXPECT_EQ(hash, 6848471152015563605ull);
  // Recorded with the eager timer.
  expect_health_counts(cluster, 0, {100, 0, 0, 10, 1, 1, 0, 0});
  expect_health_counts(cluster, 1, {100, 95, 0, 0, 1, 0, 1, 0});
  expect_health_counts(cluster, 2, {100, 6, 6, 0, 1, 1, 1, 1});
  expect_health_counts(cluster, 3, {100, 4, 4, 2, 1, 1, 1, 1});
}

TEST(SchedulerHealthTest, CallerEdgeAtChainInstantReachesThatPing) {
  // The one divergence from the eager timer.  run_until(100 ms) ran that
  // timer's ping at 100 ms with the card up, so it would miss first at
  // 112 ms.  The quiet loop has not sent that ping yet: the wake resumes
  // it at 100 ms, one period earlier, and it misses at 102 ms.
  const auto specs = apps::paper_benchmarks();
  exp::Experiment exp(specs, seeded_table());
  auto& server = exp.server();
  server.start_health_checks();
  exp.simulation().run_until(TimePoint::at_ms(100));
  EXPECT_EQ(server.stats().heartbeats_sent, 10u);
  exp.testbed().fpga().set_offline(true);
  exp.simulation().run_until(TimePoint::at_ms(103));
  EXPECT_EQ(server.stats().heartbeats_sent, 10u);
  EXPECT_EQ(server.stats().heartbeats_missed, 1u);
}

TEST(SchedulerHealthTest, GrayStormHealthOutcomesArePinned) {
  // Four cells: one 4x slow (gray, never dead), one 20x slow (replies
  // past the timeout: evicted, then reinstated when the window lifts),
  // one lossy corrupting link, one flaky port, and one kill.  The
  // completion instants and health counters are pinned, so any drift
  // in the health machine's decisions shows up here.
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 4;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, seeded_table(), spec, options);
  for (std::size_t c = 0; c < 4; ++c) {
    cluster.submit(c, "facedet320");
    cluster.submit(c, "digit500");
  }
  using Kind = sim::FaultEvent::Kind;
  sim::FaultPlan plan;
  plan.add({Kind::kCellSlow, TimePoint::at_ms(15.0), 0, 0.25,
            TimePoint::at_ms(120.0)});
  plan.add({Kind::kCellSlow, TimePoint::at_ms(20.0), 2, 0.05,
            TimePoint::at_ms(90.0)});
  plan.add({Kind::kLinkDegraded, TimePoint::at_ms(20.0), 1, 0.3,
            TimePoint::at_ms(200.0)});
  plan.add({Kind::kPortFlaky, TimePoint::at_ms(20.0), 3, 0.5,
            TimePoint::at_ms(250.0)});
  plan.add({Kind::kDsmCorrupt, TimePoint::at_ms(20.0), 1, 0.5,
            TimePoint::at_ms(200.0)});
  plan.add({Kind::kCellKill, TimePoint::at_ms(50.0), 1});
  cluster.apply_fault_plan(plan);
  ASSERT_TRUE(cluster.run_until_jobs_complete());

  std::uint64_t hash = kFnvOffset;
  for (const double t : cluster.job_completion_times_ms()) {
    hash = fnv_mix(hash, std::bit_cast<std::uint64_t>(t));
  }
  runtime::SchedulerServer::Stats sum;
  for (std::size_t c = 0; c < 4; ++c) {
    const auto& s = cluster.cell(c).server().stats();
    sum.slow_replies += s.slow_replies;
    sum.breaker_trips += s.breaker_trips;
    sum.breaker_closes += s.breaker_closes;
    sum.evictions += s.evictions;
    sum.reinstatements += s.reinstatements;
    sum.heartbeats_missed += s.heartbeats_missed;
  }
  EXPECT_EQ(hash, 11589638624144801952ull);
  EXPECT_EQ(sum.slow_replies, 10u);
  EXPECT_EQ(sum.breaker_trips, 3u);
  EXPECT_EQ(sum.breaker_closes, 2u);
  EXPECT_EQ(sum.evictions, 2u);
  EXPECT_EQ(sum.reinstatements, 1u);
  EXPECT_EQ(sum.heartbeats_missed, 102u);
}

// --- link partitions reaching into the DSM window ---------------------------

TEST(LinkPartitionTest, DsmWindowTransfersParkUntilRepair) {
  // A migration burst's page pulls are in the DSM's transfer window
  // when the inter-server link partitions: the pulls park on the link,
  // the reads stall without losing protocol state, and repairing the
  // link drains the window in FIFO order with coherence intact.
  sim::Simulation sim;
  hw::Link eth(sim, hw::ethernet_1gbps());
  popcorn::Dsm dsm(sim, eth,
                   popcorn::Dsm::Config{2, 1 << 20, 4096, 8});

  eth.set_down(true);
  bool done = false;
  std::vector<std::byte> bytes;
  dsm.read(1, 0, 4 * 4096, [&](std::vector<std::byte> b) {
    done = true;
    bytes = std::move(b);
  });
  sim.run();
  EXPECT_FALSE(done);  // parked, not lost
  EXPECT_TRUE(eth.down());
  EXPECT_GT(eth.stats().parked_transfers, 0u);
  dsm.check_invariants();

  eth.set_down(false);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(bytes.size(), 4u * 4096u);
  EXPECT_EQ(eth.parked(), 0u);
  dsm.check_invariants();
}

}  // namespace
}  // namespace xartrek
