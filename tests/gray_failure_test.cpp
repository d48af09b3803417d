// Gray-failure resilience: degraded fault kinds, the reliability layer
// (frame checksums, ReliableChannel retry/backoff/dedup), graceful
// scheduler degradation (circuit breaker, slot quarantine), and the
// cluster-level invariants under a mixed gray plan -- conservation,
// serial/parallel trace identity, and the empty-plan bit-identical
// no-op.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/benchmark_spec.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "exp/cluster.hpp"
#include "exp/threshold_estimator.hpp"
#include "fpga/device.hpp"
#include "fpga/slots.hpp"
#include "hw/link.hpp"
#include "hw/reliable_channel.hpp"
#include "obs/registry.hpp"
#include "sim/cell_ring.hpp"
#include "sim/fault.hpp"
#include "sim/simulation.hpp"

namespace xartrek {
namespace {

const runtime::ThresholdTable& shared_table() {
  static const exp::EstimationResult result =
      exp::ThresholdEstimator().estimate(apps::paper_benchmarks());
  return result.table;
}

// --- fault model ------------------------------------------------------------

TEST(GrayFaultPlanTest, CountAndToStringCoverDegradedKinds) {
  sim::FaultPlan plan;
  plan.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(10.0), 0,
            0.25, TimePoint::at_ms(20.0)});
  plan.add({sim::FaultEvent::Kind::kLinkDegraded, TimePoint::at_ms(10.0), 1,
            0.3, TimePoint::at_ms(20.0)});
  plan.add({sim::FaultEvent::Kind::kPortFlaky, TimePoint::at_ms(10.0), 0,
            0.5, TimePoint::at_ms(20.0)});
  plan.add({sim::FaultEvent::Kind::kDsmCorrupt, TimePoint::at_ms(10.0), 0,
            0.5, TimePoint::at_ms(20.0)});
  EXPECT_EQ(plan.count(sim::FaultEvent::Kind::kCellSlow), 1u);
  EXPECT_EQ(plan.count(sim::FaultEvent::Kind::kLinkDegraded), 1u);
  EXPECT_EQ(plan.count(sim::FaultEvent::Kind::kPortFlaky), 1u);
  EXPECT_EQ(plan.count(sim::FaultEvent::Kind::kDsmCorrupt), 1u);
  EXPECT_EQ(plan.count(sim::FaultEvent::Kind::kCellKill), 0u);
  EXPECT_STREQ(sim::to_string(sim::FaultEvent::Kind::kCellSlow),
               "cell-slow");
  EXPECT_STREQ(sim::to_string(sim::FaultEvent::Kind::kLinkDegraded),
               "link-degraded");
  EXPECT_STREQ(sim::to_string(sim::FaultEvent::Kind::kPortFlaky),
               "port-flaky");
  EXPECT_STREQ(sim::to_string(sim::FaultEvent::Kind::kDsmCorrupt),
               "dsm-corrupt");
  EXPECT_TRUE(plan.validate(2, 2));
}

TEST(GrayFaultPlanTest, ValidateRejectsBadVictimsWindowsAndMagnitudes) {
  std::string error;

  sim::FaultPlan cell_range;
  cell_range.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(1.0),
                  5});
  EXPECT_FALSE(cell_range.validate(4, 4, &error));
  EXPECT_NE(error.find("cell index"), std::string::npos);

  sim::FaultPlan link_range;
  link_range.add({sim::FaultEvent::Kind::kLinkDegraded,
                  TimePoint::at_ms(1.0), 4, 0.3, TimePoint::at_ms(2.0)});
  EXPECT_FALSE(link_range.validate(8, 4, &error));
  EXPECT_NE(error.find("link index"), std::string::npos);

  sim::FaultPlan empty_window;
  empty_window.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(5.0),
                    0, 0.25, TimePoint::at_ms(5.0)});
  EXPECT_FALSE(empty_window.validate(4, 4, &error));
  EXPECT_NE(error.find("until"), std::string::npos);

  sim::FaultPlan bad_probability;
  bad_probability.add({sim::FaultEvent::Kind::kDsmCorrupt,
                       TimePoint::at_ms(1.0), 0, 1.5,
                       TimePoint::at_ms(2.0)});
  EXPECT_FALSE(bad_probability.validate(4, 4, &error));

  sim::FaultPlan bad_slowdown;
  bad_slowdown.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(1.0),
                    0, 0.0, TimePoint::at_ms(2.0)});
  EXPECT_FALSE(bad_slowdown.validate(4, 4, &error));

  // Two windows of one kind on one target must not overlap: the first
  // one's lift would restore nominal inside the second.  Touching is
  // fine -- the earlier lift applies first.
  sim::FaultPlan overlapping;
  overlapping.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(10.0),
                   0, 0.25, TimePoint::at_ms(100.0)});
  overlapping.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(50.0),
                   0, 0.5, TimePoint::at_ms(200.0)});
  EXPECT_FALSE(overlapping.validate(4, 4, &error));
  EXPECT_NE(error.find("[50.000000, 200.000000] ms"), std::string::npos)
      << error;
  EXPECT_NE(error.find("[10.000000, 100.000000] ms"), std::string::npos)
      << error;
  sim::FaultPlan touching;
  touching.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(10.0), 0,
                0.25, TimePoint::at_ms(50.0)});
  touching.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(50.0), 0,
                0.5, TimePoint::at_ms(200.0)});
  // Other targets and other kinds may overlap freely.
  touching.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(20.0), 1,
                0.5, TimePoint::at_ms(200.0)});
  touching.add({sim::FaultEvent::Kind::kPortFlaky, TimePoint::at_ms(20.0), 0,
                0.5, TimePoint::at_ms(200.0)});
  EXPECT_TRUE(touching.validate(4, 4, &error)) << error;

  // The binary kinds ignore magnitude/until entirely.
  sim::FaultPlan binary;
  binary.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(1.0), 3});
  EXPECT_TRUE(binary.validate(4, 4));

  // Kills must leave a cell alive: drained jobs circle the ring until
  // they land on one.  Killing a cell twice still counts one cell.
  sim::FaultPlan all_killed;
  all_killed.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(1.0), 0});
  all_killed.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(2.0), 0});
  EXPECT_TRUE(all_killed.validate(2, 2, &error)) << error;
  all_killed.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(3.0), 1});
  EXPECT_FALSE(all_killed.validate(2, 2, &error));
  EXPECT_NE(error.find("last live cell"), std::string::npos) << error;

  // A one-cell cluster has no ring neighbor to drain to: it takes no
  // kill and no drain corruption, though it takes the other cell kinds.
  sim::FaultPlan lone_kill;
  lone_kill.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(1.0), 0});
  EXPECT_FALSE(lone_kill.validate(1, 0, &error));
  EXPECT_NE(error.find("ring neighbor"), std::string::npos) << error;
  sim::FaultPlan lone_corrupt;
  lone_corrupt.add({sim::FaultEvent::Kind::kDsmCorrupt,
                    TimePoint::at_ms(1.0), 0, 0.5, TimePoint::at_ms(2.0)});
  EXPECT_FALSE(lone_corrupt.validate(1, 0, &error));
  EXPECT_NE(error.find("ring neighbor"), std::string::npos) << error;
  sim::FaultPlan lone_gray;
  lone_gray.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(1.0), 0,
                 0.25, TimePoint::at_ms(2.0)});
  lone_gray.add({sim::FaultEvent::Kind::kPortFlaky, TimePoint::at_ms(1.0), 0,
                 0.5, TimePoint::at_ms(2.0)});
  lone_gray.add({sim::FaultEvent::Kind::kReconfigureFail,
                 TimePoint::at_ms(1.0), 0});
  EXPECT_TRUE(lone_gray.validate(1, 0, &error)) << error;
}

// --- reliable channel over a degraded link ----------------------------------

TEST(ReliableChannelTest, RetriesThroughDropsAndDeliversExactlyOnce) {
  sim::Simulation sim;
  hw::Link link(sim, hw::LinkSpec{"lossy", 1.0, Duration::micros(100)});
  // Every other frame vanishes, on average.
  link.set_degraded(1.0, 0.5, Rng(11));

  hw::ReliableChannel::Options opts;
  opts.timeout = Duration::ms(2.0);
  opts.max_attempts = 24;  // residual loss 0.5^24: never in this test
  hw::ReliableChannel channel(sim, link, opts, Rng(7));

  constexpr std::uint64_t kMessages = 20;
  std::uint64_t delivered = 0;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    channel.send(1024, [&delivered] { ++delivered; });
  }
  sim.run();

  EXPECT_EQ(delivered, kMessages);
  EXPECT_EQ(channel.stats().delivered, kMessages);
  EXPECT_EQ(channel.stats().abandoned, 0u);
  EXPECT_EQ(channel.in_flight(), 0u);
  // The loss actually happened and was re-sent around.
  EXPECT_GT(link.stats().dropped_transfers, 0u);
  EXPECT_GT(channel.stats().retries, 0u);
  EXPECT_EQ(channel.stats().attempts,
            kMessages + channel.stats().retries);
}

TEST(ReliableChannelTest, SlowCopiesSuppressedAsDuplicates) {
  sim::Simulation sim;
  hw::Link link(sim, hw::LinkSpec{"slow", 1.0, Duration::ms(1.0)});
  // No loss, but 4x latency: every first copy overshoots the deadline,
  // the retry races it, and the loser must be swallowed.
  link.set_degraded(4.0, 0.0, Rng(3));

  hw::ReliableChannel::Options opts;
  opts.timeout = Duration::ms(2.0);
  hw::ReliableChannel channel(sim, link, opts, Rng(9));

  std::uint64_t delivered = 0;
  channel.send(512, [&delivered] { ++delivered; });
  sim.run();

  EXPECT_EQ(delivered, 1u);  // exactly once despite multiple copies
  EXPECT_EQ(channel.stats().delivered, 1u);
  EXPECT_GT(channel.stats().timeouts, 0u);
  EXPECT_GT(channel.stats().duplicates_suppressed, 0u);
  EXPECT_EQ(link.stats().dropped_transfers, 0u);
}

TEST(ReliableChannelTest, AbandonedMessageIsReportedToTheSender) {
  sim::Simulation sim;
  hw::Link link(sim, hw::LinkSpec{"dead", 1.0, Duration::micros(100)});
  link.set_degraded(1.0, 1.0, Rng(5));  // every frame vanishes

  hw::ReliableChannel::Options opts;
  opts.timeout = Duration::ms(2.0);
  opts.max_attempts = 3;
  hw::ReliableChannel channel(sim, link, opts, Rng(7));

  std::uint64_t delivered = 0;
  std::uint64_t abandoned = 0;
  double abandoned_at = -1.0;
  channel.send(
      256, [&delivered] { ++delivered; },
      [&] {
        ++abandoned;
        abandoned_at = sim.now().to_ms();
      });
  // Without an abandonment callback the loss is only counted.
  channel.send(256, [&delivered] { ++delivered; });
  sim.run();

  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(abandoned, 1u);
  EXPECT_EQ(channel.stats().abandoned, 2u);
  EXPECT_EQ(channel.stats().attempts, 6u);
  EXPECT_EQ(channel.in_flight(), 0u);
  // Reported when the last attempt's deadline expired, not before.
  EXPECT_GE(abandoned_at, 3 * opts.timeout.to_ms());
}

// --- verified link frames ---------------------------------------------------

TEST(VerifiedLinkTest, VerdictFiresOnceAndUnfiredFramesFreeTheirCallback) {
  sim::Simulation sim;
  auto link = std::make_unique<hw::Link>(
      sim, hw::LinkSpec{"wire", 1.0, Duration::micros(100)});
  auto token = std::make_shared<int>(0);
  std::vector<bool> verdicts;
  auto send = [&] {
    link->transfer_verified(1024, fnv1a_frame(1024, 1),
                            [&verdicts, token](bool ok) {
                              verdicts.push_back(ok);
                            });
  };
  send();
  link->corrupt_next(1);
  send();
  sim.run();
  EXPECT_EQ(verdicts, (std::vector<bool>{true, false}));
  EXPECT_EQ(token.use_count(), 1);  // fired callbacks are gone

  // A frame the degraded wire drops never fires, and lets go of its
  // callback at once.
  link->set_degraded(1.0, 1.0, Rng(5));
  send();
  EXPECT_EQ(link->stats().dropped_transfers, 1u);
  EXPECT_EQ(token.use_count(), 1);
  link->clear_degraded();

  // Frames parked behind a partition or still on the wire when the
  // link dies are released with it.
  send();
  link->set_down(true);
  send();
  EXPECT_EQ(token.use_count(), 3);
  link.reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(verdicts.size(), 2u);
}

TEST(VerifiedLinkTest, RoutedLinkRefusesVerifiedFrames) {
  sim::CellRing ring(2, Duration::ms(2.0));
  hw::Link link(ring.cell(0), hw::LinkSpec{"wire", 1.0, Duration::ms(0.25)});
  link.route(ring.next(0));
  EXPECT_THROW(link.transfer_verified(64, 1, [](bool) {}), ContractViolation);
}

// --- slot quarantine --------------------------------------------------------

TEST(SlotQuarantineTest, FlakyPortQuarantinesSlotsThenFallsBackToCpu) {
  sim::Simulation sim;
  hw::Link pcie(sim, hw::pcie_gen3());
  fpga::FpgaDevice device(sim, pcie, fpga::alveo_u50_spec());
  fpga::SlotConfig slot_cfg;
  slot_cfg.slots = 2;
  device.enable_slots(slot_cfg);

  fpga::SlotScheduler::Options opts;
  opts.quarantine_limit = 2;
  fpga::SlotScheduler scheduler(device, opts);

  fpga::HwKernelConfig kernel;
  kernel.name = "victim";
  kernel.resources = device.slot_capacity() / 2;
  kernel.fixed_cycles = 300'000;
  scheduler.register_kernel(kernel);

  // Every programming attempt fails at the flaky reconfiguration port.
  device.set_port_flaky(1.0, Rng(13));

  // Each failed programming leaves the slot empty, so provision keeps
  // walking the non-quarantined slots: 2 failures quarantine slot 0,
  // 2 more quarantine slot 1.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(scheduler.provision("victim")) << "attempt " << i;
    sim.run();
  }
  EXPECT_TRUE(scheduler.quarantined(0));
  EXPECT_TRUE(scheduler.quarantined(1));
  EXPECT_EQ(scheduler.quarantined_slots(), 2u);
  EXPECT_EQ(scheduler.stats().quarantined, 2u);
  EXPECT_EQ(scheduler.stats().failed, 4u);

  // All fabric written off: the claimant stays on the CPU -- even
  // after the port heals, quarantine is permanent within the run.
  device.clear_port_flaky();
  EXPECT_FALSE(scheduler.provision("victim"));
  EXPECT_EQ(scheduler.stats().denied_cold, 1u);
}

TEST(SlotQuarantineTest, SuccessResetsTheConsecutiveFailureCount) {
  sim::Simulation sim;
  hw::Link pcie(sim, hw::pcie_gen3());
  fpga::FpgaDevice device(sim, pcie, fpga::alveo_u50_spec());
  fpga::SlotConfig slot_cfg;
  slot_cfg.slots = 1;
  device.enable_slots(slot_cfg);

  fpga::SlotScheduler::Options opts;
  opts.quarantine_limit = 2;
  fpga::SlotScheduler scheduler(device, opts);

  fpga::HwKernelConfig kernel;
  kernel.name = "survivor";
  kernel.resources = device.slot_capacity() / 4;
  kernel.fixed_cycles = 300'000;
  scheduler.register_kernel(kernel);

  // Fail (streak 1), succeed (streak resets), fail again on the
  // replicate path (streak 1): with limit 2 the slot quarantines only
  // if the intervening success failed to reset the counter.
  device.inject_reconfigure_failure();
  ASSERT_TRUE(scheduler.provision("survivor"));
  sim.run();
  ASSERT_TRUE(scheduler.provision("survivor"));
  sim.run();
  ASSERT_TRUE(device.residency("survivor").resident());

  for (int i = 0; i < 10; ++i) scheduler.note_demand("survivor");
  device.inject_reconfigure_failure();
  ASSERT_TRUE(scheduler.provision("survivor"));  // replicate-hottest
  sim.run();

  EXPECT_FALSE(scheduler.quarantined(0));
  EXPECT_EQ(scheduler.stats().quarantined, 0u);
  EXPECT_EQ(scheduler.stats().failed, 2u);
}

// --- circuit breaker under kCellSlow ----------------------------------------

TEST(GrayClusterTest, SlowCellTripsBreakerThenRecovers) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 1;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);

  cluster.submit(0, "facedet320");

  // Quarter-speed CPUs for 100 ms: heartbeat replies stretch 4x past
  // the slow-reply bar but stay inside the miss timeout -- gray, not
  // dead.
  sim::FaultPlan plan;
  plan.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(10.0), 0,
            0.25, TimePoint::at_ms(110.0)});
  cluster.apply_fault_plan(plan);

  ASSERT_TRUE(cluster.run_until_jobs_complete());

  const auto& srv = cluster.cell(0).server().stats();
  EXPECT_GT(srv.slow_replies, 0u);
  EXPECT_GE(srv.breaker_trips, 1u);   // demoted while slowed...
  EXPECT_GE(srv.breaker_closes, 1u);  // ...reinstated after the window
  EXPECT_EQ(srv.evictions, 0u);       // never treated as dead
  EXPECT_EQ(cluster.cell(0).server().health(),
            runtime::SchedulerServer::TargetHealth::kClosed);
  EXPECT_TRUE(cluster.cell(0).server().fpga_healthy());

  const auto stats = cluster.job_stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.breaker_trips, srv.breaker_trips);
  EXPECT_EQ(stats.slow_replies, srv.slow_replies);
}

// --- the mixed gray storm: conservation + determinism -----------------------

sim::FaultPlan mixed_gray_plan() {
  sim::FaultPlan plan;
  plan.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(15.0), 0,
            0.25, TimePoint::at_ms(120.0)});
  plan.add({sim::FaultEvent::Kind::kLinkDegraded, TimePoint::at_ms(20.0), 1,
            0.3, TimePoint::at_ms(200.0)});
  plan.add({sim::FaultEvent::Kind::kPortFlaky, TimePoint::at_ms(20.0), 2,
            0.5, TimePoint::at_ms(250.0)});
  plan.add({sim::FaultEvent::Kind::kDsmCorrupt, TimePoint::at_ms(20.0), 1,
            0.5, TimePoint::at_ms(200.0)});
  plan.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(50.0), 1});
  return plan;
}

std::vector<double> run_gray_cluster(bool parallel,
                                     exp::ClusterExperiment::JobStats* out,
                                     obs::Snapshot* snap = nullptr) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 3;
  spec.parallel = parallel;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);

  for (std::size_t c = 0; c < 3; ++c) {
    cluster.submit(c, "facedet320");
    cluster.submit(c, "digit500");
  }
  cluster.apply_fault_plan(mixed_gray_plan());

  EXPECT_TRUE(cluster.run_until_jobs_complete());
  EXPECT_EQ(cluster.completed_jobs(), cluster.submitted_jobs());
  if (out != nullptr) *out = cluster.job_stats();
  if (snap != nullptr) *snap = cluster.registry().snapshot();
  return cluster.job_completion_times_ms();
}

TEST(GrayClusterTest, MixedGrayPlanConservesJobsAndStaysDeterministic) {
  // The dying cell's checkpoints must cross a link that is inflating
  // latency, dropping frames, AND corrupting payloads -- and every job
  // still completes exactly once, with bitwise-identical completion
  // instants serial vs rerun vs threaded.
  exp::ClusterExperiment::JobStats stats;
  const auto serial_a = run_gray_cluster(false, &stats);
  const auto serial_b = run_gray_cluster(false, nullptr);
  const auto threaded = run_gray_cluster(true, nullptr);

  EXPECT_EQ(stats.completed, stats.submitted);
  // The storm was real: the reliability layer left fingerprints.
  EXPECT_GT(stats.channel_retries + stats.corrupt_recovered +
                stats.link_drops,
            0u);
  EXPECT_GE(stats.breaker_trips, 1u);

  ASSERT_EQ(serial_a.size(), serial_b.size());
  ASSERT_EQ(serial_a.size(), threaded.size());
  for (std::size_t i = 0; i < serial_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial_a[i], serial_b[i]) << "job " << i;
    EXPECT_DOUBLE_EQ(serial_a[i], threaded[i]) << "job " << i;
  }
}

TEST(GrayClusterTest, DrainChannelCountersFollowTheirDrainLink) {
  // Each cell's drain channel links six counters right after its drain
  // link's entries, in a fixed order: snapshot digests fold values in
  // registration order.
  exp::ClusterExperiment::JobStats stats;
  obs::Snapshot snap;
  run_gray_cluster(false, &stats, &snap);

  std::uint64_t sends = 0;
  std::uint64_t retries = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t duplicates = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    const std::string prefix = "cell" + std::to_string(c) + ".drain.";
    std::size_t next = snap.scalars.size();
    for (std::size_t k = 0; k < snap.scalars.size(); ++k) {
      if (snap.scalars[k].name.rfind(prefix + "link.", 0) == 0) next = k + 1;
    }
    ASSERT_LE(next + 6, snap.scalars.size()) << "cell " << c;
    std::string names;
    for (std::size_t k = next; k < next + 6; ++k) {
      const obs::Snapshot::Scalar& s = snap.scalars[k];
      ASSERT_EQ(s.name.rfind(prefix, 0), 0u) << s.name;
      EXPECT_EQ(s.kind, obs::Snapshot::Kind::kCounter) << s.name;
      names += s.name.substr(prefix.size()) + " ";
    }
    EXPECT_EQ(names,
              "sends retries corrupt_detected duplicates_suppressed "
              "delivered abandoned ")
        << "cell " << c;
    sends += static_cast<std::uint64_t>(snap.scalars[next].value);
    retries += static_cast<std::uint64_t>(snap.scalars[next + 1].value);
    corrupt += static_cast<std::uint64_t>(snap.scalars[next + 2].value);
    duplicates += static_cast<std::uint64_t>(snap.scalars[next + 3].value);
  }
  EXPECT_GT(sends, 0u);  // the kill drained through the channels
  EXPECT_EQ(retries, stats.channel_retries);
  EXPECT_EQ(corrupt, stats.corrupt_recovered);
  EXPECT_EQ(duplicates, stats.duplicates_suppressed);
}

}  // namespace
}  // namespace xartrek
