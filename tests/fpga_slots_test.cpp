// FPGA virtualization: slot-carved device + slot scheduler.
//
// Mechanism tests pin the FpgaDevice slot-mode contracts -- the carve
// geometry, per-slot programming cost, serving-while-programming, the
// kNoFit completion, slot-confined ResidencyView invalidation, and
// drain-in-place eviction -- plus the whole-image device as the
// one-slot carve (multi-kernel images, replicated CUs, slot-0-keyed
// views).  Policy tests pin the SlotScheduler's three
// decision arms (place / replicate-hottest / evict-coldest) and their
// hysteresis.  The last tests run the multi-tenant contention workload
// serial and parallel and require bitwise-identical traces while the
// scheduler is evicting and replicating mid-run -- the determinism
// contract extended to the virtualized device -- and pin the serial
// traces of both residency models.
#include <gtest/gtest.h>

#include <vector>

#include "common/assert.hpp"
#include "exp/contention.hpp"
#include "fpga/device.hpp"
#include "fpga/slots.hpp"
#include "hw/link.hpp"
#include "sim/simulation.hpp"

namespace xartrek {
namespace {

fpga::HwKernelConfig kernel_with(std::string name,
                                 fpga::FpgaResources footprint) {
  fpga::HwKernelConfig k;
  k.name = std::move(name);
  k.resources = footprint;
  k.fixed_cycles = 300'000;  // 1 ms at the default 300 MHz
  return k;
}

struct SlotDeviceTest : ::testing::Test {
  sim::Simulation sim;
  hw::Link pcie{sim, hw::pcie_gen3()};
  fpga::FpgaDevice device{sim, pcie, fpga::alveo_u50_spec()};

  fpga::ReconfigureResult program(std::uint32_t slot,
                                  const fpga::HwKernelConfig& k,
                                  std::uint32_t replicas) {
    auto result = fpga::ReconfigureResult::kOfflineDrop;
    device.reconfigure_slot(slot, k, replicas,
                            [&](fpga::ReconfigureResult r) { result = r; });
    sim.run();
    return result;
  }
};

TEST_F(SlotDeviceTest, CarveGeometryAndOneWaySwitch) {
  EXPECT_FALSE(device.slot_mode());
  EXPECT_EQ(device.slot_count(), 0u);

  fpga::SlotConfig cfg;
  cfg.slots = 4;
  device.enable_slots(cfg);
  EXPECT_TRUE(device.slot_mode());
  EXPECT_EQ(device.slot_count(), 4u);
  // Equal carve of the usable (post-shell) region.
  EXPECT_EQ(device.slot_capacity(), device.spec().usable() / 4);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(device.slot_kernel(s), std::nullopt);
  }

  // One-way: a second carve and whole-image downloads both violate the
  // contract.
  EXPECT_THROW(device.enable_slots(cfg), ContractViolation);
  fpga::XclbinImage image;
  image.id = "whole";
  image.kernels.push_back(
      kernel_with("K", device.slot_capacity() / 2));
  EXPECT_THROW(device.reconfigure(image, [](fpga::ReconfigureResult) {}),
               ContractViolation);
}

TEST_F(SlotDeviceTest, SlotProgrammingIsMuchCheaperThanFullImage) {
  device.enable_slots(fpga::SlotConfig{});
  const auto k = kernel_with("A", device.slot_capacity() / 4);

  double done_at = -1.0;
  device.reconfigure_slot(
      0, k, 1, [&](fpga::ReconfigureResult) { done_at = sim.now().to_ms(); });
  EXPECT_TRUE(device.reconfiguring());
  sim.run();
  // 4 MiB partial bitstream over PCIe (~0.13 ms) + 40 ms slot
  // programming -- an order of magnitude under the 300 ms full image.
  EXPECT_NEAR(done_at, 40.13, 0.05);
  EXPECT_LT(done_at, device.spec().programming_time.to_ms());
  EXPECT_TRUE(device.has_kernel("A"));
  EXPECT_EQ(device.slot_kernel(0), std::optional<std::string>("A"));
  EXPECT_EQ(device.reconfigurations(), 1u);
}

TEST_F(SlotDeviceTest, MultipleTenantsResidentConcurrently) {
  device.enable_slots(fpga::SlotConfig{});
  const fpga::FpgaResources quarter = device.slot_capacity() / 4;
  ASSERT_EQ(program(0, kernel_with("A", quarter), 1),
            fpga::ReconfigureResult::kOk);
  ASSERT_EQ(program(1, kernel_with("B", quarter), 1),
            fpga::ReconfigureResult::kOk);
  ASSERT_EQ(program(2, kernel_with("C", quarter), 1),
            fpga::ReconfigureResult::kOk);

  // Three tenants share the card -- the thing whole-image residency
  // could never do.
  EXPECT_TRUE(device.has_kernel("A"));
  EXPECT_TRUE(device.has_kernel("B"));
  EXPECT_TRUE(device.has_kernel("C"));
  const auto names = device.available_kernels();
  EXPECT_EQ(names, (std::vector<std::string>{"A", "B", "C"}));
}

TEST_F(SlotDeviceTest, OtherSlotsKeepServingWhileOneReprograms) {
  device.enable_slots(fpga::SlotConfig{});
  const fpga::FpgaResources quarter = device.slot_capacity() / 4;
  ASSERT_EQ(program(0, kernel_with("A", quarter), 1),
            fpga::ReconfigureResult::kOk);

  // Start programming slot 1; while its bitstream is in flight, slot
  // 0's tenant must stay callable and actually execute.
  device.reconfigure_slot(1, kernel_with("B", quarter), 1,
                          [](fpga::ReconfigureResult) {});
  ASSERT_TRUE(device.reconfiguring());
  ASSERT_TRUE(device.has_kernel("A"));
  bool ran = false;
  device.execute("A", 1, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(device.has_kernel("B"));
}

TEST_F(SlotDeviceTest, OversizedRequestCompletesNoFit) {
  device.enable_slots(fpga::SlotConfig{});
  // Three CUs of a half-slot kernel cannot fit the slot's area budget.
  const auto big = kernel_with("BIG", device.slot_capacity() / 2);
  EXPECT_EQ(program(0, big, 3), fpga::ReconfigureResult::kNoFit);
  EXPECT_FALSE(device.has_kernel("BIG"));
  EXPECT_EQ(device.reconfigurations(), 0u);
  // Two CUs do fit.
  EXPECT_EQ(program(0, big, 2), fpga::ReconfigureResult::kOk);
}

TEST_F(SlotDeviceTest, ReplicasInOneSlotRunConcurrently) {
  device.enable_slots(fpga::SlotConfig{});
  const auto k = kernel_with("A", device.slot_capacity() / 4);
  ASSERT_EQ(program(0, k, 2), fpga::ReconfigureResult::kOk);
  EXPECT_EQ(device.residency("A").cus, 2u);

  // Two 1 ms invocations on two CUs finish together; a third queues.
  const double t0 = sim.now().to_ms();
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    device.execute("A", 0, [&] { done.push_back(sim.now().to_ms() - t0); });
  }
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 1.0, 1e-9);
  EXPECT_NEAR(done[2], 2.0, 1e-9);
  EXPECT_EQ(device.kernel_invocations(), 3u);
}

TEST_F(SlotDeviceTest, ResidencyViewsInvalidatePerSlot) {
  device.enable_slots(fpga::SlotConfig{});
  const fpga::FpgaResources quarter = device.slot_capacity() / 4;
  ASSERT_EQ(program(0, kernel_with("A", quarter), 1),
            fpga::ReconfigureResult::kOk);
  ASSERT_EQ(program(1, kernel_with("B", quarter), 2),
            fpga::ReconfigureResult::kOk);

  const fpga::ResidencyView a = device.residency("A");
  const fpga::ResidencyView b = device.residency("B");
  EXPECT_TRUE(a.resident());
  EXPECT_EQ(a.slot, 0u);
  EXPECT_EQ(b.cus, 2u);

  // Reprogramming slot 1 invalidates B's view the moment programming
  // starts -- but A's slot didn't change, so A's memo stays valid.
  // That slot-confined invalidation is what the old device-wide
  // residency_version() could not express.
  device.reconfigure_slot(1, kernel_with("C", quarter), 1,
                          [](fpga::ReconfigureResult) {});
  EXPECT_TRUE(device.residency_current(a));
  EXPECT_FALSE(device.residency_current(b));
  sim.run();
  EXPECT_TRUE(device.residency_current(a));
  EXPECT_FALSE(device.has_kernel("B"));

  // A non-resident answer is epoch-keyed: it goes stale once the device
  // changes again.
  const fpga::ResidencyView absent = device.residency("B");
  EXPECT_FALSE(absent.resident());
  EXPECT_TRUE(device.residency_current(absent));
  ASSERT_EQ(program(1, kernel_with("B", quarter), 1),
            fpga::ReconfigureResult::kOk);
  EXPECT_FALSE(device.residency_current(absent));
}

TEST_F(SlotDeviceTest, SameKernelAcrossSlotsAggregatesCus) {
  device.enable_slots(fpga::SlotConfig{});
  const auto k = kernel_with("A", device.slot_capacity() / 4);
  ASSERT_EQ(program(0, k, 2), fpga::ReconfigureResult::kOk);
  ASSERT_EQ(program(1, k, 3), fpga::ReconfigureResult::kOk);
  const fpga::ResidencyView view = device.residency("A");
  EXPECT_EQ(view.cus, 5u);
  EXPECT_EQ(view.slot, 0u);  // first hosting slot
}

TEST_F(SlotDeviceTest, BacklogTiesRouteToTheLowestSlot) {
  // Two idle CUs of A, one per slot: the tie goes to slot 0.  That is
  // observable because reprogramming slot 1 retires only slot 1's CU,
  // so the second call must queue behind the first.
  device.enable_slots(fpga::SlotConfig{});
  const fpga::FpgaResources quarter = device.slot_capacity() / 4;
  ASSERT_EQ(program(0, kernel_with("A", quarter), 1),
            fpga::ReconfigureResult::kOk);
  ASSERT_EQ(program(1, kernel_with("A", quarter), 1),
            fpga::ReconfigureResult::kOk);
  const double t0 = sim.now().to_ms();
  double first = -1.0;
  double second = -1.0;
  device.execute("A", 0, [&] { first = sim.now().to_ms() - t0; });
  device.reconfigure_slot(1, kernel_with("B", quarter), 1,
                          [](fpga::ReconfigureResult) {});
  device.execute("A", 0, [&] { second = sim.now().to_ms() - t0; });
  sim.run();
  EXPECT_NEAR(first, 1.0, 1e-9);
  EXPECT_NEAR(second, 2.0, 1e-9);
}

TEST_F(SlotDeviceTest, EvictionDrainsInFlightWorkInPlace) {
  device.enable_slots(fpga::SlotConfig{});
  const fpga::FpgaResources quarter = device.slot_capacity() / 4;
  ASSERT_EQ(program(0, kernel_with("A", quarter), 1),
            fpga::ReconfigureResult::kOk);

  // Queue two invocations, then evict the slot while both are pending.
  // The displaced CU drains in place: both completions still fire (with
  // the old service times) even though "A" stops being callable
  // immediately.
  int completions = 0;
  device.execute("A", 0, [&] { ++completions; });
  device.execute("A", 0, [&] { ++completions; });
  device.reconfigure_slot(0, kernel_with("B", quarter), 1,
                          [](fpga::ReconfigureResult) {});
  EXPECT_FALSE(device.has_kernel("A"));
  sim.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(device.kernel_invocations(), 2u);
  EXPECT_TRUE(device.has_kernel("B"));
}

// --- whole-image mode: the one-slot carve --------------------------------

using WholeImageDeviceTest = SlotDeviceTest;

TEST_F(WholeImageDeviceTest, MultiKernelImageRoutesToLeastBackloggedCu) {
  // K1 at two CUs plus K2 at one, all in the single slot.  Service is
  // `items` ms, so each completion time says which CU ran the call.
  fpga::HwKernelConfig k1 = kernel_with("K1", device.spec().usable() / 8);
  k1.fixed_cycles = 0;
  k1.cycles_per_item = 300'000.0;  // 1 ms per item at 300 MHz
  k1.compute_units = 2;
  fpga::XclbinImage image;
  image.id = "img0";
  image.size_bytes = 1 << 20;
  image.kernels = {k1, kernel_with("K2", device.spec().usable() / 8)};
  auto result = fpga::ReconfigureResult::kOfflineDrop;
  device.reconfigure(image, [&](fpga::ReconfigureResult r) { result = r; });
  sim.run();
  ASSERT_EQ(result, fpga::ReconfigureResult::kOk);
  EXPECT_EQ(device.slot_count(), 0u);
  EXPECT_EQ(device.available_kernels(),
            (std::vector<std::string>{"K1", "K2"}));
  EXPECT_EQ(device.residency("K1").cus, 2u);
  EXPECT_EQ(device.residency("K2").cus, 1u);

  // A (10 ms) and B (1 ms) take the two idle CUs.  At 5 ms B is done:
  // C takes its idle CU, D ties at one each and joins A's CU (the lower
  // index), and E takes the lighter CU behind C.  Round-robin or
  // first-CU routing would finish C, D and E at other times.
  const double t0 = sim.now().to_ms();
  std::vector<double> done(5, -1.0);
  auto call = [&](int i, std::uint64_t items) {
    device.execute("K1", items, [&, i] { done[i] = sim.now().to_ms() - t0; });
  };
  call(0, 10);
  call(1, 1);
  sim.run_until(sim.now() + Duration::ms(5.0));
  call(2, 1);
  call(3, 1);
  call(4, 1);
  sim.run();
  EXPECT_NEAR(done[0], 10.0, 1e-9);
  EXPECT_NEAR(done[1], 1.0, 1e-9);
  EXPECT_NEAR(done[2], 6.0, 1e-9);
  EXPECT_NEAR(done[3], 11.0, 1e-9);
  EXPECT_NEAR(done[4], 7.0, 1e-9);
  EXPECT_EQ(device.kernel_invocations(), 5u);
}

TEST_F(WholeImageDeviceTest, ResidentViewGoesStaleWhenNextImageStarts) {
  fpga::XclbinImage a;
  a.id = "img_a";
  a.size_bytes = 1 << 20;
  a.kernels.push_back(kernel_with("A", device.spec().usable() / 4));
  fpga::XclbinImage b = a;
  b.id = "img_b";
  b.kernels[0].name = "B";

  device.reconfigure(a, [](fpga::ReconfigureResult) {});
  sim.run();
  const fpga::ResidencyView view = device.residency("A");
  ASSERT_TRUE(view.resident());
  EXPECT_EQ(view.slot, 0u);  // keyed on the one slot's version
  EXPECT_TRUE(device.residency_current(view));

  // The old image stops being callable the moment the next one starts
  // programming, and the cached view says so before completion.
  device.reconfigure(b, [](fpga::ReconfigureResult) {});
  EXPECT_FALSE(device.residency_current(view));
  EXPECT_FALSE(device.has_kernel("A"));
  EXPECT_EQ(device.loaded_image(), std::nullopt);
  sim.run();
  EXPECT_FALSE(device.residency_current(view));
  EXPECT_EQ(device.loaded_image(), std::optional<std::string>("img_b"));
  EXPECT_TRUE(device.has_kernel("B"));
}

// --- policy ---------------------------------------------------------------

struct SlotPolicyTest : SlotDeviceTest {
  void SetUp() override {
    device.enable_slots(fpga::SlotConfig{});
    quarter = device.slot_capacity() / 4;
  }

  fpga::SlotScheduler::Options tight_policy() {
    fpga::SlotScheduler::Options o;
    o.fold_window = 8;
    return o;
  }

  /// note_demand + provision until the port goes busy, then drain.
  bool provision_and_run(fpga::SlotScheduler& sched, const std::string& k) {
    const bool started = sched.provision(k);
    sim.run();
    return started;
  }

  fpga::FpgaResources quarter;
};

TEST_F(SlotPolicyTest, PlacesIntoEmptySlotsInOrder) {
  fpga::SlotScheduler sched(device, tight_policy());
  for (const char* name : {"A", "B", "C", "D"}) {
    sched.register_kernel(kernel_with(name, quarter));
  }
  EXPECT_TRUE(sched.knows("A"));
  EXPECT_FALSE(sched.knows("nope"));

  for (const char* name : {"A", "B", "C", "D"}) {
    sched.note_demand(name);
    EXPECT_TRUE(provision_and_run(sched, name)) << name;
  }
  EXPECT_EQ(device.slot_kernel(0), std::optional<std::string>("A"));
  EXPECT_EQ(device.slot_kernel(1), std::optional<std::string>("B"));
  EXPECT_EQ(device.slot_kernel(2), std::optional<std::string>("C"));
  EXPECT_EQ(device.slot_kernel(3), std::optional<std::string>("D"));
  EXPECT_EQ(sched.stats().programs, 4u);
  EXPECT_EQ(sched.stats().evictions, 0u);

  // A resident kernel with no replication case started nothing.
  EXPECT_FALSE(sched.provision("A"));
}

TEST_F(SlotPolicyTest, ClaimantBelowDemandFloorIsDenied) {
  // min_evict_demand is the anti-thrash floor: a claimant whose demand
  // hasn't reached it cannot displace anyone, no matter how cold the
  // residents are.
  fpga::SlotScheduler::Options policy = tight_policy();
  policy.min_evict_demand = 5.0;
  fpga::SlotScheduler sched(device, policy);
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    sched.register_kernel(kernel_with(name, quarter));
  }
  for (const char* name : {"A", "B", "C", "D"}) {
    sched.note_demand(name);
    ASSERT_TRUE(provision_and_run(sched, name));
  }

  for (int i = 0; i < 4; ++i) sched.note_demand("E");
  EXPECT_FALSE(provision_and_run(sched, "E"));
  EXPECT_GE(sched.stats().denied_cold, 1u);
  EXPECT_FALSE(device.has_kernel("E"));
  EXPECT_EQ(sched.stats().evictions, 0u);
}

TEST_F(SlotPolicyTest, HotClaimantEvictsTheColdestResident) {
  fpga::SlotScheduler sched(device, tight_policy());
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    sched.register_kernel(kernel_with(name, quarter));
  }
  // Fill the table with A..D, then keep A, C, D warm while B's demand
  // decays: B becomes the strict coldest resident.
  for (const char* name : {"A", "B", "C", "D"}) {
    for (int i = 0; i < 4; ++i) sched.note_demand(name);
    ASSERT_TRUE(provision_and_run(sched, name));
  }
  for (int i = 0; i < 16; ++i) {
    for (const char* name : {"A", "C", "D"}) sched.note_demand(name);
  }

  // E heats up until it clears the eviction margin: it takes exactly
  // B's slot, and nobody else moves.
  bool placed = false;
  for (int i = 0; i < 200 && !placed; ++i) {
    sched.note_demand("E");
    placed = provision_and_run(sched, "E");
  }
  ASSERT_TRUE(placed);
  EXPECT_EQ(sched.stats().evictions, 1u);
  EXPECT_FALSE(device.has_kernel("B"));
  EXPECT_EQ(device.slot_kernel(1), std::optional<std::string>("E"));
  EXPECT_TRUE(device.has_kernel("A"));
  EXPECT_TRUE(device.has_kernel("C"));
  EXPECT_TRUE(device.has_kernel("D"));
}

TEST_F(SlotPolicyTest, HottestResidentGrowsReplicas) {
  fpga::SlotScheduler sched(device, tight_policy());
  sched.register_kernel(kernel_with("A", quarter));
  sched.register_kernel(kernel_with("B", quarter));
  sched.note_demand("A");
  ASSERT_TRUE(provision_and_run(sched, "A"));
  sched.note_demand("B");
  ASSERT_TRUE(provision_and_run(sched, "B"));
  ASSERT_EQ(device.residency("A").cus, 1u);

  // A's demand dwarfs B's: each provision grows A by one CU until the
  // slot's area budget (4 quarter-footprint CUs) is spent.
  for (int i = 0; i < 32; ++i) sched.note_demand("A");
  for (std::uint32_t want = 2; want <= 4; ++want) {
    EXPECT_TRUE(provision_and_run(sched, "A"));
    EXPECT_EQ(device.residency("A").cus, want);
  }
  EXPECT_EQ(sched.stats().replications, 3u);
  // Budget exhausted: no further growth.
  EXPECT_FALSE(sched.provision("A"));
}

TEST_F(SlotPolicyTest, OneDecisionInFlightAtATime) {
  fpga::SlotScheduler sched(device, tight_policy());
  sched.register_kernel(kernel_with("A", quarter));
  sched.register_kernel(kernel_with("B", quarter));
  sched.note_demand("A");
  sched.note_demand("B");
  EXPECT_TRUE(sched.provision("A"));
  // Port busy: the scheduler early-outs instead of queueing blindly.
  EXPECT_FALSE(sched.provision("B"));
  sim.run();
  EXPECT_TRUE(sched.provision("B"));
  sim.run();
  EXPECT_TRUE(device.has_kernel("A"));
  EXPECT_TRUE(device.has_kernel("B"));
}

TEST_F(SlotPolicyTest, NeverFittingKernelIsDeniedNoFit) {
  fpga::SlotScheduler sched(device, tight_policy());
  fpga::HwKernelConfig huge = kernel_with("HUGE", device.spec().usable());
  sched.register_kernel(huge);
  sched.note_demand("HUGE");
  EXPECT_FALSE(sched.provision("HUGE"));
  EXPECT_EQ(sched.stats().denied_no_fit, 1u);
  EXPECT_EQ(sched.stats().programs, 0u);
}

// --- determinism under contention -----------------------------------------

TEST(FpgaContentionTest, SerialAndParallelTracesAreBitwiseIdentical) {
  // The acceptance contract: with the slot scheduler evicting and
  // replicating mid-run and tenant-0 demand spilling across the cell
  // ring, the parallel engine must produce the exact event trace of the
  // serial one -- same completions, same times, same policy decisions.
  exp::ContentionSpec spec;
  spec.span = Duration::ms(500.0);

  exp::ContentionSpec serial = spec;
  serial.parallel = false;
  const exp::ContentionResult s = exp::run_fpga_contention(serial);

  exp::ContentionSpec parallel = spec;
  parallel.parallel = true;
  const exp::ContentionResult p = exp::run_fpga_contention(parallel);

  // The run must actually exercise both policy arms, or the identity
  // claim is vacuous.
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.replications, 0u);
  EXPECT_GT(s.fpga_completions, 0u);

  EXPECT_EQ(s.trace_hash, p.trace_hash);
  EXPECT_EQ(s.fpga_completions, p.fpga_completions);
  EXPECT_EQ(s.arrivals, p.arrivals);
  EXPECT_EQ(s.fallbacks, p.fallbacks);
  EXPECT_EQ(s.reconfigurations, p.reconfigurations);
  EXPECT_EQ(s.evictions, p.evictions);
  EXPECT_EQ(s.replications, p.replications);
  EXPECT_EQ(s.executed_events, p.executed_events);
}

TEST(FpgaContentionTest, SlotModeBeatsWholeImageAtEqualArea) {
  // The virtualization headline at test scale: same arrival schedule,
  // same total area budget, >= 2x the on-fabric completions.  The
  // bench gates the full-span version of this ratio in CI.
  exp::ContentionSpec spec;
  spec.span = Duration::ms(500.0);
  const exp::ContentionResult slots = exp::run_fpga_contention(spec);

  exp::ContentionSpec whole = spec;
  whole.slots = 0;
  const exp::ContentionResult base = exp::run_fpga_contention(whole);

  ASSERT_GT(base.fpga_completions, 0u);
  EXPECT_GE(static_cast<double>(slots.fpga_completions),
            2.0 * static_cast<double>(base.fpga_completions));
}

TEST(FpgaContentionTest, SerialTracesArePinned) {
  // Both residency models share one device programming path; any drift
  // in programming cost or CU routing moves these serial-run figures.
  exp::ContentionSpec spec;
  spec.span = Duration::ms(500.0);
  spec.parallel = false;
  const exp::ContentionResult slots = exp::run_fpga_contention(spec);
  EXPECT_EQ(slots.trace_hash, 2473527478742084320ull);
  EXPECT_EQ(slots.fpga_completions, 1462u);
  EXPECT_EQ(slots.executed_events, 6882u);

  exp::ContentionSpec whole = spec;
  whole.slots = 0;
  const exp::ContentionResult base = exp::run_fpga_contention(whole);
  EXPECT_EQ(base.trace_hash, 5828368870703382336ull);
  EXPECT_EQ(base.fpga_completions, 450u);
  EXPECT_EQ(base.executed_events, 5804u);
}

}  // namespace
}  // namespace xartrek
