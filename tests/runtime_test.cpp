// Tests for the Xar-Trek run-time: threshold table, load monitor,
// Algorithm 1 (client), Algorithm 2 (server), and the migration
// executor.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"

#include "platform/testbed.hpp"
#include "runtime/load_monitor.hpp"
#include "runtime/migration_executor.hpp"
#include "runtime/scheduler_client.hpp"
#include "runtime/scheduler_server.hpp"
#include "runtime/threshold_table.hpp"

namespace xartrek::runtime {
namespace {

ThresholdEntry entry(const std::string& app, int fpga_thr, int arm_thr,
                     double x86_ms, double arm_ms, double fpga_ms) {
  ThresholdEntry e;
  e.app = app;
  e.kernel_name = "KNL_" + app;
  e.fpga_threshold = fpga_thr;
  e.arm_threshold = arm_thr;
  e.x86_exec = Duration::ms(x86_ms);
  e.arm_exec = Duration::ms(arm_ms);
  e.fpga_exec = Duration::ms(fpga_ms);
  return e;
}

TEST(ThresholdTableTest, UpsertAndLookup) {
  ThresholdTable table;
  table.upsert(entry("a", 10, 20, 100, 300, 200));
  EXPECT_TRUE(table.contains("a"));
  EXPECT_FALSE(table.contains("b"));
  EXPECT_EQ(table.at("a").arm_threshold, 20);
  EXPECT_THROW((void)table.at("b"), Error);
  table.upsert(entry("a", 5, 20, 100, 300, 200));  // replace
  EXPECT_EQ(table.at("a").fpga_threshold, 5);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ThresholdTableTest, InternsAppNamesToStableDenseIds) {
  ThresholdTable table;
  const AppId a = table.upsert(entry("a", 10, 20, 100, 300, 200));
  const AppId b = table.upsert(entry("b", 1, 2, 3, 4, 5));
  EXPECT_NE(a, b);
  EXPECT_EQ(table.id_of("a"), a);
  EXPECT_EQ(table.id_of("b"), b);
  EXPECT_EQ(table.id_of("zzz"), kInvalidAppId);
  // Ids are plain indices into entries().
  EXPECT_EQ(table.entries()[a].app, "a");
  EXPECT_EQ(&table.at(a), &table.entries()[a]);
  // Replacing a row keeps its id (interning is stable).
  EXPECT_EQ(table.upsert(entry("a", 99, 20, 100, 300, 200)), a);
  EXPECT_EQ(table.at(a).fpga_threshold, 99);
  EXPECT_EQ(table.size(), 2u);
}

TEST(ThresholdTableTest, HeterogeneousLookupByStringView) {
  ThresholdTable table;
  table.upsert(entry("facedet320", 16, 31, 175, 642, 332));
  const std::string_view view("facedet320+suffix");
  EXPECT_TRUE(table.contains(view.substr(0, 10)));
  EXPECT_EQ(table.at(view.substr(0, 10)).arm_threshold, 31);
  EXPECT_THROW((void)table.at(std::string_view("nope")), Error);
  table.at_mutable(view.substr(0, 10)).arm_threshold = 7;
  EXPECT_EQ(table.at("facedet320").arm_threshold, 7);
}

TEST(ThresholdTableTest, EntriesIterateInInsertionOrderNamesSorted) {
  ThresholdTable table;
  table.upsert(entry("zeta", 1, 2, 1, 1, 1));
  table.upsert(entry("alpha", 1, 2, 1, 1, 1));
  table.upsert(entry("mid", 1, 2, 1, 1, 1));
  ASSERT_EQ(table.entries().size(), 3u);
  EXPECT_EQ(table.entries()[0].app, "zeta");
  EXPECT_EQ(table.entries()[1].app, "alpha");
  EXPECT_EQ(table.entries()[2].app, "mid");
  const auto names = table.app_names();
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(ThresholdTableTest, ExecAccessorsByTarget) {
  auto e = entry("a", 0, 0, 1, 2, 3);
  EXPECT_DOUBLE_EQ(e.exec_for(Target::kX86).to_ms(), 1.0);
  EXPECT_DOUBLE_EQ(e.exec_for(Target::kArm).to_ms(), 2.0);
  EXPECT_DOUBLE_EQ(e.exec_for(Target::kFpga).to_ms(), 3.0);
  e.set_exec(Target::kArm, Duration::ms(9));
  EXPECT_DOUBLE_EQ(e.arm_exec.to_ms(), 9.0);
}

TEST(LoadMonitorTest, SamplesPeriodically) {
  sim::Simulation sim;
  hw::CpuCluster x86(sim, hw::xeon_bronze_3104());
  LoadMonitor monitor(sim, x86, Duration::ms(100));
  EXPECT_EQ(monitor.x86_load(), 0);
  // Processes arrive after the first sample; the monitor only sees them
  // at the next tick (timer-driven, like the real server).
  for (int i = 0; i < 8; ++i) x86.attach_process();
  EXPECT_EQ(monitor.x86_load(), 0);
  sim.run_until(TimePoint::at_ms(150));
  EXPECT_EQ(monitor.x86_load(), 8);
  EXPECT_EQ(monitor.samples(), 2u);  // at 0 and 100 ms
  for (int i = 0; i < 8; ++i) x86.detach_process();
}

/// The self-rescheduling timer LoadMonitor replaced, kept as the oracle:
/// a tick event samples the count and schedules the next one.
class TimerMonitor {
 public:
  TimerMonitor(sim::Simulation& sim, const hw::CpuCluster& x86,
               Duration period)
      : sim_(sim), x86_(x86), period_(period) {
    tick();
  }
  TimerMonitor(const TimerMonitor&) = delete;
  TimerMonitor& operator=(const TimerMonitor&) = delete;
  ~TimerMonitor() { next_.cancel(); }

  [[nodiscard]] int last_sample() const { return last_sample_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  void tick() {
    last_sample_ = x86_.load();
    ++ticks_;
    next_ = sim_.schedule_in(period_, [this] { tick(); });
  }

  sim::Simulation& sim_;
  const hw::CpuCluster& x86_;
  Duration period_;
  int last_sample_ = 0;
  std::uint64_t ticks_ = 0;
  sim::Simulation::EventHandle next_;
};

// A seeded attach/detach schedule against the timer, on a grid that
// starts off the origin and steps like the timer's own chain.  Every
// event is either off the grid or on it but enqueued less than one
// period ahead -- the events the timer runs after its tick -- so every
// read and every sample count must match the timer exactly.
void expect_matches_timer(TimePoint origin, Duration period) {
  sim::Simulation sim;
  hw::CpuCluster x86(sim, hw::xeon_bronze_3104());
  sim.run_until(origin);
  x86.attach_processes(5);
  LoadMonitor lazy(sim, x86, period);
  TimerMonitor timer(sim, x86, period);

  TimePoint grid = sim.now();  // the first tick instant >= now
  auto advance_grid = [&] {
    while (grid < sim.now()) grid = grid + period;
  };
  Rng rng(2021);
  std::vector<std::pair<int, std::uint64_t>> lazy_reads;
  std::vector<std::pair<int, std::uint64_t>> timer_reads;
  auto mutate_and_maybe_read = [&] {
    switch (rng.uniform_int(0, 4)) {
      case 0:
        x86.attach_process();
        break;
      case 1:
        if (x86.load() > 0) x86.detach_process();
        break;
      case 2:
        x86.attach_processes(static_cast<int>(rng.uniform_int(0, 4)));
        break;
      case 3:
        x86.detach_processes(static_cast<int>(rng.uniform_int(0, x86.load())));
        break;
      default:
        break;  // a read-only event
    }
    if (rng.bernoulli(0.6)) {
      lazy_reads.emplace_back(lazy.x86_load(), lazy.samples());
      timer_reads.emplace_back(timer.last_sample(), timer.ticks());
    }
  };

  constexpr int kSteps = 20'000;
  int steps = 0;
  std::function<void()> step = [&] {
    mutate_and_maybe_read();
    if (++steps == kSteps) return;
    advance_grid();
    if (grid > sim.now() && rng.bernoulli(0.4)) {
      // The next tick instant, less than one period ahead; sometimes a
      // second event shares it.
      sim.schedule_at(grid, step);
      if (rng.bernoulli(0.5)) sim.schedule_at(grid, mutate_and_maybe_read);
      return;
    }
    // Off the grid, from a fraction of a period to a long idle stretch.
    TimePoint next = sim.now() + period * rng.uniform_real(0.01, 6.0);
    TimePoint on_grid = grid;
    while (on_grid < next) on_grid = on_grid + period;
    if (on_grid == next) next = next + period * 0.05;
    sim.schedule_at(next, step);
  };
  sim.schedule_in(period * 0.13, step);
  const TimePoint never =
      TimePoint::at_ms(std::numeric_limits<double>::infinity());
  while (steps < kSteps && sim.step_one(never)) {
  }

  ASSERT_EQ(steps, kSteps);
  ASSERT_GT(lazy_reads.size(), 10'000u);
  EXPECT_EQ(lazy_reads, timer_reads);
  // A horizon between ticks, after the schedule ran out.
  sim.run_until(sim.now() + period * 123.45);
  EXPECT_EQ(lazy.x86_load(), timer.last_sample());
  EXPECT_EQ(lazy.samples(), timer.ticks());
  EXPECT_GT(lazy.samples(), 10'000u);
}

// The paper's 10 ms timer.
TEST(LoadMonitorTest, MatchesTheTimerItReplaces) {
  expect_matches_timer(TimePoint::at_ms(3.7), Duration::ms(10));
}

// A 0.1 ms period, whose stepped chain T_{k+1} = T_k + period drifts
// from the closed form t0 + k * period by an ulp at most instants.
TEST(LoadMonitorTest, MatchesTheTimerOnAFractionalGrid) {
  expect_matches_timer(TimePoint::at_ms(3.7), Duration::ms(0.1));
}

// Sample-first: a tick at T reads the count in force before any other
// event at T.
TEST(LoadMonitorTest, ChangeAtATickInstantWaitsForTheNextTick) {
  sim::Simulation sim;
  hw::CpuCluster x86(sim, hw::xeon_bronze_3104());
  LoadMonitor monitor(sim, x86, Duration::ms(10));
  std::vector<int> reads;
  auto read = [&] { reads.push_back(monitor.x86_load()); };
  // Enqueued at 5 ms for the tick instant 10 ms (less than one period
  // ahead): a read, the change, a read in the same event and a read in
  // a later event, all at 10 ms.
  sim.schedule_at(TimePoint::at_ms(5), [&] {
    sim.schedule_at(TimePoint::at_ms(10), read);
    sim.schedule_at(TimePoint::at_ms(10), [&] {
      x86.attach_processes(3);
      read();
    });
    sim.schedule_at(TimePoint::at_ms(10), read);
    sim.schedule_at(TimePoint::at_ms(15), read);
    sim.schedule_at(TimePoint::at_ms(20), read);
  });
  sim.run_until(TimePoint::at_ms(25));
  EXPECT_EQ(reads, (std::vector<int>{0, 0, 0, 0, 3}));
  EXPECT_EQ(monitor.samples(), 3u);  // at 0, 10 and 20 ms
}

// The one divergence from the timer: an event on a tick instant that
// was enqueued at least one period ahead -- before the timer enqueued
// that tick -- runs before the tick, so the timer's sample sees its
// change.  Sample-first shows the change one tick later.  (Fig. 7's
// waves and Fig. 8's load steps are such events; their outputs do not
// move.)
TEST(LoadMonitorTest, DiffersFromTheTimerOnlyForEventsAPeriodAhead) {
  sim::Simulation sim;
  hw::CpuCluster x86(sim, hw::xeon_bronze_3104());
  LoadMonitor lazy(sim, x86, Duration::ms(10));
  TimerMonitor timer(sim, x86, Duration::ms(10));
  sim.schedule_at(TimePoint::at_ms(20), [&] { x86.attach_processes(3); });
  sim.run_until(TimePoint::at_ms(25));
  EXPECT_EQ(timer.last_sample(), 3);
  EXPECT_EQ(lazy.x86_load(), 0);
  sim.run_until(TimePoint::at_ms(30));
  EXPECT_EQ(timer.last_sample(), 3);
  EXPECT_EQ(lazy.x86_load(), 3);
  EXPECT_EQ(lazy.samples(), timer.ticks());
}

TEST(LoadMonitorTest, IdleStretchSchedulesNoEvent) {
  constexpr std::uint64_t kPeriods = 1'000'000;
  sim::Simulation sim;
  hw::CpuCluster x86(sim, hw::xeon_bronze_3104());
  x86.attach_processes(4);
  LoadMonitor monitor(sim, x86, Duration::ms(10));
  EXPECT_EQ(sim.queued_events(), 0u);
  EXPECT_EQ(sim.run_until(TimePoint::at_ms(10.0 * kPeriods)), 0u);
  EXPECT_EQ(monitor.samples(), kPeriods + 1);
  EXPECT_EQ(monitor.x86_load(), 4);
  // At a tick instant that was already sampled: the change waits.
  x86.detach_processes(4);
  EXPECT_EQ(monitor.x86_load(), 4);
  sim.run_until(TimePoint::at_ms(10.0 * kPeriods + 10.0));
  EXPECT_EQ(monitor.x86_load(), 0);
  EXPECT_EQ(monitor.samples(), kPeriods + 2);
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.queued_events(), 0u);
}

TEST(LoadMonitorTest, OneMonitorPerClusterWhichOutlivesIt) {
  sim::Simulation sim;
  hw::CpuCluster x86(sim, hw::xeon_bronze_3104());
  auto monitor = std::make_unique<LoadMonitor>(sim, x86);
  EXPECT_THROW(LoadMonitor second(sim, x86), ContractViolation);
  x86.attach_process();
  monitor.reset();
  EXPECT_EQ(x86.load_watcher(), nullptr);
  // Nothing left to notify: all four mutators still work.
  x86.attach_process();
  x86.attach_processes(3);
  x86.detach_process();
  x86.detach_processes(2);
  EXPECT_EQ(x86.load(), 2);
  LoadMonitor again(sim, x86);  // the watcher slot is free again
  EXPECT_EQ(again.x86_load(), 2);
}

// --- Algorithm 2: the pure policy, exhaustively ---------------------------

struct PolicyCase {
  int load;
  int arm_thr;
  int fpga_thr;
  bool kernel;
  Target expect;
  bool expect_reconfig;
};

class DecidePlacementTest : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(DecidePlacementTest, FollowsAlgorithm2) {
  const auto& c = GetParam();
  bool wants_reconfig = false;
  const Target got = decide_placement(c.load, c.arm_thr, c.fpga_thr,
                                      c.kernel, wants_reconfig);
  EXPECT_EQ(got, c.expect);
  EXPECT_EQ(wants_reconfig, c.expect_reconfig);
}

INSTANTIATE_TEST_SUITE_P(
    PaperCases, DecidePlacementTest,
    ::testing::Values(
        // Lines 19-21: below both thresholds -> stay on x86.
        PolicyCase{5, 20, 10, false, Target::kX86, false},
        PolicyCase{5, 20, 10, true, Target::kX86, false},
        PolicyCase{10, 20, 10, true, Target::kX86, false},  // load == thr
        // Lines 9-13: above FPGA thr only, kernel absent -> x86 now,
        // reconfigure in the background.
        PolicyCase{15, 20, 10, false, Target::kX86, true},
        // Lines 14-18: above both, kernel absent -> ARM + reconfigure.
        PolicyCase{25, 20, 10, false, Target::kArm, true},
        // Lines 22-24: above ARM thr only -> ARM.
        PolicyCase{25, 20, 30, false, Target::kArm, false},
        PolicyCase{25, 20, 30, true, Target::kArm, false},
        // Lines 25-31: above FPGA thr, kernel present: smaller threshold
        // wins (smaller threshold implies faster target).
        PolicyCase{15, 20, 10, true, Target::kFpga, false},
        PolicyCase{25, 20, 10, true, Target::kFpga, false},
        PolicyCase{25, 10, 20, true, Target::kArm, false},
        // FPGA-favoured app (FPGA_THR = 0, paper Table 2): any load with
        // the kernel resident goes to hardware.
        PolicyCase{1, 18, 0, true, Target::kFpga, false},
        PolicyCase{120, 18, 0, true, Target::kFpga, false},
        PolicyCase{1, 18, 0, false, Target::kX86, true}));

// Property sweep: the policy is total (never crashes) and respects the
// kernel-residency invariant: never selects the FPGA when absent.
class PolicySweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(PolicySweepTest, TotalAndNeverFpgaWithoutKernel) {
  const auto [load, arm_thr, fpga_thr, kernel] = GetParam();
  bool wants_reconfig = false;
  const Target got =
      decide_placement(load, arm_thr, fpga_thr, kernel, wants_reconfig);
  if (!kernel) {
    EXPECT_NE(got, Target::kFpga);
    // Reconfiguration is requested exactly when the load passed the
    // FPGA threshold.
    EXPECT_EQ(wants_reconfig, load > fpga_thr);
  } else {
    EXPECT_FALSE(wants_reconfig);
  }
  if (got == Target::kFpga) {
    EXPECT_TRUE(kernel);
    EXPECT_GT(load, fpga_thr);
    EXPECT_LT(fpga_thr, arm_thr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PolicySweepTest,
    ::testing::Combine(::testing::Values(0, 1, 6, 16, 31, 60, 120),
                       ::testing::Values(0, 17, 25, 31),
                       ::testing::Values(0, 16, 31),
                       ::testing::Bool()));

// --- Algorithm 1: the client -----------------------------------------------

struct ClientFixture : ::testing::Test {
  ThresholdTable table;
  SchedulerClient client{table};

  void SetUp() override {
    // FaceDet320-like row: FPGA 332ms / ARM 642ms / x86 175ms,
    // thresholds 16 / 31.
    table.upsert(entry("face", 16, 31, 175, 642, 332));
  }
};

TEST_F(ClientFixture, X86SlowerThanFpgaBelowThresholdLowersFpgaThr) {
  RunObservation obs{"face", Target::kX86, Duration::ms(400), 12};
  EXPECT_EQ(client.on_function_return(obs),
            ThresholdUpdate::kLoweredFpgaThreshold);
  EXPECT_EQ(table.at("face").fpga_threshold, 12);
}

TEST_F(ClientFixture, X86SlowerThanArmOnlyLowersArmThr) {
  // Slower than ARM (642) but the load is above FPGA_THR, so the first
  // branch does not fire; the ARM branch does.
  RunObservation obs{"face", Target::kX86, Duration::ms(700), 20};
  EXPECT_EQ(client.on_function_return(obs),
            ThresholdUpdate::kLoweredArmThreshold);
  EXPECT_EQ(table.at("face").arm_threshold, 20);
  EXPECT_EQ(table.at("face").fpga_threshold, 16);  // untouched
}

TEST_F(ClientFixture, FastX86RunJustRecordsTime) {
  RunObservation obs{"face", Target::kX86, Duration::ms(180), 3};
  EXPECT_EQ(client.on_function_return(obs),
            ThresholdUpdate::kRecordedX86Exec);
  EXPECT_DOUBLE_EQ(table.at("face").x86_exec.to_ms(), 180.0);
}

TEST_F(ClientFixture, DisappointingArmRunRaisesArmThr) {
  RunObservation obs{"face", Target::kArm, Duration::ms(800), 40};
  EXPECT_EQ(client.on_function_return(obs),
            ThresholdUpdate::kRaisedArmThreshold);
  EXPECT_EQ(table.at("face").arm_threshold, 32);  // +1 step
  EXPECT_DOUBLE_EQ(table.at("face").arm_exec.to_ms(), 800.0);  // recorded
}

TEST_F(ClientFixture, GoodArmRunOnlyRecords) {
  RunObservation obs{"face", Target::kArm, Duration::ms(100), 40};
  EXPECT_EQ(client.on_function_return(obs), ThresholdUpdate::kRecordedOnly);
  EXPECT_EQ(table.at("face").arm_threshold, 31);
}

TEST_F(ClientFixture, DisappointingFpgaRunRaisesFpgaThr) {
  RunObservation obs{"face", Target::kFpga, Duration::ms(500), 40};
  EXPECT_EQ(client.on_function_return(obs),
            ThresholdUpdate::kRaisedFpgaThreshold);
  EXPECT_EQ(table.at("face").fpga_threshold, 17);
}

TEST_F(ClientFixture, RefinementCanBeDisabled) {
  SchedulerClient off(table, SchedulerClient::Options{false});
  RunObservation obs{"face", Target::kX86, Duration::ms(400), 12};
  EXPECT_EQ(off.on_function_return(obs), ThresholdUpdate::kDisabled);
  EXPECT_EQ(table.at("face").fpga_threshold, 16);  // untouched
}

TEST_F(ClientFixture, RaisesAreCapped) {
  table.upsert(entry("face", 16, 4096, 175, 642, 332));
  RunObservation obs{"face", Target::kArm, Duration::ms(9999), 40};
  EXPECT_EQ(client.on_function_return(obs),
            ThresholdUpdate::kRaisedArmThreshold);
  EXPECT_EQ(table.at("face").arm_threshold, 4096);
}

// --- Server + executor integration -----------------------------------------

struct ServerFixture : ::testing::Test {
  platform::Testbed testbed;
  ThresholdTable table;
  std::unique_ptr<LoadMonitor> monitor;
  std::unique_ptr<SchedulerServer> server;

  fpga::XclbinImage image() {
    fpga::XclbinImage img;
    img.id = "img0";
    img.size_bytes = 4 << 20;
    fpga::HwKernelConfig k;
    k.name = "KNL_face";
    k.clock_mhz = 300;
    k.fixed_cycles = 300'000;
    k.cycles_per_item = 300'000;
    img.kernels.push_back(k);
    return img;
  }

  void SetUp() override {
    table.upsert(entry("face", 16, 31, 175, 642, 332));
    monitor = std::make_unique<LoadMonitor>(testbed.simulation(),
                                            testbed.x86());
    server = std::make_unique<SchedulerServer>(
        testbed.simulation(), *monitor, testbed.fpga(), table,
        std::vector<fpga::XclbinImage>{image()});
  }

  PlacementDecision decide_now() {
    PlacementDecision decision;
    bool got = false;
    server->request_placement("face", [&](PlacementDecision d) {
      decision = d;
      got = true;
    });
    while (!got &&
           testbed.simulation().step_one(TimePoint::at_ms(1e9))) {
    }
    EXPECT_TRUE(got);
    return decision;
  }
};

TEST_F(ServerFixture, LowLoadStaysOnX86) {
  const auto decision = decide_now();
  EXPECT_EQ(decision.target, Target::kX86);
  EXPECT_FALSE(decision.reconfiguration_started);
  EXPECT_EQ(server->stats().to_x86, 1u);
}

TEST_F(ServerFixture, HighLoadWithoutKernelStartsReconfiguration) {
  for (int i = 0; i < 20; ++i) testbed.x86().attach_process();
  testbed.simulation().run_until(TimePoint::at_ms(200));  // monitor tick
  const auto decision = decide_now();
  // Load 20 > FPGA_THR 16 but <= ARM_THR 31, no kernel: stay on x86 and
  // configure in the background (Algorithm 2 lines 9-13).
  EXPECT_EQ(decision.target, Target::kX86);
  EXPECT_TRUE(decision.reconfiguration_started);
  EXPECT_TRUE(testbed.fpga().reconfiguring());
  // Once live, the same load goes to hardware.
  testbed.simulation().run_until(testbed.simulation().now() +
                                 Duration::seconds(2));
  EXPECT_TRUE(testbed.fpga().has_kernel("KNL_face"));
  const auto second = decide_now();
  EXPECT_EQ(second.target, Target::kFpga);
  EXPECT_EQ(server->stats().reconfigurations_started, 1u);
}

TEST_F(ServerFixture, VeryHighLoadWithoutKernelGoesToArm) {
  for (int i = 0; i < 40; ++i) testbed.x86().attach_process();
  testbed.simulation().run_until(TimePoint::at_ms(200));
  const auto decision = decide_now();
  EXPECT_EQ(decision.target, Target::kArm);
  EXPECT_TRUE(decision.reconfiguration_started);
}

TEST_F(ServerFixture, UnknownAppThrowsThroughRequest) {
  // The app resolves at the call: a name without a row throws there,
  // and the requests made on either side of it share one pass.
  int decisions = 0;
  const auto count = [&](PlacementDecision) { ++decisions; };
  server->request_placement("face", count);
  EXPECT_THROW(server->request_placement("nope", count), Error);
  server->request_placement("face", count);
  testbed.simulation().run_until(TimePoint::at_ms(1.0));
  EXPECT_EQ(decisions, 2);
  EXPECT_EQ(server->stats().batches, 1u);
  EXPECT_EQ(server->stats().max_batch, 2u);
  // The server keeps serving new batches afterwards.
  EXPECT_EQ(decide_now().target, Target::kX86);
  EXPECT_EQ(server->stats().batches, 2u);
}

// --- Migration executor ------------------------------------------------------

struct ExecutorFixture : ::testing::Test {
  platform::Testbed testbed;
  MigrationExecutor executor{testbed};

  FunctionCosts costs() {
    FunctionCosts c;
    c.x86_ms = Duration::ms(150);
    c.arm_ms = Duration::ms(600);
    c.migrate_bytes = 1 << 20;
    c.return_bytes = 64 << 10;
    c.transform_ms = Duration::micros(250);
    c.kernel_name = "KNL_face";
    c.fpga_items = 1;
    c.fpga_input_bytes = 76'800;
    c.fpga_output_bytes = 4'096;
    c.xrt_call_overhead = Duration::ms(1.5);
    return c;
  }

  Duration run_target(Target t, bool wait = false) {
    return run_target(t, costs(), wait);
  }

  Duration run_target(Target t, const FunctionCosts& c, bool wait = false) {
    Duration elapsed = Duration::zero();
    bool done = false;
    executor.execute(t, c,
                     [&](Duration d) {
                       elapsed = d;
                       done = true;
                     },
                     wait);
    while (!done && testbed.simulation().step_one(TimePoint::at_ms(1e9))) {
    }
    EXPECT_TRUE(done);
    return elapsed;
  }
};

TEST_F(ExecutorFixture, X86PathTakesSoftwareDemand) {
  EXPECT_NEAR(run_target(Target::kX86).to_ms(), 150.0, 1e-6);
}

TEST_F(ExecutorFixture, ArmPathIncludesMigrationOverheads) {
  // Each transform hides behind its wire leg, so the path costs
  // max(transform, wire out) + arm + max(transform, wire back): exactly
  // two transforms under the serialized sum of the same legs.
  const auto wire_ms = [this](std::uint64_t bytes) {
    const hw::LinkSpec& eth = testbed.ethernet().spec();
    return eth.latency.to_ms() + static_cast<double>(bytes) / (1 << 20) /
                                     eth.bandwidth_mb_per_ms;
  };
  FunctionCosts burst = costs();
  burst.arm_ms = Duration::ms(100);
  burst.migrate_bytes = 4 << 20;
  burst.return_bytes = 1 << 20;
  burst.transform_ms = Duration::ms(5);
  // 8.12 + 600 + 0.62 for the fixture's legs (1 MiB out, 64 KiB back,
  // 0.25 ms transforms); 32.12 + 100 + 8.12 for the 4 MiB burst.
  const std::pair<FunctionCosts, double> cases[] = {{costs(), 608.74},
                                                    {burst, 140.24}};
  for (const auto& [c, want_ms] : cases) {
    const double ms = run_target(Target::kArm, c).to_ms();
    EXPECT_NEAR(ms, want_ms, 1e-6);
    const double transform = c.transform_ms.to_ms();
    const double serialized = transform + wire_ms(c.migrate_bytes) +
                              c.arm_ms.to_ms() + transform +
                              wire_ms(c.return_bytes);
    EXPECT_NEAR(serialized - ms, 2 * transform, 1e-6);
  }
}

TEST_F(ExecutorFixture, FpgaPathFallsBackWhenKernelMissing) {
  // Nothing configured: the executor degrades to the software path.
  const double ms = run_target(Target::kFpga).to_ms();
  EXPECT_NEAR(ms, 150.0, 1e-6);
  EXPECT_EQ(executor.fpga_fallbacks(), 1u);
}

TEST_F(ExecutorFixture, FpgaPathRunsKernelWhenLoaded) {
  fpga::XclbinImage img;
  img.id = "img";
  img.size_bytes = 4 << 20;
  fpga::HwKernelConfig k;
  k.name = "KNL_face";
  k.clock_mhz = 300;
  k.fixed_cycles = 0;
  k.cycles_per_item = 91'650'000;  // 305.5 ms
  img.kernels.push_back(k);
  testbed.fpga().reconfigure(img, [](fpga::ReconfigureResult) {});
  testbed.simulation().run_until(testbed.simulation().now() +
                                 Duration::seconds(2));
  const double ms = run_target(Target::kFpga).to_ms();
  // xrt 1.5 + dma in/out (sub-ms) + 305.5 kernel.
  EXPECT_NEAR(ms, 307.0, 0.5);
  EXPECT_EQ(executor.fpga_fallbacks(), 0u);
}

TEST_F(ExecutorFixture, WaitForFpgaBlocksUntilConfigured) {
  fpga::XclbinImage img;
  img.id = "img";
  img.size_bytes = 4 << 20;
  fpga::HwKernelConfig k;
  k.name = "KNL_face";
  k.clock_mhz = 300;
  k.fixed_cycles = 300'000;  // 1 ms
  k.cycles_per_item = 0;
  img.kernels.push_back(k);
  testbed.fpga().reconfigure(img, [](fpga::ReconfigureResult) {});  // takes ~300 ms
  const double ms = run_target(Target::kFpga, /*wait=*/true).to_ms();
  EXPECT_GT(ms, 300.0);  // waited for programming
  EXPECT_EQ(executor.fpga_fallbacks(), 0u);
}

}  // namespace
}  // namespace xartrek::runtime
