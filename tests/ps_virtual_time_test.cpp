// Property tests pinning the virtual-time PsResource to the contract of
// the original per-job-decrement formulation: identical completion
// times, identical same-instant completion order, conserved delivered
// work -- under interleaved submit/cancel storms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sim/ps_resource.hpp"
#include "sim/simulation.hpp"

namespace xartrek::sim {
namespace {

// --- reference model: the pre-refactor O(resident jobs) design -------------
//
// A faithful replica of the seed PsResource: ordered map of jobs, every
// submit/cancel/tick charges elapsed service to *each* resident job.
// Completion ties resolve in id (submission) order.  The virtual-time
// implementation must reproduce its observable behavior exactly.
class ModelPs {
 public:
  using JobId = std::uint64_t;
  using Callback = std::function<void()>;

  ModelPs(Simulation& sim, double capacity, double per_job_cap)
      : sim_(sim),
        capacity_(capacity),
        per_job_cap_(per_job_cap),
        last_advance_(sim.now()) {}

  JobId submit(double demand, Callback on_complete) {
    advance();
    const JobId id = next_id_++;
    jobs_.emplace(id, Job{demand, std::move(on_complete)});
    reschedule();
    return id;
  }

  bool cancel(JobId id) {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    advance();
    jobs_.erase(it);
    reschedule();
    return true;
  }

  [[nodiscard]] double delivered_work() const {
    const double elapsed = (sim_.now() - last_advance_).to_ms();
    const double rate = rate_per_job(jobs_.size());
    return delivered_ + elapsed * rate * static_cast<double>(jobs_.size());
  }

  [[nodiscard]] std::size_t active_jobs() const { return jobs_.size(); }

 private:
  struct Job {
    double remaining;
    Callback on_complete;
  };

  [[nodiscard]] double rate_per_job(std::size_t n) const {
    if (n == 0) return 0.0;
    const double fair = capacity_ / static_cast<double>(n);
    return fair < per_job_cap_ ? fair : per_job_cap_;
  }

  void advance() {
    const double elapsed = (sim_.now() - last_advance_).to_ms();
    last_advance_ = sim_.now();
    if (elapsed <= 0.0 || jobs_.empty()) return;
    const double served = elapsed * rate_per_job(jobs_.size());
    delivered_ += served * static_cast<double>(jobs_.size());
    for (auto& [id, job] : jobs_) {
      job.remaining -= served;
      if (job.remaining < 0.0) job.remaining = 0.0;
    }
  }

  void reschedule() {
    pending_.cancel();
    if (jobs_.empty()) return;
    double min_remaining = jobs_.begin()->second.remaining;
    for (const auto& [id, job] : jobs_) {
      if (job.remaining < min_remaining) min_remaining = job.remaining;
    }
    const double rate = rate_per_job(jobs_.size());
    const Duration dt = Duration::ms(min_remaining / rate);
    pending_ = sim_.schedule_in(dt, [this] { on_tick(); });
  }

  void on_tick() {
    advance();
    std::vector<Callback> done;
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      if (it->second.remaining <= 1e-9) {
        done.push_back(std::move(it->second.on_complete));
        it = jobs_.erase(it);
      } else {
        ++it;
      }
    }
    reschedule();
    for (auto& cb : done) cb();
  }

  Simulation& sim_;
  double capacity_;
  double per_job_cap_;
  std::map<JobId, Job> jobs_;
  JobId next_id_ = 1;
  TimePoint last_advance_;
  double delivered_ = 0.0;
  Simulation::EventHandle pending_;
};

/// One recorded completion: (sim time, storm-level job tag).
using Trace = std::vector<std::pair<double, int>>;

/// A randomized submit/cancel storm, replayable against either
/// implementation.  Drives submissions at random times with random
/// demands, and cancels a random earlier-submitted job ~30% of the time.
struct StormScript {
  struct Submission {
    double at_ms;
    double demand;
    int tag;
  };
  struct Cancellation {
    double at_ms;
    int victim_tag;  ///< cancel the job submitted with this tag
  };
  std::vector<Submission> submissions;
  std::vector<Cancellation> cancellations;

  static StormScript random(std::uint64_t seed, int jobs) {
    Rng rng(seed);
    StormScript s;
    for (int i = 0; i < jobs; ++i) {
      // Coarse timestamps force plenty of same-instant submissions.
      const double at = static_cast<double>(rng.uniform_int(0, 40));
      // Small demand range forces plenty of same-instant completions.
      const double demand = 5.0 * static_cast<double>(rng.uniform_int(1, 6));
      s.submissions.push_back({at, demand, i});
      if (i > 0 && rng.bernoulli(0.3)) {
        const int victim =
            static_cast<int>(rng.uniform_int(0, static_cast<int>(i) - 1));
        s.cancellations.push_back(
            {at + static_cast<double>(rng.uniform_int(0, 20)), victim});
      }
    }
    return s;
  }
};

/// Runs the storm against implementation `Ps`; returns the completion
/// trace and the final delivered work.
template <typename Ps>
std::pair<Trace, double> run_storm(const StormScript& script,
                                   double capacity, double per_job_cap) {
  Simulation sim;
  Ps ps(sim, capacity, per_job_cap);
  Trace trace;
  std::map<int, typename Ps::JobId> ids;
  for (const auto& sub : script.submissions) {
    sim.schedule_at(TimePoint::at_ms(sub.at_ms), [&ps, &trace, &ids, &sim,
                                                  sub] {
      ids[sub.tag] = ps.submit(sub.demand, [&trace, &sim, tag = sub.tag] {
        trace.emplace_back(sim.now().to_ms(), tag);
      });
    });
  }
  for (const auto& can : script.cancellations) {
    sim.schedule_at(TimePoint::at_ms(can.at_ms), [&ps, &ids, can] {
      const auto it = ids.find(can.victim_tag);
      if (it != ids.end()) (void)ps.cancel(it->second);
    });
  }
  sim.run();
  return {trace, ps.delivered_work()};
}

/// Adapter giving the real PsResource the two-double constructor the
/// template above expects.
class RealPs : public PsResource {
 public:
  RealPs(Simulation& sim, double capacity, double per_job_cap)
      : PsResource(sim, Config{"storm", capacity, per_job_cap}) {}
};

TEST(PsVirtualTimeTest, StormMatchesModelCompletionsAndOrder) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const StormScript script = StormScript::random(seed, 120);
    const auto [real_trace, real_work] = run_storm<RealPs>(script, 6.0, 1.0);
    const auto [model_trace, model_work] =
        run_storm<ModelPs>(script, 6.0, 1.0);

    ASSERT_EQ(real_trace.size(), model_trace.size()) << "seed " << seed;
    for (std::size_t i = 0; i < real_trace.size(); ++i) {
      // Same completion order (including same-instant ties), same time.
      EXPECT_EQ(real_trace[i].second, model_trace[i].second)
          << "seed " << seed << " completion " << i;
      EXPECT_NEAR(real_trace[i].first, model_trace[i].first, 1e-6)
          << "seed " << seed << " completion " << i;
    }
    EXPECT_NEAR(real_work, model_work, 1e-6 * (1.0 + model_work))
        << "seed " << seed;
  }
}

TEST(PsVirtualTimeTest, StormOnLinkSharingMatchesModel) {
  // per_job_cap == capacity: the link regime (one job can saturate).
  for (std::uint64_t seed = 20; seed <= 24; ++seed) {
    const StormScript script = StormScript::random(seed, 80);
    const auto [real_trace, real_work] = run_storm<RealPs>(script, 10.0, 10.0);
    const auto [model_trace, model_work] =
        run_storm<ModelPs>(script, 10.0, 10.0);
    ASSERT_EQ(real_trace.size(), model_trace.size()) << "seed " << seed;
    for (std::size_t i = 0; i < real_trace.size(); ++i) {
      EXPECT_EQ(real_trace[i].second, model_trace[i].second) << "seed "
                                                             << seed;
      EXPECT_NEAR(real_trace[i].first, model_trace[i].first, 1e-6);
    }
    EXPECT_NEAR(real_work, model_work, 1e-6 * (1.0 + model_work));
  }
}

TEST(PsVirtualTimeTest, DeliveredWorkConservedUnderCancellation) {
  // Delivered work must equal the sum of completed demands plus the
  // attained service of every cancelled job at its cancellation instant.
  Simulation sim;
  PsResource cpu(sim, {"cpu", 1.0, 1.0});
  double completed_demand = 0.0;

  // Two long jobs share the core; one is cancelled at t=10 having
  // attained 10 * 1/2 = 5 units.
  cpu.submit(100.0, [&] { completed_demand += 100.0; });
  const auto victim = cpu.submit(100.0, [] { ADD_FAILURE(); });
  sim.schedule_at(TimePoint::at_ms(10), [&] {
    EXPECT_TRUE(cpu.cancel(victim));
  });
  sim.run();
  EXPECT_NEAR(cpu.delivered_work(), completed_demand + 5.0, 1e-9);
}

TEST(PsVirtualTimeTest, SameInstantCompletionsFireInSubmissionOrder) {
  // Six identical jobs on a six-core cluster: all complete at the same
  // instant; order must be submission order.
  Simulation sim;
  PsResource cpu(sim, {"cpu", 6.0, 1.0});
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    cpu.submit(50.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(PsVirtualTimeTest, StaggeredJobsEngineeredToTieFollowSubmissionOrder) {
  // Capacity 2, cap 1: with <= 2 jobs each runs at full speed, so B
  // submitted at t=2 with demand 8 ties A (demand 10, t=0) at t=10.
  Simulation sim;
  PsResource cpu(sim, {"cpu", 2.0, 1.0});
  std::vector<char> order;
  cpu.submit(10.0, [&] { order.push_back('A'); });
  sim.schedule_at(TimePoint::at_ms(2), [&] {
    cpu.submit(8.0, [&] { order.push_back('B'); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now().to_ms(), 10.0);
  EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
}

TEST(PsVirtualTimeTest, StaleIdsNeverAliasRecycledSlots) {
  Simulation sim;
  PsResource cpu(sim, {"cpu", 4.0, 1.0});
  std::vector<PsResource::JobId> finished_ids;
  // Round 1: jobs complete, returning their slots to the free list.
  for (int i = 0; i < 8; ++i) {
    finished_ids.push_back(cpu.submit(1.0, [] {}));
  }
  sim.run();
  // Round 2: new jobs recycle those slots.
  int survivors = 0;
  for (int i = 0; i < 8; ++i) {
    cpu.submit(1.0, [&survivors] { ++survivors; });
  }
  // Stale ids (completed jobs) must not cancel the new occupants.
  for (const auto id : finished_ids) EXPECT_FALSE(cpu.cancel(id));
  sim.run();
  EXPECT_EQ(survivors, 8);
}

TEST(PsVirtualTimeTest, CancelledIdIsImmediatelyStale) {
  Simulation sim;
  PsResource cpu(sim, {"cpu", 1.0, 1.0});
  const auto id = cpu.submit(10.0, [] { ADD_FAILURE(); });
  EXPECT_TRUE(cpu.cancel(id));
  EXPECT_FALSE(cpu.cancel(id));  // double cancel: stale
  // The recycled slot's next occupant is untouchable through the old id.
  bool fired = false;
  cpu.submit(1.0, [&fired] { fired = true; });
  EXPECT_FALSE(cpu.cancel(id));
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(PsVirtualTimeTest, RemainingDemandConsistentAfterRateChanges) {
  Simulation sim;
  PsResource cpu(sim, {"cpu", 1.0, 1.0});
  const auto a = cpu.submit(100.0, [] {});
  // t in [0,10): alone at rate 1.  t in [10,30): shared at rate 1/2.
  sim.schedule_at(TimePoint::at_ms(10), [&] {
    cpu.submit(10.0, [] {});
    EXPECT_NEAR(cpu.remaining_demand(a), 90.0, 1e-9);
  });
  sim.schedule_at(TimePoint::at_ms(20), [&] {
    EXPECT_NEAR(cpu.remaining_demand(a), 85.0, 1e-9);
  });
  sim.run();
}

TEST(PsVirtualTimeTest, HundredThousandResidentJobsDrainCorrectly) {
  // A smoke-scale version of the Fig. 5 sweep: O(log n) bookkeeping has
  // to survive six-digit residency with exact accounting.
  Simulation sim;
  PsResource cpu(sim, {"cpu", 6.0, 1.0});
  cpu.reserve_jobs(100'000);
  std::size_t completions = 0;
  double total_demand = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    const double demand = 1.0 + (i % 7);
    total_demand += demand;
    cpu.submit(demand, [&completions] { ++completions; });
  }
  EXPECT_EQ(cpu.active_jobs(), 100'000u);
  sim.run();
  EXPECT_EQ(completions, 100'000u);
  EXPECT_EQ(cpu.active_jobs(), 0u);
  EXPECT_NEAR(cpu.delivered_work(), total_demand,
              1e-9 * total_demand);
}

TEST(PsVirtualTimeTest, FinishThatRoundsToNowCompletesInThisTick) {
  // On a fast link late in a run, a residual just above the 1e-9
  // tolerance needs a dt below half an ulp of now: 1.5e-9 / 32 =
  // 4.7e-11 ms against a half-ulp of 5.8e-11 at 1e6 ms.  Re-arming at
  // now would serve nothing and re-arm forever, so the job is due.
  Simulation sim;
  PsResource link(sim, {"pcie", 32.0, 32.0});  // hw::pcie_gen3's bandwidth
  sim.run_until(TimePoint::at_ms(1e6));
  std::vector<std::pair<int, double>> done;
  link.submit(1.0, [&] { done.emplace_back(0, sim.now().to_ms()); });
  link.submit(1.0 + 1.5e-9, [&] { done.emplace_back(1, sim.now().to_ms()); });
  constexpr int kMaxSteps = 100;
  int steps = 0;
  while (steps < kMaxSteps && sim.step_one(TimePoint::at_ms(2e6))) ++steps;
  EXPECT_LT(steps, kMaxSteps);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], std::make_pair(0, 1000000.0625));
  EXPECT_EQ(done[1], std::make_pair(1, 1000000.0625));
  EXPECT_EQ(link.active_jobs(), 0u);
}

TEST(PsVirtualTimeTest, TickArmsOneEventWhateverItsCallbacksDo) {
  // Eager re-arming left a cancelled husk in the engine queue for every
  // submit, cancel and rescale a completion callback made.  Deferred,
  // each tick arms exactly one event.
  Simulation sim;
  PsResource cpu(sim, {"cpu", 2.0, 1.0});
  PsResource::JobId victim = 0;
  int finished = 0;
  cpu.submit(0.0, [&] {  // the first tick lays out the jobs
    victim = cpu.submit(10.0, [] { ADD_FAILURE(); });
    cpu.submit(20.0, [&] { ++finished; });
    cpu.submit(1.0, [&] {
      cpu.submit(1.0, [&] { ++finished; });
      EXPECT_TRUE(cpu.cancel(victim));
      cpu.set_capacity_scale(0.5);
    });
  });
  ASSERT_TRUE(sim.step_one(TimePoint::at_ms(0)));
  EXPECT_EQ(sim.queued_events(), 1u);
  ASSERT_TRUE(sim.step_one(TimePoint::at_ms(10)));
  EXPECT_DOUBLE_EQ(sim.now().to_ms(), 1.5);  // three jobs at rate 2/3
  EXPECT_EQ(sim.queued_events(), 1u);
  EXPECT_EQ(sim.scheduled_events(), 3u);  // the first submit + two ticks
  EXPECT_EQ(cpu.active_jobs(), 2u);
  sim.run();
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(cpu.active_jobs(), 0u);
}

TEST(PsVirtualTimeTest, DeferredArmKeepsSameInstantOrderWithEngineEvents) {
  // The deferred arm carries the sequence number its re-arm drew, so a
  // completion made due inside a callback still orders against engine
  // events scheduled in the same callback by call order.
  for (const bool submit_first : {true, false}) {
    Simulation sim;
    PsResource cpu(sim, {"cpu", 1.0, 1.0});
    std::string order;
    const auto ps = [&] { cpu.submit(0.0, [&] { order += 'P'; }); };
    const auto engine = [&] {
      sim.schedule_in(Duration::zero(), [&] { order += 'E'; });
    };
    cpu.submit(1.0, [&] {
      if (submit_first) {
        ps();
        engine();
      } else {
        engine();
        ps();
      }
    });
    sim.run();
    EXPECT_EQ(order, submit_first ? "PE" : "EP");
  }
}

TEST(PsVirtualTimeTest, ThrowingCompletionLeavesResourceArmed) {
  // A resubmits and then throws out of the event loop: its tick must
  // still arm the next completion, or A's successor and B would stall.
  Simulation sim;
  PsResource cpu(sim, {"cpu", 2.0, 1.0});
  std::string done;
  cpu.submit(1.0, [&] {
    cpu.submit(1.0, [&] { done += 'a'; });
    throw std::runtime_error("completion failed");
  });
  cpu.submit(5.0, [&] { done += 'B'; });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_DOUBLE_EQ(sim.now().to_ms(), 1.0);
  EXPECT_EQ(cpu.active_jobs(), 2u);
  sim.run();
  EXPECT_EQ(done, "aB");
  EXPECT_DOUBLE_EQ(sim.now().to_ms(), 5.0);
  EXPECT_EQ(cpu.active_jobs(), 0u);
}

// --- Batch scopes ------------------------------------------------------------

// Completion instant (bits) and job index, in firing order.
using CompletionLog = std::vector<std::pair<std::uint64_t, int>>;

void log_completion(CompletionLog& log, const Simulation& sim, int job) {
  const double now = sim.now().to_ms();
  std::uint64_t bits = 0;
  std::memcpy(&bits, &now, sizeof(bits));
  log.emplace_back(bits, job);
}

TEST(PsBatchTest, SubmitBurstArmsOnceAndCompletesAsEagerly) {
  // 512 submits on a resource already holding a job: eagerly each one
  // cancels the armed completion and arms another; in one scope only
  // the scope's end arms.  Same instants, same order, to the bit.
  constexpr int kJobs = 512;
  CompletionLog logs[2];
  std::uint64_t armed[2] = {};
  for (const bool batched : {false, true}) {
    Simulation sim;
    PsResource cpu(sim, {"cpu", 6.0, 1.0});
    CompletionLog& log = logs[batched];
    cpu.submit(3.0, [&] { log_completion(log, sim, -1); });
    const std::uint64_t before = sim.scheduled_events();
    {
      std::optional<PsResource::Batch> batch;
      if (batched) batch.emplace(cpu);
      for (int j = 0; j < kJobs; ++j) {
        const double demand = 0.5 + 0.25 * (j % 37);  // ties every 37 jobs
        cpu.submit(demand, [&, j] { log_completion(log, sim, j); });
      }
    }
    armed[batched] = sim.scheduled_events() - before;
    sim.run();
    EXPECT_EQ(log.size(), kJobs + 1u);
    EXPECT_EQ(cpu.active_jobs(), 0u);
  }
  EXPECT_EQ(armed[false], static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(armed[true], 1u);
  EXPECT_EQ(logs[true], logs[false]);
}

TEST(PsBatchTest, ArmKeepsSameInstantOrderWithEngineEvents) {
  // The scope arms under the number the last submit drew, so due
  // completions order against engine events scheduled inside the scope
  // exactly as eager re-arming orders them: 'P' submits a zero-demand
  // job, 'E' schedules an engine event at now.
  const struct {
    const char* calls;
    const char* fired;
  } cases[] = {{"PE", "PE"}, {"EP", "EP"}, {"PEP", "EPP"}};
  for (const auto& c : cases) {
    for (const bool batched : {false, true}) {
      Simulation sim;
      PsResource cpu(sim, {"cpu", 1.0, 1.0});
      std::string order;
      {
        std::optional<PsResource::Batch> batch;
        if (batched) batch.emplace(cpu);
        for (const char* call = c.calls; *call != '\0'; ++call) {
          if (*call == 'P') {
            cpu.submit(0.0, [&] { order += 'P'; });
          } else {
            sim.schedule_in(Duration::zero(), [&] { order += 'E'; });
          }
        }
      }
      sim.run();
      EXPECT_EQ(order, c.fired) << c.calls << (batched ? " batched" : "");
    }
  }
}

TEST(PsBatchTest, CancellingEveryJobLeavesNoLiveCompletion) {
  constexpr int kJobs = 64;
  double delivered[2] = {};
  for (const bool batched : {false, true}) {
    Simulation sim;
    PsResource cpu(sim, {"cpu", 4.0, 1.0});
    std::vector<PsResource::JobId> ids;
    for (int j = 0; j < kJobs; ++j) {
      ids.push_back(cpu.submit(10.0 + j, [] { ADD_FAILURE(); }));
    }
    sim.run_until(TimePoint::at_ms(25.0));
    {
      std::optional<PsResource::Batch> batch;
      if (batched) batch.emplace(cpu);
      for (const auto id : ids) EXPECT_TRUE(cpu.cancel(id));
    }
    EXPECT_EQ(cpu.active_jobs(), 0u);
    EXPECT_EQ(sim.run(), 0u);  // no completion left armed
    delivered[batched] = cpu.delivered_work();
  }
  EXPECT_EQ(delivered[true], delivered[false]);
  EXPECT_DOUBLE_EQ(delivered[true], 25.0 * 4.0);
}

TEST(PsBatchTest, ScopeInsideACompletionArmsNothingItself) {
  // The tick's own scope is open while its callbacks run, so a scope a
  // callback opens only nests: the tick arms once, after the callback.
  Simulation sim;
  PsResource cpu(sim, {"cpu", 2.0, 1.0});
  int finished = 0;
  std::uint64_t at_inner_close = 0;
  std::uint64_t at_callback_start = 0;
  cpu.submit(1.0, [&] {
    at_callback_start = sim.scheduled_events();
    {
      const PsResource::Batch batch(cpu);
      for (int j = 0; j < 8; ++j) cpu.submit(1.0 + j, [&] { ++finished; });
    }
    at_inner_close = sim.scheduled_events();
  });
  ASSERT_TRUE(sim.step_one(TimePoint::at_ms(1.0)));
  EXPECT_EQ(at_inner_close, at_callback_start);
  EXPECT_EQ(sim.scheduled_events(), at_callback_start + 1);
  sim.run();
  EXPECT_EQ(finished, 8);
}

TEST(PsBatchTest, ThrowInsideAScopeStillArms) {
  // A callback throws out of a scope it opened, and a caller throws out
  // of one outside any tick: both unwind through the scopes, and the
  // outermost still arms the next completion.
  Simulation sim;
  PsResource cpu(sim, {"cpu", 2.0, 1.0});
  std::string done;
  cpu.submit(1.0, [&] {
    const PsResource::Batch batch(cpu);
    cpu.submit(1.0, [&] { done += 'a'; });
    throw std::runtime_error("completion failed");
  });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(cpu.active_jobs(), 1u);
  const auto caller = [&] {
    const PsResource::Batch batch(cpu);
    cpu.submit(3.0, [&] { done += 'B'; });
    throw std::runtime_error("caller failed");
  };
  EXPECT_THROW(caller(), std::runtime_error);
  EXPECT_EQ(cpu.active_jobs(), 2u);
  sim.run();
  EXPECT_EQ(done, "aB");
  EXPECT_EQ(cpu.active_jobs(), 0u);
}

// A looping cohort shaped like churn4's cells: 64 lanes with jittered
// demands on a 6-core cluster, each completion resubmitting its lane.
// One completion cancels a lane and one rescales capacity; then the
// cohort stops looping, the resource drains idle, and the completion
// that empties it resubmits the live lanes into it.  Every completion
// folds (time bits, lane) into an FNV-1a hash.
struct LoopingCohort {
  static constexpr int kLanes = 64;
  static constexpr int kCancelAt = 700;  // completions
  static constexpr int kRescaleAt = 1400;
  static constexpr int kStopAt = 2000;  // the cohort winds down
  static constexpr int kFinalStopAt = 4000;

  Simulation& sim;
  PsResource& cpu;
  std::vector<PsResource::JobId> ids = std::vector<PsResource::JobId>(kLanes);
  std::vector<bool> cancelled = std::vector<bool>(kLanes, false);
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  int completions = 0;
  bool looping = true;
  bool restarted = false;

  void fold(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xFF;
      hash *= 1099511628211ull;  // FNV-1a 64-bit prime
    }
  }
  void spawn(int lane) {
    const double demand = 0.05 * (1.0 + 0.5 * lane / kLanes);
    ids[lane] = cpu.submit(demand, [this, lane] { done(lane); });
  }
  void done(int lane) {
    const double now = sim.now().to_ms();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &now, sizeof(bits));
    fold(bits);
    fold(static_cast<std::uint64_t>(lane));
    ++completions;
    if (completions == kCancelAt) {
      const int victim = (lane + 7) % kLanes;
      cancelled[victim] = cpu.cancel(ids[victim]);
    }
    if (completions == kRescaleAt) cpu.set_capacity_scale(0.75);
    if (completions == kStopAt || completions == kFinalStopAt) {
      looping = false;
    }
    if (looping) {
      spawn(lane);
    } else if (cpu.active_jobs() == 0 && !restarted) {
      // Idle, so the clock has just been rebased: resubmit into it.
      restarted = true;
      looping = true;
      for (int l = 0; l < kLanes; ++l) {
        if (!cancelled[l]) spawn(l);
      }
    }
  }
};

TEST(PsVirtualTimeTest, LoopingCohortCompletionsAreBitExact) {
  // The storms above agree with the model to 1e-6; this pins every bit
  // of the finish-time arithmetic a looping completion runs.  The hash
  // was recorded before a tick computed its next instant only once.
  Simulation sim;
  PsResource cpu(sim, {"cpu", 6.0, 1.0});
  LoopingCohort cohort{sim, cpu};
  for (int lane = 0; lane < LoopingCohort::kLanes; ++lane) cohort.spawn(lane);
  sim.run();
  EXPECT_TRUE(cohort.restarted);
  EXPECT_EQ(std::count(cohort.cancelled.begin(), cohort.cancelled.end(), true),
            1);
  // After the final stop, every live lane but the stopping one finishes.
  EXPECT_EQ(cohort.completions,
            LoopingCohort::kFinalStopAt + LoopingCohort::kLanes - 2);
  EXPECT_EQ(cpu.active_jobs(), 0u);
  EXPECT_EQ(cohort.hash, 13796013386767895069ull);
}

// --- Loop jobs ---------------------------------------------------------------

/// Looping lanes as they were before loop jobs: each completion's
/// callback resubmits its lane (apps::LoadGenerator's respawn lambda).
class RespawnLanes {
 public:
  RespawnLanes(PsResource& ps, const std::vector<double>& demands)
      : ps_(ps), demands_(demands), ids_(demands.size()) {}
  void start(std::size_t lane) {
    ids_[lane] = ps_.submit(demands_[lane], [this, lane] { start(lane); });
  }
  [[nodiscard]] PsResource::JobId id(std::size_t lane) const {
    return ids_[lane];
  }

 private:
  PsResource& ps_;
  std::vector<double> demands_;
  std::vector<PsResource::JobId> ids_;
};

/// The same lanes as loop jobs.
class LoopLanes {
 public:
  LoopLanes(PsResource& ps, const std::vector<double>& demands)
      : ps_(ps), demands_(demands), ids_(demands.size()) {}
  void start(std::size_t lane) { ids_[lane] = ps_.submit_loop(demands_[lane]); }
  [[nodiscard]] PsResource::JobId id(std::size_t lane) const {
    return ids_[lane];
  }

 private:
  PsResource& ps_;
  std::vector<double> demands_;
  std::vector<PsResource::JobId> ids_;
};

struct LaneScenario {
  explicit LaneScenario(std::vector<double> d) : demands(std::move(d)) {}

  std::vector<double> demands;  ///< one per lane
  /// When set, a one-shot probe job of `probe_demand` is submitted after
  /// this many lanes and before the rest; its callback logs what it sees
  /// and resubmits it, so it keeps its place in every tick's order.
  std::optional<std::size_t> probe_after;
  double probe_demand = 0.0;
  /// When set, capacity drops to 0.75 at this instant and returns to
  /// 1.0 at twice it.
  std::optional<double> rescale_at_ms;
  double horizon_ms = 30.0;
};

/// Everything a run lets a caller see, as bits, in order: after every
/// engine event, the instant, active_jobs(), delivered_work() and each
/// lane's remaining demand (a lane that completed in the event reads
/// its fresh lap); in every probe callback, the instant, active_jobs()
/// and delivered_work().
using LaneLog = std::vector<std::uint64_t>;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

template <typename Lanes>
LaneLog run_lanes(const LaneScenario& sc) {
  Simulation sim;
  PsResource cpu(sim, {"cpu", 6.0, 1.0});
  Lanes lanes(cpu, sc.demands);
  LaneLog log;
  const auto observe = [&] {
    log.push_back(bits_of(sim.now().to_ms()));
    log.push_back(cpu.active_jobs());
    log.push_back(bits_of(cpu.delivered_work()));
  };
  std::function<void()> probe = [&] {
    observe();
    cpu.submit(sc.probe_demand, [&] { probe(); });
  };
  {
    const PsResource::Batch batch(cpu);  // as LoadGenerator attaches
    for (std::size_t lane = 0; lane < sc.demands.size(); ++lane) {
      if (sc.probe_after == lane) cpu.submit(sc.probe_demand, [&] { probe(); });
      lanes.start(lane);
    }
  }
  if (sc.rescale_at_ms) {
    sim.schedule_at(TimePoint::at_ms(*sc.rescale_at_ms),
                    [&] { cpu.set_capacity_scale(0.75); });
    sim.schedule_at(TimePoint::at_ms(2.0 * *sc.rescale_at_ms),
                    [&] { cpu.set_capacity_scale(1.0); });
  }
  while (sim.step_one(TimePoint::at_ms(sc.horizon_ms))) {
    observe();
    for (std::size_t lane = 0; lane < sc.demands.size(); ++lane) {
      log.push_back(bits_of(cpu.remaining_demand(lanes.id(lane))));
    }
  }
  return log;
}

/// A 64-lane cohort with churn4's kind of spread: distinct demands,
/// so most ticks serve one lap and a few serve near-ties together.
std::vector<double> jittered_demands(std::size_t lanes) {
  std::vector<double> d;
  for (std::size_t l = 0; l < lanes; ++l) {
    d.push_back(0.05 * (1.0 + 0.5 * static_cast<double>(l) / 64.0));
  }
  return d;
}

/// One demand for a whole cohort, so every lane falls due in one tick.
constexpr double kCohortDemand = 0.0513;

void expect_same_as_respawn(const LaneScenario& sc) {
  const LaneLog respawn = run_lanes<RespawnLanes>(sc);
  const LaneLog loop = run_lanes<LoopLanes>(sc);
  ASSERT_GT(respawn.size(), 1000u);
  ASSERT_EQ(loop.size(), respawn.size());
  const auto diff = std::mismatch(loop.begin(), loop.end(), respawn.begin());
  EXPECT_TRUE(diff.first == loop.end())
      << "first difference at word " << (diff.first - loop.begin());
}

TEST(PsLoopJobTest, JitteredCohortLapsLikeRespawnCallbacks) {
  // Mostly one lap per tick (each re-enters at the root), with near-ties
  // served together; a lone lane re-enters an idle, rebased clock.
  expect_same_as_respawn(LaneScenario(jittered_demands(64)));
  expect_same_as_respawn(LaneScenario(jittered_demands(1)));
}

TEST(PsLoopJobTest, CohortDueInOneTickLapsLikeRespawnCallbacks) {
  // Identical demands: every lane falls due in one tick, the pool goes
  // idle, and the lanes re-enter the rebased clock in submission order.
  expect_same_as_respawn(LaneScenario(std::vector<double>(64, kCohortDemand)));
}

TEST(PsLoopJobTest, OneShotDueInTheCohortsTickSeesEarlierLanesOnly) {
  // A one-shot probe between lanes 19 and 20, due in every cohort tick:
  // its callback must see lanes 0-19 back in service and lanes 20-63
  // still waiting for their turn, as the respawn callbacks left them.
  LaneScenario sc(std::vector<double>(64, kCohortDemand));
  sc.probe_after = 20;
  sc.probe_demand = kCohortDemand;
  expect_same_as_respawn(sc);
  const LaneLog loop = run_lanes<LoopLanes>(sc);
  EXPECT_EQ(loop[1], 20u);  // the first probe callback's active_jobs()
}

TEST(PsLoopJobTest, RescaleMidLoopKeepsRespawnInstants) {
  LaneScenario sc(jittered_demands(64));
  sc.rescale_at_ms = 7.0;
  expect_same_as_respawn(sc);
}

TEST(PsLoopJobTest, CancelInAnEarlierCallbackEndsALaneDueInTheSameTick) {
  // Lanes 0-2, a one-shot, lanes 3-7: all nine due at one instant.  The
  // one-shot's callback runs after lanes 0-2 re-entered and cancels
  // lane 5, which its tick has served but not yet re-entered.
  Simulation sim;
  PsResource cpu(sim, {"cpu", 6.0, 1.0});
  constexpr std::size_t kLanes = 8;
  std::vector<PsResource::JobId> lanes;
  std::size_t before = 0;
  std::size_t after = 0;
  bool cancelled = false;
  for (std::size_t l = 0; l < 3; ++l) lanes.push_back(cpu.submit_loop(1.0));
  cpu.submit(1.0, [&] {
    before = cpu.active_jobs();
    cancelled = cpu.cancel(lanes[5]);
    after = cpu.active_jobs();
  });
  for (std::size_t l = 3; l < kLanes; ++l) {
    lanes.push_back(cpu.submit_loop(1.0));
  }
  ASSERT_TRUE(sim.step_one(TimePoint::at_ms(10.0)));
  EXPECT_DOUBLE_EQ(sim.now().to_ms(), 1.5);  // nine jobs at rate 2/3
  EXPECT_EQ(before, 3u);
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(after, 3u);  // lane 5 was already out of service
  EXPECT_EQ(cpu.active_jobs(), kLanes - 1);  // every lane but 5 is back
  EXPECT_FALSE(cpu.cancel(lanes[5]));
  // The seven survivors keep lapping; lane 5 never returns.
  sim.run_until(TimePoint::at_ms(20.0));
  EXPECT_EQ(cpu.active_jobs(), kLanes - 1);
  EXPECT_DOUBLE_EQ(cpu.delivered_work(), 9.0 + 6.0 * (20.0 - 1.5));
}

TEST(PsLoopJobTest, ZeroDemandLoopIsRefused) {
  // It would re-enter at one instant forever.
  Simulation sim;
  PsResource cpu(sim, {"cpu", 6.0, 1.0});
  EXPECT_THROW(cpu.submit_loop(0.0), ContractViolation);
  EXPECT_THROW(cpu.submit_loop(-1.0), ContractViolation);
  EXPECT_EQ(cpu.active_jobs(), 0u);
  EXPECT_EQ(sim.scheduled_events(), 0u);  // nothing armed
}

}  // namespace
}  // namespace xartrek::sim
