// PsResource scaling + end-to-end request-loop benchmark.
//
// Three measurements land in BENCH_ps_resource.json:
//
//  1. `scaling`: per-event cost of the virtual-time PsResource with 1k,
//     10k and 100k resident jobs churning short jobs through
//     submit/complete -- near-flat (O(log n)) -- against an in-binary
//     replica of the pre-refactor per-job-decrement design, whose cost
//     grows linearly with residency (O(n) per event, O(n^2) sweeps).
//     `schedules_per_event` (engine events queued per event run) reads
//     exactly 1 when every completion tick arms one engine event.
//
//  2. `request_loop`: the whole steady-state placement loop -- PS-pool
//     submit -> request -> Algorithm-2 decide -> decision callback --
//     through a real SchedulerServer/LoadMonitor/FpgaDevice stack, with
//     a global counting-allocator hook asserting zero steady-state
//     allocations per request.
//
//  3. `lane_loop`: churn4's cell on one testbed -- a 512-lane jittered
//     apps::LoadGenerator looping short bursts as PsResource loop jobs
//     on the x86 CpuCluster -- timed over a fixed tick count after
//     warm-up.  `alloc_calls_per_loop` reads 0 and `schedules_per_event`
//     exactly 1: a lap allocates nothing and each tick arms one event.
//
// Schema: docs/perf.md.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "apps/load_generator.hpp"
#include "fpga/device.hpp"
#include "hw/cpu_cluster.hpp"
#include "hw/link.hpp"
#include "platform/testbed.hpp"
#include "runtime/load_monitor.hpp"
#include "runtime/scheduler_server.hpp"
#include "runtime/threshold_table.hpp"
#include "sim/ps_resource.hpp"
#include "sim/simulation.hpp"

#include "bench/alloc_hook.hpp"

namespace xartrek::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- legacy PsResource (the seed design, O(resident) per event) -------------

class LegacyPs {
 public:
  using JobId = std::uint64_t;
  using Callback = std::function<void()>;

  LegacyPs(sim::Simulation& sim, double capacity, double per_job_cap)
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
    const Duration dt =
        Duration::ms(min_remaining / rate_per_job(jobs_.size()));
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

  sim::Simulation& sim_;
  double capacity_;
  double per_job_cap_;
  std::map<JobId, Job> jobs_;
  JobId next_id_ = 1;
  TimePoint last_advance_;
  sim::Simulation::EventHandle pending_;
};

// --- scaling workload -------------------------------------------------------

struct ScalePoint {
  std::size_t resident = 0;
  std::uint64_t events = 0;
  double seconds = 0;
  AllocSnapshot allocs{};
  std::uint64_t engine_scheduled = 0;  ///< engine events queued
  std::uint64_t engine_executed = 0;   ///< engine events run
};

/// Preload `resident` never-finishing jobs, then churn short jobs
/// through `chains` self-resubmitting lanes until ~`target_events`
/// completions have fired.  Reports wall time, allocations and engine
/// events scheduled vs run over the measured phase (after a warmup that
/// primes pools and capacities).
template <typename Ps>
ScalePoint run_scale(std::size_t resident, std::uint64_t target_events,
                     std::uint64_t warmup) {
  sim::Simulation sim;
  Ps ps = [&sim]() -> Ps {
    if constexpr (std::is_same_v<Ps, sim::PsResource>) {
      return Ps(sim, sim::PsResource::Config{"scale", 6.0, 1.0});
    } else {
      return Ps(sim, 6.0, 1.0);
    }
  }();
  if constexpr (std::is_same_v<Ps, sim::PsResource>) {
    ps.reserve_jobs(resident + 64);
  }
  for (std::size_t i = 0; i < resident; ++i) {
    ps.submit(1e15, [] {});  // resident forever within the bench horizon
  }
  struct Chain {
    Ps* ps;
    std::uint64_t budget;
    std::uint64_t* completions;
    double demand;
    void fire() {
      ++*completions;
      if (budget == 0) return;
      --budget;
      ps->submit(demand, [this] { fire(); });
    }
  };
  constexpr std::size_t kChains = 16;
  std::uint64_t completions = 0;
  std::vector<Chain> chains(kChains);
  const std::uint64_t per_lane = (target_events + warmup) / kChains;
  for (std::size_t i = 0; i < kChains; ++i) {
    Chain& c = chains[i];
    c.ps = &ps;
    c.budget = per_lane;
    c.completions = &completions;
    // Staggered demands keep the chains' completion instants distinct,
    // so every completion is its own tick (one submit + one complete
    // per measured event, the Fig. 5 steady-state shape).
    c.demand = 0.5 + 0.125 * static_cast<double>(i);
    ps.submit(c.demand, [&c] { c.fire(); });
  }
  const TimePoint horizon = TimePoint::at_ms(1e14);  // < resident finish
  completions = 0;
  while (completions < warmup && sim.step_one(horizon)) {
  }

  const AllocSnapshot before = alloc_snapshot();
  const std::uint64_t measured_from = completions;
  const std::uint64_t scheduled_from = sim.scheduled_events();
  const std::uint64_t executed_from = sim.executed_events();
  const auto start = Clock::now();
  while (sim.step_one(horizon)) {
  }
  ScalePoint p;
  p.seconds = seconds_since(start);
  const AllocSnapshot after = alloc_snapshot();
  p.resident = resident;
  p.events = completions - measured_from;
  p.allocs = {after.calls - before.calls, after.bytes - before.bytes};
  p.engine_scheduled = sim.scheduled_events() - scheduled_from;
  p.engine_executed = sim.executed_events() - executed_from;
  return p;
}

// --- end-to-end request loop ------------------------------------------------

struct LoopResult {
  std::uint64_t requests = 0;
  double seconds = 0;
  AllocSnapshot allocs{};
};

/// Drives the full placement loop: each decision callback submits a
/// short job to the x86 PS pool and immediately issues the next request,
/// so every round trip exercises submit -> request -> decide -> callback.
/// Measured after a warmup phase that primes every pool.
LoopResult run_request_loop(std::uint64_t requests, std::uint64_t warmup) {
  sim::Simulation sim;
  hw::CpuCluster x86(sim, hw::xeon_bronze_3104());
  hw::Link pcie(sim, hw::pcie_gen3());
  fpga::FpgaDevice device(sim, pcie, fpga::alveo_u50_spec());
  runtime::ThresholdTable table;
  {
    runtime::ThresholdEntry entry;
    entry.app = "facedet320";
    entry.kernel_name = "KNL_HW_FD320";
    entry.fpga_threshold = 1 << 20;  // stay on x86: pure decision path
    entry.arm_threshold = 1 << 20;
    table.upsert(entry);
  }
  runtime::LoadMonitor monitor(sim, x86);
  runtime::SchedulerServer server(sim, monitor, device, table, {});

  struct Driver {
    runtime::SchedulerServer* server;
    hw::CpuCluster* x86;
    std::uint64_t remaining;
    std::uint64_t decisions = 0;
    void next() {
      if (remaining == 0) return;
      --remaining;
      server->request_placement("facedet320",
                                [this](runtime::PlacementDecision) {
                                  ++decisions;
                                  x86->run(Duration::ms(0.01), [] {});
                                  next();
                                });
    }
  };
  Driver driver{&server, &x86, requests + warmup};
  driver.next();
  const TimePoint horizon = TimePoint::at_ms(1e12);
  while (driver.decisions < warmup && sim.step_one(horizon)) {
  }
  const AllocSnapshot before = alloc_snapshot();
  const auto start = Clock::now();
  while (driver.decisions < warmup + requests && sim.step_one(horizon)) {
  }
  LoopResult r;
  r.seconds = seconds_since(start);
  const AllocSnapshot after = alloc_snapshot();
  r.requests = requests;
  r.allocs = {after.calls - before.calls, after.bytes - before.bytes};
  return r;
}

// --- lane loop --------------------------------------------------------------

struct LaneLoopResult {
  std::uint64_t ticks = 0;
  double seconds = 0;
  AllocSnapshot allocs{};
  std::uint64_t engine_scheduled = 0;  ///< engine events queued
};

/// One churn4 cell without its ring: 512 lanes of 0.05 ms bursts with
/// churn4's 0.5 demand jitter, so nearly every completion tick serves
/// one lap.  Runs `warmup` engine events, then times `ticks` more.
LaneLoopResult run_lane_loop(std::uint64_t ticks, std::uint64_t warmup) {
  platform::Testbed testbed;
  sim::Simulation& sim = testbed.simulation();
  apps::LoadGenerator::Options opts;
  opts.run_demand = Duration::ms(0.05);
  opts.demand_jitter = 0.5;
  opts.reserve = true;
  apps::LoadGenerator load(testbed, 512, opts);
  const TimePoint horizon = TimePoint::at_ms(1e12);
  for (std::uint64_t i = 0; i < warmup && sim.step_one(horizon); ++i) {
  }
  const AllocSnapshot before = alloc_snapshot();
  const std::uint64_t scheduled_from = sim.scheduled_events();
  const std::uint64_t executed_from = sim.executed_events();
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < ticks && sim.step_one(horizon); ++i) {
  }
  LaneLoopResult r;
  r.seconds = seconds_since(start);
  const AllocSnapshot after = alloc_snapshot();
  r.ticks = sim.executed_events() - executed_from;
  r.allocs = {after.calls - before.calls, after.bytes - before.bytes};
  r.engine_scheduled = sim.scheduled_events() - scheduled_from;
  return r;
}

// --- report ----------------------------------------------------------------

void emit_point(std::ostream& os, const ScalePoint& p, bool last) {
  os << "      {\"resident\": " << p.resident
     << ", \"events\": " << p.events << ", \"seconds\": " << p.seconds
     << ", \"ns_per_event\": "
     << 1e9 * p.seconds / static_cast<double>(p.events)
     << ", \"alloc_calls_per_event\": "
     << static_cast<double>(p.allocs.calls) / static_cast<double>(p.events)
     << ", \"schedules_per_event\": "
     << static_cast<double>(p.engine_scheduled) /
            static_cast<double>(p.engine_executed)
     << "}" << (last ? "" : ",") << "\n";
}

int bench_main() {
  // CI smoke mode: same shapes, reduced iteration counts (the
  // bench-smoke workflow compares machine-neutral ratios, so shorter
  // runs keep the gate fast without losing signal).
  const bool smoke = std::getenv("XARTREK_BENCH_SMOKE") != nullptr;
  const std::uint64_t kEvents = smoke ? 60'000 : 400'000;
  const std::uint64_t kWarmup = smoke ? 6'000 : 40'000;
  const std::uint64_t kLegacyEvents = smoke ? 1'000 : 4'000;
  const std::uint64_t kLegacyWarmup = smoke ? 100 : 400;
  const std::uint64_t kRequests = smoke ? 40'000 : 200'000;
  const std::uint64_t kRequestWarmup = smoke ? 4'000 : 20'000;
  const std::uint64_t kLaneTicks = smoke ? 200'000 : 2'000'000;
  const std::uint64_t kLaneWarmup = smoke ? 20'000 : 200'000;

  std::vector<ScalePoint> pooled;
  for (const std::size_t resident : {1'000u, 10'000u, 100'000u}) {
    std::cerr << "[ps_resource_bench] pooled churn @ " << resident
              << " resident jobs...\n";
    pooled.push_back(
        run_scale<sim::PsResource>(resident, kEvents, kWarmup));
  }
  std::vector<ScalePoint> legacy;
  for (const std::size_t resident : {1'000u, 10'000u}) {
    std::cerr << "[ps_resource_bench] legacy churn @ " << resident
              << " resident jobs (O(n) per event; kept small)...\n";
    legacy.push_back(
        run_scale<LegacyPs>(resident, kLegacyEvents, kLegacyWarmup));
  }

  std::cerr << "[ps_resource_bench] end-to-end request loop: " << kRequests
            << " placements...\n";
  const LoopResult loop = run_request_loop(kRequests, kRequestWarmup);

  std::cerr << "[ps_resource_bench] lane loop: 512 lanes, " << kLaneTicks
            << " ticks...\n";
  const LaneLoopResult lanes = run_lane_loop(kLaneTicks, kLaneWarmup);
  const double lane_ns =
      1e9 * lanes.seconds / static_cast<double>(lanes.ticks);

  const auto ns_per = [](const ScalePoint& p) {
    return 1e9 * p.seconds / static_cast<double>(p.events);
  };
  const double flatness = ns_per(pooled.back()) / ns_per(pooled.front());
  const double legacy_slope = ns_per(legacy.back()) / ns_per(legacy.front());

  std::ofstream out("BENCH_ps_resource.json");
  out.precision(6);
  out << "{\n  \"bench\": \"ps_resource\",\n  \"scaling\": {\n"
      << "    \"pooled\": [\n";
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    emit_point(out, pooled[i], i + 1 == pooled.size());
  }
  out << "    ],\n    \"legacy\": [\n";
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    emit_point(out, legacy[i], i + 1 == legacy.size());
  }
  out << "    ],\n"
      << "    \"pooled_cost_ratio_100k_vs_1k\": " << flatness << ",\n"
      << "    \"legacy_cost_ratio_10k_vs_1k\": " << legacy_slope << "\n"
      << "  },\n  \"request_loop\": {\n"
      << "    \"requests\": " << loop.requests << ",\n"
      << "    \"seconds\": " << loop.seconds << ",\n"
      << "    \"requests_per_sec\": "
      << static_cast<double>(loop.requests) / loop.seconds << ",\n"
      << "    \"alloc_calls_per_request\": "
      << static_cast<double>(loop.allocs.calls) /
             static_cast<double>(loop.requests)
      << ",\n    \"alloc_bytes_per_request\": "
      << static_cast<double>(loop.allocs.bytes) /
             static_cast<double>(loop.requests)
      << "\n  },\n  \"lane_loop\": {\n"
      << "    \"lanes\": 512,\n"
      << "    \"ticks\": " << lanes.ticks << ",\n"
      << "    \"seconds\": " << lanes.seconds << ",\n"
      << "    \"ns_per_event\": " << lane_ns << ",\n"
      << "    \"alloc_calls_per_loop\": "
      << static_cast<double>(lanes.allocs.calls) /
             static_cast<double>(lanes.ticks)
      << ",\n    \"schedules_per_event\": "
      << static_cast<double>(lanes.engine_scheduled) /
             static_cast<double>(lanes.ticks)
      << "\n  }\n}\n";
  out.close();

  std::cerr << "[ps_resource_bench] pooled ns/event @1k="
            << ns_per(pooled[0]) << " @10k=" << ns_per(pooled[1])
            << " @100k=" << ns_per(pooled[2]) << " (100k/1k ratio "
            << flatness << ")\n"
            << "[ps_resource_bench] legacy ns/event @1k=" << ns_per(legacy[0])
            << " @10k=" << ns_per(legacy[1]) << " (10k/1k ratio "
            << legacy_slope << ")\n"
            << "[ps_resource_bench] request loop: "
            << static_cast<double>(loop.requests) / loop.seconds
            << " req/s, allocs/request="
            << static_cast<double>(loop.allocs.calls) /
                   static_cast<double>(loop.requests)
            << "\n[ps_resource_bench] lane loop: " << lane_ns
            << " ns/event, allocs=" << lanes.allocs.calls
            << "\n[ps_resource_bench] wrote BENCH_ps_resource.json\n";
  return 0;
}

}  // namespace
}  // namespace xartrek::bench

int main() { return xartrek::bench::bench_main(); }
