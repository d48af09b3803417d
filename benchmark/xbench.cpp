// xbench: the wall-clock benchmark program of the Xar-Trek reproduction.
//
// One process runs one workload and prints, as its last stdout line, a
// JSON object holding every metric's per-pass samples plus the outcome
// of every correctness check.  run.py builds this binary, runs it once
// per workload in a fresh process, reduces the samples to medians and
// quartiles, and prints the result (README.md has the metric tables).
//
//   xbench --workload churn4|sync8|storm4|paper --seed N --seconds S
//          --trace 0|1 [--smoke] [--out DIR]
//
// xbench calls the library only through its public API --
// exp::ClusterExperiment, exp::Experiment, the exp:: figure runners,
// sim::FaultPlan, obs::Registry, the components' Stats structs and, for
// the unit probes, the sim:: engine classes -- and times each call from
// outside.  With --trace 1 it also records host spans around those
// calls and writes them to DIR/<workload>.trace.json (Chrome trace
// format, with each span's self time).
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/application.hpp"
#include "apps/benchmark_spec.hpp"
#include "apps/load_generator.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "exp/cluster.hpp"
#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "exp/threshold_estimator.hpp"
#include "fpga/device.hpp"
#include "obs/registry.hpp"
#include "sim/fault.hpp"
#include "sim/ps_resource.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"

namespace xartrek::xbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

const std::vector<apps::BenchmarkSpec>& suite() {
  static const std::vector<apps::BenchmarkSpec> specs =
      apps::paper_benchmarks();
  return specs;
}

// --- host spans ------------------------------------------------------------

/// Spans xbench records around its own calls into the library:
/// name, start, end and parent, kept in memory while the workload runs
/// and written once at exit.  Recording is switched on only for the
/// traced passes, so the end-to-end passes pay one branch per call.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span under the innermost open one; -1 when disabled.
  int open(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now_us(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    open_.pop_back();
  }

  /// Chrome-trace JSON: one complete ("X") event per span, nested by
  /// time on one thread, with the parent's name and the span's self
  /// time (its duration minus the part its children cover).
  void write_chrome_trace(const std::string& path) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    std::ofstream out(path);
    out.precision(17);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = s.end_us - s.start_us;
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << s.start_us << ", \"dur\": " << dur
          << ", \"args\": {\"parent\": \""
          << (s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name
                            : "")
          << "\", \"self_us\": " << dur - child_us[i] << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span ids
};

SpanLog g_spans;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(g_spans.open(name)) {}
  ~ScopedSpan() { g_spans.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

/// Run `f` inside a span named `name`; returns its wall seconds.
template <class F>
double timed(const char* name, F&& f) {
  ScopedSpan span(name);
  const auto start = Clock::now();
  f();
  return seconds_since(start);
}

/// Keeps the calling thread on one CPU of the process's allowed set
/// until destroyed; successive objects take successive CPUs.  On a
/// virtual machine whose vCPUs are contended unevenly, a single-threaded
/// phase would run every pass on the vCPU it happened to start on, and
/// one busy vCPU would set the whole run's median; rotating spreads the
/// passes over all of them.
class PinForPass {
 public:
  PinForPass() {
    static std::size_t next = 0;
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    const int cpus = CPU_COUNT(&saved_);
    int skip = static_cast<int>(next++ % static_cast<std::size_t>(cpus));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      break;
    }
  }
  ~PinForPass() {
    if (pinned_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinForPass(const PinForPass&) = delete;
  PinForPass& operator=(const PinForPass&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// --- results ---------------------------------------------------------------

/// Every sample of every metric, by name.  run.py reduces them.
class Samples {
 public:
  void add(const std::string& name, const char* unit, double value) {
    Series& s = series_[name];
    s.unit = unit;
    s.values.push_back(value);
  }

  void write_json(std::ostream& os) const {
    os << '{';
    bool first = true;
    for (const auto& [name, s] : series_) {
      os << (first ? "" : ", ") << '"' << name << "\": {\"unit\": \""
         << s.unit << "\", \"samples\": [";
      for (std::size_t i = 0; i < s.values.size(); ++i) {
        os << (i == 0 ? "" : ", ")
           << (std::isfinite(s.values[i]) ? s.values[i] : 0.0);
      }
      os << "]}";
      first = false;
    }
    os << '}';
  }

 private:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, Series> series_;
};

/// Correctness checks: a failed expectation is recorded once by text.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.insert(what);
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::set<std::string>& failures() const {
    return failures_;
  }

 private:
  std::set<std::string> failures_;
};

/// The outcome of one pass over a workload's scenario.
struct PassResult {
  double setup_s = 0.0;  ///< estimate + construct + attach + fault plan
  double wall_s = 0.0;   ///< the scenario itself, set-up excluded
  double sim_s = 0.0;    ///< simulated seconds the scenario advanced
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Identity of the simulated run: equal on every pass of one seed.
  std::uint64_t events = 0;
  std::uint64_t digest = kFnvOffset;
};

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv_mix(h, bits);
}

/// Nearest-rank quantile of an ascending vector.
double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

// --- workloads and their generated inputs ----------------------------------

enum class Workload { kChurn4, kSync8, kStorm4, kPaper };

/// What a pass records besides its wall time.
enum class Tracing : std::uint8_t {
  kOff,      ///< nothing: the end-to-end passes
  kHost,     ///< xbench's own spans around each library call
  kLibrary,  ///< host spans plus the cluster's own obs::Tracer
};

/// One tracked-job arrival of the storm4 open loop.
struct Arrival {
  double due_ms = 0.0;
  std::uint32_t cell = 0;
  std::uint32_t app = 0;  ///< index into suite()
};

/// A cluster workload's shape and its seed-derived inputs.  Sizes are
/// at full scale; --smoke divides every span by 20.
struct Inputs {
  Workload workload = Workload::kChurn4;
  std::size_t cells = 0;
  Duration link_latency;   ///< ring interconnect (sets the epoch)
  int procs_per_cell = 0;  ///< looping background processes
  Duration burst;          ///< each process's looped run demand
  double hot_scale = 1.0;  ///< cell 0's bursts are this much shorter
  Duration handoff_period = Duration::zero();  ///< zero: no handoffs
  Duration span;  ///< churn4/sync8: horizon; storm4: arrival window
  bool fpga_slots = false;
  std::vector<Duration> pump_phase;  ///< per cell: first handoff
  std::vector<std::uint64_t> pump_seed;
  std::vector<Arrival> arrivals;
  sim::FaultPlan plan;
};

/// Tracked jobs are submitted at step boundaries, so each waits up to
/// one step before the cluster sees it (the submit lag, reported).
constexpr Duration kStormStep = Duration::ms(50.0);
constexpr double kStormJobsPerSecPerCell = 2.0;
/// A handoff sent at least this long before the horizon must arrive.
constexpr Duration kHandoffGrace = Duration::ms(10.0);

/// storm4's arrivals: per cell a Poisson stream conditioned on its
/// count (iid uniform instants over the window), with every app drawn
/// equally often in a shuffled order -- so the seed moves instants and
/// order, never the amount of work.
std::vector<Arrival> storm_arrivals(Rng rng, std::size_t cells,
                                    Duration span) {
  const auto per_cell = static_cast<std::size_t>(
      std::llround(kStormJobsPerSecPerCell * span.to_seconds()));
  std::vector<Arrival> out;
  for (std::size_t c = 0; c < cells; ++c) {
    std::vector<std::uint32_t> apps(per_cell);
    for (std::size_t k = 0; k < per_cell; ++k) {
      apps[k] = static_cast<std::uint32_t>(k % suite().size());
    }
    for (std::size_t k = per_cell; k > 1; --k) {
      std::swap(apps[k - 1], apps[static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(k) - 1))]);
    }
    for (std::size_t k = 0; k < per_cell; ++k) {
      out.push_back(Arrival{rng.uniform_real(0.0, span.to_ms()),
                            static_cast<std::uint32_t>(c), apps[k]});
    }
  }
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.due_ms != b.due_ms ? a.due_ms < b.due_ms : a.cell < b.cell;
  });
  return out;
}

/// storm4's chaos: every cell slowed, every ring link degraded, every
/// reconfiguration port flaky and every drain path corrupting, each for
/// a seeded window inside the middle of the run, plus exactly one kill.
sim::FaultPlan storm_plan(Rng rng, std::size_t cells, Duration span) {
  sim::ChaosProfile p;
  p.cells = static_cast<std::uint32_t>(cells);
  p.links = p.cells;
  p.window_begin = TimePoint::origin() + span * 0.1;
  p.window_end = TimePoint::origin() + span * 0.7;
  p.cell_kill_probability = 0.0;
  p.link_flap_probability = 0.0;
  p.reconfigure_fail_probability = 0.0;
  p.cell_slow_probability = 1.0;
  p.link_degrade_probability = 1.0;
  p.port_flaky_probability = 1.0;
  p.dsm_corrupt_probability = 1.0;
  p.mean_degradation = span / 30.0;
  sim::FaultPlan plan = sim::FaultPlan::generate(p, rng.split(0));
  Rng kill = rng.split(1);
  const auto victim = static_cast<std::uint32_t>(
      kill.uniform_int(0, static_cast<std::int64_t>(cells) - 1));
  const double at_ms = kill.uniform_real(0.2, 0.5) * span.to_ms();
  plan.add(sim::FaultEvent{sim::FaultEvent::Kind::kCellKill,
                           TimePoint::at_ms(at_ms), victim, 0.0, {}});
  return plan;
}

Inputs make_inputs(Workload w, std::uint64_t seed, bool smoke) {
  const double scale = smoke ? 1.0 / 20.0 : 1.0;
  const Rng root(seed);
  Inputs in;
  in.workload = w;
  switch (w) {
    case Workload::kChurn4:
      in.cells = 4;
      in.link_latency = Duration::ms(2.0);
      in.procs_per_cell = 512;
      in.burst = Duration::ms(0.05);
      in.handoff_period = Duration::ms(5.0);
      in.span = Duration::seconds(15.0 * scale);
      break;
    case Workload::kSync8:
      in.cells = 8;
      in.link_latency = Duration::micros(100.0);
      in.procs_per_cell = 32;
      in.burst = Duration::ms(0.05);
      in.hot_scale = 3.0;
      in.handoff_period = Duration::ms(1.0);
      in.span = Duration::seconds(3.0 * scale);
      break;
    case Workload::kStorm4:
      in.cells = 4;
      in.link_latency = hw::ethernet_1gbps().latency;
      in.span = Duration::seconds(150.0 * scale);
      in.fpga_slots = true;
      in.arrivals = storm_arrivals(root.split(3), in.cells, in.span);
      in.plan = storm_plan(root.split(4), in.cells, in.span);
      break;
    case Workload::kPaper:
      break;
  }
  if (in.handoff_period > Duration::zero()) {
    Rng phase = root.split(1);
    for (std::size_t c = 0; c < in.cells; ++c) {
      in.pump_phase.push_back(
          Duration::ms(phase.uniform_real(0.0, in.handoff_period.to_ms())));
      in.pump_seed.push_back(root.split(100 + c).seed());
    }
  }
  return in;
}

// --- cluster workloads -----------------------------------------------------

/// Handoff counters of one cell.  Each field is written by one shard
/// only -- sends by the source cell's, arrivals by the destination's --
/// and read between runs.
struct alignas(64) HandoffLane {
  std::uint64_t sent = 0;
  std::uint64_t sent_due = 0;  ///< sent >= kHandoffGrace before the horizon
  std::uint64_t arrived = 0;
  std::uint64_t arrived_due = 0;
};

/// One cell's handoff source: every period it ships 48-80 KiB (drawn
/// from its own seeded stream) to its ring neighbor.
struct HandoffPump {
  exp::ClusterExperiment* cluster = nullptr;
  std::size_t cell = 0;
  Duration period;
  double due_cutoff_ms = 0.0;
  Rng rng{0};
  std::vector<HandoffLane>* lanes = nullptr;

  void fire() {
    sim::Simulation& sim = cluster->cell(cell).simulation();
    const bool due = sim.now().to_ms() <= due_cutoff_ms;
    HandoffLane& src = (*lanes)[cell];
    ++src.sent;
    if (due) ++src.sent_due;
    HandoffLane* dst = &(*lanes)[cluster->handoff_target(cell)];
    const auto bytes =
        static_cast<std::uint64_t>(rng.uniform_int(48 * 1024, 80 * 1024));
    cluster->handoff(cell, bytes, [dst, due] {
      ++dst->arrived;
      if (due) ++dst->arrived_due;
    });
    sim.schedule_in(period, [this] { fire(); });
  }
};

double scalar(const obs::Snapshot& snap, std::string_view name) {
  for (const auto& s : snap.scalars) {
    if (s.name == name) return s.value;
  }
  return 0.0;
}

/// Sum of every scalar whose name ends with `suffix` (all cells).
double sum_suffix(const obs::Snapshot& snap, std::string_view suffix) {
  double total = 0.0;
  for (const auto& s : snap.scalars) {
    if (s.name.size() >= suffix.size() &&
        s.name.compare(s.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      total += s.value;
    }
  }
  return total;
}

/// Engine layer: counts, host time per event and window, and how the
/// workers' time splits between work and waiting.
void record_engine(sim::ShardedSimulation& eng, double wall_s,
                   Samples& out) {
  const auto events = static_cast<double>(eng.executed_events());
  const auto windows = static_cast<double>(eng.windows());
  const auto workers = static_cast<double>(eng.worker_count());
  double cpu = 0.0;
  double busiest = 0.0;
  for (std::size_t w = 0; w < eng.worker_count(); ++w) {
    cpu += eng.worker_stats(w).busy_seconds;
    busiest = std::max(busiest, eng.worker_stats(w).busy_seconds);
  }
  double posts = 0.0;
  double stalls = 0.0;
  double hwm = 0.0;
  for (sim::ShardId s = 0; s < eng.shard_count(); ++s) {
    posts += static_cast<double>(eng.stats(s).posts);
    stalls += static_cast<double>(eng.stats(s).backpressure_stalls);
    hwm = std::max(hwm, static_cast<double>(eng.stats(s).mailbox_hwm));
  }
  out.add("sim.events", "count", events);
  out.add("sim.windows", "count", windows);
  out.add("sim.events_per_window", "count", events / windows);
  out.add("sim.wall_ns_per_event", "ns", 1e9 * wall_s / events);
  out.add("sim.wall_us_per_window", "us", 1e6 * wall_s / windows);
  out.add("sim.worker_cpu_s", "s", cpu);
  out.add("sim.blocked_s", "s", workers * wall_s - cpu);
  out.add("sim.parallel_eff", "ratio", cpu / (workers * wall_s));
  out.add("sim.critical_path_s", "s", busiest);
  out.add("sim.imbalance", "ratio", busiest * workers / cpu);
  out.add("sim.steals", "count", static_cast<double>(eng.steal_moves()));
  out.add("sim.posts", "count", posts);
  out.add("sim.backpressure_stalls", "count", stalls);
  out.add("sim.mailbox_hwm", "count", hwm);
}

/// Scheduler, FPGA, link and drain-path counts from the registry.
void record_registry(exp::ClusterExperiment& cluster, Samples& out) {
  const obs::Snapshot snap = cluster.registry().snapshot();
  const auto count = [&](const char* metric, std::string_view suffix) {
    out.add(metric, "count", sum_suffix(snap, suffix));
  };
  count("runtime.requests", ".sched.requests");
  count("runtime.batches", ".sched.batches");
  count("runtime.to_x86", ".sched.to_x86");
  count("runtime.to_arm", ".sched.to_arm");
  count("runtime.to_fpga", ".sched.to_fpga");
  count("runtime.reconfigurations", ".sched.reconfigurations_started");
  count("runtime.heartbeats", ".sched.heartbeats_sent");
  count("runtime.breaker_trips", ".sched.breaker_trips");
  count("runtime.evictions", ".sched.evictions");
  const double programs = sum_suffix(snap, ".slots.programs");
  const double failed = sum_suffix(snap, ".slots.failed");
  out.add("fpga.programs", "count", programs);
  out.add("fpga.failed", "count", failed);
  count("fpga.quarantined", ".slots.quarantined");
  out.add("fpga.program_ok_ratio", "ratio",
          programs > 0 ? (programs - failed) / programs : 0.0);
  count("hw.link_transfers", ".link.transfers");
  count("hw.link_drops", ".dropped_transfers");
  // Every accepted message goes out once, then once more per retry.
  const double attempts = sum_suffix(snap, ".drain.sends") +
                          sum_suffix(snap, ".drain.retries");
  out.add("hw.rc_attempts", "count", attempts);
  count("hw.rc_retries", ".drain.retries");
  out.add("hw.rc_useful", "ratio",
          attempts > 0 ? sum_suffix(snap, ".drain.delivered") / attempts
                       : 0.0);
  std::vector<double> snapshot_us;
  for (int i = 0; i < 10; ++i) {
    snapshot_us.push_back(1e6 * timed("obs.snapshot", [&] {
                            (void)cluster.registry().snapshot();
                          }));
  }
  out.add("obs.snapshot_us", "us", median(snapshot_us));
}

exp::ClusterSpec cluster_spec(const Inputs& in, std::size_t workers) {
  exp::ClusterSpec spec;
  spec.cells = in.cells;
  spec.intercell = hw::ethernet_1gbps();
  spec.intercell.latency = in.link_latency;
  spec.parallel = workers > 1;
  spec.exec.workers = workers;
  if (in.fpga_slots) spec.cell_config.fpga_slots = fpga::SlotConfig{};
  return spec;
}

/// One pass over a cluster workload on `workers` engine workers: set
/// the cluster up from scratch, run the scenario, check its outputs.
/// Per-layer values land in `layer` when it is non-null.
PassResult cluster_pass(const Inputs& in, std::size_t workers,
                        Tracing tracing, Samples* layer, Checks& checks) {
  g_spans.set_enabled(tracing != Tracing::kOff);
  ScopedSpan pass_span("pass");
  PassResult r;

  // Set-up is single-threaded; the run is not, so the engine's workers
  // (started by the first run) must not inherit the pin.
  std::optional<PinForPass> pin(std::in_place);
  exp::EstimationResult est;
  const double estimate_s = timed("setup.estimate", [&] {
    est = exp::ThresholdEstimator().estimate(suite());
  });
  // Declared before the cluster: its pending events point at them.
  std::vector<HandoffLane> lanes(in.cells);
  std::vector<HandoffPump> pumps;
  std::unique_ptr<exp::ClusterExperiment> cluster;
  const double ctor_s = timed("setup.cluster_ctor", [&] {
    cluster = std::make_unique<exp::ClusterExperiment>(
        suite(), est.table, cluster_spec(in, workers));
  });
  if (tracing == Tracing::kLibrary) cluster->enable_tracing();
  // Declared after the cluster: each cohort cancels its runs on it.
  std::vector<std::unique_ptr<apps::LoadGenerator>> cohorts;
  const double attach_s = timed("setup.load_attach", [&] {
    for (std::size_t c = 0; c < in.cells && in.procs_per_cell > 0; ++c) {
      apps::LoadGenerator::Options opts;
      opts.run_demand = c == 0 ? in.burst / in.hot_scale : in.burst;
      opts.demand_jitter = 0.5;
      opts.reserve = true;
      cohorts.push_back(std::make_unique<apps::LoadGenerator>(
          cluster->cell(c).testbed(), in.procs_per_cell, opts));
    }
  });
  const double plan_s = timed("setup.fault_plan", [&] {
    if (!in.plan.empty()) cluster->apply_fault_plan(in.plan);
  });
  r.setup_s = estimate_s + ctor_s + attach_s + plan_s;
  pin.reset();

  const double horizon_ms = in.span.to_ms();
  if (in.handoff_period > Duration::zero()) {
    pumps.resize(in.cells);
    for (std::size_t c = 0; c < in.cells; ++c) {
      pumps[c] = HandoffPump{cluster.get(),
                             c,
                             in.handoff_period,
                             horizon_ms - kHandoffGrace.to_ms(),
                             Rng(in.pump_seed[c]),
                             &lanes};
      HandoffPump* pump = &pumps[c];
      cluster->cell(c).simulation().schedule_in(in.pump_phase[c],
                                                [pump] { pump->fire(); });
    }
  }

  // The timed scenario covers a fixed simulated horizon.  storm4 submits
  // its open-loop arrivals at step boundaries and then drains for a
  // fifth of the arrival window; the others just run.
  std::vector<double> due_ms;
  double submit_lag_max_ms = 0.0;
  const auto start = Clock::now();
  if (in.workload == Workload::kStorm4) {
    due_ms.reserve(in.arrivals.size());
    std::size_t next = 0;
    while (true) {
      {
        ScopedSpan span("run.submit");
        const double now_ms = cluster->now().to_ms();
        for (; next < in.arrivals.size() &&
               in.arrivals[next].due_ms <= now_ms;
             ++next) {
          const Arrival& a = in.arrivals[next];
          (void)cluster->submit(a.cell, suite()[a.app].name);
          due_ms.push_back(a.due_ms);
          submit_lag_max_ms =
              std::max(submit_lag_max_ms, now_ms - a.due_ms);
        }
      }
      if (next == in.arrivals.size()) break;
      ScopedSpan span("run.run_for");
      cluster->run_for(kStormStep);
    }
    ScopedSpan span("run.run_for");
    cluster->run_for(in.span * 1.2 - (cluster->now() - TimePoint::origin()));
  } else {
    ScopedSpan span("run.run_for");
    cluster->run_for(in.span);
  }
  r.wall_s = seconds_since(start);
  r.sim_s = cluster->now().to_ms() / 1000.0;
  sim::ShardedSimulation& eng = cluster->engine().engine();
  if (layer != nullptr) record_engine(eng, r.wall_s, *layer);

  // Untimed: how long the last jobs take depends on where the seeded
  // kill and slowdowns strike, so the tail past the horizon is run to
  // check completion, not to measure speed.
  bool all_completed = true;
  if (in.workload == Workload::kStorm4) {
    ScopedSpan span("run.until_jobs_complete");
    all_completed = cluster->run_until_jobs_complete(Duration::minutes(60));
  }
  r.events = eng.executed_events();
  checks.expect(r.events > 0, "the scenario executed events");

  // Placement conservation, per cell: every request got one decision.
  {
    ScopedSpan span("obs.snapshot");
    const obs::Snapshot snap = cluster->registry().snapshot();
    for (std::size_t c = 0; c < in.cells; ++c) {
      const std::string p = "cell" + std::to_string(c) + ".sched.";
      checks.expect(scalar(snap, p + "requests") ==
                        scalar(snap, p + "to_x86") +
                            scalar(snap, p + "to_arm") +
                            scalar(snap, p + "to_fpga"),
                    "cell " + std::to_string(c) +
                        ": requests == to_x86 + to_arm + to_fpga");
    }
    for (const auto& s : snap.scalars) {
      r.digest = mix_double(r.digest, s.value);
    }
  }

  if (in.workload == Workload::kStorm4) {
    const std::vector<double> done = cluster->job_completion_times_ms();
    std::vector<double> latency;
    latency.reserve(done.size());
    for (std::size_t id = 0; id < done.size(); ++id) {
      r.digest = mix_double(r.digest, done[id]);
      if (done[id] >= 0.0) latency.push_back(done[id] - due_ms[id]);
    }
    const std::uint64_t completed = cluster->completed_jobs();
    r.attempted = cluster->submitted_jobs();
    r.failed = r.attempted - std::min<std::uint64_t>(r.attempted, completed);
    checks.expect(all_completed && completed == r.attempted &&
                      latency.size() == r.attempted,
                  "every submitted job completed exactly once");
    checks.expect(r.attempted == in.arrivals.size(),
                  "every arrival was submitted");
    if (layer != nullptr) {
      std::sort(latency.begin(), latency.end());
      const double p99 = quantile_sorted(latency, 0.99);
      const auto beyond = static_cast<double>(
          latency.end() -
          std::upper_bound(latency.begin(), latency.end(), p99));
      const auto stats = cluster->job_stats();
      layer->add("exp.jobs_submitted", "count",
                 static_cast<double>(r.attempted));
      layer->add("exp.jobs_completed", "count",
                 static_cast<double>(completed));
      layer->add("exp.job_fail_pct", "%",
                 r.attempted > 0 ? 100.0 * static_cast<double>(r.failed) /
                                       static_cast<double>(r.attempted)
                                 : 0.0);
      layer->add("exp.job_p50_ms", "sim-ms", quantile_sorted(latency, 0.5));
      layer->add("exp.job_p99_ms", "sim-ms", p99);
      layer->add("exp.job_p99_samples", "count", beyond);
      layer->add("exp.submit_lag_ms_max", "sim-ms", submit_lag_max_ms);
      layer->add("exp.jobs_per_wall_s", "jobs/s",
                 static_cast<double>(r.attempted) / r.wall_s);
      layer->add("exp.drained", "count", static_cast<double>(stats.drained));
      layer->add("exp.backoff_retries", "count",
                 static_cast<double>(stats.retries));
      layer->add("exp.corrupt_recovered", "count",
                 static_cast<double>(stats.corrupt_recovered));
    }
  } else {
    std::uint64_t sent = 0;
    std::uint64_t sent_due = 0;
    std::uint64_t arrived = 0;
    std::uint64_t arrived_due = 0;
    for (const HandoffLane& l : lanes) {
      sent += l.sent;
      sent_due += l.sent_due;
      arrived += l.arrived;
      arrived_due += l.arrived_due;
    }
    r.digest = fnv_mix(fnv_mix(r.digest, sent), arrived);
    r.attempted = sent_due;
    r.failed = sent_due > arrived_due ? sent_due - arrived_due
                                      : arrived_due - sent_due;
    checks.expect(sent_due > 0 && arrived_due == sent_due,
                  "every handoff sent >= 10 ms before the horizon arrived "
                  "exactly once");
    checks.expect(sent == cluster->handoffs(),
                  "handoff count matches the cluster's");
    if (layer != nullptr) {
      layer->add("hw.handoffs_sent", "count", static_cast<double>(sent));
      layer->add("hw.handoffs_delivered", "count",
                 static_cast<double>(arrived));
    }
  }

  if (layer != nullptr) {
    layer->add("setup.estimate_s", "s", estimate_s);
    layer->add("setup.cluster_ctor_s", "s", ctor_s);
    layer->add("setup.load_attach_s", "s", attach_s);
    layer->add("setup.fault_plan_s", "s", plan_s);
    record_registry(*cluster, *layer);
    if (tracing == Tracing::kLibrary) {
      layer->add("obs.spans", "count",
                 static_cast<double>(cluster->tracer()->span_count()));
    }
  }
  return r;
}

// --- the paper workload ----------------------------------------------------

/// One of the paper's stated results and the value this reproduction
/// measures for it, computed the way the bench/fig* harness prints it.
struct Claim {
  const char* id;
  double lo;  ///< the paper's band, in percent
  double hi;
  double value = 0.0;

  /// Distance below or above the band, in percentage points.
  [[nodiscard]] double gap_pp() const {
    return value < lo ? lo - value : value > hi ? value - hi : 0.0;
  }
};

double gain_pct(double baseline, double ours) {
  return 100.0 * (baseline - ours) / baseline;
}

/// The seed the bench/fig* mains pass their runners.  The paper
/// workload replays exactly those experiments whatever --seed says: the
/// claims are then the numbers the harness prints, and a pass's work
/// does not change with the seed (random application sets would move
/// its wall time by a fifth from seed to seed).
constexpr std::uint64_t kHarnessSeed = 2021;

/// Runs the Fig. 3-9 runners at the sizes the bench/fig* mains use
/// (the Fig. 6 runner yields no claim but is part of the pass) and
/// returns the nine claims.  Throws if a runner misses a cell.
std::vector<Claim> paper_claims(const runtime::ThresholdTable& table,
                                bool smoke, Checks& checks) {
  using apps::SystemMode;
  const int runs = smoke ? 1 : 10;
  const std::vector<SystemMode> four = {
      SystemMode::kVanillaX86, SystemMode::kVanillaArm,
      SystemMode::kAlwaysFpga, SystemMode::kXarTrek};
  const std::vector<SystemMode> three = {SystemMode::kVanillaX86,
                                         SystemMode::kAlwaysFpga,
                                         SystemMode::kXarTrek};
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Claim> claims = {
      {"fig3_vs_fpga", 50, 75},     {"fig4_vs_x86", 1, 88},
      {"fig5_vs_x86", 19, 31},      {"fig7_vs_x86", 18, 18},
      {"fig7_vs_fpga", 32, 32},     {"fig8_vs_x86", 175, 175},
      {"fig8_vs_fpga", 50, 50},     {"fig9_cg_dominant", 26, 32},
      {"fig9_cg100", -inf, 0},
  };
  std::size_t next_claim = 0;
  const auto put = [&](double value) { claims[next_claim++].value = value; };

  // Figures 3-5: mean over set sizes of the per-size gain.
  const auto avg_exec = [&](const char* span, std::vector<int> sizes,
                            int total, SystemMode baseline) {
    exp::AvgExecConfig c;
    c.set_sizes = sizes;
    c.total_processes = total;
    c.systems = four;
    c.runs = runs;
    c.seed = kHarnessSeed;
    exp::AvgExecResult res;
    timed(span, [&] { res = exp::run_avg_exec_experiment(suite(), table, c); });
    checks.expect(res.cells.size() == sizes.size() * four.size(),
                  std::string(span) + " returned every cell");
    double sum = 0.0;
    for (int size : sizes) {
      sum += gain_pct(res.cell(baseline, size).mean_ms,
                      res.cell(SystemMode::kXarTrek, size).mean_ms);
    }
    put(sum / static_cast<double>(sizes.size()));
  };
  avg_exec("paper.fig3", {1, 2, 3, 4, 5}, 0, SystemMode::kAlwaysFpga);
  avg_exec("paper.fig4", {5, 10, 15, 20, 25}, 60, SystemMode::kVanillaX86);
  avg_exec("paper.fig5", {5, 10, 15, 20, 25}, 120, SystemMode::kVanillaX86);

  {
    exp::ThroughputConfig c;
    c.systems = three;
    c.runs = runs;
    c.seed = kHarnessSeed;
    exp::ThroughputResult res;
    timed("paper.fig6",
          [&] { res = exp::run_throughput_experiment(suite(), table, c); });
    checks.expect(res.cells.size() == c.background_loads.size() * three.size(),
                  "paper.fig6 returned every cell");
    for (int load : c.background_loads) {
      for (SystemMode m : three) (void)res.cell(m, load);
    }
  }

  const auto by_system = [](const auto& cells, SystemMode m, auto field) {
    for (const auto& cell : cells) {
      if (cell.system == m) return static_cast<double>(cell.*field);
    }
    throw Error("figure runner returned no cell for a system");
  };
  {
    exp::PeriodicExecConfig c;
    c.waves = smoke ? 3 : 30;
    c.apps_per_wave = 20;
    c.wave_interval = Duration::seconds(30);
    c.systems = three;
    c.seed = kHarnessSeed;
    std::vector<exp::PeriodicExecCell> cells;
    timed("paper.fig7", [&] {
      cells = exp::run_periodic_exec_experiment(suite(), table, c);
    });
    checks.expect(cells.size() == three.size(),
                  "paper.fig7 returned every cell");
    for (const auto& cell : cells) {
      checks.expect(cell.completed == static_cast<std::size_t>(
                                          c.waves * c.apps_per_wave),
                    "paper.fig7 completed every app");
    }
    const double xar =
        by_system(cells, SystemMode::kXarTrek, &exp::PeriodicExecCell::mean_ms);
    put(gain_pct(by_system(cells, SystemMode::kVanillaX86,
                           &exp::PeriodicExecCell::mean_ms),
                 xar));
    put(gain_pct(by_system(cells, SystemMode::kAlwaysFpga,
                           &exp::PeriodicExecCell::mean_ms),
                 xar));
  }
  {
    exp::PeriodicTputConfig c;
    c.app_runs = smoke ? 1 : 10;
    c.systems = three;
    c.seed = kHarnessSeed;
    std::vector<exp::PeriodicTputCell> cells;
    timed("paper.fig8", [&] {
      cells = exp::run_periodic_throughput_experiment(suite(), table, c);
    });
    checks.expect(cells.size() == three.size(),
                  "paper.fig8 returned every cell");
    const auto ips = &exp::PeriodicTputCell::mean_images_per_second;
    const double xar = by_system(cells, SystemMode::kXarTrek, ips);
    const double x86 = by_system(cells, SystemMode::kVanillaX86, ips);
    const double fpga = by_system(cells, SystemMode::kAlwaysFpga, ips);
    put(100.0 * (xar - x86) / x86);
    put(100.0 * (xar - fpga) / fpga);
  }
  {
    exp::ProfitabilityConfig c;
    c.systems = {SystemMode::kVanillaX86, SystemMode::kXarTrek};
    c.runs = runs;
    c.seed = kHarnessSeed;
    exp::ProfitabilityResult res;
    timed("paper.fig9", [&] {
      res = exp::run_profitability_experiment(suite(), table, c);
    });
    checks.expect(res.cells.size() == c.cg_counts.size() * c.systems.size(),
                  "paper.fig9 returned every cell");
    const auto gain = [&](int cg) {
      return gain_pct(res.cell(SystemMode::kVanillaX86, cg).mean_ms,
                      res.cell(SystemMode::kXarTrek, cg).mean_ms);
    };
    put((gain(0) + gain(2) + gain(4)) / 3.0);  // 0, 20 and 40% CG-A
    put(gain(10));
  }
  for (const Claim& claim : claims) {
    checks.expect(std::isfinite(claim.value),
                  std::string("claim ") + claim.id + " is finite");
  }
  return claims;
}

double mean_gap_pp(const std::vector<Claim>& claims) {
  double sum = 0.0;
  for (const Claim& c : claims) sum += c.gap_pp();
  return sum / static_cast<double>(claims.size());
}

void record_claims(const std::vector<Claim>& claims, Samples& out) {
  for (const Claim& c : claims) {
    out.add(std::string("exp.claim.") + c.id, "%", c.value);
  }
}

/// One pass over the paper workload: step G (its set-up), then every
/// figure runner.  `claims` receives the pass's claims.
PassResult paper_pass(bool smoke, Tracing tracing, Samples* layer,
                      Checks& checks, std::vector<Claim>& claims) {
  g_spans.set_enabled(tracing != Tracing::kOff);
  ScopedSpan pass_span("pass");
  const PinForPass pin;
  PassResult r;
  exp::EstimationResult est;
  r.setup_s = timed("setup.estimate", [&] {
    est = exp::ThresholdEstimator().estimate(suite());
  });
  const auto start = Clock::now();
  claims = paper_claims(est.table, smoke, checks);
  r.wall_s = seconds_since(start);
  r.attempted = claims.size();
  for (const Claim& c : claims) r.digest = mix_double(r.digest, c.value);
  if (layer != nullptr) layer->add("setup.estimate_s", "s", r.setup_s);
  return r;
}

// --- unit probes -------------------------------------------------------------

/// A self-rescheduling event chain: `*left` more firings, `gap` apart.
struct Chain {
  sim::Simulation* sim;
  std::uint64_t* left;
  Duration gap;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    sim->schedule_in(gap, *this);
  }
};

/// Schedule + dispatch cost of the single-queue event core: 1024
/// chains with seeded gaps keep a realistic heap depth.
double probe_event_ns(Rng rng, std::uint64_t events) {
  sim::Simulation sim;
  std::uint64_t left = events;
  for (int c = 0; c < 1024; ++c) {
    const Duration gap = Duration::micros(rng.uniform_real(1.0, 2.0));
    sim.schedule_in(gap, Chain{&sim, &left, gap});
  }
  const double wall = timed("unit.event", [&] { sim.run(); });
  return 1e9 * wall / static_cast<double>(sim.executed_events());
}

/// PsResource submit + complete with 512 resident jobs: each
/// completion submits the next job of the same demand.
double probe_ps_op_ns(std::uint64_t ops) {
  struct Resubmit {
    sim::PsResource* ps;
    std::uint64_t* left;
    std::uint64_t* done;
    double demand;
    void operator()() const {
      ++*done;
      if (*left == 0) return;
      --*left;
      ps->submit(demand, *this);
    }
  };
  sim::Simulation sim;
  sim::PsResource ps(sim, sim::PsResource::Config{"probe", 8.0, 1.0});
  ps.reserve_jobs(512);
  std::uint64_t left = ops;
  std::uint64_t done = 0;
  for (int j = 0; j < 512; ++j) {
    const double demand = 1.0 + j / 512.0;
    ps.submit(demand, Resubmit{&ps, &left, &done, demand});
  }
  const double wall = timed("unit.ps_op", [&] { sim.run(); });
  return 1e9 * wall / static_cast<double>(done);
}

/// Window cost of the sharded engine: 4 shards on `workers` workers,
/// one event per shard per 0.1 ms window.
double probe_window_us(std::size_t workers, std::uint64_t windows) {
  constexpr Duration kEpoch = Duration::micros(100.0);
  struct alignas(64) Left {
    std::uint64_t n = 0;
  };
  sim::ShardedSimulation::Options o;
  o.shards = 4;
  o.epoch = kEpoch;
  o.parallel = workers > 1;
  o.exec.workers = workers;
  sim::ShardedSimulation eng(o);
  std::vector<Left> left(o.shards, Left{windows});
  for (sim::ShardId s = 0; s < o.shards; ++s) {
    eng.shard(s).schedule_in(kEpoch, Chain{&eng.shard(s), &left[s].n, kEpoch});
  }
  const double wall = timed("unit.window", [&] {
    eng.run_until(TimePoint::origin() + kEpoch * static_cast<double>(windows));
  });
  return 1e6 * wall / static_cast<double>(eng.windows());
}

/// Cross-shard post + drain (+ the receiver's dispatch): shard 0 posts
/// 64 no-op events to shard 1 every window, serial engine.
double probe_post_ns(std::uint64_t windows) {
  constexpr Duration kEpoch = Duration::micros(100.0);
  constexpr int kBurst = 64;
  struct Poster {
    sim::ShardedSimulation* eng;
    std::uint64_t* left;
    void operator()() const {
      if (*left == 0) return;
      --*left;
      sim::Simulation& src = eng->shard(0);
      for (int i = 0; i < kBurst; ++i) {
        eng->post(0, 1, src.now() + kEpoch, [] {});
      }
      src.schedule_in(kEpoch, *this);
    }
  };
  sim::ShardedSimulation::Options o;
  o.shards = 2;
  o.epoch = kEpoch;
  sim::ShardedSimulation eng(o);
  std::uint64_t left = windows;
  eng.shard(0).schedule_in(kEpoch, Poster{&eng, &left});
  const double wall = timed("unit.post", [&] { eng.run(); });
  return 1e9 * wall / static_cast<double>(eng.stats(0).posts);
}

/// Request -> decision through SchedulerServer's public API, one
/// request at a time on a fresh single-queue Experiment.
double probe_placement_ns(const runtime::ThresholdTable& table,
                          std::uint64_t requests) {
  exp::Experiment exp(suite(), table);
  sim::Simulation& sim = exp.simulation();
  const TimePoint horizon = sim.now() + Duration::minutes(60);
  const double wall = timed("unit.placement", [&] {
    for (std::uint64_t i = 0; i < requests; ++i) {
      bool decided = false;
      exp.server().request_placement(
          suite()[i % suite().size()].name,
          [&decided](runtime::PlacementDecision) { decided = true; });
      while (!decided && sim.step_one(horizon)) {
      }
    }
  });
  return 1e9 * wall / static_cast<double>(requests);
}

double probe_experiment_ctor_ms(const runtime::ThresholdTable& table) {
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    ms.push_back(1e3 * timed("unit.experiment_ctor", [&] {
                   exp::Experiment exp(suite(), table);
                 }));
  }
  return median(ms);
}

void run_unit_probes(std::uint64_t seed, std::size_t workers, bool smoke,
                     Samples& out) {
  const std::uint64_t scale = smoke ? 20 : 1;
  const exp::EstimationResult est =
      exp::ThresholdEstimator().estimate(suite());
  for (int rep = 0; rep < 3; ++rep) {
    out.add("sim.unit.event_ns", "ns",
            probe_event_ns(Rng(seed).split(200), 2'000'000 / scale));
    out.add("sim.unit.ps_op_ns", "ns", probe_ps_op_ns(500'000 / scale));
    out.add("sim.unit.window_us", "us",
            probe_window_us(workers, 20'000 / scale));
    out.add("sim.unit.post_ns", "ns", probe_post_ns(20'000 / scale));
    out.add("runtime.unit.placement_ns", "ns",
            probe_placement_ns(est.table, 20'000 / scale));
    out.add("exp.unit.experiment_ctor_ms", "ms",
            probe_experiment_ctor_ms(est.table));
  }
}

// --- main ------------------------------------------------------------------

struct Options {
  Workload workload = Workload::kChurn4;
  std::string workload_name;
  std::uint64_t seed = 2021;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

bool parse_workload(const std::string& name, Workload& w) {
  if (name == "churn4") w = Workload::kChurn4;
  else if (name == "sync8") w = Workload::kSync8;
  else if (name == "storm4") w = Workload::kStorm4;
  else if (name == "paper") w = Workload::kPaper;
  else return false;
  return true;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload_name = argv[++i];
      if (!parse_workload(opt.workload_name, opt.workload)) return false;
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !opt.workload_name.empty();
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out;
}

/// The process's peak resident set (VmHWM), in MiB; 0 if unreadable.
/// Not getrusage's ru_maxrss: that survives exec, so it would report
/// the launching process's footprint whenever that is the larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

int run(const Options& opt) {
  const bool paper = opt.workload == Workload::kPaper;
  const std::size_t workers = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  const Inputs in = make_inputs(opt.workload, opt.seed, opt.smoke);
  Samples e2e;
  Samples layer;
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  if (opt.workload == Workload::kStorm4) {
    using Kind = sim::FaultEvent::Kind;
    for (Kind k : {Kind::kCellKill, Kind::kCellSlow, Kind::kLinkDegraded,
                   Kind::kPortFlaky, Kind::kDsmCorrupt}) {
      checks.expect(in.plan.count(k) >= 1,
                    std::string("the fault plan holds a ") + sim::to_string(k));
    }
  }

  std::vector<Claim> claims;
  PassResult reference;
  const auto pass = [&](Tracing tracing, std::size_t pass_workers,
                        Samples* pass_layer) {
    PassResult r =
        paper ? paper_pass(opt.smoke, tracing, pass_layer, checks, claims)
              : cluster_pass(in, pass_workers, tracing, pass_layer, checks);
    g_spans.set_enabled(false);
    attempted += r.attempted;
    failed += r.failed;
    if (reference.events == 0 && reference.digest == kFnvOffset) {
      reference = r;
    }
    checks.expect(r.events == reference.events && r.digest == reference.digest,
                  "every pass of one seed simulates the identical run "
                  "(events and trace digest)");
    return r;
  };

  try {
    (void)pass(Tracing::kOff, workers, nullptr);  // warm-up

    // Measured passes.  Traced runs rotate through the tracing modes so
    // each overhead ratio compares passes taken side by side.
    std::vector<Tracing> rotation = {Tracing::kOff};
    if (opt.trace) rotation.push_back(Tracing::kHost);
    if (opt.trace && !paper) rotation.push_back(Tracing::kLibrary);
    const std::size_t min_passes =
        opt.smoke ? rotation.size() : (opt.trace ? 2 : 5) * rotation.size();
    std::map<Tracing, std::vector<double>> wall_by_mode;
    const auto start = Clock::now();
    for (std::size_t n = 0;
         n < min_passes || seconds_since(start) < opt.seconds; ++n) {
      const Tracing mode = rotation[n % rotation.size()];
      Samples* pass_layer = mode == Tracing::kOff ? nullptr : &layer;
      const PassResult r = pass(mode, workers, pass_layer);
      wall_by_mode[mode].push_back(r.wall_s);
      if (mode != Tracing::kOff) {
        // The low 53 bits, so the value survives a JSON double.
        layer.add("exp.trace_digest", "id",
                  static_cast<double>(r.digest & ((1ULL << 53) - 1)));
        continue;
      }
      e2e.add("wall_s", "s", r.wall_s);
      e2e.add("setup_s", "s", r.setup_s);
      if (paper) e2e.add("paper_gap_pp", "pp", mean_gap_pp(claims));
      if (!paper) {
        layer.add("bench.sim_s_per_wall_s", "sim-s/s", r.sim_s / r.wall_s);
      }
    }
    // The workload's own footprint, read before anything else runs.
    e2e.add("peak_rss_mb", "MiB", peak_rss_mib());
    // Accuracy belongs to the commit, not to the load, so every
    // workload reports it: the paper workload from each pass, the
    // others from one untimed run of the figure runners.
    if (!paper) {
      const exp::EstimationResult est =
          exp::ThresholdEstimator().estimate(suite());
      claims = paper_claims(est.table, opt.smoke, checks);
      e2e.add("paper_gap_pp", "pp", mean_gap_pp(claims));
    }

    if (opt.trace) {
      const double plain = median(wall_by_mode[Tracing::kOff]);
      layer.add("bench.trace_overhead", "ratio",
                median(wall_by_mode[Tracing::kHost]) / plain);
      if (!paper) {
        layer.add("obs.traced_wall_ratio", "ratio",
                  median(wall_by_mode[Tracing::kLibrary]) / plain);
      }
      record_claims(claims, layer);
      // Wall-clock scaling with the worker count; 1 worker is the
      // serial engine, which must simulate the identical run.
      if (opt.workload == Workload::kChurn4 ||
          opt.workload == Workload::kStorm4) {
        g_spans.set_enabled(true);
        ScopedSpan span("scaling");
        for (std::size_t w : {1, 2, 4}) {
          const PassResult r = pass(Tracing::kOff, w, nullptr);
          layer.add("sim.scaling_w" + std::to_string(w), "sim-s/s",
                    r.sim_s / r.wall_s);
        }
      }
      g_spans.set_enabled(true);
      run_unit_probes(opt.seed, workers, opt.smoke, layer);
      g_spans.set_enabled(false);
    }
  } catch (const std::exception& e) {
    checks.expect(false, std::string("the workload threw: ") + e.what());
  }
  if (opt.trace) {
    g_spans.write_chrome_trace(opt.out_dir + "/" + opt.workload_name +
                               ".trace.json");
  }

  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": \"" << opt.workload_name
     << "\", \"seed\": " << opt.seed << ", \"workers\": " << workers
     << ", \"correct\": " << (checks.ok() ? "true" : "false")
     << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed + checks.failures().size()
     << ", \"checks_failed\": [";
  bool first = true;
  for (const std::string& f : checks.failures()) {
    os << (first ? "" : ", ") << '"' << json_escape(f) << '"';
    first = false;
  }
  os << "], \"end_to_end\": ";
  e2e.write_json(os);
  os << ", \"per_layer\": ";
  layer.write_json(os);
  os << "}";
  std::cout << os.str() << std::endl;
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace xartrek::xbench

int main(int argc, char** argv) {
  xartrek::xbench::Options opt;
  if (!xartrek::xbench::parse_args(argc, argv, opt)) {
    std::cerr << "usage: xbench --workload churn4|sync8|storm4|paper "
                 "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
                 "[--out DIR]\n";
    return 2;
  }
  return xartrek::xbench::run(opt);
}
