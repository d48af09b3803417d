#include "exp/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "apps/application.hpp"
#include "common/assert.hpp"
#include "popcorn/checkpoint.hpp"
#include "runtime/scheduler_server.hpp"

namespace xartrek::exp {

ClusterExperiment::ClusterExperiment(
    std::vector<apps::BenchmarkSpec> specs,
    const runtime::ThresholdTable& seed_table, ClusterSpec cluster,
    ExperimentOptions options)
    : cluster_(std::move(cluster)) {
  XAR_EXPECTS(cluster_.cells >= 1);
  XAR_EXPECTS(cluster_.completion_poll > Duration::zero());
  const std::size_t n = cluster_.cells;

  // Declare the graph: one node per cell (a testbed -- x86 host, its
  // FPGA card and the ARM server -- is always one affinity group), and
  // the ring links as edges carrying their modeled latency.  The
  // partitioner derives everything else (shard map, epoch, channels)
  // from this declaration.
  sim::Topology topo;
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes_.push_back(topo.add_node("cell" + std::to_string(i),
                                   static_cast<sim::CellId>(i)));
  }
  if (n > 1) {
    for (std::size_t i = 0; i < n; ++i) {
      // The ring interconnect: its latency is the cross-cell lookahead
      // the auto-picked epoch derives from.
      topo.add_edge(nodes_[i], nodes_[(i + 1) % n], cluster_.intercell.latency);
    }
  }

  sim::Topology::PartitionOptions popts;
  popts.epoch = cluster_.epoch;
  popts.parallel = cluster_.parallel;
  popts.exec = cluster_.exec;  // every knob, nothing forgotten
  engine_ = std::make_unique<sim::PartitionedEngine>(std::move(topo),
                                                     popts);

  // One full experiment stack per cell, constructed against the cell's
  // shard through the testbed's shard-aware hook, all on one compiled
  // suite.  Construction order within a cell is exactly
  // exp::Experiment's, so a 1-cell cluster schedules the identical event
  // sequence.
  const auto compiled = compile_suite(specs);
  cells_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ExperimentOptions cell_options = options;
    cell_options.testbed = cluster_.cell_config;
    cell_options.testbed.external_sim = &engine_->sim_of(nodes_[i]);
    cells_.push_back(std::make_unique<Experiment>(specs, compiled,
                                                  seed_table, cell_options));
  }

  if (n > 1) {
    intercell_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      intercell_.push_back(std::make_unique<hw::Link>(
          engine_->sim_of(nodes_[i]), cluster_.intercell));
      intercell_[i]->register_route(*engine_, nodes_[i], nodes_[(i + 1) % n]);
    }
  }

  // Tracked-job and fault-injection state.  Construction schedules
  // nothing, so a cluster that never submits or applies a plan runs a
  // bit-identical trace to a pre-fault-injection build.
  cell_jobs_.resize(n);
  cell_dead_.assign(n, 0);
  cell_epoch_.assign(n, 0);
  if (n > 1) {
    // The drain path rides the ring: each cell gets a route-less local
    // link (same spec as intercell_[i], so a partition or degradation
    // parks or drops on both -- see set_link_down_impl and
    // apply_fault_plan), a ReliableChannel restoring exactly-once
    // delivery over it, and the registered ring edge as the arrival hop
    // carrying the checkpoint to the neighbor's shard.
    drain_transformer_ = std::make_unique<popcorn::StateTransformer>(
        popcorn::drain_metadata());
    drain_links_.reserve(n);
    drain_arrivals_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      drain_links_.push_back(std::make_unique<hw::Link>(
          engine_->sim_of(nodes_[i]), cluster_.intercell));
      drain_arrivals_.push_back(
          engine_->channel_between(nodes_[i], nodes_[(i + 1) % n]));
    }
    build_drain_channels();
  }

  // Observability: registration allocates everything up front (pooled
  // counters, histogram lanes), so snapshots later never touch the hot
  // path.  Registration order is fixed by construction order, which is
  // what makes exported snapshots byte-identical serial vs parallel.
  register_all_metrics();
}

void ClusterExperiment::register_all_metrics() {
  const std::size_t n = cells_.size();
  obs::Histogram::Options hopts;
  hopts.lanes = n;  // completions record on the completing cell's shard
  job_latency_ = registry_.histogram("cluster.job.latency_ms", hopts);
  engine_->engine().register_metrics(registry_, "sim");
  for (std::size_t i = 0; i < n; ++i) {
    const std::string prefix = "cell" + std::to_string(i);
    cells_[i]->server().register_metrics(registry_, prefix + ".sched");
    if (i < intercell_.size()) {
      intercell_[i]->register_metrics(registry_, prefix + ".link");
    }
    if (i < drain_links_.size()) {
      drain_links_[i]->register_metrics(registry_, prefix + ".drain.link");
    }
    if (i < drain_channels_.size()) {
      // The drain channels are torn down and rebuilt by
      // apply_fault_plan (build_drain_channels), so linking their
      // counter addresses would dangle.  Probes re-resolve the current
      // channel at snapshot time instead -- never on the hot path.
      const auto probe = [&](const char* name,
                             std::uint64_t hw::ReliableChannel::Stats::*f) {
        registry_.probe(prefix + ".drain." + name, [this, i, f]() {
          return i < drain_channels_.size()
                     ? static_cast<double>(drain_channels_[i]->stats().*f)
                     : 0.0;
        });
      };
      probe("sends", &hw::ReliableChannel::Stats::sends);
      probe("retries", &hw::ReliableChannel::Stats::retries);
      probe("corrupt_detected", &hw::ReliableChannel::Stats::corrupt_detected);
      probe("duplicates_suppressed",
            &hw::ReliableChannel::Stats::duplicates_suppressed);
      probe("delivered", &hw::ReliableChannel::Stats::delivered);
      probe("abandoned", &hw::ReliableChannel::Stats::abandoned);
    }
  }
}

void ClusterExperiment::enable_tracing(obs::Tracer::Options opts) {
  tracer_ = std::make_unique<obs::Tracer>(cells_.size(), opts);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i]->server().set_tracer(tracer_.get(),
                                   static_cast<std::uint32_t>(i));
  }
}

void ClusterExperiment::build_drain_channels() {
  const std::size_t n = cells_.size();
  drain_channels_.clear();
  drain_channels_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Each channel's jitter stream is split per cell from the gray
    // seed: deterministic, but de-synchronized across cells.
    drain_channels_.push_back(std::make_unique<hw::ReliableChannel>(
        engine_->sim_of(nodes_[i]), *drain_links_[i], fault_opts_.drain_channel,
        Rng(fault_opts_.gray_seed).split(0x5000 + i)));
  }
}

std::vector<platform::Testbed*> ClusterExperiment::testbeds() {
  std::vector<platform::Testbed*> out;
  out.reserve(cells_.size());
  for (auto& cell : cells_) out.push_back(&cell->testbed());
  return out;
}

void ClusterExperiment::set_background_load(std::uint64_t total_jobs) {
  set_background_load(total_jobs, apps::ShardedLoadGenerator::Options{});
}

void ClusterExperiment::set_background_load(
    std::uint64_t total_jobs, apps::ShardedLoadGenerator::Options opts) {
  load_.reset();  // the old cohort detaches before the new one attaches
  if (total_jobs > 0) {
    load_ = std::make_unique<apps::ShardedLoadGenerator>(testbeds(),
                                                         total_jobs, opts);
  }
}

void ClusterExperiment::handoff(std::size_t from, std::uint64_t bytes,
                                sim::UniqueCallback on_arrival) {
  XAR_EXPECTS(cells_.size() > 1);
  XAR_EXPECTS(from < cells_.size());
  handoffs_.fetch_add(1, std::memory_order_relaxed);
  intercell_[from]->transfer(bytes, std::move(on_arrival));
}

std::size_t ClusterExperiment::completed_apps() const {
  std::size_t total = 0;
  for (const auto& cell : cells_) total += cell->completed_apps();
  return total;
}

bool ClusterExperiment::run_until_complete(std::size_t expected,
                                           Duration horizon) {
  sim::ShardedSimulation& ssim = engine_->engine();
  const TimePoint h = ssim.now() + horizon;
  while (completed_apps() < expected && ssim.now() < h) {
    ssim.run_until(std::min(h, ssim.now() + cluster_.completion_poll));
  }
  return completed_apps() >= expected;
}

void ClusterExperiment::run_for(Duration d) {
  XAR_EXPECTS(d >= Duration::zero());
  sim::ShardedSimulation& ssim = engine_->engine();
  ssim.run_until(ssim.now() + d);
}

void ClusterExperiment::apply_fault_plan(const sim::FaultPlan& plan,
                                         FaultInjectionOptions opts) {
  // An empty plan must leave the run bit-identical to never having
  // called this: no health checks, and `opts` is not kept either (a
  // later kill_cell would drain and back off with it).
  if (plan.empty()) return;
  const std::size_t n = cells_.size();
  std::string error;
  if (!plan.validate(static_cast<std::uint32_t>(n),
                     static_cast<std::uint32_t>(intercell_.size()),
                     &error)) {
    throw Error("fault plan rejected: " + error);
  }
  fault_opts_ = opts;
  if (n > 1) build_drain_channels();  // pick up opts.drain_channel
  // Every gray draw stream is split from (kind, victim): reproducible
  // from the seed, independent of event order, and never perturbing the
  // workload's own randomness.
  const Rng gray(fault_opts_.gray_seed);
  const auto stream = [&gray](sim::FaultEvent::Kind kind,
                              std::size_t victim, std::uint64_t leg) {
    return gray.split((static_cast<std::uint64_t>(kind) << 32) |
                      (static_cast<std::uint64_t>(victim) << 8) | leg);
  };
  for (const sim::FaultEvent& ev : plan.events()) {
    XAR_EXPECTS(ev.at >= now());
    const std::size_t victim = ev.index;
    sim::Simulation& shard = engine_->sim_of(nodes_[victim]);
    switch (ev.kind) {
      case sim::FaultEvent::Kind::kCellKill:
        // Drained jobs need a surviving ring neighbor to land on.
        XAR_EXPECTS(n > 1 && victim < n);
        shard.schedule_at(ev.at, [this, victim] { kill_cell_impl(victim); });
        break;
      case sim::FaultEvent::Kind::kLinkDown:
      case sim::FaultEvent::Kind::kLinkUp: {
        XAR_EXPECTS(n > 1 && victim < intercell_.size());
        const bool down = ev.kind == sim::FaultEvent::Kind::kLinkDown;
        shard.schedule_at(ev.at, [this, victim, down] {
          set_link_down_impl(victim, down);
        });
        break;
      }
      case sim::FaultEvent::Kind::kReconfigureFail:
        XAR_EXPECTS(victim < n);
        shard.schedule_at(ev.at, [this, victim] {
          cells_[victim]->testbed().fpga().inject_reconfigure_failure();
        });
        break;
      case sim::FaultEvent::Kind::kCellSlow: {
        XAR_EXPECTS(victim < n);
        // The cell's CPUs serve at magnitude x rate; the modeled
        // heartbeat handler rides the same starved cores, so replies
        // stretch by the inverse -- that is what the breaker sees.
        const double factor = ev.magnitude;
        shard.schedule_at(ev.at, [this, victim, factor] {
          cells_[victim]->testbed().x86().set_service_scale(factor);
          cells_[victim]->server().set_reply_latency_scale(1.0 / factor);
        });
        shard.schedule_at(ev.until, [this, victim] {
          cells_[victim]->testbed().x86().set_service_scale(1.0);
          cells_[victim]->server().set_reply_latency_scale(1.0);
        });
        break;
      }
      case sim::FaultEvent::Kind::kLinkDegraded: {
        XAR_EXPECTS(n > 1 && victim < intercell_.size());
        // Handoffs and drains share the physical pipe, so both links
        // degrade together (distinct drop streams: they are separate
        // flows on it).
        const double drop = ev.magnitude;
        const double factor = fault_opts_.degraded_latency_factor;
        Rng ic = stream(ev.kind, victim, 0);
        Rng dr = stream(ev.kind, victim, 1);
        shard.schedule_at(ev.at, [this, victim, factor, drop, ic, dr] {
          intercell_[victim]->set_degraded(factor, drop, ic);
          drain_links_[victim]->set_degraded(factor, drop, dr);
        });
        shard.schedule_at(ev.until, [this, victim] {
          intercell_[victim]->clear_degraded();
          drain_links_[victim]->clear_degraded();
        });
        break;
      }
      case sim::FaultEvent::Kind::kPortFlaky: {
        XAR_EXPECTS(victim < n);
        const double p = ev.magnitude;
        Rng rng = stream(ev.kind, victim, 0);
        shard.schedule_at(ev.at, [this, victim, p, rng] {
          cells_[victim]->testbed().fpga().set_port_flaky(p, rng);
        });
        shard.schedule_at(ev.until, [this, victim] {
          cells_[victim]->testbed().fpga().clear_port_flaky();
        });
        break;
      }
      case sim::FaultEvent::Kind::kDsmCorrupt: {
        // The victim's drain link starts corrupting verified frames;
        // the frame checksum catches each one and the reliable channel
        // re-sends it.
        XAR_EXPECTS(n > 1 && victim < n);
        const double p = ev.magnitude;
        Rng rng = stream(ev.kind, victim, 0);
        shard.schedule_at(ev.at, [this, victim, p, rng] {
          drain_links_[victim]->set_corrupting(p, rng);
        });
        shard.schedule_at(ev.until, [this, victim] {
          drain_links_[victim]->clear_corrupting();
        });
        break;
      }
    }
  }
  for (auto& cell : cells_) cell->server().start_health_checks();
}

void ClusterExperiment::kill_cell(std::size_t i) {
  XAR_EXPECTS(cells_.size() > 1 && i < cells_.size());
  // Route through the victim's shard so the immediate form and a
  // FaultPlan event produce the same trace.
  engine_->sim_of(nodes_[i]).schedule_at(
      now(), [this, i] { kill_cell_impl(i); });
}

void ClusterExperiment::set_link_down(std::size_t i, bool down) {
  XAR_EXPECTS(cells_.size() > 1 && i < intercell_.size());
  engine_->sim_of(nodes_[i]).schedule_at(
      now(), [this, i, down] { set_link_down_impl(i, down); });
}

std::uint64_t ClusterExperiment::submit(std::size_t i,
                                        const std::string& app_name) {
  XAR_EXPECTS(i < cells_.size());
  const auto& specs = cells_[i]->specs();
  std::size_t app_index = specs.size();
  for (std::size_t k = 0; k < specs.size(); ++k) {
    if (specs[k].name == app_name) {
      app_index = k;
      break;
    }
  }
  XAR_EXPECTS(app_index < specs.size());

  const std::uint64_t id = jobs_.size();
  TrackedJob job;
  job.app_index = static_cast<std::uint32_t>(app_index);
  job.cell = static_cast<std::uint32_t>(i);
  job.submitted_at = now();
  jobs_.push_back(job);
  cell_jobs_[i].push_back(id);
  if (tracer_ != nullptr && tracer_->sampled(trace_id_of(id))) {
    // submit() runs on the main thread between runs, when no worker
    // writes any lane -- touching lane i here is single-writer safe.
    tracer_->instant(static_cast<std::uint32_t>(i), obs::kTrackJob,
                     "job.submit", trace_id_of(id), now());
  }
  engine_->sim_of(nodes_[i]).schedule_at(now(), [this, id] { place_job(id); });
  return id;
}

void ClusterExperiment::place_job(std::uint64_t id) {
  TrackedJob& job = jobs_[id];
  const std::size_t c = job.cell;
  if (cell_dead_[c] == 0) {
    launch_tracked(id);
    return;
  }
  // Owner is dead: back off exponentially, then checkpoint-forward to
  // the ring neighbor.  The delay is charged on the dead cell's shard,
  // which stays live in the simulation -- only the modeled cell died.
  ++job.attempts;
  job.state = JobState::kBackoff;
  const Duration delay = fault_opts_.backoff.delay(job.attempts);
  if (tracer_ != nullptr && tracer_->sampled(trace_id_of(id))) {
    tracer_->emit(static_cast<std::uint32_t>(c), obs::kTrackJob,
                  "job.backoff", trace_id_of(id),
                  engine_->sim_of(nodes_[c]).now(),
                  engine_->sim_of(nodes_[c]).now() + delay);
  }
  engine_->sim_of(nodes_[c]).schedule_in(delay,
                                         [this, id] { forward_job(id); });
}

void ClusterExperiment::launch_tracked(std::uint64_t id) {
  TrackedJob& job = jobs_[id];
  const std::size_t c = job.cell;
  job.state = JobState::kRunning;
  const std::uint64_t epoch = cell_epoch_[c];
  const std::uint64_t tid = trace_id_of(id);
  obs::SpanRef run_span;
  if (tracer_ != nullptr && tracer_->sampled(tid)) {
    run_span = tracer_->begin(static_cast<std::uint32_t>(c), obs::kTrackJob,
                              "job.run", tid, engine_->sim_of(nodes_[c]).now());
  }
  apps::AppProcess::launch(
      cells_[c]->env(), cells_[c]->specs()[job.app_index],
      cells_[c]->options().mode,
      [this, id, c, epoch, run_span](const apps::AppResult&) {
        const TimePoint at = engine_->sim_of(nodes_[c]).now();
        // The span closes either way (an abandoned attempt genuinely
        // ran until this exit event); the ref travels by value because
        // a ghost must not touch the job record below.
        if (tracer_ != nullptr) tracer_->end(run_span, at);
        // Ghost completion: the cell died after this run launched, so
        // the job was drained and re-placed -- another shard owns its
        // record now.  Drop the exit without touching anything.
        if (cell_epoch_[c] != epoch) return;
        TrackedJob& done = jobs_[id];
        done.state = JobState::kCompleted;
        done.completed_at = at;
        job_latency_->record(c, (at - done.submitted_at).to_ms());
        if (tracer_ != nullptr && tracer_->sampled(trace_id_of(id))) {
          tracer_->instant(static_cast<std::uint32_t>(c), obs::kTrackJob,
                           "job.complete", trace_id_of(id), at);
        }
      },
      static_cast<std::uint32_t>(tid));
}

void ClusterExperiment::forward_job(std::uint64_t id) {
  TrackedJob& job = jobs_[id];
  const std::size_t c = job.cell;
  job.state = JobState::kForwarding;
  auto& owned = cell_jobs_[c];
  const auto it = std::find(owned.begin(), owned.end(), id);
  XAR_ASSERT(it != owned.end());
  owned.erase(it);

  // Snapshot the job as a drain ticket, lay it out as a real popcorn
  // stack, and ship it through the reliable drain channel.  The state
  // transform is charged concurrently with the (possibly re-sent) wire
  // payload, exactly like MigrationExecutor::execute_arm overlaps them;
  // the arrival fires on the neighbor's shard once both legs finish.
  // Until then the record travels inside the channel message and nobody
  // touches it -- every retry timer and duplicate-suppression decision
  // runs on *this* (the sender's) shard, because the drain link is
  // route-less.
  popcorn::DrainTicket ticket;
  ticket.job = id;
  ticket.app_index = job.app_index;
  ticket.attempts = job.attempts;
  const popcorn::ThreadStack stack =
      popcorn::checkpoint_drain(ticket, isa::IsaKind::kX86_64);
  const std::size_t dst = handoff_target(c);
  popcorn::ThreadStack transformed =
      drain_transformer_->transform_stack(stack, isa::IsaKind::kX86_64);
  const Duration transform_cost =
      drain_transformer_->stack_transform_cost(stack);
  const std::uint64_t payload = fault_opts_.drain_payload_bytes +
                                transformed.total_frame_bytes() + 64 * 8;
  struct Join {
    popcorn::ThreadStack stack;
    int remaining = 2;
  };
  auto join = std::make_shared<Join>(Join{std::move(transformed)});
  auto leg = [this, join, c, dst]() mutable {
    if (--join->remaining != 0) return;
    // Both legs done on shard c: cross to the neighbor's shard (the
    // registered ring edge) and re-materialize there.
    popcorn::ThreadStack arrived = std::move(join->stack);
    if (drain_arrivals_[c].connected()) {
      drain_arrivals_[c].deliver(
          [this, dst, arrived = std::move(arrived)]() mutable {
            land_job(dst, std::move(arrived));
          });
      return;
    }
    land_job(dst, std::move(arrived));
  };
  sim::Simulation& src = engine_->sim_of(nodes_[c]);
  const std::uint64_t tid = trace_id_of(id);
  if (tracer_ != nullptr && tracer_->sampled(tid)) {
    const auto lane = static_cast<std::uint32_t>(c);
    tracer_->instant(lane, obs::kTrackDrain, "drain.checkpoint", tid,
                     src.now());
    // The transform leg's duration is known up front; the transfer leg
    // closes when the reliable channel delivers (retries included) --
    // its completion fires on this shard because the drain link is
    // route-less.
    tracer_->emit(lane, obs::kTrackDrain, "drain.transform", tid, src.now(),
                  src.now() + transform_cost);
    obs::SpanRef span = tracer_->begin(lane, obs::kTrackDrain,
                                       "drain.transfer", tid, src.now());
    src.schedule_in(transform_cost, leg);
    drain_channels_[c]->send(payload, [this, c, span, leg]() mutable {
      tracer_->end(span, engine_->sim_of(nodes_[c]).now());
      leg();
    });
    return;
  }
  src.schedule_in(transform_cost, leg);
  drain_channels_[c]->send(payload, leg);
}

void ClusterExperiment::land_job(std::size_t dst,
                                 popcorn::ThreadStack stack) {
  const popcorn::DrainTicket t = popcorn::decode_drain(stack);
  TrackedJob& job = jobs_[t.job];
  job.cell = static_cast<std::uint32_t>(dst);
  job.attempts = t.attempts;
  job.state = JobState::kPending;
  cell_jobs_[dst].push_back(t.job);
  if (tracer_ != nullptr && tracer_->sampled(trace_id_of(t.job))) {
    // The ticket's job id is the trace context across the drain hop:
    // this marker lands on the *destination* lane, which is what
    // stitches one job's spans across cells.
    tracer_->instant(static_cast<std::uint32_t>(dst), obs::kTrackJob,
                     "job.land", trace_id_of(t.job),
                     engine_->sim_of(nodes_[dst]).now());
  }
  // If dst is dead too, place_job forwards onward around the ring --
  // the plan's kill budget guarantees a survivor.
  place_job(t.job);
}

void ClusterExperiment::kill_cell_impl(std::size_t c) {
  if (cell_dead_[c] != 0) return;
  cell_dead_[c] = 1;
  // Exits that race the kill (already-running AppProcesses on this
  // cell's shard) see a stale epoch and drop themselves.
  ++cell_epoch_[c];
  cells_[c]->testbed().fpga().set_offline(true);
  // Snapshot: forward_job edits the live list.
  const std::vector<std::uint64_t> doomed = cell_jobs_[c];
  for (const std::uint64_t id : doomed) {
    TrackedJob& job = jobs_[id];
    // Only force-drain running jobs.  Pending/backoff jobs already
    // have an event scheduled here that will observe cell_dead_ and
    // forward themselves; draining them now would run them twice.
    if (job.state != JobState::kRunning) continue;
    ++job.drains;
    forward_job(id);
  }
}

void ClusterExperiment::set_link_down_impl(std::size_t l, bool down) {
  // The drain link models the same physical pipe as the handoff link,
  // so a partition parks checkpoints and handoffs alike.
  intercell_[l]->set_down(down);
  drain_links_[l]->set_down(down);
}

bool ClusterExperiment::run_until_jobs_complete(Duration horizon) {
  sim::ShardedSimulation& ssim = engine_->engine();
  const TimePoint h = ssim.now() + horizon;
  while (completed_jobs() < jobs_.size() && ssim.now() < h) {
    ssim.run_until(std::min(h, ssim.now() + cluster_.completion_poll));
  }
  return completed_jobs() >= jobs_.size();
}

std::size_t ClusterExperiment::completed_jobs() const {
  return static_cast<std::size_t>(
      std::count_if(jobs_.begin(), jobs_.end(), [](const TrackedJob& j) {
        return j.state == JobState::kCompleted;
      }));
}

std::vector<double> ClusterExperiment::job_completion_times_ms() const {
  std::vector<double> out;
  out.reserve(jobs_.size());
  for (const TrackedJob& j : jobs_) {
    out.push_back(j.state == JobState::kCompleted ? j.completed_at.to_ms()
                                                  : -1.0);
  }
  return out;
}

ClusterExperiment::JobStats ClusterExperiment::job_stats() const {
  JobStats s;
  s.submitted = jobs_.size();
  for (const TrackedJob& j : jobs_) {
    s.drained += j.drains;
    s.retries += j.attempts;
    if (j.state == JobState::kCompleted) ++s.completed;
  }
  // Latencies come from the registry's histogram (fed at completion on
  // the completing cell's shard) instead of re-sorting a raw vector on
  // every call: max is exact, p99 is a lower-edge estimate that never
  // exceeds the true quantile (so `p99 <= budget` assertions stay safe).
  if (job_latency_->count() > 0) {
    s.max_latency_ms = job_latency_->max();
    s.p99_latency_ms = job_latency_->percentile(0.99);
  }
  // Gray-failure telemetry: sum the per-cell reliability layers (all
  // shard-owned state, read from the main thread between runs).
  for (const auto& ch : drain_channels_) {
    s.channel_retries += ch->stats().retries;
    s.corrupt_recovered += ch->stats().corrupt_detected;
    s.duplicates_suppressed += ch->stats().duplicates_suppressed;
  }
  for (const auto& link : drain_links_) {
    s.link_drops += link->stats().dropped_transfers;
  }
  for (const auto& link : intercell_) {
    s.link_drops += link->stats().dropped_transfers;
  }
  for (const auto& cell : cells_) {
    const runtime::SchedulerServer::Stats& srv = cell->server().stats();
    s.slow_replies += srv.slow_replies;
    s.late_replies += srv.late_replies;
    s.breaker_trips += srv.breaker_trips;
    s.breaker_closes += srv.breaker_closes;
    if (const fpga::SlotScheduler* slots = cell->server().slot_scheduler()) {
      s.slots_quarantined += slots->stats().quarantined;
    }
  }
  return s;
}

}  // namespace xartrek::exp
