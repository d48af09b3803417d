#include "exp/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "apps/application.hpp"
#include "common/assert.hpp"
#include "popcorn/checkpoint.hpp"
#include "runtime/scheduler_server.hpp"

namespace xartrek::exp {

namespace {

/// How often the run_until_* loops re-check their completion count.
/// Completions carry exact event timestamps, so this sets polling
/// granularity only, never the trace.
constexpr Duration kCompletionPoll = Duration::seconds(1.0);
/// Re-placement delay after finding a dead cell: attempt k waits
/// kDeadCellBackoff.delay(k).
constexpr hw::Backoff kDeadCellBackoff = {Duration::ms(1.0), 6};
/// Working-set bytes shipped alongside a drained job's checkpoint.
constexpr std::uint64_t kDrainPayloadBytes = 64 * 1024;
/// Latency inflation on a kLinkDegraded ring link (the drop probability
/// rides in the fault event's magnitude).
constexpr double kDegradedLatencyFactor = 4.0;
/// Shape of the reliable drain channels.  The timeout must clear one
/// drain payload's worst healthy transfer; attempts are generous because
/// an abandoned drain is a lost job.
constexpr hw::ReliableChannel::Options kDrainChannel = {
    Duration::ms(10.0), {Duration::ms(1.0), 6}, 0.25, 16};
/// Seed of the gray-fault randomness streams (drop/corrupt/flaky draws
/// and retry jitter), split per victim and kind so injection never
/// perturbs the workload's own draws.
constexpr std::uint64_t kGraySeed = 0x6772617946616CULL;  // "grayFal"

}  // namespace

ClusterExperiment::ClusterExperiment(
    std::vector<apps::BenchmarkSpec> specs,
    const runtime::ThresholdTable& seed_table, ClusterSpec cluster,
    ExperimentOptions options)
    : cluster_(std::move(cluster)),
      ring_(cluster_.cells, cluster_.intercell.latency, cluster_.epoch,
            cluster_.parallel, cluster_.exec) {
  const std::size_t n = cluster_.cells;

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
    cell_options.testbed.external_sim = &ring_.cell(i);
    cells_.push_back(std::make_unique<Experiment>(specs, compiled,
                                                  seed_table, cell_options));
  }

  if (n > 1) {
    intercell_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      intercell_.push_back(
          std::make_unique<hw::Link>(ring_.cell(i), cluster_.intercell));
      intercell_[i]->route(ring_.next(i));
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
    // delivery over it, and the ring hop carrying the checkpoint to the
    // neighbor's shard.  Each channel's jitter stream is split per cell
    // from the gray seed: deterministic, but de-synchronized across
    // cells.
    drain_transformer_ = std::make_unique<popcorn::StateTransformer>(
        popcorn::drain_metadata());
    drain_links_.reserve(n);
    drain_channels_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      drain_links_.push_back(
          std::make_unique<hw::Link>(ring_.cell(i), cluster_.intercell));
      drain_channels_.push_back(std::make_unique<hw::ReliableChannel>(
          ring_.cell(i), *drain_links_[i], kDrainChannel,
          Rng(kGraySeed).split(0x5000 + i)));
    }
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
  ring_.engine().register_metrics(registry_, "sim");
  for (std::size_t i = 0; i < n; ++i) {
    const std::string prefix = "cell" + std::to_string(i);
    cells_[i]->server().register_metrics(registry_, prefix + ".sched");
    if (i < intercell_.size()) {
      intercell_[i]->register_metrics(registry_, prefix + ".link");
    }
    if (i < drain_links_.size()) {
      drain_links_[i]->register_metrics(registry_, prefix + ".drain.link");
      drain_channels_[i]->register_metrics(registry_, prefix + ".drain");
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

void ClusterExperiment::set_background_load(std::uint64_t total_jobs) {
  apps::LoadGenerator::Options opts;
  opts.reserve = true;
  set_background_load(total_jobs, opts);
}

void ClusterExperiment::set_background_load(
    std::uint64_t total_jobs, apps::LoadGenerator::Options opts) {
  const std::uint64_t n = cells_.size();
  // Cell 0's share, ceil(total / n), is the largest.
  XAR_EXPECTS((total_jobs + n - 1) / n <=
              static_cast<std::uint64_t>(std::numeric_limits<int>::max()));
  load_.clear();  // the old cohorts detach before the new ones attach
  if (total_jobs == 0) return;
  load_.reserve(n);
  for (std::uint64_t c = 0; c < n; ++c) {
    const std::uint64_t jobs = total_jobs / n + (c < total_jobs % n ? 1 : 0);
    load_.push_back(std::make_unique<apps::LoadGenerator>(
        cells_[c]->testbed(), static_cast<int>(jobs), opts));
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
  sim::ShardedSimulation& ssim = ring_.engine();
  const TimePoint h = ssim.now() + horizon;
  while (completed_apps() < expected && ssim.now() < h) {
    ssim.run_until(std::min(h, ssim.now() + kCompletionPoll));
  }
  return completed_apps() >= expected;
}

void ClusterExperiment::run_for(Duration d) {
  XAR_EXPECTS(d >= Duration::zero());
  sim::ShardedSimulation& ssim = ring_.engine();
  ssim.run_until(ssim.now() + d);
}

void ClusterExperiment::apply_fault_plan(const sim::FaultPlan& plan) {
  // An empty plan must leave the run bit-identical to never having
  // called this: no health checks, and it does not use up the cluster's
  // one plan.
  if (plan.empty()) return;
  // Reject before touching anything: a refused plan schedules nothing
  // and leaves the cluster free to take another.  Only one plan is
  // taken, because validate() checks the kill survivor rule and the
  // window overlaps within one plan -- a second plan could kill the last
  // live cell or reopen a window the first one has open.
  if (plan_applied_) {
    throw Error(
        "fault plan rejected: this cluster already took its fault plan; "
        "merge the events into one plan");
  }
  const std::size_t n = cells_.size();
  std::string error;
  if (!plan.validate(static_cast<std::uint32_t>(n),
                     static_cast<std::uint32_t>(intercell_.size()),
                     &error)) {
    throw Error("fault plan rejected: " + error);
  }
  if (plan.events().front().at < now()) {  // events are sorted by time
    throw Error("fault plan rejected: its first event, at " +
                std::to_string(plan.events().front().at.to_ms()) +
                " ms, lies before now (" + std::to_string(now().to_ms()) +
                " ms)");
  }
  plan_applied_ = true;
  // Every gray draw stream is split from (kind, victim): reproducible
  // from the seed, independent of event order, and never perturbing the
  // workload's own randomness.
  const Rng gray(kGraySeed);
  const auto stream = [&gray](sim::FaultEvent::Kind kind,
                              std::size_t victim, std::uint64_t leg) {
    return gray.split((static_cast<std::uint64_t>(kind) << 32) |
                      (static_cast<std::uint64_t>(victim) << 8) | leg);
  };
  // validate() has bounded every victim by the cell or link count and
  // kept kills and drain corruption off a one-cell cluster.
  for (const sim::FaultEvent& ev : plan.events()) {
    const std::size_t victim = ev.index;
    sim::Simulation& shard = ring_.cell(victim);
    switch (ev.kind) {
      case sim::FaultEvent::Kind::kCellKill:
        shard.schedule_at(ev.at, [this, victim] { kill_cell_impl(victim); });
        break;
      case sim::FaultEvent::Kind::kLinkDown:
      case sim::FaultEvent::Kind::kLinkUp: {
        const bool down = ev.kind == sim::FaultEvent::Kind::kLinkDown;
        shard.schedule_at(ev.at, [this, victim, down] {
          set_link_down_impl(victim, down);
        });
        break;
      }
      case sim::FaultEvent::Kind::kReconfigureFail:
        shard.schedule_at(ev.at, [this, victim] {
          cells_[victim]->testbed().fpga().inject_reconfigure_failure();
        });
        break;
      case sim::FaultEvent::Kind::kCellSlow: {
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
        // Handoffs and drains share the physical pipe, so both links
        // degrade together (distinct drop streams: they are separate
        // flows on it).
        const double drop = ev.magnitude;
        const double factor = kDegradedLatencyFactor;
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
  ring_.cell(i).schedule_at(now(), [this, id] { place_job(id); });
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
  const Duration delay = kDeadCellBackoff.delay(job.attempts);
  if (tracer_ != nullptr && tracer_->sampled(trace_id_of(id))) {
    tracer_->emit(static_cast<std::uint32_t>(c), obs::kTrackJob,
                  "job.backoff", trace_id_of(id), ring_.cell(c).now(),
                  ring_.cell(c).now() + delay);
  }
  ring_.cell(c).schedule_in(delay, [this, id] { forward_job(id); });
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
                              "job.run", tid, ring_.cell(c).now());
  }
  apps::AppProcess::launch(
      cells_[c]->env(), cells_[c]->specs()[job.app_index],
      cells_[c]->options().mode,
      [this, id, c, epoch, run_span](const apps::AppResult&) {
        const TimePoint at = ring_.cell(c).now();
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
  const std::uint64_t payload = kDrainPayloadBytes +
                                transformed.total_frame_bytes() + 64 * 8;
  struct Join {
    popcorn::ThreadStack stack;
    int remaining = 2;
  };
  auto join = std::make_shared<Join>(Join{std::move(transformed)});
  auto leg = [this, join, c, dst]() mutable {
    if (--join->remaining != 0) return;
    // Both legs done on shard c: cross one ring hop to the neighbor's
    // shard and re-materialize there.
    ring_.next(c).deliver(
        [this, dst, arrived = std::move(join->stack)]() mutable {
          land_job(dst, std::move(arrived));
        });
  };
  sim::Simulation& src = ring_.cell(c);
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
      tracer_->end(span, ring_.cell(c).now());
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
                     "job.land", trace_id_of(t.job), ring_.cell(dst).now());
  }
  // If dst is dead too, place_job forwards onward around the ring --
  // FaultPlan::validate refuses plans that leave no cell alive.
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
  sim::ShardedSimulation& ssim = ring_.engine();
  const TimePoint h = ssim.now() + horizon;
  while (completed_jobs() < jobs_.size() && ssim.now() < h) {
    ssim.run_until(std::min(h, ssim.now() + kCompletionPoll));
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
