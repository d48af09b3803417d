#include "runtime/scheduler_server.hpp"

#include <exception>
#include <utility>

#include "common/assert.hpp"
#include "obs/registry.hpp"

namespace xartrek::runtime {

Target decide_placement(int x86_load, int arm_threshold, int fpga_threshold,
                        bool hw_kernel_available, bool& wants_reconfigure) {
  wants_reconfigure = false;
  const bool above_arm = x86_load > arm_threshold;

  // FPGA threshold respected: only the ARM threshold matters
  // (Algorithm 2 lines 19-24).
  if (x86_load <= fpga_threshold) {
    return above_arm ? Target::kArm : Target::kX86;
  }
  // Past FPGA_THR with no resident kernel: configure in the background
  // and keep running on a CPU meanwhile (lines 9-18).
  if (!hw_kernel_available) {
    wants_reconfigure = true;
    return above_arm ? Target::kArm : Target::kX86;
  }
  // Past FPGA_THR with the kernel resident; the smaller threshold
  // implies the smaller execution time on that target (lines 25-31).
  return fpga_threshold < arm_threshold ? Target::kFpga : Target::kArm;
}

std::string explain_placement(int x86_load, int arm_threshold,
                              int fpga_threshold,
                              bool hw_kernel_available) {
  bool wants_reconfigure = false;
  const Target target = decide_placement(
      x86_load, arm_threshold, fpga_threshold, hw_kernel_available,
      wants_reconfigure);
  std::string why;
  const std::string load = "load " + std::to_string(x86_load);
  const std::string thrs = " (ARM_THR " + std::to_string(arm_threshold) +
                           ", FPGA_THR " + std::to_string(fpga_threshold) +
                           ")";
  if (!hw_kernel_available && wants_reconfigure) {
    why = load + " exceeds FPGA_THR but the kernel is not resident" + thrs +
          "; running on " + to_string(target) +
          " while the XCLBIN loads in the background [lines " +
          (target == Target::kX86 ? "9-13" : "14-18") + "]";
  } else if (target == Target::kX86) {
    why = load + " within both thresholds" + thrs +
          "; staying on x86 [lines 19-21]";
  } else if (target == Target::kArm) {
    why = x86_load <= fpga_threshold
              ? load + " exceeds only ARM_THR" + thrs +
                    "; migrating to ARM [lines 22-24]"
              : load + " exceeds FPGA_THR with the kernel resident, but "
                    "ARM_THR < FPGA_THR implies ARM is the faster "
                    "target" +
                    thrs + " [lines 25-31]";
  } else {
    why = load + " exceeds FPGA_THR, kernel resident, FPGA_THR < ARM_THR" +
          thrs + "; migrating to the FPGA [lines 25-31]";
  }
  return why;
}

SchedulerServer::SchedulerServer(sim::Simulation& sim, LoadMonitor& monitor,
                                 fpga::FpgaDevice& device,
                                 ThresholdTable& table,
                                 std::vector<fpga::XclbinImage> xclbins,
                                 Options opts, Logger log)
    : sim_(sim),
      monitor_(monitor),
      device_(device),
      table_(table),
      xclbins_(std::move(xclbins)),
      opts_(opts),
      log_(std::move(log)) {
  // "Query Available HW Kernels" bookkeeping: index every kernel of
  // every registered image once, instead of scanning images x kernels
  // per lookup.  First image providing a kernel wins, matching the old
  // linear scan's front-to-back precedence.
  for (std::size_t i = 0; i < xclbins_.size(); ++i) {
    for (const auto& k : xclbins_[i].kernels) {
      kernel_index_.try_emplace(k.name, i);
    }
  }
  // A virtualized device gets a slot scheduler with every registered
  // kernel in its catalog: placement decisions then trade slots in a
  // capacity market instead of swapping whole images.
  if (device_.slot_mode()) {
    slots_ = std::make_unique<fpga::SlotScheduler>(device_);
    for (const auto& image : xclbins_) {
      for (const auto& k : image.kernels) slots_->register_kernel(k);
    }
  }
}

const fpga::XclbinImage* SchedulerServer::image_with(
    std::string_view kernel) const {
  const auto it = kernel_index_.find(kernel);
  return it == kernel_index_.end() ? nullptr : &xclbins_[it->second];
}

bool SchedulerServer::start_image_download(std::string_view kernel) {
  const fpga::XclbinImage* image = image_with(kernel);
  if (image == nullptr) {
    log_.warn("server: no XCLBIN provides kernel ", kernel);
    return false;
  }
  log_.info("server: reconfiguring FPGA with ", image->id, " for kernel ",
            kernel);
  obs::SpanRef span;
  if (tracer_ != nullptr && tracer_->sampled(0)) {
    span = tracer_->begin(trace_lane_, obs::kTrackFpga, "fpga.reconfigure",
                          /*trace_id=*/0, sim_.now());
  }
  device_.reconfigure(
      *image, [this, span, id = image->id](fpga::ReconfigureResult result) {
        if (tracer_ != nullptr) tracer_->end(span, sim_.now());
        if (succeeded(result)) {
          log_.debug("server: reconfiguration ", id, " complete");
        } else {
          log_.warn("server: reconfiguration ", id, " failed (",
                    fpga::to_string(result), ") -- kernels not resident");
        }
      });
  return true;
}

fpga::ResidencyView SchedulerServer::residency(
    std::string_view kernel) const {
  // An evicted target answers no residency probes: its kernels read as
  // absent, exactly as a physically absent card would.
  if (health_ == TargetHealth::kEvicted) return fpga::ResidencyView{};
  return device_.residency(kernel);
}

bool SchedulerServer::ensure_resident(std::string_view kernel) {
  if (health_ != TargetHealth::kClosed || device_.reconfiguring()) {
    return false;
  }
  if (device_.residency(kernel).resident()) return false;
  if (slots_ != nullptr) return slots_->provision(kernel);
  return start_image_download(kernel);
}

void SchedulerServer::start_health_checks() {
  if (health_on_) return;
  XAR_EXPECTS(device_.offline_watcher() == nullptr);
  device_.set_offline_watcher(this);
  health_on_ = true;
  ++health_generation_;
  schedule_tick(sim_.now() + kHeartbeatPeriod);
}

void SchedulerServer::stop_health_checks() {
  // Pings before now count; the outcome in flight is dropped with every
  // other pending heartbeat event.
  settle(sim_.now());
  quiet_ = false;
  release_offline_watch();
  health_on_ = false;
  ++health_generation_;  // orphan any in-flight tick/outcome events
  health_ = TargetHealth::kClosed;
  miss_streak_ = 0;
  gray_streak_ = 0;
}

void SchedulerServer::release_offline_watch() {
  if (device_.offline_watcher() == this) device_.set_offline_watcher(nullptr);
}

SchedulerServer::Ping SchedulerServer::next_ping() const {
  // A live card answers one reply latency later; a dead card never
  // does (the ping vanishes into the dead PCIe slot).  A *slowed* cell
  // answers late: the modeled ping handler rides the degraded service
  // rate (set_reply_latency_scale).  A reply due at the deadline counts
  // as in time.
  const bool online = !device_.offline();
  const Duration delay =
      Duration::ms(kReplyLatency.to_ms() * reply_latency_scale_);
  if (online && delay <= kHeartbeatTimeout) {
    return Ping{true, delay > kSlowReply, delay};
  }
  return Ping{false, online, kHeartbeatTimeout};
}

bool SchedulerServer::steady(const Ping& ping) const {
  if (!ping.reply) return health_ == TargetHealth::kEvicted;
  if (ping.gray) return health_ == TargetHealth::kOpen;
  return health_ == TargetHealth::kClosed && miss_streak_ == 0 &&
         gray_streak_ == 0;
}

void SchedulerServer::heartbeat_tick() {
  ++stats_.heartbeats_sent;
  const Ping ping = next_ping();
  const TimePoint now = sim_.now();
  if (steady(ping)) {
    // This outcome, and every later ping's until an input edge wakes
    // the loop, moves only counters: settle them instead of scheduling.
    quiet_ = true;
    quiet_ping_ = ping;
    next_ping_at_ = now + kHeartbeatPeriod;
    outcome_due_ = true;
    outcome_at_ = now + ping.lag;
    return;
  }
  schedule_outcome(now + ping.lag, ping);
  schedule_tick(now + kHeartbeatPeriod);
}

void SchedulerServer::schedule_tick(TimePoint at) {
  sim_.schedule_at(at, [this, gen = health_generation_] {
    if (health_on_ && gen == health_generation_) heartbeat_tick();
  });
}

void SchedulerServer::schedule_outcome(TimePoint at, Ping ping) {
  sim_.schedule_at(at, [this, gen = health_generation_, ping] {
    if (health_on_ && gen == health_generation_) {
      heartbeat_outcome(ping, sim_.now());
    }
  });
}

void SchedulerServer::settle(TimePoint before) {
  if (!quiet_) return;
  // Each outcome lands before the next ping leaves (the timeout is at
  // most a period), so the two alternate.  A steady outcome run through
  // the full handler moves exactly what its event would have.
  for (;;) {
    if (outcome_due_) {
      if (!(outcome_at_ < before)) return;
      heartbeat_outcome(quiet_ping_, outcome_at_);
      outcome_due_ = false;
    }
    if (!(next_ping_at_ < before)) return;
    ++stats_.heartbeats_sent;
    outcome_at_ = next_ping_at_ + quiet_ping_.lag;
    outcome_due_ = true;
    next_ping_at_ = next_ping_at_ + kHeartbeatPeriod;
  }
}

void SchedulerServer::wake() {
  if (!quiet_) return;
  settle(sim_.now());
  quiet_ = false;
  if (outcome_due_) schedule_outcome(outcome_at_, quiet_ping_);
  schedule_tick(next_ping_at_);
}

SchedulerServer::Stats SchedulerServer::stats() {
  const TimePoint now = sim_.now();
  settle(now);
  Stats view = stats_;
  // What lands at now itself stays unsettled (a wake at now must still
  // find it in flight), so only the copy counts it.
  if (quiet_) {
    if (outcome_due_ && outcome_at_ == now) count_outcome(view, quiet_ping_);
    if (next_ping_at_ == now) ++view.heartbeats_sent;
  }
  return view;
}

void SchedulerServer::count_outcome(Stats& stats, const Ping& ping) {
  if (ping.reply) {
    if (ping.gray) ++stats.slow_replies;
    return;
  }
  ++stats.heartbeats_missed;
  if (ping.gray) ++stats.late_replies;
}

void SchedulerServer::note_gray(TimePoint at) {
  if (health_ == TargetHealth::kClosed) {
    if (++gray_streak_ < kTripLimit) return;
    ++stats_.breaker_trips;
    log_.warn("server: FPGA target OPEN after ", gray_streak_,
              " gray signals -- demoted");
  }
  // A gray half-open probe re-opens the target; an open or evicted one
  // absorbs the signal.  Either way the cooldown restarts.
  if (health_ != TargetHealth::kEvicted) health_ = TargetHealth::kOpen;
  opened_at_ = at;
}

void SchedulerServer::heartbeat_outcome(const Ping& ping, TimePoint at) {
  count_outcome(stats_, ping);
  if (!ping.reply) {
    note_gray(at);
    if (++miss_streak_ >= kMissLimit && health_ != TargetHealth::kEvicted) {
      health_ = TargetHealth::kEvicted;
      ++stats_.evictions;
      log_.warn("server: FPGA target evicted after ", miss_streak_,
                " missed heartbeats");
    }
    return;
  }
  miss_streak_ = 0;
  if (health_ == TargetHealth::kEvicted) {
    // Alive again, but not yet trusted: the target re-enters placement
    // open and earns its way closed like any gray one.
    health_ = TargetHealth::kOpen;
    ++stats_.reinstatements;
    log_.info("server: FPGA target reinstated");
  }
  if (ping.gray) {
    note_gray(at);
    return;
  }
  gray_streak_ = 0;
  if (health_ == TargetHealth::kOpen) {
    // Probing starts only after the cooldown; the first clean reply
    // after it half-opens the target.
    if (at - opened_at_ >= kBreakerCooldown) {
      health_ = TargetHealth::kHalfOpen;
    }
  } else if (health_ == TargetHealth::kHalfOpen) {
    health_ = TargetHealth::kClosed;
    ++stats_.breaker_closes;
    log_.info("server: FPGA target closed -- reinstated in placement "
              "scoring");
  }
}

void SchedulerServer::request_placement(std::string_view app,
                                        std::uint32_t pid,
                                        DecisionCallback on_decision) {
  XAR_EXPECTS(on_decision != nullptr);
  // The name resolves to its dense AppId now, so the decision pass reads
  // the row by index and the caller's string may die before it runs.  A
  // name without a row is the caller's error: it throws here, before a
  // slot or a batch is taken.
  const AppId app_id = table_.id_of(app);
  if (app_id == kInvalidAppId) {
    throw Error("threshold table has no entry for `" + std::string(app) +
                "`");
  }
  // The request parks in a pooled PendingRequest slot, chained behind
  // every other request arriving at this same instant -- so a whole
  // spike tick shares ONE scheduled event, one load sample and one
  // residency probe per app.  The event captures only {this, batch} --
  // trivially copyable, inside the engine's inline buffer, zero
  // per-request allocations.
  const std::uint32_t slot = pending_.acquire();
  PendingRequest& request = pending_[slot];
  request.on_decision = std::move(on_decision);
  request.app = app_id;
  request.pid = pid;
  request.next = sim::SlotPool<int>::kNoSlot;

  if (open_batch_ == sim::SlotPool<int>::kNoSlot ||
      open_batch_at_ != sim_.now()) {
    // First request of this instant: open a batch with its own
    // round-trip deadline.  A still-open earlier batch keeps its
    // already-scheduled pass; it just stops accepting requests.
    open_batch_ = batches_.acquire();
    batches_[open_batch_] = Batch{.at = sim_.now()};
    open_batch_at_ = sim_.now();
    const std::uint32_t batch_slot = open_batch_;
    sim_.schedule_in(kRequestOverhead,
                     [this, batch_slot] { finish_batch(batch_slot); });
  }
  Batch& batch = batches_[open_batch_];
  if (batch.tail == sim::SlotPool<int>::kNoSlot) {
    batch.head = slot;
  } else {
    pending_[batch.tail].next = slot;
  }
  batch.tail = slot;
  ++batch.count;
}

void SchedulerServer::finish_batch(std::uint32_t batch_slot) {
  if (open_batch_ == batch_slot) open_batch_ = sim::SlotPool<int>::kNoSlot;
  const Batch finishing = batches_[batch_slot];
  batches_.release(batch_slot);
  ++stats_.batches;
  if (finishing.count > stats_.max_batch) stats_.max_batch = finishing.count;
  if (tracer_ != nullptr && tracer_->sampled(0)) {
    // The pass itself runs at one instant; the span covers the socket
    // round trip the batch spent in flight.
    tracer_->emit(trace_lane_, obs::kTrackSched, "sched.batch",
                  /*trace_id=*/0, finishing.at, sim_.now());
  }

  // ONE load-monitor sample serves the whole batch: every same-instant
  // request sees the same sampled load, exactly as the paper's
  // timer-driven x86LOAD figure would be read once per server tick.
  const int load = monitor_.x86_load();
  probe_cache_.clear();

  std::uint32_t slot = finishing.head;
  std::exception_ptr deferred;
  while (slot != sim::SlotPool<int>::kNoSlot) {
    // The callback inside finish_one may re-enter request_placement and
    // recycle slots, so read the link before processing.
    const std::uint32_t next = pending_[slot].next;
    try {
      finish_one(slot, load);
    } catch (...) {
      // A throwing callback must not swallow its batch-mates'
      // decisions: answer the rest, then propagate the first error
      // (finish_one released the slot before the callback ran).
      if (deferred == nullptr) deferred = std::current_exception();
    }
    slot = next;
  }
  if (deferred != nullptr) std::rethrow_exception(deferred);
}

void SchedulerServer::finish_one(std::uint32_t slot, int load) {
  ++stats_.requests;
  // Read the request out of its slot up front: a re-entrant request
  // from a callback can grow the pool and move every slot.
  const AppId app_id = pending_[slot].app;
  const std::uint32_t pid = pending_[slot].pid;
  const ThresholdEntry& entry = table_.at(app_id);

  // Residency probes are shared across the batch: one lookup per
  // distinct app (linear scan -- spikes are many requests for few
  // apps).  A batch-mate's decision (or its callback) can mutate
  // residency synchronously -- starting a reconfiguration tears
  // fabric down, a callback may even take the card offline -- so each
  // cached ResidencyView is revalidated against the device: a resident
  // answer stays good until *its* slot reprograms (in whole-image mode
  // the one slot), a non-resident one until the device's residency
  // epoch moves.
  fpga::ResidencyView view;
  bool probed = false;
  std::size_t cached = probe_cache_.size();
  for (std::size_t i = 0; i < probe_cache_.size(); ++i) {
    if (probe_cache_[i].first != app_id) continue;
    cached = i;
    if (device_.residency_current(probe_cache_[i].second)) {
      view = probe_cache_[i].second;
      probed = true;
    }
    break;
  }
  if (!probed) {
    view = device_.residency(entry.kernel_name);
    ++stats_.residency_probes;
    if (cached == probe_cache_.size()) {
      probe_cache_.emplace_back(app_id, view);
    } else {
      probe_cache_[cached].second = view;
    }
  }
  // An evicted target answers no residency probes: the tracker treats
  // its kernels as absent, which drops Algorithm 2 into its CPU-only
  // branches exactly as a physically absent card would.
  const bool kernel_ready =
      health_ != TargetHealth::kEvicted && view.resident();

  PlacementDecision decision;
  decision.observed_load = load;

  // Gray demotion: a target that is not closed gets an inflated
  // effective FPGA threshold -- resident kernels still serve genuinely
  // heavy load, but marginal traffic stays on the CPUs until the cell
  // proves itself again.
  const bool closed = health_ == TargetHealth::kClosed;
  int fpga_thr = entry.fpga_threshold;
  if (!closed) {
    fpga_thr = static_cast<int>(fpga_thr * kDemotionFactor) + 1;
  }

  bool wants_reconfigure = false;
  decision.target = decide_placement(load, entry.arm_threshold, fpga_thr,
                                     kernel_ready, wants_reconfigure);

  if (slots_ != nullptr) {
    // Virtualized device: every request is a demand signal, and the
    // slot scheduler -- not a whole-image download -- decides whether
    // the kernel deserves fabric (fresh slot, eviction) or more of it
    // (replication).  Replication is also consulted when the kernel is
    // already resident but the load is past FPGA_THR: sustained
    // pressure grows CUs.  A target that is not closed gets no new
    // programmings, and what is already resident stays untouched.
    slots_->note_demand(entry.kernel_name);
    if (closed && (wants_reconfigure || (kernel_ready && load > fpga_thr))) {
      if (slots_->provision(entry.kernel_name)) {
        ++stats_.reconfigurations_started;
        decision.reconfiguration_started = true;
      }
    }
  } else if (wants_reconfigure && closed) {
    // One download at a time, and none into a gray or evicted target.
    const bool was_reconfiguring = device_.reconfiguring();
    if (!was_reconfiguring && start_image_download(entry.kernel_name)) {
      ++stats_.reconfigurations_started;
    }
    decision.reconfiguration_started = !was_reconfiguring;
    if (!opts_.hide_reconfiguration && load > fpga_thr &&
        entry.fpga_threshold < entry.arm_threshold) {
      // Blocking ablation: the traditional flow stalls the caller on
      // the configuration instead of running elsewhere meanwhile.
      decision.target = Target::kFpga;
      decision.wait_for_fpga = true;
    }
  }

  switch (decision.target) {
    case Target::kX86:  ++stats_.to_x86; break;
    case Target::kArm:  ++stats_.to_arm; break;
    case Target::kFpga: ++stats_.to_fpga; break;
  }
  log_.trace("server: app=", entry.app, " load=", load, " -> ",
             to_string(decision.target));
  if (tracer_ != nullptr && pid != 0 && tracer_->sampled(pid)) {
    // Stitch the decision to the submitting job via its trace id.
    tracer_->instant(trace_lane_, obs::kTrackSched, "sched.decide", pid,
                     sim_.now());
    if (decision.reconfiguration_started) {
      tracer_->instant(trace_lane_, obs::kTrackSched, "sched.reconfigure",
                       pid, sim_.now());
    }
  }
  // The callback runs last so it may immediately issue the next
  // request.
  DecisionCallback cb = std::move(pending_[slot].on_decision);
  pending_.release(slot);
  cb(decision);
}

void SchedulerServer::register_metrics(obs::Registry& registry,
                                       const std::string& prefix) {
  // Skipped pings move these four; a probe reads them settled.
  const auto settled = [&](const char* name, std::uint64_t Stats::*field) {
    registry.probe(prefix + name, [this, field] {
      return static_cast<double>(stats().*field);
    });
  };
  registry.link_counter(prefix + ".requests", &stats_.requests);
  registry.link_counter(prefix + ".to_x86", &stats_.to_x86);
  registry.link_counter(prefix + ".to_arm", &stats_.to_arm);
  registry.link_counter(prefix + ".to_fpga", &stats_.to_fpga);
  registry.link_counter(prefix + ".reconfigurations_started",
                        &stats_.reconfigurations_started);
  registry.link_counter(prefix + ".batches", &stats_.batches);
  registry.link_gauge(prefix + ".max_batch", &stats_.max_batch);
  registry.link_counter(prefix + ".residency_probes",
                        &stats_.residency_probes);
  settled(".heartbeats_sent", &Stats::heartbeats_sent);
  settled(".heartbeats_missed", &Stats::heartbeats_missed);
  settled(".late_replies", &Stats::late_replies);
  registry.link_counter(prefix + ".evictions", &stats_.evictions);
  registry.link_counter(prefix + ".reinstatements",
                        &stats_.reinstatements);
  settled(".slow_replies", &Stats::slow_replies);
  registry.link_counter(prefix + ".breaker_trips", &stats_.breaker_trips);
  registry.link_counter(prefix + ".breaker_closes",
                        &stats_.breaker_closes);
  if (slots_ != nullptr) {
    slots_->register_metrics(registry, prefix + ".slots");
  }
}

}  // namespace xartrek::runtime
