// The scheduler server -- placement policy (paper Algorithm 2).
//
// Runs on the x86 host.  On initialization it queries the hardware
// kernels in the loaded XCLBIN, establishes the client socket, and
// starts the x86-load timer.  Each application request is answered with
// a placement decision derived from the threshold table, the sampled
// x86 load, and kernel residency; when the needed kernel is absent and
// the load is past FPGA_THR, the server starts a background
// reconfiguration while the function continues on a CPU -- hiding the
// transfer and programming latency (paper §3.4).
//
// Steady-state request path (submit -> encode -> decode -> decide ->
// callback) is allocation-free and O(log n): the decision callback
// lives in a pooled PendingRequest slot, the wire frame packs into its
// batch's arena, the scheduled event captures only {server, batch}
// (trivially copyable, stays inside the engine's inline buffer), the
// decode borrows string_views straight from the arena, and the app
// name is interned to a dense AppId against the threshold table
// without materializing a std::string.
//
// Requests arriving at the same instant (a spike tick) are batched into
// ONE decision pass: they share a single pooled Batch, one scheduled
// event, one *vectorized decode sweep* over the packed frame arena
// (decode_placement_request_arena -- a single pass in memory order
// instead of one decode_message_view call per request), one
// load-monitor sample, and one kernel-residency probe per distinct app
// -- the per-request constant at spike scale is a handful of bounds
// checks plus the Algorithm-2 arithmetic.  A batch of one behaves
// exactly like the unbatched path, so request/decision semantics are
// unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.hpp"
#include "common/time.hpp"
#include "fpga/device.hpp"
#include "fpga/slots.hpp"
#include "runtime/load_monitor.hpp"
#include "runtime/protocol.hpp"
#include "runtime/target.hpp"
#include "runtime/threshold_table.hpp"
#include "sim/callback.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"
#include "sim/slot_pool.hpp"
#include "sim/topology.hpp"

namespace xartrek::runtime {

/// The server's answer to one placement request.
struct PlacementDecision {
  Target target = Target::kX86;
  /// True when this request triggered a background reconfiguration.
  bool reconfiguration_started = false;
  /// True when the executor must wait for the FPGA to become ready
  /// before offloading (only under the blocking-configuration ablation).
  bool wait_for_fpga = false;
  int observed_load = 0;
};

/// Pure policy core of Algorithm 2 (lines 9-31), exposed for exhaustive
/// property testing.  `wants_reconfigure` is set when the policy asks
/// for the FPGA to be (re)configured in the background.
[[nodiscard]] Target decide_placement(int x86_load, int arm_threshold,
                                      int fpga_threshold,
                                      bool hw_kernel_available,
                                      bool& wants_reconfigure);

/// Operator-facing explanation of what Algorithm 2 would decide and
/// which pseudocode branch fires -- for dashboards and postmortems
/// ("why did digit2000 run on x86 at 14:03?").
[[nodiscard]] std::string explain_placement(int x86_load, int arm_threshold,
                                            int fpga_threshold,
                                            bool hw_kernel_available);

/// The server.
class SchedulerServer {
 public:
  using DecisionCallback = sim::UniqueFunction<void(PlacementDecision)>;

  struct Options {
    /// Socket round trip between client and server (loopback).
    Duration request_overhead = Duration::micros(80.0);
    /// Algorithm 2's latency hiding: keep running on a CPU while the
    /// XCLBIN loads.  Off = traditional blocking configure-on-use
    /// (ablation 3 in DESIGN.md).
    bool hide_reconfiguration = true;
    /// When the clients live on another simulation shard, decisions are
    /// delivered through this channel (its latency replaces the local
    /// callback's zero-cost return hop).  Inert by default.
    sim::CrossShardChannel reply_channel;
    /// Eviction/replication tunables for the slot scheduler the server
    /// builds when the device is in slot mode.  Ignored otherwise.
    fpga::SlotScheduler::Options slot_policy;
  };

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t to_x86 = 0;
    std::uint64_t to_arm = 0;
    std::uint64_t to_fpga = 0;
    std::uint64_t reconfigurations_started = 0;
    /// Decision passes (same-instant requests share one batch).
    std::uint64_t batches = 0;
    std::uint64_t max_batch = 0;
    /// Kernel-residency lookups actually performed; within a batch the
    /// probe is shared across requests for the same app.
    std::uint64_t residency_probes = 0;
    // Health checking (all zero while health checks are off).
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t heartbeats_missed = 0;  ///< timeouts with no reply
    /// Replies that arrived after their timeout already fired; they are
    /// ignored (the eviction decision stands until an in-time reply).
    std::uint64_t late_replies = 0;
    std::uint64_t evictions = 0;       ///< healthy -> evicted transitions
    std::uint64_t reinstatements = 0;  ///< evicted -> healthy transitions
    // Circuit breaker (gray-failure degradation; zero while closed).
    std::uint64_t slow_replies = 0;    ///< in-time but above slow_reply
    std::uint64_t breaker_trips = 0;   ///< closed -> open transitions
    std::uint64_t breaker_closes = 0;  ///< half-open -> closed transitions
  };

  /// Per-cell circuit breaker over the FPGA target.  Distinct from
  /// eviction: an evicted target is treated as dead (kernels read
  /// absent); an *open breaker* merely demotes the target in placement
  /// scoring -- already-resident kernels stay callable under enough
  /// load, but the bar is raised and no new reconfigurations start.
  enum class BreakerState : std::uint8_t {
    kClosed,    ///< normal scoring
    kOpen,      ///< gray target: demoted, no new programmings
    kHalfOpen,  ///< cooldown elapsed, one good probe seen; one more
                ///< closes it, any gray signal re-opens it
  };

  /// Heartbeat tunables.  Health checking is opt-in (start_health_checks);
  /// with it off the server's event schedule is bit-identical to pre-PR
  /// behavior and `fpga_healthy()` is pinned true.
  struct HealthOptions {
    /// Ping cadence.
    Duration period = Duration::ms(10.0);
    /// Device-side round trip of one ping when the card is up.
    Duration reply_latency = Duration::micros(200.0);
    /// How long after the ping the server waits before declaring a miss.
    Duration timeout = Duration::ms(2.0);
    /// Consecutive misses before the target is evicted.
    std::uint32_t miss_limit = 3;
    /// An in-time reply slower than this is a *gray* signal: the target
    /// answers, but sluggishly.  Feeds the circuit breaker, not the
    /// evictor.  Sits between the healthy reply (200us) and the miss
    /// timeout so a 4x-slowed cell reads gray, not dead.
    Duration slow_reply = Duration::ms(0.5);
    /// Consecutive gray signals (timeouts or slow replies) that trip
    /// the breaker open.  Kept below miss_limit so degradation is
    /// noticed before death would be.
    std::uint32_t breaker_trip_limit = 2;
    /// Open-state dwell before half-open probing may begin.
    Duration breaker_cooldown = Duration::ms(20.0);
    /// While the breaker is open or half-open, the app's FPGA threshold
    /// is inflated by this factor (plus one) in placement scoring --
    /// demotion, not eviction: resident kernels stay callable under
    /// enough load.
    double breaker_demotion_factor = 2.0;
  };

  SchedulerServer(sim::Simulation& sim, LoadMonitor& monitor,
                  fpga::FpgaDevice& device, ThresholdTable& table,
                  std::vector<fpga::XclbinImage> xclbins)
      : SchedulerServer(sim, monitor, device, table, std::move(xclbins),
                        Options(), Logger{}) {}
  SchedulerServer(sim::Simulation& sim, LoadMonitor& monitor,
                  fpga::FpgaDevice& device, ThresholdTable& table,
                  std::vector<fpga::XclbinImage> xclbins, Options opts,
                  Logger log = {});

  /// Handle one client request for `app` (Algorithm 2 main loop body).
  /// The callback fires after the socket round trip with the decision.
  void request_placement(std::string_view app, DecisionCallback on_decision) {
    request_placement(app, /*pid=*/0, std::move(on_decision));
  }

  /// Same, carrying the caller's trace context: `pid` rides in the
  /// existing PlacementRequestMsg::pid wire field through the batch
  /// pass, so an attached tracer can tag the per-request decision with
  /// the submitting job's trace id.  0 = untracked (the default
  /// overload); the decision itself is identical either way.
  void request_placement(std::string_view app, std::uint32_t pid,
                         DecisionCallback on_decision);

  /// Topology registration: the server is node `self`, its clients node
  /// `client`.  When the partitioner put them on different shards,
  /// decisions are delivered through the registered edge's channel
  /// (its latency is the far-side hop); otherwise the decision
  /// callback keeps running locally.  Replaces hand-assembling
  /// Options::reply_channel at call sites.
  void register_reply(sim::PartitionedEngine& eng, sim::NodeId self,
                      sim::NodeId client) {
    opts_.reply_channel = eng.channel_between(self, client);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Options& options() const { return opts_; }

  /// Start the heartbeat loop against the FPGA target.  Each tick pings
  /// the device: an online card answers `reply_latency` later, a dead
  /// one never does, and a reply landing after its `timeout` is *late*
  /// -- counted, but ignored, so an eviction already decided is not
  /// retroactively undone by a stale packet.  `miss_limit` consecutive
  /// timeouts evict the target: `fpga_healthy()` goes false and
  /// Algorithm 2 stops routing to (or reconfiguring) the card until an
  /// in-time reply reinstates it.
  void start_health_checks(HealthOptions opts);
  void start_health_checks();  // default tunables
  void stop_health_checks();
  [[nodiscard]] bool health_checks_active() const { return health_on_; }

  /// False while the heartbeat tracker has the FPGA target evicted.
  /// Always true when health checks are off.
  [[nodiscard]] bool fpga_healthy() const { return fpga_healthy_; }

  /// Circuit-breaker state (kClosed whenever health checks are off).
  [[nodiscard]] BreakerState breaker_state() const { return breaker_; }
  [[nodiscard]] bool breaker_closed() const {
    return breaker_ == BreakerState::kClosed;
  }

  /// Gray-failure hook (kCellSlow): scale the modeled device-side
  /// heartbeat reply latency -- the ping handler on a slowed cell
  /// answers late, which is exactly the slow-reply signal the breaker
  /// watches for.  1.0 restores nominal.
  void set_reply_latency_scale(double scale) {
    XAR_EXPECTS(scale > 0.0);
    reply_latency_scale_ = scale;
  }
  [[nodiscard]] double reply_latency_scale() const {
    return reply_latency_scale_;
  }

  /// Slot-aware residency of `kernel` as the placement policy sees it:
  /// an evicted (unhealthy) target answers "not resident" regardless of
  /// what physically sits on the fabric.  Replaces peeking at
  /// image_with() + has_kernel() from outside the server.
  [[nodiscard]] fpga::ResidencyView residency(std::string_view kernel) const;

  /// Warm path: make `kernel` resident if it isn't already -- a slot
  /// programming through the slot scheduler, or a whole-image download
  /// otherwise.  Returns true when a (re)configuration was started.
  /// No-op while the port is busy or the target is unhealthy.  Not
  /// counted in Stats::reconfigurations_started (which tracks
  /// Algorithm-2-driven reconfigurations only).
  bool ensure_resident(std::string_view kernel);

  /// The slot scheduler, when the device is virtualized (else null).
  [[nodiscard]] const fpga::SlotScheduler* slot_scheduler() const {
    return slots_.get();
  }

  /// Marshal the whole threshold table as TableSync wire messages (the
  /// server pushes these to clients so their local copies track the
  /// refined thresholds).
  [[nodiscard]] std::vector<std::vector<std::byte>> broadcast_table() const;

  /// Link the stats counters into a metrics registry under `prefix`
  /// (and the slot scheduler's, when present, under `prefix + ".slots"`).
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

  /// Emit scheduler spans on `lane` (the shard this server runs on):
  /// "sched.batch" around each decision pass, "sched.decide" instants
  /// per traced request, "sched.reconfigure" instants when Algorithm 2
  /// starts a background download, and "fpga.reconfigure" around
  /// whole-image downloads.  Forwards to the slot scheduler (which adds
  /// "fpga.slot_program") when the device is virtualized.  Null
  /// detaches.
  void set_tracer(obs::Tracer* tracer, std::uint32_t lane) {
    tracer_ = tracer;
    trace_lane_ = lane;
    if (slots_ != nullptr) slots_->set_tracer(tracer, lane, &sim_);
  }

 private:
  /// One in-flight request: the client's decision callback.  The wire
  /// frame itself lives packed in its batch's arena (below).  Slots
  /// recycle through the pool's free list; `next` chains same-instant
  /// requests into their batch's intrusive FIFO.
  struct PendingRequest {
    DecisionCallback on_decision;
    std::uint32_t next = sim::SlotPool<int>::kNoSlot;
  };

  /// Same-instant requests awaiting the shared decision pass.  Their
  /// encoded frames pack back to back into `arena` (one warm buffer per
  /// batch slot, capacity kept across recycles), so the decision pass
  /// decodes the whole spike tick in a single vectorized sweep instead
  /// of one decode_message_view call per request.
  struct Batch {
    std::uint32_t head = sim::SlotPool<int>::kNoSlot;
    std::uint32_t tail = sim::SlotPool<int>::kNoSlot;
    std::uint32_t count = 0;
    std::vector<std::byte> arena;
    TimePoint at;  ///< instant the batch opened (span start)
  };

  /// The image that contains `kernel`, or nullptr (the server's "Query
  /// Available HW Kernels" bookkeeping).  O(log kernels) via an index
  /// built at construction.  External callers use
  /// residency()/ensure_resident() instead of the raw image.
  [[nodiscard]] const fpga::XclbinImage* image_with(
      std::string_view kernel) const;

  /// Start a whole-image download of the XCLBIN providing `kernel`,
  /// wrapped in an "fpga.reconfigure" span, with its typed result
  /// logged.  Shared by Algorithm 2 and the warm path; the caller owns
  /// the port/health gating and any counting.  False (with a warning)
  /// when no registered image provides the kernel.
  bool start_image_download(std::string_view kernel);
  /// One heartbeat tick: ping, arm the timeout, schedule the next tick.
  void heartbeat_tick();
  void heartbeat_reply(std::uint64_t seq, bool slow);
  void heartbeat_timeout(std::uint64_t seq);
  /// Breaker inputs: one gray signal (timeout / slow reply) or one
  /// clean in-time reply.
  void breaker_note_gray();
  void breaker_note_ok();
  /// Event body: one decision pass over every request in `batch_slot`
  /// (one arena decode sweep, one load sample, shared residency
  /// probes), answering each client.
  void finish_batch(std::uint32_t batch_slot);
  /// Decide and answer the single request in `slot` against the
  /// batch-shared load sample and its decoded view.
  void finish_one(std::uint32_t slot, int load,
                  const PlacementRequestView& request);
  /// Run or remotely deliver one client's decision callback.
  void answer(DecisionCallback cb, PlacementDecision decision);

  sim::Simulation& sim_;
  LoadMonitor& monitor_;
  fpga::FpgaDevice& device_;
  ThresholdTable& table_;
  std::vector<fpga::XclbinImage> xclbins_;
  /// kernel name -> index into xclbins_, built once at construction
  /// (replaces the per-request linear scan over images x kernels).
  std::map<std::string, std::size_t, std::less<>> kernel_index_;
  Options opts_;
  Logger log_;
  Stats stats_;
  sim::SlotPool<PendingRequest> pending_;
  sim::SlotPool<Batch> batches_;
  /// The batch still accepting requests (kNoSlot when none), and the
  /// instant it was opened -- a request at a later instant opens a
  /// fresh batch with its own round-trip deadline.
  std::uint32_t open_batch_ = sim::SlotPool<int>::kNoSlot;
  TimePoint open_batch_at_;
  /// The eviction/replication policy when the device is in slot mode;
  /// null while the device is the one-slot whole-image carve, whose
  /// swaps stay Algorithm 2's plain whole-image policy.
  std::unique_ptr<fpga::SlotScheduler> slots_;
  /// Per-batch memo of kernel residency by app (cleared per pass; keeps
  /// capacity, so the steady state stays allocation-free).  Each entry
  /// is revalidated with FpgaDevice::residency_current -- a cached
  /// resident answer keys on *its* slot's version, so batch-mates
  /// churning other slots don't force a re-probe.
  std::vector<std::pair<AppId, fpga::ResidencyView>> probe_cache_;
  /// Decision-pass scratch: the finishing batch's arena is swapped in
  /// here (a re-entrant request_placement from a decision callback
  /// appends to a *new* batch's arena, never this one) and the decoded
  /// views alias it.  Both keep their capacity across passes.
  std::vector<std::byte> arena_scratch_;
  std::vector<PlacementRequestView> views_scratch_;

  // Heartbeat state.  Sequence numbers disambiguate the reply/timeout
  // race: a reply for seq s is *late* exactly when s's timeout already
  // fired, and a timeout is a miss exactly when no in-time reply for s
  // (or a later ping) arrived first.
  HealthOptions health_opts_;
  bool health_on_ = false;
  bool fpga_healthy_ = true;
  std::uint64_t heartbeat_seq_ = 0;    ///< last ping sent
  std::uint64_t replied_seq_ = 0;      ///< highest seq answered in time
  std::uint64_t expired_seq_ = 0;      ///< highest seq whose timeout fired
  std::uint32_t consecutive_misses_ = 0;
  /// Generation guard: stop/start invalidates in-flight tick events.
  std::uint64_t health_generation_ = 0;

  // Circuit breaker state (closed while health checks are off).
  BreakerState breaker_ = BreakerState::kClosed;
  std::uint32_t breaker_gray_streak_ = 0;
  TimePoint breaker_opened_at_;
  double reply_latency_scale_ = 1.0;

  // Observability (inert until set_tracer / register_metrics).
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_lane_ = 0;
};

}  // namespace xartrek::runtime
