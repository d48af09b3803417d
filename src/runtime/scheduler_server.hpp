// The scheduler server -- placement policy (paper Algorithm 2).
//
// Runs on the x86 host.  On initialization it queries the hardware
// kernels in the loaded XCLBIN and establishes the client socket; the
// x86 load comes from a LoadMonitor, which models its timer without
// scheduling an event.  Each application request is answered with
// a placement decision derived from the threshold table, the sampled
// x86 load, and kernel residency; when the needed kernel is absent and
// the load is past FPGA_THR, the server starts a background
// reconfiguration while the function continues on a CPU -- hiding the
// transfer and programming latency (paper §3.4).
//
// Steady-state request path (submit -> decide -> callback) is
// allocation-free and O(log n): the app name resolves to its dense
// AppId against the threshold table when the request is submitted, the
// id, the caller's pid and the decision callback live in a pooled
// PendingRequest slot, and the scheduled event captures only
// {server, batch} (trivially copyable, stays inside the engine's inline
// buffer).  The client-server socket is modeled as a fixed round trip,
// kRequestOverhead; nothing is marshalled across it.
//
// Requests arriving at the same instant (a spike tick) are batched into
// ONE decision pass: they share a single pooled Batch, one scheduled
// event, one load-monitor sample, and one kernel-residency probe per
// distinct app -- the per-request constant at spike scale is the
// Algorithm-2 arithmetic.  A batch of one behaves exactly like the
// unbatched path, so request/decision semantics are unchanged.
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
#include "runtime/target.hpp"
#include "runtime/threshold_table.hpp"
#include "sim/callback.hpp"
#include "sim/simulation.hpp"
#include "sim/slot_pool.hpp"

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
class SchedulerServer final : private fpga::OfflineWatcher {
 public:
  using DecisionCallback = sim::UniqueFunction<void(PlacementDecision)>;

  struct Options {
    /// Algorithm 2's latency hiding: keep running on a CPU while the
    /// XCLBIN loads.  Off = traditional blocking configure-on-use
    /// (ablation 3 in DESIGN.md).
    bool hide_reconfiguration = true;
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
    std::uint64_t heartbeats_missed = 0;  ///< pings with no in-time reply
    /// Misses on a live card whose reply would have landed after the
    /// timeout.  Counted at the miss: the policy ignores late replies.
    std::uint64_t late_replies = 0;
    std::uint64_t evictions = 0;       ///< any -> kEvicted transitions
    std::uint64_t reinstatements = 0;  ///< kEvicted -> kOpen transitions
    // Gray degradation (zero while the target stays closed).
    std::uint64_t slow_replies = 0;    ///< in time but above kSlowReply
    std::uint64_t breaker_trips = 0;   ///< kClosed -> kOpen transitions
    std::uint64_t breaker_closes = 0;  ///< kHalfOpen -> kClosed transitions
  };

  /// Health of the FPGA target as the heartbeat loop sees it: one
  /// machine for gray degradation and death.
  ///
  ///   kClosed   -> kOpen      kTripLimit gray signals in a row
  ///   kOpen     -> kHalfOpen  clean reply after kBreakerCooldown
  ///   kHalfOpen -> kClosed    clean reply
  ///   kHalfOpen -> kOpen      gray signal
  ///   any       -> kEvicted   kMissLimit misses in a row
  ///   kEvicted  -> kOpen      in-time reply
  ///
  /// Every state but kClosed demotes the target in placement scoring
  /// and starts no new programmings; already-resident kernels stay
  /// callable under enough load.  kEvicted also reads every kernel as
  /// absent, exactly as a physically absent card would.
  enum class TargetHealth : std::uint8_t {
    kClosed,    ///< normal scoring
    kOpen,      ///< gray: demoted, no new programmings
    kHalfOpen,  ///< cooldown elapsed, one clean reply seen; one more
                ///< closes it, any gray signal re-opens it
    kEvicted,   ///< dead: kernels read absent until an in-time reply
  };

  /// Socket round trip between client and server (loopback): a request
  /// is decided this long after it is made.
  static constexpr Duration kRequestOverhead = Duration::micros(80.0);
  /// Ping cadence.
  static constexpr Duration kHeartbeatPeriod = Duration::ms(10.0);
  /// Device-side round trip of one ping when the card is up, before
  /// set_reply_latency_scale stretches it.
  static constexpr Duration kReplyLatency = Duration::micros(200.0);
  /// A ping with no reply this long after it left is a miss.
  static constexpr Duration kHeartbeatTimeout = Duration::ms(2.0);
  /// Consecutive misses that evict the target.
  static constexpr std::uint32_t kMissLimit = 3;
  /// An in-time reply slower than this is a gray signal.  Sits between
  /// the healthy reply and the timeout, so a 4x-slowed cell reads gray,
  /// not dead.
  static constexpr Duration kSlowReply = Duration::ms(0.5);
  /// Consecutive gray signals (misses or slow replies) that trip a
  /// closed target open.
  static constexpr std::uint32_t kTripLimit = 2;
  /// Quiet time after the last gray signal before a clean reply may
  /// half-open the target.
  static constexpr Duration kBreakerCooldown = Duration::ms(20.0);
  /// While the target is not closed, the app's FPGA threshold is
  /// scaled by this factor (plus one) in placement scoring.
  static constexpr double kDemotionFactor = 2.0;
  // The two conditions under which one machine with two streaks is
  // exact.
  static_assert(kHeartbeatTimeout <= kHeartbeatPeriod,
                "a ping must resolve before the next one leaves");
  static_assert(kTripLimit <= kMissLimit,
                "an eviction must always find the target already open");

  SchedulerServer(sim::Simulation& sim, LoadMonitor& monitor,
                  fpga::FpgaDevice& device, ThresholdTable& table,
                  std::vector<fpga::XclbinImage> xclbins)
      : SchedulerServer(sim, monitor, device, table, std::move(xclbins),
                        Options(), Logger{}) {}
  SchedulerServer(sim::Simulation& sim, LoadMonitor& monitor,
                  fpga::FpgaDevice& device, ThresholdTable& table,
                  std::vector<fpga::XclbinImage> xclbins, Options opts,
                  Logger log = {});
  SchedulerServer(const SchedulerServer&) = delete;
  SchedulerServer& operator=(const SchedulerServer&) = delete;
  ~SchedulerServer() { release_offline_watch(); }

  /// Handle one client request for `app` (Algorithm 2 main loop body).
  /// The callback fires kRequestOverhead later with the decision.
  /// Throws xartrek::Error when the threshold table has no row for
  /// `app`, before the request takes a slot or opens a batch.
  void request_placement(std::string_view app, DecisionCallback on_decision) {
    request_placement(app, /*pid=*/0, std::move(on_decision));
  }

  /// Same, carrying the caller's trace context: `pid` rides in the
  /// request's pending slot through the batch pass, so an attached
  /// tracer can tag the per-request decision with the submitting job's
  /// trace id.  0 = untracked (the default overload); the decision
  /// itself is identical either way.
  void request_placement(std::string_view app, std::uint32_t pid,
                         DecisionCallback on_decision);

  /// Counters as of now, with the quiet heartbeat loop's skipped pings
  /// settled in (see start_health_checks): every ping and outcome at an
  /// instant <= now is counted.  Non-const because it folds the pings
  /// before now into the stored counters, which changes nothing else.
  [[nodiscard]] Stats stats();

  /// Start the heartbeat loop against the FPGA target: pings leave every
  /// kHeartbeatPeriod, the first one period from now.  A ping resolves
  /// as it leaves, because whether the card is up and how long its
  /// handler takes are both known then: into the reply when it beats
  /// kHeartbeatTimeout, the miss otherwise; the outcomes drive health().
  ///
  /// A ping whose outcome would move only counters, miss_streak_ and
  /// the cooldown anchor is *steady*: a clean reply while kClosed with
  /// both streaks at 0, a slow in-time reply while kOpen, or a miss
  /// while kEvicted.  Every later ping stays steady until an input
  /// changes, so the loop goes quiet: it schedules no outcome and no
  /// tick, and settles the skipped pings arithmetically on the tick
  /// chain T_{k+1} = T_k + kHeartbeatPeriod.  Three input edges wake it
  /// -- FpgaDevice::set_offline (through the device's offline watcher,
  /// which this claims; it must be free), set_reply_latency_scale and
  /// stop_health_checks.  A wake settles every ping and outcome strictly
  /// before now, schedules the one outcome still in flight, and resumes
  /// real ticks at the first chain instant >= now, so an edge at a chain
  /// instant runs before that instant's ping, as a fault plan's edges
  /// (scheduled before the first tick) do under an eager timer.  The one
  /// difference from an eager timer: an edge made at chain instant T
  /// after that instant's ping already ran (a call made between runs,
  /// after run_until(T)) reaches the ping at T, not the one a period later.
  /// No-op while already running.
  void start_health_checks();
  /// Stop the loop (pending outcomes are dropped), release the offline
  /// watcher and reset the target to kClosed.
  void stop_health_checks();
  [[nodiscard]] bool health_checks_active() const { return health_on_; }

  /// The target's health (kClosed whenever health checks are off).
  [[nodiscard]] TargetHealth health() const { return health_; }
  /// False while the target is evicted.  Always true when health checks
  /// are off.
  [[nodiscard]] bool fpga_healthy() const {
    return health_ != TargetHealth::kEvicted;
  }

  /// Gray-failure hook (kCellSlow): scale the modeled device-side
  /// heartbeat reply latency -- the ping handler on a slowed cell
  /// answers late: a gray signal while the reply still beats the
  /// timeout, a miss once it does not.  1.0 restores nominal.
  void set_reply_latency_scale(double scale) {
    XAR_EXPECTS(scale > 0.0);
    wake();
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
  /// No-op while the port is busy or the target is not kClosed.  Not
  /// counted in Stats::reconfigurations_started (which tracks
  /// Algorithm-2-driven reconfigurations only).
  bool ensure_resident(std::string_view kernel);

  /// The slot scheduler, when the device is virtualized (else null).
  [[nodiscard]] const fpga::SlotScheduler* slot_scheduler() const {
    return slots_.get();
  }

  /// Link the stats counters into a metrics registry under `prefix`
  /// (and the slot scheduler's, when present, under `prefix + ".slots"`).
  /// The counters a skipped ping moves read settled, like stats().
  void register_metrics(obs::Registry& registry, const std::string& prefix);

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
  /// One in-flight request: the client's decision callback, the app's
  /// row and the caller's trace id.  Slots recycle through the pool's
  /// free list; `next` chains same-instant requests into their batch's
  /// intrusive FIFO.
  struct PendingRequest {
    DecisionCallback on_decision;
    AppId app = kInvalidAppId;
    std::uint32_t pid = 0;
    std::uint32_t next = sim::SlotPool<int>::kNoSlot;
  };

  /// Same-instant requests awaiting the shared decision pass.
  struct Batch {
    std::uint32_t head = sim::SlotPool<int>::kNoSlot;
    std::uint32_t tail = sim::SlotPool<int>::kNoSlot;
    std::uint32_t count = 0;
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

  /// How one ping resolves, `lag` after it leaves: an in-time reply, or
  /// a miss at the timeout.  `gray` marks a slow reply, or a late miss
  /// (the card was up but answered past the timeout).
  struct Ping {
    bool reply = false;
    bool gray = false;  ///< slow reply, or late miss
    Duration lag;
  };
  /// The ping leaving now, from the card's state and the reply scale.
  [[nodiscard]] Ping next_ping() const;
  /// True when `ping`'s outcome would move only counters, miss_streak_
  /// and opened_at_ (see start_health_checks).
  [[nodiscard]] bool steady(const Ping& ping) const;
  /// One heartbeat: ping, then either schedule its outcome and the next
  /// tick, or -- when the ping is steady -- go quiet.
  void heartbeat_tick();
  void schedule_tick(TimePoint at);
  void schedule_outcome(TimePoint at, Ping ping);
  /// Apply `ping`'s outcome as of instant `at`.
  void heartbeat_outcome(const Ping& ping, TimePoint at);
  /// The counters an outcome moves, whatever the state.
  static void count_outcome(Stats& stats, const Ping& ping);
  /// One gray signal at `at`: counts toward a trip while closed,
  /// otherwise (re)opens the target and restarts the cooldown.
  void note_gray(TimePoint at);
  /// Quiet loop: count every skipped ping and outcome at an instant
  /// before `before`, stepping the tick chain.
  void settle(TimePoint before);
  /// Input edge: settle, then put the loop back on real events.
  void wake();
  void before_offline_change() override { wake(); }
  void release_offline_watch();
  /// Event body: one decision pass over every request in `batch_slot`
  /// (one load sample, shared residency probes), answering each client.
  void finish_batch(std::uint32_t batch_slot);
  /// Decide and answer the single request in `slot` against the
  /// batch-shared load sample.
  void finish_one(std::uint32_t slot, int load);

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

  // Heartbeat state: one machine, two streaks.  Misses evict; gray
  // signals (misses and slow replies) trip.  The streaks stay separate
  // so a slowed cell that still answers reads gray, never dead.
  bool health_on_ = false;
  TargetHealth health_ = TargetHealth::kClosed;
  std::uint32_t miss_streak_ = 0;
  std::uint32_t gray_streak_ = 0;  ///< counted only while closed
  /// Last trip or gray signal while not closed: the cooldown runs from
  /// here.
  TimePoint opened_at_;
  /// Generation guard: stop/start invalidates in-flight events.
  std::uint64_t health_generation_ = 0;
  double reply_latency_scale_ = 1.0;
  // Quiet loop: while quiet_, no heartbeat event is scheduled, and every
  // ping from next_ping_at_ on the chain resolves as quiet_ping_.
  bool quiet_ = false;
  Ping quiet_ping_;
  TimePoint next_ping_at_;  ///< next chain instant not yet counted
  /// The last counted ping's outcome is not yet settled; it lands at
  /// outcome_at_.
  bool outcome_due_ = false;
  TimePoint outcome_at_;

  // Observability (inert until set_tracer / register_metrics).
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_lane_ = 0;
};

}  // namespace xartrek::runtime
