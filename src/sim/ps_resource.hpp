// Processor-sharing resource.
//
// Models a pool of identical servers (CPU cores) or a shared channel
// (Ethernet, PCIe) under egalitarian processor sharing: with `n` active
// jobs the resource serves each at rate
//
//     r(n) = min(per_job_cap, capacity / n)
//
// For a c-core cluster running single-threaded processes, capacity = c
// core-units and per_job_cap = 1 (a process cannot use more than one
// core), which is exactly the contention model behind the paper's
// load-threshold estimation: an application that takes T ms alone takes
// ~T*n/c ms when n > c instances share the cluster.
//
// For a link, capacity = bandwidth (bytes/ms) and per_job_cap = capacity
// (one transfer may saturate the link); concurrent transfers share
// bandwidth fairly.
//
// Formulation: the resource keeps a *virtual clock* V that advances at
// the current per-job service rate r(n) -- V is the attained service of
// a hypothetical job that has been resident since time zero.  A job
// submitted with demand d when the clock reads V0 finishes exactly when
// V reaches V0 + d, so the bookkeeping per submit/cancel/complete is a
// constant-time clock update plus one operation on the event engine's
// 4-ary keyed heap (`sim/keyed_heap.hpp`) over (finish_v, seq): O(log n)
// instead of charging every resident job.  The completion instants are
// arithmetically identical to the naive per-job-decrement formulation
// (same products, same divisions), and same-instant completions still
// fire in submission order (the key breaks finish-time ties on a
// submission sequence number).
//
// Two kinds of job share the pool.  A one-shot job (`submit`) runs its
// callback once its demand is served.  A loop job (`submit_loop`) has no
// callback: once served it re-enters with the same demand, as a
// callback that resubmitted it at once would -- the paper's looping
// MG-B background processes.  It re-enters at its callback's place in
// the tick's submission order, draws its next sequence number there, and
// is out of service (not in `active_jobs()`) for every callback of the
// tick that runs before it; it keeps its JobId across laps.  When a tick
// finds a loop job at the root and no other job due, the job takes its
// next lap in place: one sift-down of the root; no slot is released and
// no callback or completion-list entry moves.
//
// A job is due once its residual demand is rounding noise, or once the
// instant it would finish at rounds to now.  One batch of mutations arms
// one engine event: inside a Batch scope -- a completion tick runs its
// callbacks in one, and a caller may open one around a burst of submits
// or cancels -- a re-arm only cancels the armed completion, if one is
// still armed, and draws a reserved engine sequence number; when the
// outermost scope closes, it computes the next instant once, from the
// final state, and arms it under the last number drawn.  The skipped
// events could never have fired, so the surviving (time, seq) key --
// and every trace -- is the one eager cancel-and-reschedule would have
// left.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "sim/callback.hpp"
#include "sim/keyed_heap.hpp"
#include "sim/simulation.hpp"
#include "sim/slot_pool.hpp"

namespace xartrek::sim {

/// A processor-sharing multi-server resource inside a Simulation.
class PsResource {
 public:
  /// Opaque job handle: encodes a pool slot plus the generation the
  /// slot had when the job was submitted, so a stale id (completed or
  /// cancelled long ago, slot since recycled) can never alias a live
  /// job.
  using JobId = std::uint64_t;
  using Callback = UniqueCallback;

  struct Config {
    std::string name;     ///< for diagnostics
    double capacity;      ///< total service units per ms (> 0)
    double per_job_cap;   ///< max service units per ms for one job (> 0)
  };

  PsResource(Simulation& sim, Config cfg);
  PsResource(const PsResource&) = delete;
  PsResource& operator=(const PsResource&) = delete;

  /// A scope whose submits, cancels and rescales re-arm the completion
  /// event once: the first cancels the armed event, each draws its
  /// engine sequence number, and the outermost scope's end arms the
  /// next completion at the final state under the last number.  Scopes
  /// nest; one opened inside a completion callback arms nothing itself,
  /// since the tick's own scope is open.  No event may run while a
  /// scope is open.
  class Batch {
   public:
    explicit Batch(PsResource& ps) : ps_(ps) { ++ps_.batch_depth_; }
    ~Batch() {
      if (--ps_.batch_depth_ == 0) ps_.arm();
    }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    PsResource& ps_;
  };

  /// Submit a job demanding `demand` service units (>= 0).  `on_complete`
  /// fires from the event loop when the job's demand has been served.
  /// Completion order among jobs finishing at the same instant follows
  /// submission order.  O(log n) in the number of resident jobs.  The
  /// callback moves once, into the job's slot.
  JobId submit(double demand, Callback&& on_complete);

  /// Submit a loop job demanding `demand` service units (> 0: a zero
  /// demand would re-enter at one instant forever) per lap.  Each time
  /// its demand has been served it re-enters with the same demand, in
  /// submission order among the tick's completions, until cancelled.
  /// The id stays valid across laps.  A callback that throws out of a
  /// tick stops the loop jobs that tick has not re-entered yet; cancel
  /// still releases them.
  JobId submit_loop(double demand);

  /// Remove a job before completion, or end a loop job (also one that
  /// its tick has served but not yet re-entered).  Returns false if the
  /// job already completed (or never existed).  The callback does not
  /// fire.  O(log n) amortized (the heap entry is reaped lazily).
  bool cancel(JobId id);

  /// Jobs currently in service.  This is the paper's "CPU load" metric
  /// when the resource is the x86 cluster: *every* resident process
  /// counts, whether or not it currently holds a core.
  [[nodiscard]] std::size_t active_jobs() const { return live_; }

  /// Service rate a job enjoys right now (0 when idle).
  [[nodiscard]] double current_rate_per_job() const {
    return rate_per_job(live_);
  }

  /// Scale total capacity by `scale` (> 0) from this instant on; 1.0
  /// restores the configured rate.  Gray-failure hook (kCellSlow): work
  /// already served stays served -- the virtual clock is settled at the
  /// old rate before the new one takes effect, so completion instants
  /// stay arithmetically exact across the change.
  void set_capacity_scale(double scale);
  [[nodiscard]] double capacity_scale() const { return scale_; }

  /// Total service units delivered since construction (for conservation
  /// checks in tests).
  [[nodiscard]] double delivered_work() const;

  /// Remaining demand of a job (for tests).  Requires the job be active.
  [[nodiscard]] double remaining_demand(JobId id) const;

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Grow the job pool and heap up front so a known load level runs
  /// without a single reallocation (benchmarks; optional).
  void reserve_jobs(std::size_t n) {
    slots_.reserve(n);
    heap_.reserve(n);
    done_scratch_.reserve(n);
  }

 private:
  static constexpr std::uint32_t kNoSlot = SlotPool<int>::kNoSlot;

  /// One pooled job.  `finish_v` is the virtual-clock reading at which
  /// the job's demand is exhausted, or kParked.  Its heap key is
  /// (finish_v, submission seq); the callback stays in the slab so sift
  /// operations never touch it.  A loop job has a positive `loop_demand`
  /// and no callback.
  struct JobSlot {
    double finish_v = 0.0;
    double loop_demand = 0.0;
    Callback on_complete;
  };

  /// `finish_v` of a loop job its tick has served and not yet re-entered:
  /// out of service and out of the heap.  Attained service is never
  /// negative, so no live finish reads this.
  static constexpr double kParked = -1.0;

  /// A job the running tick served, in the order its completion runs:
  /// a one-shot's callback, or a loop job's (slot, generation).
  struct Served {
    std::uint64_t seq;
    std::uint32_t loop_slot;  ///< kNoSlot for a one-shot job
    std::uint32_t generation;
    Callback on_complete;
  };

  [[nodiscard]] double rate_per_job(std::size_t n) const {
    if (n == 0) return 0.0;
    // Both the pool and the per-core cap slow down together: a slowed
    // cell's cores clock down, they do not disappear.
    const double fair = cfg_.capacity * scale_ / static_cast<double>(n);
    const double cap = cfg_.per_job_cap * scale_;
    return fair < cap ? fair : cap;
  }

  /// rate_per_job(n), remembered per live count at the current scale.
  /// A completion tick reads the rate at n and n - 1 live jobs, so one
  /// entry per parity keeps both.
  [[nodiscard]] double rate_at(std::size_t n) {
    RateMemo& memo = rate_memo_[n & 1];
    if (memo.n != n) memo = {n, rate_per_job(n)};
    return memo.rate;
  }

  [[nodiscard]] static JobId encode_id(std::uint32_t slot,
                                       std::uint32_t generation) {
    return (static_cast<JobId>(slot) << 32) | generation;
  }
  /// The slot a live id names, or kNoSlot if the id is stale/unknown.
  [[nodiscard]] std::uint32_t resolve(JobId id) const {
    const auto slot = static_cast<std::uint32_t>(id >> 32);
    const auto generation = static_cast<std::uint32_t>(id);
    return slots_.live_at(slot, generation) ? slot : kNoSlot;
  }
  [[nodiscard]] bool entry_live(const HeapEntry& e) const {
    return slots_.live_at(e.slot, e.generation);
  }

  void release_slot(std::uint32_t slot);

  /// Put the job in `slot` into service with `demand` from now on.
  JobId enter(std::uint32_t slot, double demand);

  /// Advance the virtual clock (and delivered-work accounting) to now.
  void advance();

  /// The instant the live job keyed `key` finishes at the current rate,
  /// given a clock advanced to now.
  [[nodiscard]] TimePoint finish_at(HeapKey key);

  /// Whether the live job keyed `key` completes in the running tick, at
  /// the rate of the current live count.
  [[nodiscard]] bool due(HeapKey key);

  /// With the root due and counted out of live_: true when no other job
  /// is due in this tick.  The next-smallest key is one of the root's
  /// children; false also when one of them is a husk, which could hide a
  /// smaller live key below it.
  [[nodiscard]] bool only_root_due();

  /// Reap husks, rebase an idle clock, reserve a sequence number for
  /// the next completion and cancel the armed one; outside a Batch, arm
  /// the new one at once.
  void reschedule();

  /// Arm the root job's completion under the number the last
  /// reschedule() reserved, if any.
  void arm();

  /// Event body: complete every job whose finish virtual time has been
  /// reached, inside one Batch.
  void on_tick();

  Simulation& sim_;
  Config cfg_;
  SlotPool<JobSlot> slots_;
  std::vector<HeapEntry> heap_;  ///< 4-ary min-heap on (finish_v, seq)
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  double scale_ = 1.0;           ///< capacity multiplier (gray faults)
  double vtime_ = 0.0;           ///< attained service per resident job
  TimePoint last_advance_ = TimePoint::origin();
  double delivered_ = 0.0;
  struct RateMemo {
    std::size_t n = 0;  ///< live count; rate 0.0 is right for n == 0
    double rate = 0.0;
  };
  RateMemo rate_memo_[2];  ///< by live-count parity; reset on rescale
  /// The armed completion event, or the default id once it is
  /// cancelled or running.  A raw id: this resource never outlives its
  /// Simulation.
  Simulation::EventId pending_;
  /// The next completion's reserved sequence number, from the last
  /// reschedule(); empty once armed, or when no job is live.
  Simulation::SeqTicket arm_seq_;
  int batch_depth_ = 0;  ///< open Batch scopes: defer arm() to the last
  /// The jobs completing in the current tick; reused across ticks.
  /// Keyed by submission seq so a batch containing near-ties (finish
  /// times equal up to rounding) can be put back into exact submission
  /// order before the completions run.
  std::vector<Served> done_scratch_;
};

}  // namespace xartrek::sim
