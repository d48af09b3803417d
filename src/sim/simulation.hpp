// Discrete-event simulation core.
//
// A Simulation owns a virtual clock and an event queue.  Components
// (CPU clusters, links, the FPGA, the scheduler) register callbacks at
// future time points; `run`/`run_until` drains the queue in timestamp
// order, breaking ties by insertion order so executions are fully
// deterministic.
//
// The engine is allocation-free in steady state: events live in a
// slab-allocated pool recycled through a free list, the ready queue is
// the 4-ary (time, seq) heap of `sim/keyed_heap.hpp`, and cancellation
// is generation-counted (an EventHandle is an index plus a generation,
// no per-event reference counting).  Cancelled events leave a husk in
// the heap that is reaped lazily when it reaches the top.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "sim/callback.hpp"
#include "sim/keyed_heap.hpp"
#include "sim/slot_pool.hpp"

namespace xartrek::sim {

/// The event-driven simulator.  Not copyable: components hold references
/// to it for the lifetime of an experiment.
class Simulation {
 public:
  /// Accepts any callable, including a moved-in std::function; small
  /// trivially-copyable captures (the common case) schedule and fire
  /// without a single indirect manager call or heap allocation.
  using Callback = UniqueCallback;

  /// A cancellation handle for a scheduled event.  Default-constructed
  /// handles are inert.  Handles are cheap to copy; cancelling any copy
  /// cancels the event.  A handle never refcounts its event: it names a
  /// pool slot plus the generation the slot had when the event was
  /// scheduled, so a handle to a fired or cancelled event can never
  /// touch a recycled slot.
  class EventHandle {
   public:
    EventHandle() = default;

    /// Prevent the event from firing.  Idempotent; safe after the event
    /// has already run (then a no-op), and safe after the Simulation
    /// itself has been destroyed.
    void cancel() {
      if (anchor_) {
        if (Simulation* sim = *anchor_) sim->cancel_slot(slot_, generation_);
      }
    }

    /// True if the event is still scheduled to fire.
    [[nodiscard]] bool pending() const {
      if (!anchor_) return false;
      const Simulation* sim = *anchor_;
      return sim != nullptr && sim->slot_pending(slot_, generation_);
    }

   private:
    friend class Simulation;
    EventHandle(std::shared_ptr<Simulation*> anchor, std::uint32_t slot,
                std::uint32_t generation)
        : anchor_(std::move(anchor)), slot_(slot), generation_(generation) {}
    /// Shared back-pointer to the owning simulation; nulled out when the
    /// simulation dies so stale handles degrade to no-ops (one heap
    /// allocation per Simulation, none per event).
    std::shared_ptr<Simulation*> anchor_;
    std::uint32_t slot_ = 0;
    std::uint32_t generation_ = 0;
  };

  /// The raw name of a scheduled event: its pool slot and the
  /// generation the slot had when the event was armed.  Unlike an
  /// EventHandle it holds no anchor, so making one costs nothing; only
  /// an owner that cannot outlive this Simulation may keep one.  The
  /// default names no event (slot generations start at 1).
  struct EventId {
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  /// An insertion sequence number drawn ahead of its event.  Arming it
  /// with `schedule_at(t, ticket, cb)` gives the event the same-time
  /// FIFO position it would have had if it had been scheduled when the
  /// ticket was drawn.  Move-only, so each number is armed at most once;
  /// dropping an unarmed ticket just skips its number, exactly as
  /// scheduling and then cancelling an event would.
  class SeqTicket {
   public:
    SeqTicket() = default;
    SeqTicket(SeqTicket&& other) noexcept
        : seq_(std::exchange(other.seq_, kSpent)) {}
    SeqTicket& operator=(SeqTicket&& other) noexcept {
      seq_ = std::exchange(other.seq_, kSpent);
      return *this;
    }

    /// True while the ticket holds a number not yet armed.
    explicit operator bool() const { return seq_ != kSpent; }

   private:
    friend class Simulation;
    static constexpr std::uint64_t kSpent = ~std::uint64_t{0};
    explicit SeqTicket(std::uint64_t seq) : seq_(seq) {}
    std::uint64_t seq_ = kSpent;
  };

  Simulation() : anchor_(std::make_shared<Simulation*>(this)) {}
  ~Simulation() { *anchor_ = nullptr; }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `cb` at absolute time `t`.  Requires t >= now().
  EventHandle schedule_at(TimePoint t, Callback cb) {
    return handle(arm(t, next_seq_++, std::move(cb)));
  }

  /// Draw the sequence number a `schedule_at` made now would use.
  [[nodiscard]] SeqTicket reserve_seq() { return SeqTicket{next_seq_++}; }

  /// Schedule `cb` at `t` under a reserved sequence number, consuming
  /// the ticket.  Requires t >= now() and an unspent ticket drawn from
  /// this Simulation.  Returns the event's raw id (see EventId).
  EventId schedule_at(TimePoint t, SeqTicket ticket, Callback cb) {
    XAR_EXPECTS(ticket);
    return arm(t, ticket.seq_, std::move(cb));
  }

  /// Schedule `cb` after delay `d`.  Requires d >= 0.
  EventHandle schedule_in(Duration d, Callback cb) {
    XAR_EXPECTS(d >= Duration::zero());
    return handle(arm(now_ + d, next_seq_++, std::move(cb)));
  }

  /// Prevent the event `id` names from firing.  A no-op once it has
  /// fired or been cancelled.
  void cancel(EventId id) { cancel_slot(id.slot, id.generation); }

  /// Run until the queue is empty.  Returns the number of events executed.
  std::size_t run();

  /// Run events with timestamp <= horizon; afterwards the clock reads
  /// exactly `horizon` (even if the queue drained earlier).  Returns the
  /// number of events executed.
  std::size_t run_until(TimePoint horizon);

  /// Execute at most one event with timestamp <= horizon.  Returns false
  /// (and leaves the clock untouched) when none remains.  Lets callers
  /// run until an external condition holds even while a periodic
  /// component (a background load generator) keeps the queue populated
  /// forever.
  bool step_one(TimePoint horizon) { return step(horizon); }

  /// Number of events currently scheduled (including cancelled husks not
  /// yet reaped); intended for tests and diagnostics.
  [[nodiscard]] std::size_t queued_events() const {
    return heap_.size() - (root_stale_ ? 1 : 0);
  }

  /// Timestamp of the next runnable event, or +infinity when the queue
  /// is empty.  Reaps cancelled husks and the deferred fired root on the
  /// way, which is why it is non-const.  The sharded engine's epoch
  /// scheduler uses this to size synchronization windows and to
  /// fast-forward over globally idle stretches.
  [[nodiscard]] TimePoint next_event_time();

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Total events ever queued: one per `schedule_at`/`schedule_in`,
  /// cancelled ones included; a reserved number counts once armed.
  [[nodiscard]] std::uint64_t scheduled_events() const { return scheduled_; }

  /// Grow the event pool and heap up front so a known load level runs
  /// without a single reallocation (diagnostics/benchmarks; optional).
  void reserve_events(std::size_t n) {
    slots_.reserve(n);
    heap_.reserve(n);
  }

 private:
  /// Queue `cb` at `t` under sequence number `seq`.  Takes the
  /// callback by reference so the public overloads' by-value parameter
  /// moves once, straight into its slot.
  EventId arm(TimePoint t, std::uint64_t seq, Callback&& cb);
  [[nodiscard]] EventHandle handle(EventId id) const {
    return EventHandle{anchor_, id.slot, id.generation};
  }

  /// Pop and execute one runnable event with timestamp <= horizon.
  /// Returns false if none remains.
  bool step(TimePoint horizon);

  /// Materialize the deferred root removal and reap cancelled husks
  /// until the root is a live event (or the heap is empty).
  void prune();

  void release_slot(std::uint32_t slot);
  void cancel_slot(std::uint32_t slot, std::uint32_t generation);
  [[nodiscard]] bool slot_pending(std::uint32_t slot,
                                  std::uint32_t generation) const {
    return slots_.live_at(slot, generation);
  }

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  /// Only the callback lives in the slab; the ordering key is kept in
  /// the heap entry so sift operations never touch it.
  SlotPool<Callback> slots_;
  std::vector<HeapEntry> heap_;  ///< 4-ary min-heap on (time, seq)
  /// True while heap_[0] is a fired event whose removal is deferred: if
  /// the callback schedules a successor (the dominant pattern), the new
  /// entry replaces the root with a single sift-down instead of a pop
  /// followed by a push.
  bool root_stale_ = false;
  std::shared_ptr<Simulation*> anchor_;
};

}  // namespace xartrek::sim
