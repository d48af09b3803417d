#include "sim/simulation.hpp"

#include <limits>
#include <utility>

namespace xartrek::sim {

void Simulation::release_slot(std::uint32_t slot) {
  slots_[slot] = nullptr;  // drop captured state now, not at slot reuse
  slots_.release(slot);    // existing handles and heap husks become inert
}

void Simulation::cancel_slot(std::uint32_t slot, std::uint32_t generation) {
  // The heap entry stays behind as a husk; `step` reaps it when it
  // surfaces.  A generation mismatch means the event already fired (or
  // this very slot was recycled for a newer event): nothing to do.
  if (slot_pending(slot, generation)) release_slot(slot);
}

Simulation::EventId Simulation::arm(TimePoint t, std::uint64_t seq,
                                    Callback&& cb) {
  XAR_EXPECTS(t >= now_);
  XAR_EXPECTS(cb != nullptr);
  const std::uint32_t slot = slots_.acquire();
  slots_[slot] = std::move(cb);
  const std::uint32_t generation = slots_.generation_of(slot);
  const HeapEntry entry{heap_key(t.to_ms(), seq), slot, generation};
  if (root_stale_) {
    // The fired root is logically gone; the new entry takes its place
    // with one sift-down instead of a pop followed by a push.
    root_stale_ = false;
    sift_down_from_root(heap_, entry);
  } else {
    heap_push(heap_, entry);
  }
  ++scheduled_;
  return EventId{slot, generation};
}

void Simulation::prune() {
  if (root_stale_) {
    // The previous event's callback scheduled nothing; materialize
    // the deferred removal now.
    root_stale_ = false;
    heap_pop_root(heap_);
  }
  while (!heap_.empty() &&
         !slots_.live_at(heap_.front().slot, heap_.front().generation)) {
    heap_pop_root(heap_);  // cancelled husk
  }
}

TimePoint Simulation::next_event_time() {
  prune();
  if (heap_.empty()) {
    return TimePoint::at_ms(std::numeric_limits<double>::infinity());
  }
  return TimePoint::at_ms(key_time(heap_.front().key));
}

bool Simulation::step(TimePoint horizon) {
  prune();
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  const TimePoint at = TimePoint::at_ms(key_time(top.key));
  if (at > horizon) return false;
  XAR_ASSERT(at >= now_);
  now_ = at;
  // Move the callback out and retire the slot before executing: the
  // callback may schedule further events (growing the slab) and its
  // own handle must already read as fired.  The root entry's removal
  // is deferred so a successor scheduled by the callback can replace
  // it in one sift.
  root_stale_ = true;
  Callback cb = std::move(slots_[top.slot]);
  release_slot(top.slot);
  ++executed_;
  cb();
  return true;
}

std::size_t Simulation::run() {
  std::size_t n = 0;
  while (step(TimePoint::at_ms(std::numeric_limits<double>::infinity()))) ++n;
  return n;
}

std::size_t Simulation::run_until(TimePoint horizon) {
  XAR_EXPECTS(horizon >= now_);
  std::size_t n = 0;
  while (step(horizon)) ++n;
  if (horizon > now_) now_ = horizon;
  return n;
}

}  // namespace xartrek::sim
