// Generation-counted slot pool.
//
// The allocation-free steady state of the event engine, the
// processor-sharing resource and the scheduler's in-flight request pool
// all rest on the same idiom: values live in a slab of recycled slots
// chained through a free list, and each slot carries a generation that
// bumps on release so any stale reference (an EventHandle, a PsResource
// JobId, a heap husk) to a recycled slot reads as inert instead of
// aliasing the new occupant.  This template is that idiom, once.
//
// The pool manages occupancy only.  Value cleanup stays with the
// caller -- deliberately: the engine drops a callback's captures at
// release time, while plain-data values (a scheduler batch, a tracer
// span) are simply overwritten by the slot's next occupant.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace xartrek::sim {

template <typename T>
class SlotPool {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFF'FFFFu;

  /// Take a free slot (recycled, or freshly grown).  The slot reads as
  /// live under its current generation until release().
  [[nodiscard]] std::uint32_t acquire() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      Entry& e = entries_[slot];
      free_head_ = e.next_free;
      e.next_free = kNoSlot;
      e.live = true;
      return slot;
    }
    XAR_ASSERT(entries_.size() < kNoSlot);
    entries_.emplace_back();
    entries_.back().live = true;
    return static_cast<std::uint32_t>(entries_.size() - 1);
  }

  /// Return a slot to the free list.  Bumps the generation, so every
  /// outstanding (slot, generation) reference becomes inert.  Does not
  /// touch the value: clear it first if its captures must die now.
  void release(std::uint32_t slot) {
    Entry& e = entries_[slot];
    XAR_ASSERT(e.live);
    e.live = false;
    ++e.generation;
    e.next_free = free_head_;
    free_head_ = slot;
  }

  /// True when `slot` is live *and* still the same incarnation the
  /// caller captured.  Bounds-checked: a forged/garbage slot index is
  /// simply not live.
  [[nodiscard]] bool live_at(std::uint32_t slot,
                             std::uint32_t generation) const {
    return slot < entries_.size() && entries_[slot].live &&
           entries_[slot].generation == generation;
  }

  [[nodiscard]] std::uint32_t generation_of(std::uint32_t slot) const {
    return entries_[slot].generation;
  }

  [[nodiscard]] T& operator[](std::uint32_t slot) {
    return entries_[slot].value;
  }
  [[nodiscard]] const T& operator[](std::uint32_t slot) const {
    return entries_[slot].value;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

 private:
  struct Entry {
    T value{};
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoSlot;
    bool live = false;
  };

  std::vector<Entry> entries_;  ///< slab; grows, never shrinks
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace xartrek::sim
