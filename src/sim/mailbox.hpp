// Fixed-capacity single-producer/single-consumer mailboxes.
//
// The sharded simulation core posts cross-shard events (inter-cell
// link deliveries and checkpoint-drain arrivals) through one mailbox
// per ordered shard pair.  Within an epoch only the source
// shard's thread pushes; at the boundary one thread flushes and drains
// every ring while the workers wait (the epoch barrier separates the
// two phases), so a wait-free SPSC ring with acquire/release indices is
// sufficient -- no locks, no allocation after construction.  Slots are
// raw storage, constructed on push and destroyed on pop, so a ring's
// pages are touched only as traffic reaches them: the rings of ordered
// pairs that never talk (most of them, in a ring of cells) cost neither
// resident memory nor set-up time.
//
// Capacity is fixed: `try_push` refuses when the ring is full and the
// caller (the shard) spills to an unbounded per-destination overflow
// vector that drains into the ring at epoch boundaries.  The spill
// keeps FIFO order, so backpressure delays delivery by whole epochs
// but never reorders it -- and because every shard executes the same
// event sequence regardless of thread interleaving, whether a given
// message spills is itself deterministic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/assert.hpp"

namespace xartrek::sim {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (min 2) so the index
  /// arithmetic is a mask instead of a modulo.
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    buf_ = std::allocator<T>().allocate(cap);
    mask_ = cap - 1;
  }
  /// Destroys the messages still queued.  Single-threaded: both sides
  /// are done with the ring.
  ~SpscRing() {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    for (std::uint64_t i = head_.load(std::memory_order_relaxed); i != tail;
         ++i) {
      std::destroy_at(&buf_[i & mask_]);
    }
    std::allocator<T>().deallocate(buf_, mask_ + 1);
  }
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side.  False when full (caller spills).
  [[nodiscard]] bool try_push(T&& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head > mask_) return false;
    std::construct_at(&buf_[tail & mask_], std::move(value));
    tail_.store(tail + 1, std::memory_order_release);
    // Producer-owned high-water mark (one compare on data already in
    // registers): how deep this pair's traffic has ever run, feeding
    // the mailbox_hwm gauges and capacity tuning.
    const auto depth = static_cast<std::size_t>(tail + 1 - head);
    if (depth > high_water_) high_water_ = depth;
    return true;
  }

  /// Consumer side.  False when empty.
  [[nodiscard]] bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    out = std::move(buf_[head & mask_]);
    std::destroy_at(&buf_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Approximate from either side; exact at epoch boundaries (when the
  /// other side is parked at the barrier).
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_acquire));
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Deepest the ring has ever been.  Written by the producer only;
  /// read it from the producer's thread, or from anywhere once the
  /// epoch barriers (or a join) have ordered the sides.  Exact for the
  /// ring itself (the consumer only pops at boundaries, so the
  /// producer-side depth never misses a peak); traffic that overflowed
  /// into the shard's spill FIFO is not visible here -- the sharded
  /// engine folds it in via ShardedSimulation::mailbox_pair_hwm().
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

 private:
  T* buf_ = nullptr;  ///< mask_ + 1 slots; live ones are [head_, tail_)
  std::size_t mask_ = 0;
  std::size_t high_water_ = 0;  ///< producer-owned, see high_water()
  /// Producer and consumer indices on separate cache lines so the two
  /// sides never false-share.
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer
};

}  // namespace xartrek::sim
