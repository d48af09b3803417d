// 4-ary min-heap on a 128-bit (time, seq) key.
//
// The event engine orders events by timestamp and the processor-sharing
// resource orders jobs by finish virtual time; both break ties on an
// insertion sequence number.  Both pack that pair into one integer key:
// the raw IEEE-754 bits of the time in the high word and the sequence
// number in the low word.  Times are never negative (the clock starts at
// the origin, virtual time is attained service), so the bit pattern
// orders exactly like the double -- and a one-word-pair integer compare
// yields a flag that sift-down turns into the minimum child's index by
// arithmetic instead of an unpredictable branch.  Sequence numbers make
// keys unique, which is what preserves FIFO order among equal times.
//
// Entries carry a pool (slot, generation) pair next to the key, so the
// owner keeps payloads in a slab and reaps cancelled entries lazily by
// generation check.  Both sift directions move a hole instead of
// swapping: one entry copy per level rather than three.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/assert.hpp"

namespace xartrek::sim {

using HeapKey = unsigned __int128;

struct HeapEntry {
  HeapKey key;
  std::uint32_t slot;
  std::uint32_t generation;
};

inline constexpr std::size_t kHeapArity = 4;

/// Key for time `t` (>= 0) and sequence number `seq`.
[[nodiscard]] inline HeapKey heap_key(double t, std::uint64_t seq) {
  if (t == 0.0) t = 0.0;  // canonicalize -0.0: its sign bit would order
                          // after every positive time
  std::uint64_t bits = 0;
  std::memcpy(&bits, &t, sizeof(bits));
  return (static_cast<HeapKey>(bits) << 64) | seq;
}

/// The time word of a key.
[[nodiscard]] inline double key_time(HeapKey key) {
  const auto bits = static_cast<std::uint64_t>(key >> 64);
  double t = 0.0;
  std::memcpy(&t, &bits, sizeof(t));
  return t;
}

/// The sequence word of a key.
[[nodiscard]] inline std::uint64_t key_seq(HeapKey key) {
  return static_cast<std::uint64_t>(key);
}

/// Replace the root of a non-empty heap with `entry` and restore order.
inline void sift_down_from_root(std::vector<HeapEntry>& heap,
                                HeapEntry entry) {
  const std::size_t n = heap.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = i * kHeapArity + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    if (first_child + kHeapArity <= n) {
      // Full block of four children: keys are unique, so a pairwise
      // min tree is exact.  Each pair's winner is its first index plus
      // the compare result, and the final pick is a mask select, so the
      // three comparisons feed arithmetic, not control flow.  Written
      // as ternaries, the picks are the compiler's to lower, and gcc 12
      // -O3 makes one of them a conditional jump; that jump mispredicts
      // whenever sibling order is random, as it is for lap-shaped keys.
      // Where sibling order is predictable (equal times ordered by
      // seq), a predicted jump is a little faster than the reloads
      // through computed indices here (docs/perf.md).
      const std::size_t c = first_child;
      const std::size_t a =
          c + static_cast<std::size_t>(heap[c + 1].key < heap[c].key);
      const std::size_t b =
          c + 2 + static_cast<std::size_t>(heap[c + 3].key < heap[c + 2].key);
      const std::size_t take_b =
          std::size_t{0} - static_cast<std::size_t>(heap[b].key < heap[a].key);
      best = a ^ ((a ^ b) & take_b);
    } else {
      for (std::size_t c = first_child + 1; c < n; ++c) {
        if (heap[c].key < heap[best].key) best = c;
      }
    }
    if (heap[best].key >= entry.key) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = entry;
}

inline void heap_push(std::vector<HeapEntry>& heap, HeapEntry entry) {
  std::size_t i = heap.size();
  heap.push_back(entry);  // reserves the hole; overwritten on placement
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (entry.key >= heap[parent].key) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = entry;
}

inline void heap_pop_root(std::vector<HeapEntry>& heap) {
  XAR_ASSERT(!heap.empty());
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (heap.empty()) return;
  sift_down_from_root(heap, last);
}

}  // namespace xartrek::sim
