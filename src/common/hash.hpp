// FNV-1a: the one hash used across the codebase for frame checksums
// and workload fingerprints.  Small, allocation-free, and exactly
// reproducible on every host -- which is what the deterministic
// simulator needs from a checksum (we model *detection*, not
// cryptographic strength).
#pragma once

#include <cstdint>

namespace xartrek {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Fold one 64-bit word into an FNV-1a state.
[[nodiscard]] constexpr std::uint64_t fnv_mix(std::uint64_t h,
                                              std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// Checksum a logical frame described only by metadata (the simulator
/// often models payloads as byte *counts*, not byte *contents*): mix
/// the size and a caller-chosen tag (sequence number, page id).  Two
/// frames agree iff their descriptions agree.
[[nodiscard]] constexpr std::uint64_t fnv1a_frame(std::uint64_t bytes,
                                                  std::uint64_t tag) {
  return fnv_mix(fnv_mix(kFnvOffset, bytes), tag);
}

}  // namespace xartrek
