// Reliable delivery over an unreliable (gray-degraded) link.
//
// A degraded hw::Link silently drops frames and inflates latency; a
// ReliableChannel restores at-least-once transmission with exactly-once
// *delivery*: every message gets a monotone sequence number, each
// attempt arms a per-message timeout, a lost or late attempt is re-sent
// under capped exponential backoff with deterministic seed-split
// jitter, and copies of an already-delivered message (a slow first
// attempt racing its own retry) are suppressed by the sequence number
// so the completion callback fires exactly once.  A message whose every
// attempt is lost is abandoned, and the sender hears of it.
//
// Shard discipline: the channel's state lives on the sending side, so
// it requires a route-less link -- one whose completions fire on the
// sender's own shard (the drain/control-plane shape; see Link::route).
// All timers and retries then run on one shard and the retry trace is
// deterministic.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "hw/link.hpp"
#include "sim/callback.hpp"
#include "sim/simulation.hpp"
#include "sim/slot_pool.hpp"

namespace xartrek::hw {

/// Capped exponential backoff, the one retry-delay policy: the reliable
/// channel's re-sends and the cluster's dead-cell re-placements both
/// wait delay(retry) = base * 2^min(retry-1, cap_exponent).
struct Backoff {
  Duration base;
  std::uint32_t cap_exponent = 6;

  [[nodiscard]] Duration delay(std::uint32_t retry) const {
    XAR_ASSERT(retry >= 1);
    const std::uint32_t exponent = std::min(retry - 1, cap_exponent);
    return base * static_cast<double>(std::uint64_t{1} << exponent);
  }
};

class ReliableChannel {
 public:
  using Callback = sim::UniqueCallback;

  struct Options {
    /// Per-attempt delivery deadline.  Must exceed the link's worst
    /// undegraded round-trip or healthy traffic re-sends spuriously.
    Duration timeout = Duration::ms(2.0);
    /// Wait before retry k: backoff.delay(k), stretched by jitter.
    Backoff backoff = {Duration::ms(0.5), 6};
    /// Uniform jitter in [0, fraction) of the backoff, drawn from the
    /// channel's split Rng -- deterministic, but de-synchronized across
    /// channels seeded from different streams.
    double jitter_fraction = 0.25;
    /// Attempts before the message is abandoned (with drop probability
    /// p, the chance of that is p^max_attempts).
    std::uint32_t max_attempts = 12;
  };

  struct Stats {
    std::uint64_t sends = 0;      ///< messages accepted
    std::uint64_t attempts = 0;   ///< wire transmissions (incl. retries)
    std::uint64_t retries = 0;    ///< re-transmissions after timeout
    std::uint64_t timeouts = 0;   ///< per-attempt deadlines that expired
    std::uint64_t duplicates_suppressed = 0;  ///< late copies swallowed
    std::uint64_t corrupt_detected = 0;  ///< checksum-failed copies dropped
    std::uint64_t delivered = 0;  ///< callbacks fired (exactly once each)
    std::uint64_t abandoned = 0;  ///< messages given up after max_attempts
  };

  /// `rng` should be a split stream of the experiment seed; it feeds
  /// only the backoff jitter.
  ReliableChannel(sim::Simulation& sim, Link& link, Options opts, Rng rng);
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Send `bytes`.  Exactly one of the two callbacks fires, on this
  /// channel's shard: `on_delivered` when the first copy of the message
  /// lands, or `on_abandoned` (when given) once max_attempts attempts
  /// have all been lost.  Returns the message's sequence number.
  std::uint64_t send(std::uint64_t bytes, Callback on_delivered,
                     Callback on_abandoned = nullptr);

  /// Messages accepted but not yet delivered or abandoned.
  [[nodiscard]] std::size_t in_flight() const { return live_; }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Link six stats counters into a metrics registry under `prefix`,
  /// in this order: sends, retries, corrupt_detected,
  /// duplicates_suppressed, delivered, abandoned.  The channel must
  /// outlive the registry.  Snapshot digests fold values in
  /// registration order, so keep the order.
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

 private:
  struct Message {
    std::uint64_t seq = 0;
    std::uint64_t bytes = 0;
    std::uint32_t attempts = 0;
    Callback on_delivered;
    Callback on_abandoned;
    sim::Simulation::EventHandle timer;
  };

  void attempt(std::uint32_t slot);
  void copy_landed(std::uint32_t slot, std::uint32_t generation,
                   std::uint64_t seq, bool intact);
  void attempt_timed_out(std::uint32_t slot, std::uint32_t generation,
                         std::uint64_t seq);
  [[nodiscard]] Duration backoff_for(std::uint32_t retry_number);

  sim::Simulation& sim_;
  Link& link_;
  Options opts_;
  Rng rng_;
  Stats stats_;
  sim::SlotPool<Message> messages_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;  ///< 0 is "no message"
};

}  // namespace xartrek::hw
