#include "hw/reliable_channel.hpp"

#include <utility>

#include "common/assert.hpp"
#include "obs/registry.hpp"

namespace xartrek::hw {

ReliableChannel::ReliableChannel(sim::Simulation& sim, Link& link,
                                 Options opts, Rng rng)
    : sim_(sim), link_(link), opts_(opts), rng_(rng) {
  XAR_EXPECTS(opts_.timeout > Duration::zero());
  XAR_EXPECTS(opts_.backoff.base > Duration::zero());
  XAR_EXPECTS(opts_.max_attempts >= 1);
  XAR_EXPECTS(opts_.jitter_fraction >= 0.0);
}

std::uint64_t ReliableChannel::send(std::uint64_t bytes,
                                    Callback on_delivered,
                                    Callback on_abandoned) {
  XAR_EXPECTS(on_delivered != nullptr);
  const std::uint32_t slot = messages_.acquire();
  Message& m = messages_[slot];
  m.seq = next_seq_++;
  m.bytes = bytes;
  m.attempts = 0;
  m.on_delivered = std::move(on_delivered);
  m.on_abandoned = std::move(on_abandoned);
  ++live_;
  ++stats_.sends;
  const std::uint64_t seq = m.seq;
  attempt(slot);
  return seq;
}

void ReliableChannel::attempt(std::uint32_t slot) {
  Message& m = messages_[slot];
  ++m.attempts;
  ++stats_.attempts;
  const std::uint32_t generation = messages_.generation_of(slot);
  const std::uint64_t seq = m.seq;
  // The wire copy, framed with an FNV checksum: a degraded link may
  // drop it (callback never fires), corrupt it (checksum mismatch), or
  // deliver it after this attempt's deadline (duplicate of a retry).
  const std::uint64_t checksum = fnv1a_frame(m.bytes, seq);
  link_.transfer_verified(m.bytes, checksum,
                          [this, slot, generation, seq](bool intact) {
                            copy_landed(slot, generation, seq, intact);
                          });
  m.timer = sim_.schedule_in(opts_.timeout, [this, slot, generation, seq] {
    attempt_timed_out(slot, generation, seq);
  });
}

void ReliableChannel::copy_landed(std::uint32_t slot,
                                  std::uint32_t generation,
                                  std::uint64_t seq, bool intact) {
  // Sequence-number dedup: the slot may have been released (message
  // already delivered by an earlier copy) and even recycled for a newer
  // message.  Either way the (generation, seq) pair no longer matches
  // and the late copy is swallowed.
  if (!messages_.live_at(slot, generation) || messages_[slot].seq != seq) {
    ++stats_.duplicates_suppressed;
    return;
  }
  if (!intact) {
    // A corrupted copy is a *detected* loss: discard it and let the
    // attempt's armed deadline drive the retry, exactly as if the
    // frame had been dropped on the wire.
    ++stats_.corrupt_detected;
    return;
  }
  Message& m = messages_[slot];
  m.timer.cancel();
  Callback done = std::move(m.on_delivered);
  m.on_delivered = nullptr;
  m.on_abandoned = nullptr;
  messages_.release(slot);
  --live_;
  ++stats_.delivered;
  done();
}

void ReliableChannel::attempt_timed_out(std::uint32_t slot,
                                        std::uint32_t generation,
                                        std::uint64_t seq) {
  if (!messages_.live_at(slot, generation) || messages_[slot].seq != seq) {
    return;  // delivered (and possibly recycled) before the deadline
  }
  ++stats_.timeouts;
  Message& m = messages_[slot];
  if (m.attempts >= opts_.max_attempts) {
    Callback gave_up = std::move(m.on_abandoned);
    m.on_delivered = nullptr;
    m.on_abandoned = nullptr;
    messages_.release(slot);
    --live_;
    ++stats_.abandoned;
    if (gave_up != nullptr) gave_up();
    return;
  }
  ++stats_.retries;
  const Duration delay = backoff_for(m.attempts);
  m.timer = sim_.schedule_in(delay, [this, slot, generation, seq] {
    if (!messages_.live_at(slot, generation) ||
        messages_[slot].seq != seq) {
      return;  // a straggler copy of an earlier attempt landed meanwhile
    }
    attempt(slot);
  });
}

Duration ReliableChannel::backoff_for(std::uint32_t retry_number) {
  const double jitter =
      opts_.jitter_fraction > 0.0
          ? rng_.uniform_real(0.0, opts_.jitter_fraction)
          : 0.0;
  return opts_.backoff.delay(retry_number) * (1.0 + jitter);
}

void ReliableChannel::register_metrics(obs::Registry& registry,
                                       const std::string& prefix) const {
  registry.link_counter(prefix + ".sends", &stats_.sends);
  registry.link_counter(prefix + ".retries", &stats_.retries);
  registry.link_counter(prefix + ".corrupt_detected",
                        &stats_.corrupt_detected);
  registry.link_counter(prefix + ".duplicates_suppressed",
                        &stats_.duplicates_suppressed);
  registry.link_counter(prefix + ".delivered", &stats_.delivered);
  registry.link_counter(prefix + ".abandoned", &stats_.abandoned);
}

}  // namespace xartrek::hw
