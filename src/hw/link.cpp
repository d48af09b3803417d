#include "hw/link.hpp"

#include <utility>

#include "obs/registry.hpp"

namespace xartrek::hw {

LinkSpec ethernet_1gbps() {
  // 1 Gbps = 125 MB/s = 0.125 MB/ms.  Latency covers NIC + kernel network
  // stack traversal on both ends (order of a hundred microseconds).
  return LinkSpec{"ethernet-1gbps", 0.125, Duration::micros(120)};
}

LinkSpec pcie_gen3() {
  // The paper quotes 32 GB/s for the FPGA attachment; DMA setup costs a
  // few microseconds per transfer.
  return LinkSpec{"pcie-32gbps", 32.0, Duration::micros(5)};
}

Link::Link(sim::Simulation& sim, LinkSpec spec)
    : sim_(sim),
      spec_(std::move(spec)),
      pool_(sim, sim::PsResource::Config{spec_.name,
                                         spec_.bandwidth_mb_per_ms,
                                         spec_.bandwidth_mb_per_ms}) {
  XAR_EXPECTS(spec_.bandwidth_mb_per_ms > 0.0);
}

void Link::transfer(std::uint64_t bytes, Callback on_complete) {
  XAR_EXPECTS(on_complete != nullptr);
  if (down_) {
    // Partitioned: the admission parks until the link is repaired.
    ++stats_.parked_transfers;
    parked_.push(ParkedTransfer{bytes, std::move(on_complete)});
    return;
  }
  if (degraded_ && degrade_rng_->bernoulli(drop_probability_)) {
    // Lossy wire: the frame vanishes and its callback never fires.
    // The draw happens on this link's own shard, in admission order,
    // so serial and parallel runs lose the identical frames.
    ++stats_.dropped_transfers;
    return;
  }
  const double mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  // Fixed latency first, then bandwidth-shared payload time.  The
  // latency is identical for every transfer (degradation inflates it
  // uniformly, and the clamp below keeps admissions FIFO across a
  // degradation edge), so the events fire in the order they were
  // scheduled and the front of `in_latency_` is always the transfer
  // whose latency just elapsed.
  in_latency_.push(std::move(on_complete));
  // Occupancy high-water: in-flight only grows at a transfer() call, so
  // sampling here (latency-phase entries plus bandwidth-phase jobs)
  // captures the true peak without wrapping every completion.
  ++stats_.transfers;
  const std::size_t in_flight_now = in_latency_.size() + pool_.active_jobs();
  if (in_flight_now > stats_.max_in_flight) {
    stats_.max_in_flight = in_flight_now;
  }
  const double factor = degraded_ ? latency_factor_ : 1.0;
  double exit_ms = sim_.now().to_ms() + spec_.latency.to_ms() * factor;
  // A link is a FIFO pipe: a frame admitted under inflated latency must
  // still exit before one admitted after the degradation lifts.
  if (exit_ms < last_entry_ms_) exit_ms = last_entry_ms_;
  last_entry_ms_ = exit_ms;
  sim_.schedule_in(Duration::ms(exit_ms - sim_.now().to_ms()),
                   [this, mb] { enter_pool(mb); });
}

/// The wire-side half of a verified frame: {link, slot, verdict}, small
/// enough for the engine's inline buffer, while the caller's callback
/// waits in the link's `verified_` slot.  It owns that slot: destroyed
/// unfired -- a frame the degraded wire dropped, or one still queued
/// when the link dies -- it frees the slot and the callback with it.
class Link::VerifiedCompletion {
 public:
  VerifiedCompletion(Link* link, std::uint32_t slot, bool verdict)
      : link_(link), slot_(slot), verdict_(verdict) {}
  VerifiedCompletion(VerifiedCompletion&& other) noexcept
      : link_(std::exchange(other.link_, nullptr)),
        slot_(other.slot_),
        verdict_(other.verdict_) {}
  VerifiedCompletion& operator=(VerifiedCompletion&&) = delete;
  ~VerifiedCompletion() {
    if (link_ != nullptr) take();
  }

  void operator()() {
    VerifiedCallback cb = take();
    cb(verdict_);
  }

 private:
  VerifiedCallback take() {
    Link* link = std::exchange(link_, nullptr);
    VerifiedCallback cb = std::move(link->verified_[slot_]);
    link->verified_.release(slot_);
    return cb;
  }

  Link* link_;
  std::uint32_t slot_;
  bool verdict_;
};

void Link::transfer_verified(std::uint64_t bytes, std::uint64_t checksum,
                             VerifiedCallback on_complete) {
  XAR_EXPECTS(on_complete != nullptr);
  XAR_EXPECTS(!delivery_.connected());
  // The corruption draw happens at admission (deterministic, in event
  // order on this shard); the receiver observes it as a checksum
  // mismatch when the frame lands.  A corrupted frame's carried
  // checksum is re-derived over the perturbed payload, so the compare
  // fails; an intact frame re-derives to the sender's value.
  bool intact = true;
  if (corrupt_next_ > 0) {
    --corrupt_next_;
    intact = false;
  } else if (corrupting_ && corrupt_rng_->bernoulli(corrupt_probability_)) {
    intact = false;
  }
  if (!intact) ++stats_.corrupted_transfers;
  const std::uint64_t delivered =
      intact ? checksum : fnv_mix(checksum, 0xC0FFEEull);
  const std::uint32_t slot = verified_.acquire();
  verified_[slot] = std::move(on_complete);
  transfer(bytes, VerifiedCompletion{this, slot, checksum == delivered});
}

void Link::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (down) {
    ++stats_.downs;
    return;
  }
  // Repaired: replay the parked admissions in arrival order.  Each
  // re-enters transfer() and pays full latency + bandwidth from now --
  // the queue drains through the same wire model as live traffic.
  while (!parked_.empty()) {
    ParkedTransfer p = parked_.pop();
    transfer(p.bytes, std::move(p.on_complete));
  }
}

void Link::set_degraded(double latency_factor, double drop_probability,
                        Rng rng) {
  XAR_EXPECTS(latency_factor >= 1.0);
  XAR_EXPECTS(drop_probability >= 0.0 && drop_probability <= 1.0);
  if (!degraded_) ++stats_.degrades;
  degraded_ = true;
  latency_factor_ = latency_factor;
  drop_probability_ = drop_probability;
  degrade_rng_.emplace(std::move(rng));
}

void Link::clear_degraded() {
  degraded_ = false;
  latency_factor_ = 1.0;
  drop_probability_ = 0.0;
}

void Link::set_corrupting(double corrupt_probability, Rng rng) {
  XAR_EXPECTS(corrupt_probability >= 0.0 && corrupt_probability <= 1.0);
  corrupting_ = true;
  corrupt_probability_ = corrupt_probability;
  corrupt_rng_.emplace(std::move(rng));
}

void Link::clear_corrupting() {
  corrupting_ = false;
  corrupt_probability_ = 0.0;
}

void Link::enter_pool(double mb) {
  XAR_ASSERT(!in_latency_.empty());
  Callback cb = in_latency_.pop();
  if (delivery_.connected()) {
    // The receiver lives on another shard: when the last byte lands,
    // hand the completion to the mailbox instead of running it here.
    const std::uint32_t slot = remote_.acquire();
    remote_[slot] = std::move(cb);
    pool_.submit(mb, [this, slot] {
      Callback done = std::move(remote_[slot]);
      remote_.release(slot);
      delivery_.deliver(std::move(done));
    });
    return;
  }
  pool_.submit(mb, std::move(cb));
}

void Link::register_metrics(obs::Registry& registry,
                            const std::string& prefix) const {
  registry.link_counter(prefix + ".transfers", &stats_.transfers);
  registry.link_counter(prefix + ".downs", &stats_.downs);
  registry.link_counter(prefix + ".parked_transfers",
                        &stats_.parked_transfers);
  registry.link_counter(prefix + ".degrades", &stats_.degrades);
  registry.link_counter(prefix + ".dropped_transfers",
                        &stats_.dropped_transfers);
  registry.link_counter(prefix + ".corrupted_transfers",
                        &stats_.corrupted_transfers);
  // size_t is not guaranteed to be uint64_t; snapshot through a probe.
  registry.probe(
      prefix + ".max_in_flight",
      [this] { return static_cast<double>(stats_.max_in_flight); },
      obs::Registry::Kind::kGauge);
}

}  // namespace xartrek::hw
