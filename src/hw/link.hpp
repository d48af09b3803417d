// Interconnect link model.
//
// A Link is a bandwidth-shared channel with a fixed per-message latency.
// The testbed has two: 1 Gbps Ethernet between the x86 and ARM servers
// (carries Popcorn migration state and working sets) and a PCIe
// attachment to the Alveo card (carries XCLBIN downloads and kernel
// buffers).  Both are shared among all concurrent users, which is why
// the paper measures migration cost "in locus" rather than predicting it.
#pragma once

#include <string>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/callback.hpp"
#include "sim/ps_resource.hpp"
#include "sim/ring.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"
#include "sim/slot_pool.hpp"
#include "sim/topology.hpp"

namespace xartrek::hw {

/// Static description of a link.
struct LinkSpec {
  std::string name;
  double bandwidth_mb_per_ms;  ///< MB per millisecond (1 GB/s = 1.0)
  Duration latency;            ///< per-transfer fixed cost (propagation +
                               ///< stack traversal)
};

/// The paper's 1 Gbps server-to-server Ethernet.
[[nodiscard]] LinkSpec ethernet_1gbps();

/// The paper's PCIe attachment (32 GB/s nominal).
[[nodiscard]] LinkSpec pcie_gen3();

/// A shared channel inside a Simulation.
class Link {
 public:
  using Callback = sim::UniqueCallback;

  /// Transfer, occupancy and fault counters (register_metrics exports
  /// them; occupancy counts latency-phase and bandwidth-phase
  /// transfers alike).
  struct Stats {
    std::uint64_t transfers = 0;
    std::size_t max_in_flight = 0;
    /// set_down(true) transitions (each partition counted once).
    std::uint64_t downs = 0;
    /// Admissions that arrived while the link was partitioned and were
    /// parked for replay.
    std::uint64_t parked_transfers = 0;
    /// set_degraded transitions into the degraded state.
    std::uint64_t degrades = 0;
    /// Transfers silently lost while degraded (callback never fires;
    /// an upper retry layer recovers).
    std::uint64_t dropped_transfers = 0;
    /// Verified frames whose payload the wire corrupted in flight
    /// (receiver-side checksum verify reports them as bad).
    std::uint64_t corrupted_transfers = 0;
  };

  Link(sim::Simulation& sim, LinkSpec spec);

  /// Transfer `bytes` across the link; `on_complete` fires when the last
  /// byte lands.  Zero-byte transfers still pay the latency.
  /// While the link is degraded the transfer may be silently dropped
  /// (the callback never fires) -- callers needing delivery guarantees
  /// wrap the link in a ReliableChannel or verify via
  /// transfer_verified.
  void transfer(std::uint64_t bytes, Callback on_complete);

  /// Checksummed frame: the sender computes `checksum` over the frame
  /// (fnv1a / fnv1a_frame) and the receiver re-derives it when the last
  /// byte lands.  `on_complete(ok)` reports whether the delivered frame
  /// still matches -- false when the wire corrupted the payload in
  /// flight (see set_corrupting).  Degraded-mode drops still apply: a
  /// dropped frame's callback never fires at all.  Allocation-free:
  /// `on_complete` waits in a link-owned slot until the frame lands,
  /// so the link must be route-less (its completions fire on this
  /// shard; see register_route).
  using VerifiedCallback = sim::UniqueFunction<void(bool)>;
  void transfer_verified(std::uint64_t bytes, std::uint64_t checksum,
                         VerifiedCallback on_complete);

  /// Topology registration: this link's sending end is node `self`,
  /// its receiving end node `receiver`, and the partitioner already
  /// derived where both live.  Completions are routed to the far end's
  /// shard through the registered `self -> receiver` edge's channel --
  /// or stay local when the partitioner put both on one shard.  This
  /// replaces hand-assembled CrossShardChannel wiring at call sites.
  /// Completions stay pooled: the in-pool event captures only
  /// {this, slot}, so the steady state remains allocation-free.
  void register_route(sim::PartitionedEngine& eng, sim::NodeId self,
                      sim::NodeId receiver) {
    delivery_ = eng.channel_between(self, receiver);
  }

  /// Fault injection: partition the link.  While down, new admissions
  /// park FIFO instead of entering the wire; transfers already in their
  /// latency or bandwidth phase complete normally (store-and-forward:
  /// the bytes already left the sender).  Repairing the link replays
  /// every parked admission in arrival order, each paying the full
  /// latency + bandwidth cost from the repair instant.
  void set_down(bool down);
  [[nodiscard]] bool down() const { return down_; }

  /// Gray-failure injection (kLinkDegraded): inflate the fixed latency
  /// by `latency_factor` (>= 1) and silently drop each admission with
  /// probability `drop_probability`.  `rng` should be a split stream of
  /// the chaos seed; draws happen only while degraded and only on this
  /// link's own shard, in admission order, so serial and parallel runs
  /// see the identical loss pattern and non-degraded runs draw nothing.
  void set_degraded(double latency_factor, double drop_probability, Rng rng);
  void clear_degraded();
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Gray-failure injection (kDsmCorrupt): corrupt each verified
  /// frame's payload in flight with probability `corrupt_probability`.
  /// Plain transfers are unaffected (nothing verifies them).  Same
  /// determinism contract as set_degraded.
  void set_corrupting(double corrupt_probability, Rng rng);
  void clear_corrupting();
  [[nodiscard]] bool corrupting() const { return corrupting_; }

  /// Deterministic one-shot arm: corrupt exactly the next `count`
  /// verified frames (tests pin "detected and retried exactly once"
  /// with this; it needs no Rng).
  void corrupt_next(std::uint64_t count) { corrupt_next_ += count; }

  /// Admissions currently parked behind a partition.
  [[nodiscard]] std::size_t parked() const { return parked_.size(); }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Link the stats counters into a metrics registry under `prefix`
  /// (e.g. "cell0.link").  The Stats struct stays the storage -- the
  /// registry reads it only at snapshot time, so this Link must
  /// outlive the registry's snapshots.
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

  [[nodiscard]] const LinkSpec& spec() const { return spec_; }

 private:
  class VerifiedCompletion;

  void enter_pool(double mb);

  sim::Simulation& sim_;
  LinkSpec spec_;
  Stats stats_;
  /// Callbacks of verified frames still on the wire.  Declared before
  /// every container that holds a VerifiedCompletion, so it outlives
  /// them when the link dies.
  sim::SlotPool<VerifiedCallback> verified_;
  sim::PsResource pool_;  // demand unit: megabytes
  /// Completions of transfers still in their fixed-latency phase.  The
  /// latency is constant, so these events fire strictly FIFO; parking
  /// the callbacks here lets the scheduled event capture only
  /// {this, size} -- trivially copyable, no per-transfer allocation.
  /// A ring, not a deque: a burst of transfers makes this queue
  /// breathe every wave, and deque chunk churn would allocate each time.
  sim::RingQueue<Callback> in_latency_;
  /// Cross-shard delivery (inert by default: completions fire locally).
  sim::CrossShardChannel delivery_;
  /// Completions awaiting bandwidth when deliveries are remote; the
  /// PS pool finishes transfers out of order, so FIFO parking does not
  /// work here -- slots do.
  sim::SlotPool<Callback> remote_;
  /// Partition state: admissions refused while down wait here, FIFO.
  struct ParkedTransfer {
    std::uint64_t bytes = 0;
    Callback on_complete;
  };
  bool down_ = false;
  sim::RingQueue<ParkedTransfer> parked_;
  // Gray-failure state.  The latency clamp keeps the in_latency_ FIFO
  // honest across degradation edges: latency-phase events must fire in
  // admission order, so an admission never schedules its entry earlier
  // than the previous one's.
  bool degraded_ = false;
  double latency_factor_ = 1.0;
  double drop_probability_ = 0.0;
  Rng degrade_rng_{0};
  bool corrupting_ = false;
  double corrupt_probability_ = 0.0;
  Rng corrupt_rng_{0};
  std::uint64_t corrupt_next_ = 0;  ///< one-shot corruption arm
  double last_entry_ms_ = 0.0;  ///< latest scheduled latency-phase exit
};

}  // namespace xartrek::hw
