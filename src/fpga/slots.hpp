// Slot scheduler: the capacity-market policy above the virtualized
// device.
//
// The device (fpga::FpgaDevice in slot mode) exposes mechanism -- N
// partial-reconfiguration slots, each programmable with one kernel at a
// replication count.  This class is the policy: it tracks per-kernel
// demand with deterministic windowed EWMAs and decides which kernel
// deserves fabric (evict-coldest) and which resident kernel deserves
// more of it (replicate-hottest).  runtime::SchedulerServer consults it
// instead of doing binary whole-image swaps.
//
// Determinism: every piece of state is updated from simulation events
// on the device's shard, and decisions are pure functions of that state
// (no wall clock, no randomness, ties broken by registration order), so
// serial and parallel runs make identical choices.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fpga/device.hpp"
#include "obs/trace.hpp"

namespace xartrek::fpga {

/// Demand-driven eviction/replication policy over a slot-mode device.
class SlotScheduler {
 public:
  struct Options {
    /// Windowed EWMA: every `fold_window` demand notes, per-kernel hit
    /// counts fold into `ewma = (1-alpha)*ewma + alpha*hits`.  Folding
    /// on request count (not wall time) keeps the policy deterministic
    /// across serial/parallel runs.
    double ewma_alpha = 0.25;
    std::uint32_t fold_window = 32;
    /// Evict-coldest: a claimant takes a loaded slot only when its
    /// demand exceeds `evict_margin` x the coldest resident's demand
    /// (hysteresis against thrash) and at least `min_evict_demand`.
    double evict_margin = 2.0;
    double min_evict_demand = 1.0;
    /// Replicate-hottest: a resident kernel grows one CU when its
    /// demand exceeds `replicate_margin` x every other tenant's, up to
    /// `max_replicas` or the slot's area budget.
    double replicate_margin = 1.5;
    std::uint32_t max_replicas = 8;
    /// Gray-failure degradation: after this many *consecutive*
    /// kInjectedFailure/kTornWrite completions on one slot, the slot is
    /// quarantined -- the policy stops offering it and places on the
    /// remaining slots (or nowhere, leaving jobs on the CPU) instead of
    /// wedging the one-decision-in-flight loop on a bad region.
    std::uint32_t quarantine_limit = 3;
  };

  struct Stats {
    std::uint64_t programs = 0;      ///< slot programmings started
    std::uint64_t evictions = 0;     ///< ...that displaced a colder tenant
    std::uint64_t replications = 0;  ///< ...that grew a replica count
    std::uint64_t denied_no_fit = 0;
    std::uint64_t denied_cold = 0;   ///< claimant not hot enough to evict
    std::uint64_t failed = 0;        ///< programmings completing non-kOk
    std::uint64_t quarantined = 0;   ///< slots taken out of rotation
  };

  explicit SlotScheduler(FpgaDevice& device)
      : SlotScheduler(device, Options()) {}
  SlotScheduler(FpgaDevice& device, Options opts);

  /// Add `kernel` to the catalog (idempotent by name).  Only catalogued
  /// kernels participate in demand tracking and placement.
  void register_kernel(const HwKernelConfig& kernel);
  [[nodiscard]] bool knows(std::string_view kernel) const;

  /// Record one unit of demand (a placement request naming `kernel`).
  void note_demand(std::string_view kernel);

  /// Decision pass for `kernel`: start at most one slot programming --
  /// replicate it if resident and hottest, place it in an empty slot,
  /// or evict the coldest tenant if the demand margin justifies it.
  /// Returns true when a programming was started.  No-op while the
  /// reconfiguration port is busy (one in-flight decision at a time).
  bool provision(std::string_view kernel);

  /// Current demand score (EWMA + in-window hits); tests/diagnostics.
  [[nodiscard]] double demand(std::string_view kernel) const;

  /// Whether `slot` has been quarantined (permanent within a run).
  [[nodiscard]] bool quarantined(std::uint32_t slot) const {
    return slot < slot_health_.size() &&
           slot_health_[slot].quarantined;
  }
  [[nodiscard]] std::uint32_t quarantined_slots() const;

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Link the stats counters into a metrics registry under `prefix`.
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

  /// Emit "fpga.slot_program" spans (begin at reconfigure_slot, end at
  /// its typed completion) on `lane`.  The scheduler has no Simulation
  /// reference of its own, so the caller supplies the clock.  Null
  /// detaches.
  void set_tracer(obs::Tracer* tracer, std::uint32_t lane,
                  sim::Simulation* clock) {
    tracer_ = tracer;
    trace_lane_ = lane;
    trace_clock_ = clock;
  }

 private:
  struct Tenant {
    HwKernelConfig config;
    double ewma = 0.0;
    std::uint64_t hits = 0;  ///< demand notes in the current window
  };

  [[nodiscard]] std::size_t find(std::string_view kernel) const;
  [[nodiscard]] double score(const Tenant& t) const {
    return t.ewma + static_cast<double>(t.hits);
  }
  /// CUs of `kernel` that fit one slot, capped at max_replicas.
  [[nodiscard]] std::uint32_t fit_cap(const HwKernelConfig& k) const;
  void program(std::uint32_t slot, const Tenant& tenant,
               std::uint32_t replicas);
  /// Size the per-slot health table to the device's slot count.
  void ensure_slot_health();
  void record_result(std::uint32_t slot, ReconfigureResult r);

  /// Per-slot gray-failure bookkeeping.
  struct SlotHealth {
    std::uint32_t consecutive_failures = 0;
    bool quarantined = false;
  };

  FpgaDevice& device_;
  Options opts_;
  std::vector<Tenant> tenants_;  ///< registration order == tie-break order
  std::uint32_t since_fold_ = 0;
  Stats stats_;
  std::vector<SlotHealth> slot_health_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_lane_ = 0;
  sim::Simulation* trace_clock_ = nullptr;
};

}  // namespace xartrek::fpga
