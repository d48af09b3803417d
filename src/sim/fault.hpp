// Deterministic, seed-driven fault schedules for cluster experiments.
//
// The paper's multi-tenant premise (§1) is that the accelerator -- and,
// at cluster scale, whole cells -- can disappear while jobs keep
// running.  A FaultPlan is the schedule of such disappearances: cell
// kills, ring-link partitions and flaps, and FPGA reconfiguration
// failures, each stamped with the simulated instant it strikes and the
// index of its victim.  The plan is plain data: it owns no simulation
// state, so the same plan can be applied to a serial and a parallel
// cluster run and -- because every event is injected on its victim's
// own shard -- the two runs stay trace-identical.
//
// Plans come from two places: tests hand-build them event by event, and
// chaos runs generate them from a ChaosProfile through Rng::split, so
// the fault stream is reproducible from (seed, stream) without
// perturbing the workload's own draws.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace xartrek::sim {

/// One scheduled fault.
///
/// The first four kinds are binary (PR 6): a victim is dead or alive.
/// The gray kinds degrade a victim for a window instead of killing it:
/// each carries a `magnitude` (a rate multiplier or a probability) and
/// an `until` instant at which the cluster restores the victim.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kCellKill,         ///< cell `index` dies (drain + re-place its jobs)
    kLinkDown,         ///< ring link `index` partitions
    kLinkUp,           ///< ring link `index` heals
    kReconfigureFail,  ///< cell `index`'s next FPGA programming fails
    kCellSlow,         ///< cell `index` serves CPU work at `magnitude`x
                       ///< rate until `until`
    kLinkDegraded,     ///< ring link `index` inflates latency and drops
                       ///< each transfer with probability `magnitude`
                       ///< until `until`
    kPortFlaky,        ///< cell `index`'s reconfiguration port fails
                       ///< each programming with probability `magnitude`
                       ///< until `until`
    kDsmCorrupt,       ///< cell `index`'s drain link corrupts each
                       ///< verified frame with probability `magnitude`
                       ///< until `until`.  The name and its string
                       ///< "dsm-corrupt" stay because
                       ///< benchmark/xbench.cpp names both.
  };

  Kind kind = Kind::kCellKill;
  TimePoint at;             ///< absolute simulated time the fault strikes
  std::uint32_t index = 0;  ///< victim: cell or ring-link number
  /// Degraded kinds only: service-rate multiplier (kCellSlow) or
  /// per-event probability (kLinkDegraded / kPortFlaky / kDsmCorrupt).
  /// Ignored by the binary kinds, excluded from the plan's sort key.
  double magnitude = 0.0;
  /// Degraded kinds only: when the degradation lifts.  Ignored by the
  /// binary kinds, excluded from the plan's sort key.
  TimePoint until = {};
};

/// True for the windowed degradation kinds (kCellSlow and later).
[[nodiscard]] constexpr bool is_degraded(FaultEvent::Kind kind) {
  return kind >= FaultEvent::Kind::kCellSlow;
}

[[nodiscard]] const char* to_string(FaultEvent::Kind kind);

/// Knobs for FaultPlan::generate.  Probabilities are per victim (one
/// draw per cell / link), times uniform inside the chaos window.
struct ChaosProfile {
  std::uint32_t cells = 0;  ///< cluster size (victim candidates)
  std::uint32_t links = 0;  ///< ring links (usually == cells)
  TimePoint window_begin;   ///< faults strike inside [begin, end)
  TimePoint window_end;
  double cell_kill_probability = 0.25;
  double link_flap_probability = 0.25;
  double reconfigure_fail_probability = 0.25;
  /// Mean partition length of a link flap (exponential, clamped to the
  /// window so the link always heals before the chaos window closes).
  Duration mean_partition = Duration::ms(50.0);
  /// Hard cap on kills.  Defaults (0) to cells - 1: at least one cell
  /// survives, so drained jobs always have somewhere to land.
  std::uint32_t max_cell_kills = 0;

  // --- Gray-failure knobs (all default off so pre-existing profiles
  // generate bit-identical plans; their draws run after the binary
  // kinds' draws, in a fixed order).
  double cell_slow_probability = 0.0;     ///< per cell
  double link_degrade_probability = 0.0;  ///< per link
  double port_flaky_probability = 0.0;    ///< per cell
  double dsm_corrupt_probability = 0.0;   ///< per cell
  /// Service-rate multiplier a slowed cell runs at (kCellSlow
  /// magnitude); 0.25 = quarter speed.
  double slow_factor = 0.25;
  /// Per-transfer drop probability on a degraded link (kLinkDegraded
  /// magnitude).
  double degraded_drop_probability = 0.1;
  /// Per-programming failure probability on a flaky port (kPortFlaky
  /// magnitude).
  double flaky_fail_probability = 0.5;
  /// Per-transfer corruption probability under kDsmCorrupt.
  double corrupt_probability = 0.25;
  /// Mean length of a gray window (exponential, clamped inside the
  /// chaos window like link flaps are).
  Duration mean_degradation = Duration::ms(50.0);
};

/// A sorted, immutable-once-built schedule of FaultEvents.
class FaultPlan {
 public:
  /// Insert one event, keeping the (time, kind, index) order invariant.
  void add(FaultEvent event);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Events of one kind (diagnostics / tests).
  [[nodiscard]] std::size_t count(FaultEvent::Kind kind) const;

  /// Build-time victim-range check: every cell-targeting event's index
  /// must be < `cells` and every link-targeting event's < `links`, and
  /// degraded events must carry a sane window (`until` > `at`) and a
  /// magnitude in [0, 1] for the probability kinds.  Two windows of one
  /// kind on one target must not overlap: the first one's `until` would
  /// restore nominal while the second is still open.  Windows that only
  /// touch are fine, since plan order applies the earlier `until` first.
  /// Returns false (and fills `error`, if given) instead of asserting
  /// mid-run.
  [[nodiscard]] bool validate(std::uint32_t cells, std::uint32_t links,
                              std::string* error = nullptr) const;

  /// Draw a plan from `profile`.  A pure function of (profile, rng
  /// state): the same seeded Rng always yields the identical plan.
  /// Pass a split stream (rng.split(k)) so generation never perturbs
  /// the workload's randomness.
  [[nodiscard]] static FaultPlan generate(const ChaosProfile& profile,
                                          Rng rng);

 private:
  std::vector<FaultEvent> events_;  ///< sorted by (at, kind, index)
};

}  // namespace xartrek::sim
