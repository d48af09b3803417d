#include "sim/fault.hpp"

#include <algorithm>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/assert.hpp"

namespace xartrek::sim {

const char* to_string(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kCellKill:        return "cell-kill";
    case FaultEvent::Kind::kLinkDown:        return "link-down";
    case FaultEvent::Kind::kLinkUp:          return "link-up";
    case FaultEvent::Kind::kReconfigureFail: return "reconfigure-fail";
    case FaultEvent::Kind::kCellSlow:        return "cell-slow";
    case FaultEvent::Kind::kLinkDegraded:    return "link-degraded";
    case FaultEvent::Kind::kPortFlaky:       return "port-flaky";
    case FaultEvent::Kind::kDsmCorrupt:      return "dsm-corrupt";
  }
  return "?";
}

namespace {

[[nodiscard]] auto order_key(const FaultEvent& e) {
  return std::make_tuple(e.at.to_ms(), static_cast<std::uint8_t>(e.kind),
                         e.index);
}

}  // namespace

void FaultPlan::add(FaultEvent event) {
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) {
        return order_key(a) < order_key(b);
      });
  events_.insert(pos, event);
}

std::size_t FaultPlan::count(FaultEvent::Kind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const FaultEvent& e) { return e.kind == kind; }));
}

namespace {

[[nodiscard]] bool targets_link(FaultEvent::Kind kind) {
  return kind == FaultEvent::Kind::kLinkDown ||
         kind == FaultEvent::Kind::kLinkUp ||
         kind == FaultEvent::Kind::kLinkDegraded;
}

/// Kinds that drain over the victim's ring link: a kill ships the
/// cell's jobs to its neighbor, drain corruption hits that transfer.
[[nodiscard]] bool needs_neighbor(FaultEvent::Kind kind) {
  return kind == FaultEvent::Kind::kCellKill ||
         kind == FaultEvent::Kind::kDsmCorrupt;
}

[[nodiscard]] bool carries_probability(FaultEvent::Kind kind) {
  return kind == FaultEvent::Kind::kLinkDegraded ||
         kind == FaultEvent::Kind::kPortFlaky ||
         kind == FaultEvent::Kind::kDsmCorrupt;
}

/// "[at, until] ms" of a degraded event.
std::string window(const FaultEvent& e) {
  return "[" + std::to_string(e.at.to_ms()) + ", " +
         std::to_string(e.until.to_ms()) + "] ms";
}

void describe(const FaultEvent& e, std::string_view what,
              std::string* error) {
  if (error == nullptr) return;
  *error = std::string(to_string(e.kind)) + " @" +
           std::to_string(e.at.to_ms()) + "ms index " +
           std::to_string(e.index) + ": " + std::string(what);
}

}  // namespace

bool FaultPlan::validate(std::uint32_t cells, std::uint32_t links,
                         std::string* error) const {
  std::vector<bool> killed(cells, false);
  std::uint32_t kills = 0;
  for (auto it = events_.begin(); it != events_.end(); ++it) {
    const FaultEvent& e = *it;
    const std::uint32_t limit = targets_link(e.kind) ? links : cells;
    if (e.index >= limit) {
      describe(e, targets_link(e.kind) ? "link index out of range"
                                       : "cell index out of range",
               error);
      return false;
    }
    if (needs_neighbor(e.kind) && cells < 2) {
      describe(e, "needs a ring neighbor to drain to; a one-cell cluster "
                  "has none",
               error);
      return false;
    }
    if (e.kind == FaultEvent::Kind::kCellKill && !killed[e.index]) {
      killed[e.index] = true;
      if (++kills == cells) {
        describe(e, "kills the last live cell; drained jobs need a "
                    "survivor",
                 error);
        return false;
      }
    }
    if (!is_degraded(e.kind)) continue;
    if (e.until <= e.at) {
      describe(e, "degradation window is empty (until <= at)", error);
      return false;
    }
    if (e.kind == FaultEvent::Kind::kCellSlow &&
        (e.magnitude <= 0.0 || e.magnitude > 1.0)) {
      describe(e, "slow factor must be in (0, 1]", error);
      return false;
    }
    if (carries_probability(e.kind) &&
        (e.magnitude < 0.0 || e.magnitude > 1.0)) {
      describe(e, "probability must be in [0, 1]", error);
      return false;
    }
    // Earlier windows on this target were checked pairwise disjoint, so
    // the latest-starting one also ends last.
    for (auto prev = it; prev != events_.begin();) {
      --prev;
      if (prev->kind != e.kind || prev->index != e.index) continue;
      if (e.at < prev->until) {
        describe(e, "window " + window(e) + " overlaps window " + window(*prev),
                 error);
        return false;
      }
      break;
    }
  }
  return true;
}

FaultPlan FaultPlan::generate(const ChaosProfile& profile, Rng rng) {
  XAR_EXPECTS(profile.window_end > profile.window_begin);
  XAR_EXPECTS(profile.mean_partition > Duration::zero());
  const double begin_ms = profile.window_begin.to_ms();
  const double end_ms = profile.window_end.to_ms();

  FaultPlan plan;
  // Draw order is fixed (kills, then flaps, then reconfigure failures;
  // victims in index order) so the plan is a pure function of the
  // profile and the Rng's seed.
  std::uint32_t kill_budget = profile.max_cell_kills != 0
                                  ? profile.max_cell_kills
                                  : (profile.cells > 0 ? profile.cells - 1
                                                       : 0);
  for (std::uint32_t c = 0; c < profile.cells; ++c) {
    const bool hit = rng.bernoulli(profile.cell_kill_probability);
    const double at = rng.uniform_real(begin_ms, end_ms);
    if (!hit || kill_budget == 0) continue;
    --kill_budget;
    plan.add(FaultEvent{FaultEvent::Kind::kCellKill, TimePoint::at_ms(at),
                        c});
  }
  for (std::uint32_t l = 0; l < profile.links; ++l) {
    const bool hit = rng.bernoulli(profile.link_flap_probability);
    const double at = rng.uniform_real(begin_ms, end_ms);
    const double len = rng.exponential_mean(profile.mean_partition.to_ms());
    if (!hit) continue;
    // Heal strictly inside the window so a flapped link never stays
    // down past the chaos phase (parked traffic always drains).
    const double up = std::min(at + std::max(len, 1e-3), end_ms);
    plan.add(FaultEvent{FaultEvent::Kind::kLinkDown, TimePoint::at_ms(at),
                        l});
    plan.add(FaultEvent{FaultEvent::Kind::kLinkUp, TimePoint::at_ms(up),
                        l});
  }
  for (std::uint32_t c = 0; c < profile.cells; ++c) {
    const bool hit = rng.bernoulli(profile.reconfigure_fail_probability);
    const double at = rng.uniform_real(begin_ms, end_ms);
    if (!hit) continue;
    plan.add(FaultEvent{FaultEvent::Kind::kReconfigureFail,
                        TimePoint::at_ms(at), c});
  }
  // Gray kinds draw after every binary kind, each in its own loop, so a
  // profile with all gray probabilities at 0 (the default) consumes the
  // binary draws identically and yields a bit-identical plan.
  const auto gray_window = [&](double at, double len) {
    // Lift strictly inside the chaos window, like link heals.
    return std::min(at + std::max(len, 1e-3), end_ms);
  };
  for (std::uint32_t c = 0; c < profile.cells; ++c) {
    const bool hit = rng.bernoulli(profile.cell_slow_probability);
    const double at = rng.uniform_real(begin_ms, end_ms);
    const double len = rng.exponential_mean(profile.mean_degradation.to_ms());
    if (!hit) continue;
    plan.add(FaultEvent{FaultEvent::Kind::kCellSlow, TimePoint::at_ms(at), c,
                        profile.slow_factor,
                        TimePoint::at_ms(gray_window(at, len))});
  }
  for (std::uint32_t l = 0; l < profile.links; ++l) {
    const bool hit = rng.bernoulli(profile.link_degrade_probability);
    const double at = rng.uniform_real(begin_ms, end_ms);
    const double len = rng.exponential_mean(profile.mean_degradation.to_ms());
    if (!hit) continue;
    plan.add(FaultEvent{FaultEvent::Kind::kLinkDegraded, TimePoint::at_ms(at),
                        l, profile.degraded_drop_probability,
                        TimePoint::at_ms(gray_window(at, len))});
  }
  for (std::uint32_t c = 0; c < profile.cells; ++c) {
    const bool hit = rng.bernoulli(profile.port_flaky_probability);
    const double at = rng.uniform_real(begin_ms, end_ms);
    const double len = rng.exponential_mean(profile.mean_degradation.to_ms());
    if (!hit) continue;
    plan.add(FaultEvent{FaultEvent::Kind::kPortFlaky, TimePoint::at_ms(at), c,
                        profile.flaky_fail_probability,
                        TimePoint::at_ms(gray_window(at, len))});
  }
  for (std::uint32_t c = 0; c < profile.cells; ++c) {
    const bool hit = rng.bernoulli(profile.dsm_corrupt_probability);
    const double at = rng.uniform_real(begin_ms, end_ms);
    const double len = rng.exponential_mean(profile.mean_degradation.to_ms());
    if (!hit) continue;
    plan.add(FaultEvent{FaultEvent::Kind::kDsmCorrupt, TimePoint::at_ms(at),
                        c, profile.corrupt_probability,
                        TimePoint::at_ms(gray_window(at, len))});
  }
  return plan;
}

}  // namespace xartrek::sim
