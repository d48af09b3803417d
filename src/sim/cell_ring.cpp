#include "sim/cell_ring.hpp"

#include <string>

#include "common/assert.hpp"

namespace xartrek::sim {

namespace {

/// "0.12 ms" for error messages.
std::string ms_string(Duration d) {
  std::string s = std::to_string(d.to_ms());
  // Trim the fixed rendering's trailing zeros ("2.000000" -> "2").
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s + " ms";
}

ShardedSimulation::Options engine_options(std::size_t cells, Duration hop,
                                          std::optional<Duration> epoch,
                                          bool parallel, ExecOptions exec) {
  XAR_EXPECTS(cells >= 1);
  ShardedSimulation::Options o;
  o.shards = cells;
  o.parallel = parallel;
  o.exec = exec;
  const bool ring = cells > 1;
  if (epoch.has_value()) {
    if (*epoch <= Duration::zero()) {
      throw Error("cell ring: the forced epoch must be > 0");
    }
    if (ring && *epoch > hop) {
      throw Error("cell ring: the forced " + ms_string(*epoch) +
                  " epoch exceeds the " + ms_string(hop) +
                  " ring hop; the conservative lookahead contract needs "
                  "every cross-cell latency >= the epoch (largest legal "
                  "epoch: " +
                  ms_string(hop) + ")");
    }
    o.epoch = *epoch;
  } else if (ring) {
    if (hop <= Duration::zero()) {
      throw Error(
          "cell ring: the ring hop models zero latency; no epoch can "
          "satisfy the conservative lookahead contract (cross-cell "
          "interactions must model a positive delay)");
    }
    o.epoch = hop;  // the largest legal epoch
  }
  return o;
}

}  // namespace

CellRing::CellRing(std::size_t cells, Duration hop,
                   std::optional<Duration> epoch, bool parallel,
                   ExecOptions exec)
    : hop_(hop), ssim_(engine_options(cells, hop, epoch, parallel, exec)) {}

CrossShardChannel CellRing::next(std::size_t i) {
  const std::size_t n = ssim_.shard_count();
  XAR_EXPECTS(i < n);
  if (n == 1) return CrossShardChannel{};
  return CrossShardChannel(ssim_, static_cast<ShardId>(i),
                           static_cast<ShardId>((i + 1) % n), hop_);
}

}  // namespace xartrek::sim
