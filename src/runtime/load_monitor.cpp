#include "runtime/load_monitor.hpp"

namespace xartrek::runtime {

LoadMonitor::LoadMonitor(sim::Simulation& sim, hw::CpuCluster& x86,
                         Duration period)
    : sim_(sim),
      x86_(x86),
      period_(period),
      next_tick_(sim.now() + period),
      last_sample_(x86.load()) {
  XAR_EXPECTS(period > Duration::zero());
  XAR_EXPECTS(x86_.load_watcher() == nullptr);
  x86_.set_load_watcher(this);
}

void LoadMonitor::catch_up() {
  const TimePoint now = sim_.now();
  if (next_tick_ > now) return;
  do {
    next_tick_ = next_tick_ + period_;
    ++samples_;
  } while (next_tick_ <= now);
  last_sample_ = x86_.load();
}

}  // namespace xartrek::runtime
