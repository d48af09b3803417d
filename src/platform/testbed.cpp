#include "platform/testbed.hpp"

#include <utility>

namespace xartrek::platform {

Testbed::Testbed(TestbedConfig cfg) : log_(std::move(cfg.log)) {
  if (cfg.external_sim != nullptr) {
    sim_ = cfg.external_sim;
  } else {
    owned_sim_ = std::make_unique<sim::Simulation>();
    sim_ = owned_sim_.get();
  }
  x86_ = std::make_unique<hw::CpuCluster>(*sim_, cfg.x86);
  arm_ = std::make_unique<hw::CpuCluster>(*sim_, cfg.arm);
  ethernet_ = std::make_unique<hw::Link>(*sim_, cfg.ethernet);
  pcie_ = std::make_unique<hw::Link>(*sim_, cfg.pcie);
  fpga_ = std::make_unique<fpga::FpgaDevice>(*sim_, *pcie_, cfg.fpga, log_);
  if (cfg.fpga_slots.has_value()) fpga_->enable_slots(*cfg.fpga_slots);
}

}  // namespace xartrek::platform
