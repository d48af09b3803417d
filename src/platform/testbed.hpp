// The evaluation platform (paper Figure 2 / §4).
//
// One Dell 7920 x86 host (Xeon Bronze 3104, 6 cores), one Cavium
// ThunderX ARM server (96 cores), a Xilinx Alveo U50 card on the host's
// PCIe, and 1 Gbps Ethernet between the servers.  Everything an
// experiment needs is owned here so construction order and lifetimes are
// in one place.
#pragma once

#include <memory>
#include <optional>

#include "common/log.hpp"
#include "fpga/device.hpp"
#include "hw/cpu_cluster.hpp"
#include "hw/link.hpp"
#include "sim/simulation.hpp"
#include "xrt/xrt.hpp"

namespace xartrek::platform {

/// Tunables for non-default testbeds (ablations, scaling studies).
struct TestbedConfig {
  hw::CpuSpec x86 = hw::xeon_bronze_3104();
  hw::CpuSpec arm = hw::cavium_thunderx();
  hw::LinkSpec ethernet = hw::ethernet_1gbps();
  hw::LinkSpec pcie = hw::pcie_gen3();
  fpga::FpgaSpec fpga = fpga::alveo_u50_spec();
  /// Virtualize the card: carve its usable region into PR slots right
  /// after construction.  Unset keeps whole-image residency.
  std::optional<fpga::SlotConfig> fpga_slots;
  /// Shard-aware construction: build every component against this
  /// externally-owned engine (a cell's shard of a sim::CellRing)
  /// instead of a testbed-owned one.  The testbed then is one *cell* of
  /// a cluster; null keeps the classic self-contained single-queue
  /// testbed.  The engine must outlive the testbed.
  sim::Simulation* external_sim = nullptr;
  Logger log = {};
};

/// The assembled platform.
class Testbed {
 public:
  explicit Testbed(TestbedConfig cfg = {});

  [[nodiscard]] sim::Simulation& simulation() { return *sim_; }
  [[nodiscard]] hw::CpuCluster& x86() { return *x86_; }
  [[nodiscard]] hw::CpuCluster& arm() { return *arm_; }
  [[nodiscard]] hw::Link& ethernet() { return *ethernet_; }
  [[nodiscard]] hw::Link& pcie() { return *pcie_; }
  [[nodiscard]] fpga::FpgaDevice& fpga() { return *fpga_; }
  [[nodiscard]] xrt::Device& xrt_device() { return *xrt_; }
  [[nodiscard]] const Logger& log() const { return log_; }

  /// Total cores across both servers (102 in the paper; Table 3's
  /// medium/high boundary).
  [[nodiscard]] int total_cores() const {
    return x86_->spec().cores + arm_->spec().cores;
  }

 private:
  Logger log_;
  /// Owned in the classic standalone configuration; empty when the
  /// cell was built against a shard's engine (config.external_sim).
  std::unique_ptr<sim::Simulation> owned_sim_;
  sim::Simulation* sim_;
  std::unique_ptr<hw::CpuCluster> x86_;
  std::unique_ptr<hw::CpuCluster> arm_;
  std::unique_ptr<hw::Link> ethernet_;
  std::unique_ptr<hw::Link> pcie_;
  std::unique_ptr<fpga::FpgaDevice> fpga_;
  std::unique_ptr<xrt::Device> xrt_;
};

}  // namespace xartrek::platform
