// XCLBIN partitioning (step E) and generation (step F).
//
// Step E gathers the resource usage of every XO and the free area of the
// hardware platform (total fabric minus the static shell) and groups the
// kernels into as few XCLBIN images as possible; when everything fits in
// one image the FPGA never needs run-time reconfiguration between
// applications.  The partitioner packs them first-fit decreasing over
// the dominant resource fraction.  (The paper also lets the designer pin
// high-priority functions into one image by hand; no run here does.)
//
// Step F "implements" each group and emits a loadable XclbinImage with a
// size model (shell bitstream + per-kernel region bits).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fpga/device.hpp"
#include "fpga/resources.hpp"
#include "hls/hls_compiler.hpp"

namespace xartrek::hls {

/// One planned XCLBIN: which XOs it will contain.
struct XclbinSpec {
  std::string id;
  std::vector<XoFile> xos;

  [[nodiscard]] fpga::FpgaResources total_resources() const;
  [[nodiscard]] bool contains_kernel(const std::string& name) const;
};

/// Step E: groups XOs into XCLBIN specs subject to the platform's free
/// area.
class XclbinPartitioner {
 public:
  explicit XclbinPartitioner(fpga::FpgaSpec platform);

  /// Automatic partitioning: first-fit decreasing on the dominant
  /// resource fraction.  Throws if any single kernel exceeds the free
  /// area.  Produces deterministic ids "<prefix>0", "<prefix>1", ...
  [[nodiscard]] std::vector<XclbinSpec> partition(
      const std::vector<XoFile>& xos,
      const std::string& id_prefix = "xclbin") const;

  [[nodiscard]] const fpga::FpgaSpec& platform() const { return platform_; }

 private:
  fpga::FpgaSpec platform_;
};

/// Step F: builds loadable images from specs.
class XclbinBuilder {
 public:
  explicit XclbinBuilder(fpga::FpgaSpec platform);

  /// Produce the device-loadable image for one spec.
  [[nodiscard]] fpga::XclbinImage build(const XclbinSpec& spec) const;

  /// Size of the kernel-region bits for one XO, excluding the shared
  /// shell bitstream: this is the marginal XCLBIN cost a single
  /// application is charged in the Figure-10 accounting.
  [[nodiscard]] std::uint64_t kernel_region_bytes(const XoFile& xo) const;

 private:
  fpga::FpgaSpec platform_;
};

}  // namespace xartrek::hls
