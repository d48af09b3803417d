#include "hls/xclbin.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace xartrek::hls {

fpga::FpgaResources XclbinSpec::total_resources() const {
  fpga::FpgaResources sum;
  for (const auto& xo : xos) {
    // Replicated compute units each claim a full copy of the kernel.
    for (int cu = 0; cu < xo.config.compute_units; ++cu) {
      sum += xo.config.resources;
    }
  }
  return sum;
}

bool XclbinSpec::contains_kernel(const std::string& name) const {
  return std::any_of(xos.begin(), xos.end(), [&](const XoFile& xo) {
    return xo.kernel_name == name;
  });
}

XclbinPartitioner::XclbinPartitioner(fpga::FpgaSpec platform)
    : platform_(std::move(platform)) {}

std::vector<XclbinSpec> XclbinPartitioner::partition(
    const std::vector<XoFile>& xos, const std::string& id_prefix) const {
  const fpga::FpgaResources cap = platform_.usable();

  // First-fit decreasing: largest dominant-fraction kernels first.
  std::vector<XoFile> order = xos;
  std::stable_sort(order.begin(), order.end(),
                   [&](const XoFile& a, const XoFile& b) {
                     return a.config.resources.dominant_fraction(cap) >
                            b.config.resources.dominant_fraction(cap);
                   });

  std::vector<XclbinSpec> bins;
  for (const auto& xo : order) {
    XclbinSpec alone;
    alone.xos.push_back(xo);
    if (!fpga::FpgaResources::fits_within(alone.total_resources(), cap)) {
      throw Error("XCLBIN partitioning: kernel `" + xo.kernel_name +
                  "` alone exceeds the platform's free area");
    }
    bool placed = false;
    for (auto& bin : bins) {
      if (fpga::FpgaResources::fits_within(
              bin.total_resources() + alone.total_resources(), cap)) {
        bin.xos.push_back(xo);
        placed = true;
        break;
      }
    }
    if (!placed) {
      XclbinSpec spec;
      spec.id = id_prefix + std::to_string(bins.size());
      spec.xos.push_back(xo);
      bins.push_back(std::move(spec));
    }
  }
  return bins;
}

XclbinBuilder::XclbinBuilder(fpga::FpgaSpec platform)
    : platform_(std::move(platform)) {}

std::uint64_t XclbinBuilder::kernel_region_bytes(const XoFile& xo) const {
  // Configuration bits scale with claimed logic: ~120 bits per LUT site
  // (frame-quantized), plus initialized BRAM contents.
  const auto& r = xo.config.resources;
  return r.luts * 15 + r.ffs * 2 + r.brams * 4608 + r.dsps * 200;
}

fpga::XclbinImage XclbinBuilder::build(const XclbinSpec& spec) const {
  XAR_EXPECTS(!spec.xos.empty());
  fpga::XclbinImage image;
  image.id = spec.id;
  // Shared shell bitstream + header/metadata base.
  std::uint64_t size = 2 * 1024 * 1024;
  for (const auto& xo : spec.xos) {
    image.kernels.push_back(xo.config);
    size += kernel_region_bytes(xo);
  }
  image.size_bytes = size;
  return image;
}

}  // namespace xartrek::hls
