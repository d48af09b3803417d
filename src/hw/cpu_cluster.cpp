#include "hw/cpu_cluster.hpp"

#include <utility>

namespace xartrek::hw {

CpuSpec xeon_bronze_3104() {
  return CpuSpec{"Intel Xeon Bronze 3104", 6, 1.7, 64};
}

CpuSpec cavium_thunderx() {
  return CpuSpec{"Cavium ThunderX", 96, 2.0, 128};
}

CpuCluster::CpuCluster(sim::Simulation& sim, CpuSpec spec)
    : spec_(std::move(spec)),
      pool_(sim, sim::PsResource::Config{
                     spec_.model,
                     /*capacity=*/static_cast<double>(spec_.cores),
                     /*per_job_cap=*/1.0}) {
  XAR_EXPECTS(spec_.cores > 0);
}

}  // namespace xartrek::hw
