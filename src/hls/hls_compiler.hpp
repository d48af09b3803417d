// High-level-synthesis toolchain model (the Vitis stand-in).
//
// Step D of the Xar-Trek pipeline hands each selected C function to the
// Xilinx Vitis compiler, which emits one XO (Xilinx object) per function
// containing the synthesized kernel plus its resource footprint.  This
// model reproduces the *interface and economics* of that step: a kernel's
// op profile determines its logic footprint and its pipelined latency.
// Two behaviours matter for the paper's results and are modelled
// explicitly:
//
//  * compute-dense kernels (digit recognition, face detection) pipeline
//    to a low initiation interval and beat the CPU;
//  * irregular/pointer-chasing kernels (BFS, CG's sparse gather) stall
//    on memory and run orders of magnitude slower than the CPU
//    (paper §4.4 and Table 4).
#pragma once

#include <cstdint>
#include <string>

#include "common/time.hpp"
#include "fpga/device.hpp"
#include "fpga/resources.hpp"

namespace xartrek::hls {

/// Operation counts of the kernel's innermost (pipelined) loop body,
/// plus the trip count per work item, as a profiling pass would report
/// them.  Resources scale with the *body* (that is what gets synthesized
/// into a datapath); latency scales with body cost x iterations.
struct OpProfile {
  std::uint64_t int_ops = 0;   ///< integer ALU ops per body iteration
  std::uint64_t fp_ops = 0;    ///< floating-point ops per body iteration
  std::uint64_t mem_ops = 0;   ///< on-chip memory accesses per iteration
  /// Irregular (data-dependent, pointer-chasing) off-chip accesses per
  /// iteration; each one stalls the pipeline for an off-chip round trip.
  std::uint64_t irregular_mem_ops = 0;
  /// Innermost-loop iterations executed per work item.
  double iterations_per_item = 1.0;
};

/// Data movement contract of one kernel invocation.
struct KernelInterface {
  std::uint64_t input_bytes = 0;   ///< host -> card per invocation
  std::uint64_t output_bytes = 0;  ///< card -> host per invocation
};

/// A selected C function, ready for synthesis.
struct KernelSource {
  std::string source_function;  ///< C symbol name
  std::string kernel_name;      ///< hardware kernel name (e.g. KNL_HW_FD320)
  int lines_of_code = 0;
  OpProfile ops;
  KernelInterface iface;
  double unroll_factor = 1.0;  ///< HLS optimization hint (>= 1)
  int compute_units = 1;       ///< Vitis `nk` replication (>= 1)
};

/// A synthesized Xilinx object: the step-D output.
struct XoFile {
  std::string kernel_name;
  std::string source_function;
  fpga::HwKernelConfig config;  ///< resources + latency model
  KernelInterface iface;
  std::uint64_t file_bytes = 0;
  Duration synthesis_walltime;  ///< how long "Vitis" ran (reported only)
};

/// HLS compilation options.
struct HlsOptions {
  double target_clock_mhz = 300.0;
  /// Cycles a pipeline stalls per irregular off-chip access (HBM round
  /// trip at kernel clock).
  double irregular_stall_cycles = 120.0;
  /// Effective scalar-op parallelism the scheduler extracts per cycle
  /// before unrolling.
  double baseline_ilp = 4.0;
};

/// The HLS compiler model.
class HlsCompiler {
 public:
  explicit HlsCompiler(HlsOptions opts = {});

  /// Synthesize one function.  Throws if the estimated footprint exceeds
  /// a full U50-class device (such a function cannot be selected).
  [[nodiscard]] XoFile compile(const KernelSource& src) const;

 private:
  HlsOptions opts_;
};

}  // namespace xartrek::hls
