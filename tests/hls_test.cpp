// Tests for the HLS toolchain model (steps D/E/F) and the Vitis-style
// reports.
#include <gtest/gtest.h>

#include "fpga/device.hpp"
#include "hls/hls_compiler.hpp"
#include "hls/report.hpp"
#include "hls/xclbin.hpp"

namespace xartrek {
namespace {

hls::KernelSource simple_source(const std::string& name,
                                std::uint64_t int_ops = 20,
                                std::uint64_t irregular = 0,
                                double iterations = 1e6,
                                double unroll = 1.0) {
  hls::KernelSource src;
  src.source_function = name + "_fn";
  src.kernel_name = name;
  src.lines_of_code = 150;
  src.ops.int_ops = int_ops;
  src.ops.mem_ops = 4;
  src.ops.fp_ops = 2;
  src.ops.irregular_mem_ops = irregular;
  src.ops.iterations_per_item = iterations;
  src.iface.input_bytes = 64 * 1024;
  src.iface.output_bytes = 4 * 1024;
  src.unroll_factor = unroll;
  return src;
}

TEST(HlsCompilerTest, ProducesConsistentXo) {
  const hls::HlsCompiler hls;
  const auto xo = hls.compile(simple_source("KNL_A"));
  EXPECT_EQ(xo.kernel_name, "KNL_A");
  EXPECT_EQ(xo.source_function, "KNL_A_fn");
  EXPECT_EQ(xo.config.name, "KNL_A");
  EXPECT_GT(xo.config.resources.luts, 4000u);
  EXPECT_GT(xo.config.resources.ffs, xo.config.resources.luts);
  EXPECT_GT(xo.file_bytes, 96u * 1024);
  EXPECT_GT(xo.synthesis_walltime, Duration::seconds(60));
}

TEST(HlsCompilerTest, UnrollTradesAreaForLatency) {
  const hls::HlsCompiler hls;
  const auto narrow = hls.compile(simple_source("K", 40, 0, 1e6, 1.0));
  const auto wide = hls.compile(simple_source("K", 40, 0, 1e6, 4.0));
  EXPECT_GT(wide.config.resources.luts, narrow.config.resources.luts);
  EXPECT_LT(wide.config.cycles_per_item, narrow.config.cycles_per_item);
}

TEST(HlsCompilerTest, IrregularAccessDominatesLatency) {
  const hls::HlsCompiler hls;
  const auto regular = hls.compile(simple_source("R", 20, 0));
  const auto irregular = hls.compile(simple_source("I", 20, 2));
  // Two 120-cycle stalls per iteration vs a ~6-cycle pipelined body.
  EXPECT_GT(irregular.config.cycles_per_item,
            30.0 * regular.config.cycles_per_item);
}

TEST(HlsCompilerTest, InitiationIntervalFloorsAtOne) {
  const hls::HlsCompiler hls;
  // A tiny body heavily unrolled cannot beat II = 1.
  const auto xo = hls.compile(simple_source("T", 1, 0, 1000.0, 64.0));
  EXPECT_GE(xo.config.cycles_per_item, 1000.0);
}

TEST(HlsCompilerTest, MonstrousKernelRejected) {
  const hls::HlsCompiler hls;
  auto src = simple_source("HUGE", 1'000'000, 0, 1.0, 64.0);
  EXPECT_THROW(hls.compile(src), Error);
}

// --- Partitioning (step E) ---------------------------------------------

std::vector<hls::XoFile> make_xos(int count, std::uint64_t brams_each) {
  const hls::HlsCompiler hls;
  std::vector<hls::XoFile> xos;
  for (int i = 0; i < count; ++i) {
    auto xo = hls.compile(simple_source("KNL_" + std::to_string(i)));
    xo.config.resources.brams = brams_each;  // force BRAM-bound packing
    xos.push_back(xo);
  }
  return xos;
}

TEST(XclbinPartitionTest, AllKernelsFitOneImageWhenSmall) {
  const hls::XclbinPartitioner partitioner(fpga::alveo_u50_spec());
  const auto bins = partitioner.partition(make_xos(5, 50));
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_EQ(bins[0].xos.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bins[0].contains_kernel("KNL_" + std::to_string(i)));
  }
}

TEST(XclbinPartitionTest, SplitsWhenAreaExceeded) {
  // Usable BRAM is 1344 - 270 = 1074; six 400-BRAM kernels need 3 bins.
  const hls::XclbinPartitioner partitioner(fpga::alveo_u50_spec());
  const auto bins = partitioner.partition(make_xos(6, 400));
  EXPECT_EQ(bins.size(), 3u);
  // Every kernel placed exactly once.
  std::size_t placed = 0;
  for (const auto& bin : bins) {
    placed += bin.xos.size();
    EXPECT_TRUE(fpga::FpgaResources::fits_within(
        bin.total_resources(), fpga::alveo_u50_spec().usable()));
  }
  EXPECT_EQ(placed, 6u);
}

TEST(XclbinPartitionTest, SingleOversizedKernelThrows) {
  const hls::XclbinPartitioner partitioner(fpga::alveo_u50_spec());
  EXPECT_THROW(partitioner.partition(make_xos(1, 5000)), Error);
}

TEST(XclbinBuildTest, ImageCarriesKernelsAndSize) {
  const hls::XclbinPartitioner partitioner(fpga::alveo_u50_spec());
  const hls::XclbinBuilder builder(fpga::alveo_u50_spec());
  const auto xos = make_xos(3, 50);
  const auto bins = partitioner.partition(xos);
  ASSERT_EQ(bins.size(), 1u);
  const auto image = builder.build(bins[0]);
  EXPECT_EQ(image.kernels.size(), 3u);
  EXPECT_GT(image.size_bytes, 2u * 1024 * 1024);  // shell base + regions
  EXPECT_TRUE(image.contains_kernel("KNL_1"));
}

// --- reports -----------------------------------------------------------

TEST(ReportTest, UtilizationReportContainsEveryResource) {
  const hls::HlsCompiler hls;
  hls::KernelSource src;
  src.kernel_name = "KNL_R";
  src.source_function = "r_fn";
  src.ops = {20, 4, 6, 0, 1e6};
  src.iface = {64 * 1024, 4 * 1024};
  src.compute_units = 2;
  const auto xo = hls.compile(src);
  const auto report = hls::utilization_report(xo, fpga::alveo_u50_spec());
  for (const char* needle :
       {"KNL_R", "LUT", "BRAM", "DSP", "compute units: 2", "latency"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

TEST(ReportTest, XclbinReportSummarizesImage) {
  const hls::HlsCompiler hls;
  std::vector<hls::XoFile> xos;
  for (int i = 0; i < 3; ++i) {
    hls::KernelSource src;
    src.kernel_name = "K" + std::to_string(i);
    src.source_function = src.kernel_name;
    src.ops = {20, 2, 6, 0, 1e6};
    src.iface = {32 * 1024, 4 * 1024};
    xos.push_back(hls.compile(src));
  }
  const hls::XclbinPartitioner partitioner(fpga::alveo_u50_spec());
  const auto bins = partitioner.partition(xos);
  ASSERT_EQ(bins.size(), 1u);
  const auto report = hls::xclbin_report(bins[0], fpga::alveo_u50_spec());
  EXPECT_NE(report.find("K0"), std::string::npos);
  EXPECT_NE(report.find("K2"), std::string::npos);
  EXPECT_NE(report.find("image total"), std::string::npos);
}

}  // namespace
}  // namespace xartrek
