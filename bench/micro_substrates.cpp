// Substrate microbenchmarks (google-benchmark).
//
// Measures the building blocks the reproduction rests on: the event
// engine, the processor-sharing resource, cross-ISA state
// transformation, symbol alignment, HLS synthesis, XCLBIN
// partitioning, and the real workload kernels.
#include <benchmark/benchmark.h>

#include "apps/benchmark_spec.hpp"
#include "compiler/multi_isa_builder.hpp"
#include "compiler/xar_compiler.hpp"
#include "hls/xclbin.hpp"
#include "isa/symbol.hpp"
#include "popcorn/state_transform.hpp"
#include "runtime/protocol.hpp"
#include "sim/ps_resource.hpp"
#include "sim/simulation.hpp"
#include "workloads/bfs.hpp"
#include "workloads/face_detect.hpp"

namespace {

using namespace xartrek;

void BM_EventEngineThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(TimePoint::at_ms(static_cast<double>(i % 97)), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventEngineThroughput)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_PsResourceChurn(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim::PsResource cpu(sim, {"cpu", 6.0, 1.0});
    for (int i = 0; i < jobs; ++i) {
      cpu.submit(1.0 + (i % 7), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(cpu.delivered_work());
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_PsResourceChurn)->Arg(64)->Arg(512)->Arg(4096);

void BM_StateTransform(benchmark::State& state) {
  const auto ir = compiler::make_app_ir("bench", "hot", 600, 250);
  const compiler::MultiIsaBuilder builder;
  const auto metadata = builder.synthesize_metadata(ir);
  const popcorn::StateTransformer transformer(metadata);
  popcorn::MachineState x86(isa::IsaKind::kX86_64, "main", 1,
                            metadata.find("main", 1)->frame_size_for(
                                isa::IsaKind::kX86_64));
  x86.write_register("rdi", 42);
  for (auto _ : state) {
    auto arm = transformer.transform(x86, isa::IsaKind::kAarch64);
    benchmark::DoNotOptimize(arm);
  }
}
BENCHMARK(BM_StateTransform);

void BM_SymbolAlignment(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<isa::Symbol> symbols;
  for (int i = 0; i < n; ++i) {
    isa::Symbol s;
    s.name = "sym" + std::to_string(i);
    s.section = isa::Section::kText;
    s.alignment = 16;
    s.size_by_isa[isa::IsaKind::kX86_64] = 100 + i % 57;
    s.size_by_isa[isa::IsaKind::kAarch64] = 120 + i % 57;
    symbols.push_back(std::move(s));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::align_symbols(symbols, isa::all_isas()));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SymbolAlignment)->Arg(100)->Arg(1000);

void BM_FullPipelineCompile(benchmark::State& state) {
  const auto specs = apps::paper_benchmarks();
  const compiler::XarCompiler xar;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xar.compile(apps::make_profile_spec(specs),
                                         apps::make_irs(specs),
                                         apps::make_kernel_profiles(specs)));
  }
}
BENCHMARK(BM_FullPipelineCompile);

void BM_XclbinPartition(benchmark::State& state) {
  const hls::HlsCompiler hls;
  std::vector<hls::XoFile> xos;
  for (int i = 0; i < 24; ++i) {
    hls::KernelSource src;
    src.kernel_name = "K" + std::to_string(i);
    src.source_function = src.kernel_name;
    src.ops = {20, 2, 6, 0, 1e6};
    src.iface = {64 * 1024, 4 * 1024};
    src.unroll_factor = 1.0;
    auto xo = hls.compile(src);
    xo.config.resources.brams = 150;  // force multi-bin packing
    xos.push_back(std::move(xo));
  }
  const hls::XclbinPartitioner partitioner(fpga::alveo_u50_spec());
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner.partition(xos));
  }
}
BENCHMARK(BM_XclbinPartition);

void BM_FaceDetect(benchmark::State& state) {
  Rng rng(2);
  const auto scene = workloads::make_scene(rng, 320, 240, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workloads::detect_faces(scene.image));
  }
}
BENCHMARK(BM_FaceDetect);

void BM_IntegralImage(benchmark::State& state) {
  Rng rng(3);
  const auto scene = workloads::make_scene(rng, 640, 480, 0);
  for (auto _ : state) {
    workloads::IntegralImage ii(scene.image);
    benchmark::DoNotOptimize(ii.rect_sum(0, 0, 640, 480));
  }
}
BENCHMARK(BM_IntegralImage);

void BM_BfsTraversal(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  Rng rng(4);
  const auto graph = workloads::make_random_graph(rng, nodes, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workloads::bfs_depths(graph, 0));
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_BfsTraversal)->Arg(1'000)->Arg(5'000);

void BM_ProtocolRoundTrip(benchmark::State& state) {
  const runtime::ThresholdReportMsg msg{"digit2000", runtime::Target::kFpga,
                                        1229.5, 67};
  for (auto _ : state) {
    const auto bytes = runtime::encode_message(msg);
    benchmark::DoNotOptimize(runtime::decode_message(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProtocolRoundTrip);

}  // namespace

BENCHMARK_MAIN();
