// Tests for the Xar-Trek compiler pipeline (steps A-F) and the
// binary-size model.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/benchmark_spec.hpp"
#include "compiler/app_ir.hpp"
#include "compiler/instrumenter.hpp"
#include "compiler/multi_isa_builder.hpp"
#include "compiler/profile_spec.hpp"
#include "compiler/size_model.hpp"
#include "compiler/xar_compiler.hpp"
#include "compiler/xo_generator.hpp"

namespace xartrek::compiler {
namespace {

// --- Step A: profile spec -----------------------------------------------

constexpr const char* kSpecText = R"(# demo spec
platform alveo-u50
application facedet320
  function detect_faces kernel KNL_HW_FD320 input_bytes 76800 output_bytes 4096 items 1
end
application digit500
  function digitrec_kernel kernel KNL_HW_DR500 input_bytes 592000 output_bytes 2048 items 500
end
)";

TEST(ProfileSpecTest, ParsesWellFormedSpec) {
  const auto spec = ProfileSpec::parse_string(kSpecText);
  EXPECT_EQ(spec.platform, "alveo-u50");
  ASSERT_EQ(spec.applications.size(), 2u);
  const auto* app = spec.find_application("facedet320");
  ASSERT_NE(app, nullptr);
  const auto* fn = app->find("detect_faces");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->kernel_name, "KNL_HW_FD320");
  EXPECT_EQ(fn->input_bytes, 76'800u);
  EXPECT_EQ(fn->items_per_call, 1u);
  const auto* digit = spec.find_application("digit500");
  ASSERT_NE(digit, nullptr);
  EXPECT_EQ(digit->functions[0].items_per_call, 500u);
}

TEST(ProfileSpecTest, RoundTripsThroughSerialize) {
  const auto spec = ProfileSpec::parse_string(kSpecText);
  const auto again = ProfileSpec::parse_string(spec.serialize());
  EXPECT_EQ(again.platform, spec.platform);
  ASSERT_EQ(again.applications.size(), spec.applications.size());
  for (std::size_t i = 0; i < spec.applications.size(); ++i) {
    EXPECT_EQ(again.applications[i].name, spec.applications[i].name);
    ASSERT_EQ(again.applications[i].functions.size(),
              spec.applications[i].functions.size());
    EXPECT_EQ(again.applications[i].functions[0].kernel_name,
              spec.applications[i].functions[0].kernel_name);
  }
}

// Malformed inputs: each must throw with a line-numbered message.
class ProfileSpecErrorTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfileSpecErrorTest, RejectsMalformedInput) {
  try {
    (void)ProfileSpec::parse_string(GetParam());
    FAIL() << "expected parse failure for: " << GetParam();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ProfileSpecErrorTest,
    ::testing::Values(
        "application a\n  function f kernel K\nend\n",         // no platform
        "platform p\napplication a\nend\n",                    // no functions
        "platform p\napplication a\n  function f\nend\n",      // no kernel
        "platform p\napplication a\n  function f kernel K\n",  // no end
        "platform p\nbogus keyword\n",                         // unknown kw
        "platform p\napplication a\n  function f kernel K\n"
        "  function f kernel K2\nend\n",                       // dup function
        "platform p\napplication a\napplication b\n",          // nested app
        "platform p\nend\n",                                   // stray end
        "platform p\napplication a\n"
        "  function f kernel K items 0\nend\n"));               // bad items

// --- Step B: instrumentation ---------------------------------------------

ApplicationProfile demo_profile() {
  ApplicationProfile profile;
  profile.name = "demo";
  SelectedFunction fn;
  fn.function = "hot";
  fn.kernel_name = "KNL_HOT";
  fn.input_bytes = 1024;
  fn.output_bytes = 64;
  profile.functions.push_back(fn);
  return profile;
}

TEST(InstrumenterTest, InsertsHooksAndDispatch) {
  const auto ir = make_app_ir("demo", "hot", 400, 150);
  const Instrumenter pass;
  const auto out = pass.instrument(ir, demo_profile());

  EXPECT_EQ(out.count(Insertion::Kind::kSchedulerClientInit), 1u);
  EXPECT_EQ(out.count(Insertion::Kind::kFpgaPreconfigure), 1u);
  EXPECT_EQ(out.count(Insertion::Kind::kSchedulerClientFini), 1u);
  EXPECT_EQ(out.count(Insertion::Kind::kDispatchRewrite), 1u);

  // main's first call sites are the client init then the FPGA configure;
  // the last is the client teardown.
  const IrFunction* main_fn = out.ir.find("main");
  ASSERT_NE(main_fn, nullptr);
  EXPECT_EQ(main_fn->call_sites.front().callee, "__xar_client_init");
  EXPECT_EQ(main_fn->call_sites[1].callee, "__xar_fpga_configure");
  EXPECT_EQ(main_fn->call_sites.back().callee, "__xar_client_fini");

  // The original hot call is redirected to the dispatch stub.
  bool direct_call_remains = false;
  for (const auto& site : main_fn->call_sites) {
    if (site.callee == "hot") direct_call_remains = true;
  }
  EXPECT_FALSE(direct_call_remains);
  ASSERT_EQ(out.dispatch_stubs.size(), 1u);
  EXPECT_EQ(out.dispatch_stubs[0], "__xar_dispatch_hot");
  const IrFunction* stub = out.ir.find("__xar_dispatch_hot");
  ASSERT_NE(stub, nullptr);
  // The stub calls the software original and the XRT offload path.
  EXPECT_EQ(stub->call_sites.size(), 2u);
}

TEST(InstrumenterTest, RejectsMissingMainOrFunction) {
  const Instrumenter pass;
  AppIr no_main;
  no_main.name = "x";
  EXPECT_THROW(pass.instrument(no_main, demo_profile()), Error);

  auto ir = make_app_ir("demo", "hot", 400, 150);
  ApplicationProfile bad = demo_profile();
  bad.functions[0].function = "missing_fn";
  EXPECT_THROW(pass.instrument(ir, bad), Error);
}

TEST(InstrumenterTest, RejectsNonSelfContainedSelection) {
  auto ir = make_app_ir("demo", "hot", 400, 150);
  // Make `hot` call something: Vitis-style synthesis must refuse.
  ir.find_mutable("hot")->call_sites.push_back(IrCallSite{"helper", 0});
  const Instrumenter pass;
  EXPECT_THROW(pass.instrument(ir, demo_profile()), Error);
}

// --- Step C: multi-ISA build ----------------------------------------------

TEST(MultiIsaBuilderTest, FatBinaryCarriesBothIsas) {
  const auto ir = make_app_ir("demo", "hot", 400, 150);
  const MultiIsaBuilder builder;
  const auto binary = builder.build(ir);
  EXPECT_EQ(binary.isas().size(), 2u);
  // ARM text is larger (lower code density), so its image is too.
  EXPECT_GT(binary.sections_for(isa::IsaKind::kAarch64).text,
            binary.sections_for(isa::IsaKind::kX86_64).text);
  // The fat binary beats any single image but not their sum + overheads.
  EXPECT_GT(binary.file_bytes(),
            binary.single_isa_file_bytes(isa::IsaKind::kX86_64));
}

TEST(MultiIsaBuilderTest, SymbolsShareAddressesAcrossIsas) {
  const auto ir = make_app_ir("demo", "hot", 400, 150);
  const MultiIsaBuilder builder;
  const auto binary = builder.build(ir);
  // One address per symbol by construction; every function is present.
  for (const auto& fn : ir.functions) {
    EXPECT_NO_THROW((void)binary.layout().address_of(fn.name));
  }
}

TEST(MultiIsaBuilderTest, MetadataCoversEveryCallSite) {
  auto ir = make_app_ir("demo", "hot", 400, 150);
  const Instrumenter pass;
  const auto instrumented = pass.instrument(ir, demo_profile());
  const MultiIsaBuilder builder;
  const auto metadata = builder.synthesize_metadata(instrumented.ir);
  for (const auto& fn : instrumented.ir.functions) {
    for (const auto& site : fn.call_sites) {
      EXPECT_NE(metadata.find(fn.name, site.site_id), nullptr)
          << fn.name << "@" << site.site_id;
    }
  }
}

TEST(MultiIsaBuilderTest, MetadataLocationsAreAbiValid) {
  const auto ir = make_app_ir("demo", "hot", 400, 150);
  const MultiIsaBuilder builder;
  const auto metadata = builder.synthesize_metadata(ir);
  for (const auto& site : metadata.sites()) {
    for (const auto& value : site.live_values) {
      for (const auto& [isa_kind, loc] : value.location) {
        if (loc.kind == popcorn::ValueLocation::Kind::kRegister) {
          EXPECT_TRUE(isa::info_for(isa_kind).has_register(loc.reg));
        } else {
          EXPECT_LE(loc.offset + popcorn::size_of(value.type),
                    site.frame_size_for(isa_kind));
        }
      }
    }
  }
}

// --- Step D and facade -----------------------------------------------------

TEST(XoGeneratorTest, MissingKernelProfileThrows) {
  const XoGenerator gen;
  const auto profile = demo_profile();
  EXPECT_THROW(gen.generate(profile, {}), Error);
}

TEST(XarCompilerTest, CompilesTheFiveBenchmarkSuite) {
  const auto specs = apps::paper_benchmarks();
  const XarCompiler xar;
  const auto suite = xar.compile(apps::make_profile_spec(specs),
                                 apps::make_irs(specs),
                                 apps::make_kernel_profiles(specs));
  ASSERT_EQ(suite.apps.size(), 5u);
  // All five kernels fit one XCLBIN on the U50 (no run-time thrash).
  ASSERT_EQ(suite.xclbins.size(), 1u);
  for (const auto& spec : specs) {
    EXPECT_NE(suite.xclbin_with(spec.kernel_name), nullptr)
        << spec.kernel_name;
    const auto* app = suite.find_app(spec.name);
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->xos.size(), 1u);
    EXPECT_EQ(app->xos[0].kernel_name, spec.kernel_name);
  }
  EXPECT_EQ(suite.xclbin_with("NOPE"), nullptr);
}

void expect_same_binary(const popcorn::MultiIsaBinary& got,
                        const popcorn::MultiIsaBinary& want,
                        const std::string& app) {
  EXPECT_EQ(got.file_bytes(), want.file_bytes()) << app;
  ASSERT_EQ(got.isas(), want.isas()) << app;
  for (const isa::IsaKind isa : want.isas()) {
    const auto& g = got.sections_for(isa);
    const auto& w = want.sections_for(isa);
    EXPECT_EQ(g.text, w.text) << app;
    EXPECT_EQ(g.rodata, w.rodata) << app;
    EXPECT_EQ(g.data, w.data) << app;
    EXPECT_EQ(g.bss, w.bss) << app;
  }
  EXPECT_EQ(got.metadata().sites().size(), want.metadata().sites().size())
      << app;
  EXPECT_EQ(got.metadata().encoded_size_bytes(),
            want.metadata().encoded_size_bytes())
      << app;
}

TEST(XarCompilerTest, BuildsFatBinaryFromInstrumentedIr) {
  // Step C: the fat binary comes from the instrumented IR (its dispatch
  // stubs are migration points); the x86-only baseline from the raw IR.
  const auto specs = apps::paper_benchmarks();
  const auto irs = apps::make_irs(specs);
  const XarCompiler xar;
  const auto suite = xar.compile(apps::make_profile_spec(specs), irs,
                                 apps::make_kernel_profiles(specs));
  const MultiIsaBuilder fat;
  MultiIsaBuildOptions x86_opts;
  x86_opts.targets = {isa::IsaKind::kX86_64};
  const MultiIsaBuilder x86(x86_opts);
  ASSERT_EQ(suite.apps.size(), specs.size());
  for (const auto& app : suite.apps) {
    expect_same_binary(app.binary, fat.build(app.instrumented.ir), app.name);
    expect_same_binary(app.x86_only_binary, x86.build(irs.at(app.name)),
                       app.name);
    // The two IRs differ, so the first check tells them apart.
    EXPECT_GT(app.binary.metadata().sites().size(),
              fat.build(irs.at(app.name)).metadata().sites().size())
        << app.name;
  }
}

TEST(XarCompilerTest, MissingIrThrows) {
  const auto specs = apps::paper_benchmarks();
  const XarCompiler xar;
  auto irs = apps::make_irs(specs);
  irs.erase("cg_a");
  EXPECT_THROW(xar.compile(apps::make_profile_spec(specs), irs,
                           apps::make_kernel_profiles(specs)),
               Error);
}

// --- Size model (Figure 10) -------------------------------------------------

TEST(SizeModelTest, TotalsOrderAsInPaper) {
  const auto specs = apps::paper_benchmarks();
  const XarCompiler xar;
  const auto suite = xar.compile(apps::make_profile_spec(specs),
                                 apps::make_irs(specs),
                                 apps::make_kernel_profiles(specs));
  const hls::XclbinBuilder builder(fpga::alveo_u50_spec());
  for (const auto& app : suite.apps) {
    const auto report = size_report(app, builder);
    // Xar-Trek subsumes both baselines (paper: always largest).
    EXPECT_GT(report.xartrek_total(), report.traditional_fpga_total());
    EXPECT_GT(report.xartrek_total(), report.popcorn_total());
    EXPECT_GT(report.multi_isa_executable, report.x86_executable);
    EXPECT_GT(report.migration_metadata, 0u);
    EXPECT_GT(report.alignment_padding, 0u);
    const double vs_fpga =
        report.increase_over(report.traditional_fpga_total());
    const double vs_popcorn = report.increase_over(report.popcorn_total());
    EXPECT_GT(vs_fpga, 0.0);
    EXPECT_GT(vs_popcorn, 0.0);
    // Within the paper's observed 33%-282% band, loosely.
    EXPECT_LT(vs_fpga, 400.0);
    EXPECT_LT(vs_popcorn, 400.0);
  }
}

TEST(SizeModelTest, CgHasLargestPopcornBinary) {
  // Paper §4.5: Popcorn's binary is largest for CG-A (900 LOC vs
  // 300-500).
  const auto specs = apps::paper_benchmarks();
  const XarCompiler xar;
  const auto suite = xar.compile(apps::make_profile_spec(specs),
                                 apps::make_irs(specs),
                                 apps::make_kernel_profiles(specs));
  const auto* cg = suite.find_app("cg_a");
  ASSERT_NE(cg, nullptr);
  for (const auto& app : suite.apps) {
    if (app.name == "cg_a") continue;
    EXPECT_GE(cg->binary.file_bytes(), app.binary.file_bytes()) << app.name;
  }
}

}  // namespace
}  // namespace xartrek::compiler
