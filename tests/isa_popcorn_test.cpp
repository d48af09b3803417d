// Tests for the heterogeneous-ISA substrate: ISA descriptions, symbol
// alignment, machine state, cross-ISA state transformation, and the
// multi-ISA binary model.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "isa/isa.hpp"
#include "isa/symbol.hpp"
#include "popcorn/machine_state.hpp"
#include "popcorn/metadata.hpp"
#include "popcorn/multi_isa_binary.hpp"
#include "popcorn/state_transform.hpp"

namespace xartrek {
namespace {

using isa::IsaKind;
using popcorn::ValueLocation;
using popcorn::ValueType;

TEST(IsaTest, RegisterFiles) {
  const auto& x86 = isa::x86_64_info();
  EXPECT_TRUE(x86.has_register("rax"));
  EXPECT_TRUE(x86.has_register("r15"));
  EXPECT_FALSE(x86.has_register("x0"));
  EXPECT_TRUE(x86.is_callee_saved("rbx"));
  EXPECT_FALSE(x86.is_callee_saved("rax"));

  const auto& arm = isa::aarch64_info();
  EXPECT_TRUE(arm.has_register("x0"));
  EXPECT_TRUE(arm.has_register("x30"));
  EXPECT_TRUE(arm.has_register("sp"));
  EXPECT_TRUE(arm.is_callee_saved("x19"));
  EXPECT_FALSE(arm.is_callee_saved("x0"));
}

TEST(IsaTest, CallingConventions) {
  EXPECT_EQ(isa::x86_64_info().cc.integer_arg_regs.size(), 6u);
  EXPECT_EQ(isa::aarch64_info().cc.integer_arg_regs.size(), 8u);
  EXPECT_EQ(isa::x86_64_info().cc.integer_ret_reg, "rax");
  EXPECT_EQ(isa::aarch64_info().cc.integer_ret_reg, "x0");
  EXPECT_TRUE(isa::x86_64_info().cc.link_register.empty());
  EXPECT_EQ(isa::aarch64_info().cc.link_register, "x30");
}

TEST(IsaTest, CodeDensityDiffers) {
  // The RISC target emits more bytes per IR op -- the root of multi-ISA
  // alignment padding.
  EXPECT_LT(isa::x86_64_info().code_bytes_per_op,
            isa::aarch64_info().code_bytes_per_op);
}

// --- Symbol alignment --------------------------------------------------

isa::Symbol sym(const std::string& name, isa::Section sec,
                std::uint64_t x86_size, std::uint64_t arm_size,
                std::uint64_t align = 16) {
  isa::Symbol s;
  s.name = name;
  s.section = sec;
  s.alignment = align;
  s.size_by_isa[IsaKind::kX86_64] = x86_size;
  s.size_by_isa[IsaKind::kAarch64] = arm_size;
  return s;
}

TEST(SymbolAlignTest, IdenticalAddressesAcrossIsas) {
  const std::vector<isa::Symbol> symbols = {
      sym("main", isa::Section::kText, 100, 130),
      sym("kernel", isa::Section::kText, 400, 470),
      sym("table", isa::Section::kData, 64, 64),
  };
  const auto layout = isa::align_symbols(symbols, isa::all_isas());
  // One address per symbol -- valid for every ISA by construction.
  EXPECT_EQ(layout.vaddr_of.size(), 3u);
  EXPECT_EQ(layout.address_of("main") % 16, 0u);
  EXPECT_EQ(layout.address_of("kernel") % 16, 0u);
  // Padding charged to the denser ISA (x86 images are smaller).
  EXPECT_GT(layout.padding_bytes.at(IsaKind::kX86_64),
            layout.padding_bytes.at(IsaKind::kAarch64));
}

TEST(SymbolAlignTest, SectionOrderTextBeforeData) {
  const std::vector<isa::Symbol> symbols = {
      sym("globals", isa::Section::kData, 64, 64),
      sym("main", isa::Section::kText, 100, 100),
  };
  const auto layout = isa::align_symbols(symbols, isa::all_isas());
  EXPECT_LT(layout.address_of("main"), layout.address_of("globals"));
}

TEST(SymbolAlignTest, RejectsDuplicatesAndBadAlignment) {
  std::vector<isa::Symbol> dup = {
      sym("a", isa::Section::kText, 10, 10),
      sym("a", isa::Section::kText, 20, 20),
  };
  EXPECT_THROW(isa::align_symbols(dup, isa::all_isas()), Error);
  std::vector<isa::Symbol> bad = {sym("b", isa::Section::kText, 10, 10, 3)};
  EXPECT_THROW(isa::align_symbols(bad, isa::all_isas()), Error);
}

// Property: no two symbols overlap, addresses respect alignment, and the
// window reserved for each symbol covers its largest per-ISA size.
class SymbolAlignPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SymbolAlignPropertyTest, NonOverlappingAlignedWindows) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<isa::Symbol> symbols;
  const isa::Section sections[] = {isa::Section::kText,
                                   isa::Section::kRodata,
                                   isa::Section::kData, isa::Section::kBss};
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t align = 1ull << rng.uniform_int(0, 6);
    symbols.push_back(sym("s" + std::to_string(i),
                          sections[rng.pick_index(4)],
                          static_cast<std::uint64_t>(rng.uniform_int(1, 4096)),
                          static_cast<std::uint64_t>(rng.uniform_int(1, 4096)),
                          align));
  }
  const auto layout = isa::align_symbols(symbols, isa::all_isas());

  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
  for (const auto& s : symbols) {
    const std::uint64_t addr = layout.address_of(s.name);
    EXPECT_EQ(addr % s.alignment, 0u) << s.name;
    windows.emplace_back(addr, addr + s.max_size());
  }
  std::sort(windows.begin(), windows.end());
  for (std::size_t i = 1; i < windows.size(); ++i) {
    EXPECT_LE(windows[i - 1].second, windows[i].first) << "overlap at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolAlignPropertyTest,
                         ::testing::Range(1, 9));

// --- Machine state -----------------------------------------------------

TEST(MachineStateTest, RegisterReadWrite) {
  popcorn::MachineState st(IsaKind::kX86_64, "f", 0, 64);
  st.write_register("rdi", 0xDEADBEEF);
  EXPECT_EQ(st.read_register("rdi"), 0xDEADBEEFu);
  EXPECT_EQ(st.read_register("rsi"), 0u);  // never written -> 0
  EXPECT_THROW(st.write_register("x0", 1), Error);  // wrong ISA
  EXPECT_THROW((void)st.read_register("x5"), Error);
}

TEST(MachineStateTest, StackLittleEndianRoundTrip) {
  popcorn::MachineState st(IsaKind::kAarch64, "f", 0, 32);
  st.write_stack(8, 8, 0x0102030405060708ull);
  EXPECT_EQ(st.read_stack(8, 8), 0x0102030405060708ull);
  EXPECT_EQ(st.read_stack(8, 1), 0x08u);   // low byte first
  EXPECT_EQ(st.read_stack(15, 1), 0x01u);  // high byte last
  EXPECT_THROW((void)st.read_stack(30, 8), Error);  // past frame end
}

TEST(MachineStateTest, TypeMasking) {
  EXPECT_EQ(popcorn::mask_to_type(0xFFFF'FFFF'FFFF'FFFFull, ValueType::kI8),
            0xFFull);
  EXPECT_EQ(popcorn::mask_to_type(0x1234'5678'9ABC'DEF0ull, ValueType::kI32),
            0x9ABC'DEF0ull);
  EXPECT_EQ(popcorn::mask_to_type(0x1234'5678'9ABC'DEF0ull, ValueType::kPtr),
            0x1234'5678'9ABC'DEF0ull);
}

// --- State transformation ----------------------------------------------

popcorn::MigrationMetadata one_site_metadata() {
  popcorn::CallSiteMetadata site;
  site.function = "hot";
  site.site_id = 1;
  site.frame_size[IsaKind::kX86_64] = 96;
  site.frame_size[IsaKind::kAarch64] = 112;

  popcorn::LiveValue a;
  a.name = "a";
  a.type = ValueType::kI64;
  a.location[IsaKind::kX86_64] = ValueLocation::in_register("rdi");
  a.location[IsaKind::kAarch64] = ValueLocation::in_register("x0");
  site.live_values.push_back(a);

  popcorn::LiveValue b;
  b.name = "b";
  b.type = ValueType::kF64;
  b.location[IsaKind::kX86_64] = ValueLocation::on_stack(16);
  b.location[IsaKind::kAarch64] = ValueLocation::on_stack(24);
  site.live_values.push_back(b);

  popcorn::LiveValue c;
  c.name = "c";
  c.type = ValueType::kI32;
  c.location[IsaKind::kX86_64] = ValueLocation::on_stack(40);
  c.location[IsaKind::kAarch64] = ValueLocation::in_register("x7");
  site.live_values.push_back(c);

  popcorn::MigrationMetadata md;
  md.add_site(site);
  return md;
}

TEST(StateTransformTest, ValuesRelocateAcrossFormats) {
  const auto md = one_site_metadata();
  const popcorn::StateTransformer transformer(md);

  popcorn::MachineState x86(IsaKind::kX86_64, "hot", 1, 96);
  x86.write_register("rdi", 42);
  x86.write_stack(16, 8, 0x400921FB54442D18ull);  // pi as raw f64 bits
  x86.write_stack(40, 4, 1234);

  const auto arm = transformer.transform(x86, IsaKind::kAarch64);
  EXPECT_EQ(arm.isa(), IsaKind::kAarch64);
  EXPECT_EQ(arm.frame_size(), 112u);
  EXPECT_EQ(arm.read_register("x0"), 42u);
  EXPECT_EQ(arm.read_stack(24, 8), 0x400921FB54442D18ull);
  EXPECT_EQ(arm.read_register("x7"), 1234u);
  // ABI anchors established.
  EXPECT_NE(arm.read_register("sp"), 0u);
  EXPECT_NE(arm.read_register("x29"), 0u);
}

TEST(StateTransformTest, RoundTripPreservesLiveValues) {
  const auto md = one_site_metadata();
  const popcorn::StateTransformer transformer(md);

  popcorn::MachineState x86(IsaKind::kX86_64, "hot", 1, 96);
  x86.write_register("rdi", 777);
  x86.write_stack(16, 8, 0xCAFEBABE12345678ull);
  x86.write_stack(40, 4, 99);

  const auto arm = transformer.transform(x86, IsaKind::kAarch64);
  const auto back = transformer.transform(arm, IsaKind::kX86_64);
  EXPECT_EQ(back.read_register("rdi"), 777u);
  EXPECT_EQ(back.read_stack(16, 8), 0xCAFEBABE12345678ull);
  EXPECT_EQ(back.read_stack(40, 4), 99u);
}

TEST(StateTransformTest, UnknownSiteThrows) {
  const auto md = one_site_metadata();
  const popcorn::StateTransformer transformer(md);
  popcorn::MachineState st(IsaKind::kX86_64, "unknown_fn", 7, 64);
  EXPECT_THROW(transformer.transform(st, IsaKind::kAarch64), Error);
}

TEST(StateTransformTest, CostGrowsWithLiveValues) {
  popcorn::MigrationMetadata small_md;
  popcorn::CallSiteMetadata small;
  small.function = "f";
  small.site_id = 0;
  small.frame_size[IsaKind::kX86_64] = 32;
  small.frame_size[IsaKind::kAarch64] = 32;
  small_md.add_site(small);

  popcorn::MigrationMetadata big_md;
  popcorn::CallSiteMetadata big = small;
  for (int i = 0; i < 50; ++i) {
    popcorn::LiveValue v;
    v.name = "v" + std::to_string(i);
    v.type = ValueType::kI64;
    v.location[IsaKind::kX86_64] = ValueLocation::on_stack(0);
    v.location[IsaKind::kAarch64] = ValueLocation::on_stack(0);
    big.live_values.push_back(v);
  }
  big_md.add_site(big);

  popcorn::MachineState st_small(IsaKind::kX86_64, "f", 0, 32);
  popcorn::MachineState st_big(IsaKind::kX86_64, "f", 0, 32);
  EXPECT_LT(popcorn::StateTransformer(small_md).transform_cost(st_small),
            popcorn::StateTransformer(big_md).transform_cost(st_big));
}

// Property: every primitive type survives a round trip through both
// frame formats at several frame offsets.
class TransformTypeTest : public ::testing::TestWithParam<ValueType> {};

TEST_P(TransformTypeTest, RoundTripByType) {
  const ValueType type = GetParam();
  popcorn::CallSiteMetadata site;
  site.function = "g";
  site.site_id = 0;
  site.frame_size[IsaKind::kX86_64] = 64;
  site.frame_size[IsaKind::kAarch64] = 80;
  popcorn::LiveValue v;
  v.name = "v";
  v.type = type;
  v.location[IsaKind::kX86_64] = ValueLocation::on_stack(8);
  v.location[IsaKind::kAarch64] = ValueLocation::on_stack(48);
  site.live_values.push_back(v);
  popcorn::MigrationMetadata md;
  md.add_site(site);
  const popcorn::StateTransformer transformer(md);

  popcorn::MachineState x86(IsaKind::kX86_64, "g", 0, 64);
  const std::uint64_t pattern = 0xA5A5'5A5A'C3C3'3C3Cull;
  const std::uint64_t expect = popcorn::mask_to_type(pattern, type);
  x86.write_stack(8, popcorn::size_of(type), expect);

  const auto arm = transformer.transform(x86, IsaKind::kAarch64);
  EXPECT_EQ(arm.read_stack(48, popcorn::size_of(type)), expect);
  const auto back = transformer.transform(arm, IsaKind::kX86_64);
  EXPECT_EQ(back.read_stack(8, popcorn::size_of(type)), expect);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, TransformTypeTest,
                         ::testing::Values(ValueType::kI8, ValueType::kI16,
                                           ValueType::kI32, ValueType::kI64,
                                           ValueType::kF32, ValueType::kF64,
                                           ValueType::kPtr));

// --- Metadata ----------------------------------------------------------

TEST(MetadataTest, FindAndDuplicateRejection) {
  auto md = one_site_metadata();
  EXPECT_NE(md.find("hot", 1), nullptr);
  EXPECT_EQ(md.find("hot", 2), nullptr);
  EXPECT_EQ(md.find("cold", 1), nullptr);
  popcorn::CallSiteMetadata dup;
  dup.function = "hot";
  dup.site_id = 1;
  EXPECT_THROW(md.add_site(dup), ContractViolation);
}

TEST(MetadataTest, EncodedSizeScalesWithContent) {
  const auto md = one_site_metadata();
  // 1 site header (32) + 3 values x 2 ISA locations x 16 bytes.
  EXPECT_EQ(md.encoded_size_bytes(), 32u + 3 * 2 * 16);
}

// --- Multi-ISA binary ---------------------------------------------------

TEST(MultiIsaBinaryTest, FatBinaryBiggerThanSingleIsa) {
  std::map<IsaKind, popcorn::SectionSizes> sections;
  sections[IsaKind::kX86_64] = {100'000, 10'000, 5'000, 2'000};
  sections[IsaKind::kAarch64] = {118'000, 10'000, 5'000, 2'000};
  const auto layout = isa::align_symbols(
      {sym("blob", isa::Section::kText, 100'000, 118'000)}, isa::all_isas());
  popcorn::MultiIsaBinary fat("app", isa::all_isas(), sections, layout,
                              one_site_metadata());
  EXPECT_GT(fat.file_bytes(), fat.single_isa_file_bytes(IsaKind::kX86_64));
  EXPECT_GT(fat.file_bytes(),
            fat.image_file_bytes(IsaKind::kX86_64) +
                fat.image_file_bytes(IsaKind::kAarch64));  // ELF overhead
  // bss costs no file space.
  EXPECT_EQ(fat.sections_for(IsaKind::kX86_64).file_bytes(), 115'000u);
}

}  // namespace
}  // namespace xartrek
