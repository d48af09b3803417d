// Tests for the heterogeneous-ISA substrate: ISA descriptions, symbol
// alignment, migration metadata, and the multi-ISA binary model.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "isa/isa.hpp"
#include "isa/symbol.hpp"
#include "popcorn/metadata.hpp"
#include "popcorn/multi_isa_binary.hpp"

namespace xartrek {
namespace {

using isa::IsaKind;
using popcorn::ValueLocation;
using popcorn::ValueType;

TEST(IsaTest, CallingConventions) {
  EXPECT_EQ(isa::x86_64_info().cc.integer_arg_regs.size(), 6u);
  EXPECT_EQ(isa::aarch64_info().cc.integer_arg_regs.size(), 8u);
  EXPECT_EQ(isa::x86_64_info().cc.integer_arg_regs.front(), "rdi");
  EXPECT_EQ(isa::aarch64_info().cc.integer_arg_regs.front(), "x0");
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

// --- Metadata ----------------------------------------------------------

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
