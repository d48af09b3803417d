// ISA descriptions for the multi-ISA substrate.
//
// The multi-ISA compiler needs, for each ISA, the registers that carry
// integer arguments (the migration-point metadata places live values
// there) and the code density that sizes each ISA's image (paper
// Figure 10).  Two ISAs are modelled -- the two in the paper's testbed
// -- but everything is table-driven so adding RISC-V is a data change.
#pragma once

#include <string>
#include <vector>

namespace xartrek::isa {

enum class IsaKind { kX86_64, kAarch64 };

[[nodiscard]] constexpr const char* to_string(IsaKind k) {
  switch (k) {
    case IsaKind::kX86_64:  return "x86-64";
    case IsaKind::kAarch64: return "aarch64";
  }
  return "?";
}

/// All ISAs known to the library, in canonical order.
[[nodiscard]] std::vector<IsaKind> all_isas();

/// Calling convention facts: which registers carry integer arguments.
struct CallingConvention {
  std::vector<std::string> integer_arg_regs;
};

/// A complete ISA description.
struct IsaInfo {
  IsaKind kind;
  CallingConvention cc;

  /// Average encoded bytes per abstract IR operation; drives the
  /// multi-ISA binary size model (paper Figure 10).
  double code_bytes_per_op = 4.0;
};

/// Description of the System V x86-64 ABI subset Xar-Trek needs.
[[nodiscard]] const IsaInfo& x86_64_info();

/// Description of the AAPCS64 subset.
[[nodiscard]] const IsaInfo& aarch64_info();

/// Lookup by kind.
[[nodiscard]] const IsaInfo& info_for(IsaKind kind);

}  // namespace xartrek::isa
