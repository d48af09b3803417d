// Migration-point metadata.
//
// The multi-ISA compiler emits, for every migration point (a call site
// where program state is provably equivalent across ISAs), the set of
// live values together with each value's location *per ISA* -- a register
// or a stack slot -- and the frame size per ISA.  Popcorn's run-time
// state transformer consumes this to re-materialize a thread's state in
// the destination ISA's format (paper §2, "Heterogeneous-ISA
// Platforms").  Here the table is built and sized: MultiIsaBinary counts
// its encoded bytes in the multi-ISA binary (Figure 10), while each
// migration charges its transform as a per-benchmark constant.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "isa/isa.hpp"

namespace xartrek::popcorn {

/// Primitive value types tracked by the liveness pass (the migrate-able
/// subset: Xar-Trek is limited to C, so no non-POD types appear).
enum class ValueType { kI8, kI16, kI32, kI64, kF32, kF64, kPtr };

[[nodiscard]] constexpr unsigned size_of(ValueType t) {
  switch (t) {
    case ValueType::kI8:  return 1;
    case ValueType::kI16: return 2;
    case ValueType::kI32: return 4;
    case ValueType::kF32: return 4;
    case ValueType::kI64: return 8;
    case ValueType::kF64: return 8;
    case ValueType::kPtr: return 8;
  }
  return 0;
}

[[nodiscard]] constexpr const char* to_string(ValueType t) {
  switch (t) {
    case ValueType::kI8:  return "i8";
    case ValueType::kI16: return "i16";
    case ValueType::kI32: return "i32";
    case ValueType::kI64: return "i64";
    case ValueType::kF32: return "f32";
    case ValueType::kF64: return "f64";
    case ValueType::kPtr: return "ptr";
  }
  return "?";
}

/// Where a live value resides at a migration point for one ISA.
struct ValueLocation {
  enum class Kind { kRegister, kStackSlot };
  Kind kind = Kind::kStackSlot;
  std::string reg;          ///< valid when kind == kRegister
  std::uint64_t offset = 0; ///< byte offset from the frame base
                            ///< (lowest address), when kind == kStackSlot

  [[nodiscard]] static ValueLocation in_register(std::string name) {
    return ValueLocation{Kind::kRegister, std::move(name), 0};
  }
  [[nodiscard]] static ValueLocation on_stack(std::uint64_t offset) {
    return ValueLocation{Kind::kStackSlot, {}, offset};
  }
};

/// One live value with its per-ISA locations.
struct LiveValue {
  std::string name;
  ValueType type = ValueType::kI64;
  std::map<isa::IsaKind, ValueLocation> location;
};

/// Everything a state transformer needs about one migration point.
struct CallSiteMetadata {
  std::string function;
  int site_id = 0;
  std::vector<LiveValue> live_values;
  std::map<isa::IsaKind, std::uint64_t> frame_size;
};

/// The per-binary migration metadata table (one entry per migration
/// point), plus an encoded-size model for the binary-size accounting.
class MigrationMetadata {
 public:
  void add_site(CallSiteMetadata site);

  /// Find the metadata for (function, site), or nullptr.
  [[nodiscard]] const CallSiteMetadata* find(const std::string& function,
                                             int site_id) const;

  [[nodiscard]] const std::vector<CallSiteMetadata>& sites() const {
    return sites_;
  }

  /// Approximate encoded size of the metadata section: per-site header +
  /// per-value records per ISA (mirrors the .llvm_pcn metadata sections
  /// real Popcorn binaries carry).
  [[nodiscard]] std::uint64_t encoded_size_bytes() const;

 private:
  std::vector<CallSiteMetadata> sites_;
};

}  // namespace xartrek::popcorn
