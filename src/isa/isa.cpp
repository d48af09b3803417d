#include "isa/isa.hpp"

#include "common/assert.hpp"

namespace xartrek::isa {

std::vector<IsaKind> all_isas() {
  return {IsaKind::kX86_64, IsaKind::kAarch64};
}

const IsaInfo& x86_64_info() {
  static const IsaInfo info = [] {
    IsaInfo i;
    i.kind = IsaKind::kX86_64;
    i.cc.integer_arg_regs = {"rdi", "rsi", "rdx", "rcx", "r8", "r9"};
    // x86-64 is a CISC encoding: fewer, denser instructions per IR op.
    i.code_bytes_per_op = 3.8;
    return i;
  }();
  return info;
}

const IsaInfo& aarch64_info() {
  static const IsaInfo info = [] {
    IsaInfo i;
    i.kind = IsaKind::kAarch64;
    i.cc.integer_arg_regs = {"x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"};
    // Fixed 4-byte encoding, and RISC lowering emits ~18% more
    // instructions for the same IR.
    i.code_bytes_per_op = 4.0 * 1.18;
    return i;
  }();
  return info;
}

const IsaInfo& info_for(IsaKind kind) {
  switch (kind) {
    case IsaKind::kX86_64:  return x86_64_info();
    case IsaKind::kAarch64: return aarch64_info();
  }
  XAR_ASSERT(false);
}

}  // namespace xartrek::isa
