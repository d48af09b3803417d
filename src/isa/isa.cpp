#include "isa/isa.hpp"

#include "common/assert.hpp"

namespace xartrek::isa {

std::vector<IsaKind> all_isas() {
  return {IsaKind::kX86_64, IsaKind::kAarch64};
}

bool IsaInfo::has_register(const std::string& name) const {
  for (const auto& r : general_regs) {
    if (r.name == name) return true;
  }
  return false;
}

bool IsaInfo::is_callee_saved(const std::string& name) const {
  for (const auto& r : general_regs) {
    if (r.name == name) return r.callee_saved;
  }
  return false;
}

const IsaInfo& x86_64_info() {
  static const IsaInfo info = [] {
    IsaInfo i;
    i.kind = IsaKind::kX86_64;
    i.general_regs = {
        {"rax", false}, {"rbx", true},  {"rcx", false}, {"rdx", false},
        {"rsi", false}, {"rdi", false}, {"rbp", true},  {"rsp", true},
        {"r8", false},  {"r9", false},  {"r10", false}, {"r11", false},
        {"r12", true},  {"r13", true},  {"r14", true},  {"r15", true},
    };
    i.cc.integer_arg_regs = {"rdi", "rsi", "rdx", "rcx", "r8", "r9"};
    i.cc.integer_ret_reg = "rax";
    i.cc.stack_pointer = "rsp";
    i.cc.frame_pointer = "rbp";
    i.cc.link_register = "";  // return address pushed on the stack
    i.layout.red_zone_bytes = 128;
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
    i.general_regs.reserve(33);
    for (int r = 0; r <= 28; ++r) {
      // x19..x28 are callee-saved under AAPCS64.
      i.general_regs.push_back(
          Register{std::string("x") + std::to_string(r), r >= 19 && r <= 28});
    }
    i.general_regs.push_back(Register{"x29", true});   // frame pointer
    i.general_regs.push_back(Register{"x30", false});  // link register
    i.general_regs.push_back(Register{"sp", true});
    i.cc.integer_arg_regs = {"x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"};
    i.cc.integer_ret_reg = "x0";
    i.cc.stack_pointer = "sp";
    i.cc.frame_pointer = "x29";
    i.cc.link_register = "x30";
    i.layout.red_zone_bytes = 0;
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
