#include "popcorn/machine_state.hpp"

#include <utility>

#include "common/assert.hpp"

namespace xartrek::popcorn {

MachineState::MachineState(isa::IsaKind isa, std::string function,
                           int site_id, std::uint64_t frame_size)
    : isa_(isa),
      function_(std::move(function)),
      site_id_(site_id),
      frame_(frame_size, std::byte{0}) {}

std::uint64_t MachineState::read_register(const std::string& name) const {
  if (!isa::info_for(isa_).has_register(name)) {
    throw Error("register `" + name + "` does not exist on " +
                isa::to_string(isa_));
  }
  auto it = regs_.find(name);
  return it == regs_.end() ? 0 : it->second;
}

void MachineState::write_register(const std::string& name,
                                  std::uint64_t value) {
  if (!isa::info_for(isa_).has_register(name)) {
    throw Error("register `" + name + "` does not exist on " +
                isa::to_string(isa_));
  }
  regs_[name] = value;
}

std::uint64_t MachineState::read_stack(std::uint64_t offset,
                                       unsigned size) const {
  XAR_EXPECTS(size >= 1 && size <= 8);
  if (offset + size > frame_.size()) {
    throw Error("stack read past frame end in " + function_);
  }
  std::uint64_t v = 0;
  for (unsigned i = 0; i < size; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(
             frame_[offset + i]))
         << (8 * i);
  }
  return v;
}

void MachineState::write_stack(std::uint64_t offset, unsigned size,
                               std::uint64_t value) {
  XAR_EXPECTS(size >= 1 && size <= 8);
  if (offset + size > frame_.size()) {
    throw Error("stack write past frame end in " + function_);
  }
  for (unsigned i = 0; i < size; ++i) {
    frame_[offset + i] =
        static_cast<std::byte>((value >> (8 * i)) & 0xFFu);
  }
}

std::uint64_t MachineState::read_value(const ValueLocation& loc,
                                       ValueType type) const {
  const std::uint64_t raw =
      loc.kind == ValueLocation::Kind::kRegister
          ? read_register(loc.reg)
          : read_stack(loc.offset, size_of(type));
  return mask_to_type(raw, type);
}

void MachineState::write_value(const ValueLocation& loc, ValueType type,
                               std::uint64_t raw) {
  const std::uint64_t masked = mask_to_type(raw, type);
  if (loc.kind == ValueLocation::Kind::kRegister) {
    write_register(loc.reg, masked);
  } else {
    write_stack(loc.offset, size_of(type), masked);
  }
}

std::uint64_t mask_to_type(std::uint64_t raw, ValueType type) {
  switch (size_of(type)) {
    case 1: return raw & 0xFFu;
    case 2: return raw & 0xFFFFu;
    case 4: return raw & 0xFFFF'FFFFu;
    default: return raw;
  }
}

void ThreadStack::push_frame(MachineState frame) {
  XAR_EXPECTS(frame.isa() == isa_);
  frames_.push_back(std::move(frame));
}

const MachineState& ThreadStack::top() const {
  XAR_EXPECTS(!frames_.empty());
  return frames_.back();
}

std::uint64_t ThreadStack::total_frame_bytes() const {
  std::uint64_t total = 0;
  for (const auto& f : frames_) total += f.frame_size();
  return total;
}

}  // namespace xartrek::popcorn
