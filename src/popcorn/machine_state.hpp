// A thread's ISA-specific dynamic state at a migration point.
//
// The state transformer reads live values out of one MachineState and
// writes them into a freshly laid-out one for the destination ISA.  The
// program counter is kept symbolic -- (function, site_id) -- because
// multi-ISA binaries align symbols at identical virtual addresses, so a
// migration point's identity is ISA-independent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/isa.hpp"
#include "popcorn/metadata.hpp"

namespace xartrek::popcorn {

/// Register file + active frame of one thread, in one ISA's format.
class MachineState {
 public:
  MachineState(isa::IsaKind isa, std::string function, int site_id,
               std::uint64_t frame_size);

  [[nodiscard]] isa::IsaKind isa() const { return isa_; }
  [[nodiscard]] const std::string& function() const { return function_; }
  [[nodiscard]] int site_id() const { return site_id_; }
  [[nodiscard]] std::uint64_t frame_size() const { return frame_.size(); }

  /// Read / write a register (raw 64-bit).  The register must exist in
  /// this state's ISA; reads of never-written registers return 0.
  [[nodiscard]] std::uint64_t read_register(const std::string& name) const;
  void write_register(const std::string& name, std::uint64_t value);

  /// Read / write `size` bytes at a frame offset (little-endian raw).
  /// Requires offset + size <= frame_size().
  [[nodiscard]] std::uint64_t read_stack(std::uint64_t offset,
                                         unsigned size) const;
  void write_stack(std::uint64_t offset, unsigned size, std::uint64_t value);

  /// Read / write a value at a metadata-described location, masked to the
  /// value type's width.
  [[nodiscard]] std::uint64_t read_value(const ValueLocation& loc,
                                         ValueType type) const;
  void write_value(const ValueLocation& loc, ValueType type,
                   std::uint64_t raw);

  /// All registers that have been written (tests / diagnostics).
  [[nodiscard]] const std::map<std::string, std::uint64_t>& registers() const {
    return regs_;
  }

 private:
  isa::IsaKind isa_;
  std::string function_;
  int site_id_;
  std::map<std::string, std::uint64_t> regs_;
  std::vector<std::byte> frame_;  ///< frame_[0] is the lowest address
};

/// Mask `raw` to the width of `type` (no-op for 8-byte types).
[[nodiscard]] std::uint64_t mask_to_type(std::uint64_t raw, ValueType type);

/// A thread's whole call stack at a migration point: one MachineState
/// per activation record, outermost (main) first.  Real Popcorn rewrites
/// *every* frame, not just the innermost -- each frame's saved live
/// values must land at its destination-ISA locations so that returns
/// unwind correctly after migration.
class ThreadStack {
 public:
  explicit ThreadStack(isa::IsaKind isa) : isa_(isa) {}

  [[nodiscard]] isa::IsaKind isa() const { return isa_; }
  [[nodiscard]] std::size_t depth() const { return frames_.size(); }
  [[nodiscard]] bool empty() const { return frames_.empty(); }

  /// Push the next-inner activation record.  Its ISA must match.
  void push_frame(MachineState frame);

  /// frames()[0] is the outermost; back() the active frame.
  [[nodiscard]] const std::vector<MachineState>& frames() const {
    return frames_;
  }
  [[nodiscard]] const MachineState& top() const;

  /// Total stack bytes across all frames (transfer-size accounting).
  [[nodiscard]] std::uint64_t total_frame_bytes() const;

 private:
  isa::IsaKind isa_;
  std::vector<MachineState> frames_;
};

}  // namespace xartrek::popcorn
