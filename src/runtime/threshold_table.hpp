// The threshold table.
//
// One row per application (paper §3.1, step G output): the hardware
// kernel implementing its selected function, the x86 CPU load above
// which migrating to the FPGA beats staying (FPGA_THR), and the load
// above which migrating to ARM beats staying (ARM_THR).  The table also
// carries the in-isolation execution times of the three scenarios --
// Algorithm 1 compares fresh measurements against them and refines the
// thresholds at run time.
//
// Loads are in the paper's unit: number of resident processes on the
// x86 server.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "runtime/target.hpp"

namespace xartrek::runtime {

/// One application's row.
struct ThresholdEntry {
  std::string app;
  std::string kernel_name;   ///< hardware kernel of the selected function
  int fpga_threshold = 0;    ///< FPGA_THR (x86 load, process count)
  int arm_threshold = 0;     ///< ARM_THR
  /// Reference whole-run execution times per scenario (step G / refined).
  Duration x86_exec = Duration::zero();
  Duration arm_exec = Duration::zero();
  Duration fpga_exec = Duration::zero();

  [[nodiscard]] Duration exec_for(Target t) const {
    switch (t) {
      case Target::kX86:  return x86_exec;
      case Target::kArm:  return arm_exec;
      case Target::kFpga: return fpga_exec;
    }
    return Duration::zero();
  }
  void set_exec(Target t, Duration d) {
    switch (t) {
      case Target::kX86:  x86_exec = d; break;
      case Target::kArm:  arm_exec = d; break;
      case Target::kFpga: fpga_exec = d; break;
    }
  }
};

/// Dense identifier of an interned application name: the index of its
/// row.  Ids are stable for the lifetime of the table (upsert replaces
/// a row in place, never renumbers).
using AppId = std::uint32_t;
inline constexpr AppId kInvalidAppId = 0xFFFF'FFFFu;

/// The shared table.  The scheduler server reads it per request; every
/// application's client updates it on function return.  (In the real
/// system the table crosses a socket; here readers and writers share the
/// object within the simulation's single event loop.)
///
/// Rows live in a dense AppId-indexed vector; the string-keyed edge is
/// a transparent (heterogeneous) index so a caller's `string_view`
/// resolves without materializing a temporary std::string.
/// Components that run per-request should resolve their AppId once and
/// use the id overloads, which are plain vector indexing.
class ThresholdTable {
 public:
  /// Add or replace a row.  Returns the row's (new or existing) id.
  AppId upsert(ThresholdEntry entry);

  /// Interned fast path: O(1) vector indexing, no string compares.
  [[nodiscard]] AppId id_of(std::string_view app) const {
    const auto it = index_.find(app);
    return it == index_.end() ? kInvalidAppId : it->second;
  }
  [[nodiscard]] const ThresholdEntry& at(AppId id) const {
    XAR_EXPECTS(id < entries_.size());
    return entries_[id];
  }
  [[nodiscard]] ThresholdEntry& at_mutable(AppId id) {
    XAR_EXPECTS(id < entries_.size());
    return entries_[id];
  }

  /// String-keyed edge (accepts std::string, string_view, literals).
  [[nodiscard]] bool contains(std::string_view app) const {
    return index_.find(app) != index_.end();
  }
  [[nodiscard]] const ThresholdEntry& at(std::string_view app) const;
  [[nodiscard]] ThresholdEntry& at_mutable(std::string_view app);

  /// All rows, in insertion (AppId) order -- iterate this instead of
  /// materializing a name list and re-looking each name up.
  [[nodiscard]] std::span<const ThresholdEntry> entries() const {
    return entries_;
  }

  /// Names in sorted order (diagnostics and the text serializer, which
  /// needs a deterministic order independent of insertion history).
  [[nodiscard]] std::vector<std::string> app_names() const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::vector<ThresholdEntry> entries_;              ///< AppId-indexed rows
  std::map<std::string, AppId, std::less<>> index_;  ///< transparent lookup
};

}  // namespace xartrek::runtime
