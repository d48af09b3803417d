// Threshold-table text format.
//
// Step G "outputs a table that describes, for each application, 1) the
// application name, 2) the hardware kernel of the application's
// function, 3) the FPGA threshold, and 4) the ARM threshold" (§3.1).
// This module defines that artifact: a line-oriented text file that the
// run-time loads at startup and that operators can inspect and edit.
// The scenario reference times ride along because Algorithm 1 needs
// them.  Each record is one line (wrapped here to fit):
//
//   # xar-trek threshold table
//   app cg_a kernel KNL_HW_CG_A fpga_thr 29 arm_thr 23
//       x86_ms 2182.0 arm_ms 8406.0 fpga_ms 10597.8
#pragma once

#include <iosfwd>
#include <string>

#include "runtime/threshold_table.hpp"

namespace xartrek::runtime {

/// Render the table in the step-G text format (round-trips via parse).
[[nodiscard]] std::string serialize_threshold_table(
    const ThresholdTable& table);

/// Parse the text format; throws xartrek::Error with a line number on
/// malformed input (unknown keys, missing fields, duplicate apps).
[[nodiscard]] ThresholdTable parse_threshold_table(std::istream& is);
[[nodiscard]] ThresholdTable parse_threshold_table_string(
    const std::string& text);

}  // namespace xartrek::runtime
