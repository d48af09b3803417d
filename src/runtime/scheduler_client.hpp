// The scheduler client -- dynamic threshold update (paper Algorithm 1).
//
// An instance is linked into every application binary; it runs after the
// selected function returns, compares the observed execution time and
// x86 CPU load against the threshold table, and refines the thresholds:
//
//   * executed on x86, slower than the stored FPGA time while the load
//     was *below* FPGA_THR  -> lower FPGA_THR to this load;
//   * else, slower than the stored ARM time below ARM_THR -> lower
//     ARM_THR;
//   * else -> just record the fresh x86 time;
//   * executed on ARM and slower than the stored x86 time -> raise
//     ARM_THR (the migration was not worth it);
//   * executed on FPGA and slower than the stored x86 time -> raise
//     FPGA_THR.
//
// The paper does not specify the "increase" step; we raise by one
// process (the load metric's granularity), up to a sanity cap.
#pragma once

#include <string>

#include "common/log.hpp"
#include "common/time.hpp"
#include "runtime/target.hpp"
#include "runtime/threshold_table.hpp"

namespace xartrek::runtime {

/// What Algorithm 1 did with one observation (tests/diagnostics).
enum class ThresholdUpdate {
  kLoweredFpgaThreshold,
  kLoweredArmThreshold,
  kRecordedX86Exec,
  kRaisedArmThreshold,
  kRaisedFpgaThreshold,
  kRecordedOnly,
  kDisabled,
};

[[nodiscard]] constexpr const char* to_string(ThresholdUpdate u) {
  switch (u) {
    case ThresholdUpdate::kLoweredFpgaThreshold: return "FPGA_THR lowered";
    case ThresholdUpdate::kLoweredArmThreshold:  return "ARM_THR lowered";
    case ThresholdUpdate::kRecordedX86Exec:      return "x86exec recorded";
    case ThresholdUpdate::kRaisedArmThreshold:   return "ARM_THR raised";
    case ThresholdUpdate::kRaisedFpgaThreshold:  return "FPGA_THR raised";
    case ThresholdUpdate::kRecordedOnly:         return "recorded only";
    case ThresholdUpdate::kDisabled:             return "refinement off";
  }
  return "?";
}

/// One completed run, as the client sees it.
struct RunObservation {
  std::string app;
  Target executed_on = Target::kX86;
  Duration exec_time = Duration::zero();
  int x86_load = 0;  ///< load recorded alongside (Algorithm 1 line 2)
};

/// The client.
class SchedulerClient {
 public:
  struct Options {
    bool refinement_enabled = true;  ///< ablation switch
  };

  explicit SchedulerClient(ThresholdTable& table)
      : SchedulerClient(table, Options(), Logger{}) {}
  SchedulerClient(ThresholdTable& table, Options opts, Logger log = {});

  /// Algorithm 1.  Requires the table to have a row for the app.
  ThresholdUpdate on_function_return(const RunObservation& obs);

 private:
  /// Intern `app` against the table (memoized; throws if unknown).
  [[nodiscard]] AppId resolve(const std::string& app);

  ThresholdTable& table_;
  Options opts_;
  Logger log_;
  std::string cached_app_;
  AppId cached_id_ = kInvalidAppId;
};

}  // namespace xartrek::runtime
