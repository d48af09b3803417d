#include "runtime/scheduler_client.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace xartrek::runtime {

namespace {
/// Processes added to a threshold per "increase": one, the load
/// metric's granularity.
constexpr int kIncreaseStep = 1;
/// Sanity cap on raised thresholds.
constexpr int kThresholdCap = 4096;
}  // namespace

SchedulerClient::SchedulerClient(ThresholdTable& table, Options opts,
                                 Logger log)
    : table_(table), opts_(opts), log_(std::move(log)) {}

AppId SchedulerClient::resolve(const std::string& app) {
  // One client instance serves one application in the paper's design,
  // so a single-entry memo turns the per-return map lookup into a
  // string compare plus a vector index.
  if (cached_id_ == kInvalidAppId || app != cached_app_) {
    const AppId id = table_.id_of(app);
    if (id == kInvalidAppId) {
      throw Error("threshold table has no entry for `" + app + "`");
    }
    cached_app_ = app;
    cached_id_ = id;
  }
  return cached_id_;
}

ThresholdUpdate SchedulerClient::on_function_return(
    const RunObservation& obs) {
  ThresholdEntry& entry = table_.at_mutable(resolve(obs.app));

  if (!opts_.refinement_enabled) {
    return ThresholdUpdate::kDisabled;
  }

  auto raise = [&](int& thr) {
    thr = std::min(thr + kIncreaseStep, kThresholdCap);
  };

  switch (obs.executed_on) {
    case Target::kX86: {
      // Lines 4-5: x86 already loses to the FPGA at a load below the
      // FPGA threshold -- the threshold was too permissive; tighten it.
      if (obs.exec_time > entry.fpga_exec &&
          obs.x86_load < entry.fpga_threshold) {
        entry.fpga_threshold = obs.x86_load;
        log_.debug("client[", obs.app, "]: FPGA_THR -> ", obs.x86_load);
        return ThresholdUpdate::kLoweredFpgaThreshold;
      }
      // Lines 7-8: same reasoning for ARM.
      if (obs.exec_time > entry.arm_exec &&
          obs.x86_load < entry.arm_threshold) {
        entry.arm_threshold = obs.x86_load;
        log_.debug("client[", obs.app, "]: ARM_THR -> ", obs.x86_load);
        return ThresholdUpdate::kLoweredArmThreshold;
      }
      // Line 10: refresh the stored x86 reference time.
      entry.x86_exec = obs.exec_time;
      return ThresholdUpdate::kRecordedX86Exec;
    }
    case Target::kArm: {
      // Lines 14-17.  Record the fresh ARM time (line 1), then loosen
      // the threshold if the migration did not pay off.
      const Duration measured = obs.exec_time;
      entry.arm_exec = measured;
      if (measured > entry.x86_exec) {
        raise(entry.arm_threshold);
        log_.debug("client[", obs.app, "]: ARM_THR raised to ",
                   entry.arm_threshold);
        return ThresholdUpdate::kRaisedArmThreshold;
      }
      return ThresholdUpdate::kRecordedOnly;
    }
    case Target::kFpga: {
      // Lines 19-23.
      const Duration measured = obs.exec_time;
      entry.fpga_exec = measured;
      if (measured > entry.x86_exec) {
        raise(entry.fpga_threshold);
        log_.debug("client[", obs.app, "]: FPGA_THR raised to ",
                   entry.fpga_threshold);
        return ThresholdUpdate::kRaisedFpgaThreshold;
      }
      return ThresholdUpdate::kRecordedOnly;
    }
  }
  XAR_ASSERT(false);
}

}  // namespace xartrek::runtime
