#include "exp/threshold_estimator.hpp"

#include "exp/experiment.hpp"

namespace xartrek::exp {

Duration ThresholdEstimator::scenario_time(
    const std::vector<apps::BenchmarkSpec>& specs,
    const std::shared_ptr<const compiler::CompiledSuite>& compiled,
    const std::string& app, runtime::Target target) const {
  ExperimentOptions options;
  options.mode = apps::SystemMode::kVanillaX86;  // no scheduler involved
  Experiment exp(specs, compiled, runtime::ThresholdTable{}, options);
  if (target == runtime::Target::kFpga) exp.warm_fpga_for(app);
  exp.launch_forced(app, target);
  const bool done = exp.run_until_complete(1);
  XAR_ENSURES(done);
  return exp.results().front().elapsed();
}

Duration ThresholdEstimator::x86_time_under_load(
    const std::vector<apps::BenchmarkSpec>& specs,
    const std::shared_ptr<const compiler::CompiledSuite>& compiled,
    const std::string& app, int load) const {
  XAR_EXPECTS(load >= 1);
  ExperimentOptions options;
  options.mode = apps::SystemMode::kVanillaX86;
  Experiment exp(specs, compiled, runtime::ThresholdTable{}, options);
  // `load` simultaneous instances of the same application; the measured
  // one is simply the first to be launched (they are identical).
  for (int i = 0; i < load; ++i) exp.launch_forced(app, runtime::Target::kX86);
  const bool done = exp.run_until_complete(static_cast<std::size_t>(load));
  XAR_ENSURES(done);
  Duration measured = Duration::zero();
  for (const auto& r : exp.results()) {
    if (r.elapsed() > measured) measured = r.elapsed();
  }
  return measured;
}

EstimationResult ThresholdEstimator::estimate(
    const std::vector<apps::BenchmarkSpec>& specs) const {
  const auto compiled = compile_suite(specs);
  EstimationResult result;
  for (const auto& spec : specs) {
    EstimationRow row;
    row.app = spec.name;
    row.kernel = spec.kernel_name;
    row.x86_exec =
        scenario_time(specs, compiled, spec.name, runtime::Target::kX86);
    row.fpga_exec =
        scenario_time(specs, compiled, spec.name, runtime::Target::kFpga);
    row.arm_exec =
        scenario_time(specs, compiled, spec.name, runtime::Target::kArm);

    // Sweep the load upward; a threshold is the last load at which
    // plain x86 still beats the scenario (0 if it never does).
    int fpga_thr = -1;
    int arm_thr = -1;
    for (int load = 1; load <= opts_.max_load; ++load) {
      if (fpga_thr >= 0 && arm_thr >= 0) break;
      const Duration t =
          x86_time_under_load(specs, compiled, spec.name, load);
      if (fpga_thr < 0 && t > row.fpga_exec) fpga_thr = load - 1;
      if (arm_thr < 0 && t > row.arm_exec) arm_thr = load - 1;
    }
    row.fpga_threshold = fpga_thr >= 0 ? fpga_thr : opts_.max_load;
    row.arm_threshold = arm_thr >= 0 ? arm_thr : opts_.max_load;

    runtime::ThresholdEntry entry;
    entry.app = spec.name;
    entry.kernel_name = spec.kernel_name;
    entry.fpga_threshold = row.fpga_threshold;
    entry.arm_threshold = row.arm_threshold;
    entry.x86_exec = row.x86_exec;
    entry.arm_exec = row.arm_exec;
    entry.fpga_exec = row.fpga_exec;
    result.table.upsert(entry);
    result.rows.push_back(row);
  }
  return result;
}

}  // namespace xartrek::exp
