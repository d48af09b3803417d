// Experiment context: one system under test on one fresh testbed.
//
// Owns the whole run-time stack an experiment run needs -- the
// simulated platform, the threshold table, the load monitor, the
// scheduler server and client, and the migration executor -- with
// construction order and lifetimes in one place.  The compiled suite
// (pipeline steps A-F) is a pure function of the specs, so it is
// shared, read-only, by every Experiment built from one compile_suite
// call: as in Xar-Trek, the suite is compiled once and placed many
// times.  Every paper figure boils down to: compile the suite, build an
// Experiment per (system, run), launch applications and background
// load, step the simulation until the measured set completes, and
// collect times.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/application.hpp"
#include "apps/benchmark_spec.hpp"
#include "apps/load_generator.hpp"
#include "common/log.hpp"
#include "compiler/xar_compiler.hpp"
#include "platform/testbed.hpp"
#include "runtime/load_monitor.hpp"
#include "runtime/migration_executor.hpp"
#include "runtime/scheduler_client.hpp"
#include "runtime/scheduler_server.hpp"
#include "runtime/threshold_table.hpp"

namespace xartrek::exp {

/// Ablation and policy switches for one experiment.
struct ExperimentOptions {
  apps::SystemMode mode = apps::SystemMode::kXarTrek;
  bool eager_configure = true;          ///< ablation 1 (Figure 6 driver)
  bool dynamic_thresholds = true;       ///< ablation 2 (Algorithm 1 on/off)
  bool hide_reconfiguration = true;     ///< ablation 3 (Algorithm 2 overlap)
  /// Platform description for the testbed this experiment builds.  A
  /// ClusterExperiment cell sets `testbed.external_sim` to its shard's
  /// engine; the default stays the paper's self-contained testbed.
  platform::TestbedConfig testbed = {};
  Logger log = {};
};

/// Pipeline steps A-F over `specs`.  Deterministic, so one result can
/// back every Experiment built from the same specs.
[[nodiscard]] std::shared_ptr<const compiler::CompiledSuite> compile_suite(
    const std::vector<apps::BenchmarkSpec>& specs);

/// One system-under-test instance.
class Experiment {
 public:
  /// Builds the run-time stack for `specs` on a fresh testbed around
  /// `compiled`, which must hold every app in `specs` (a compile_suite
  /// result; shared, never modified).  `seed_table` carries step-G
  /// thresholds; pass an empty table for a cold start (ablation 4).
  Experiment(std::vector<apps::BenchmarkSpec> specs,
             std::shared_ptr<const compiler::CompiledSuite> compiled,
             const runtime::ThresholdTable& seed_table,
             ExperimentOptions options = {});

  /// Same, with a fresh compile_suite(specs).
  Experiment(std::vector<apps::BenchmarkSpec> specs,
             const runtime::ThresholdTable& seed_table,
             ExperimentOptions options = {});

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  [[nodiscard]] platform::Testbed& testbed() { return *testbed_; }
  [[nodiscard]] sim::Simulation& simulation() {
    return testbed_->simulation();
  }
  [[nodiscard]] runtime::ThresholdTable& table() { return table_; }
  [[nodiscard]] const compiler::CompiledSuite& suite() const {
    return *suite_;
  }
  [[nodiscard]] runtime::SchedulerServer& server() { return *server_; }
  [[nodiscard]] runtime::MigrationExecutor& executor() { return *executor_; }
  [[nodiscard]] const ExperimentOptions& options() const { return options_; }
  [[nodiscard]] const std::vector<apps::BenchmarkSpec>& specs() const {
    return specs_;
  }
  [[nodiscard]] const apps::BenchmarkSpec& spec(const std::string& name) const {
    return apps::benchmark_by_name(specs_, name);
  }

  /// The environment handed to application processes.
  [[nodiscard]] apps::RuntimeEnv env();

  /// Launch one run of `app_name` now; its result is appended to
  /// `results()` and counted toward `completed_apps()`.
  void launch(const std::string& app_name);

  /// Launch a forced-target run (pre/post on x86, function on `target`)
  /// -- the step-G measurement scenarios.
  void launch_forced(const std::string& app_name, runtime::Target target);

  /// Block (in simulated time) until the XCLBIN holding `app_name`'s
  /// kernel is live on the FPGA.  Step-G's forced-FPGA scenario measures
  /// offload cost with a warm image, as the instrumented binary's eager
  /// main-start configuration would provide.  The loop also stops if
  /// the queue drains first (the load monitor schedules no event, so
  /// nothing keeps an idle queue alive); the postcondition then fails.
  void warm_fpga_for(const std::string& app_name);

  /// Start `n` background MG-B load processes (kept until teardown).
  void add_background_load(int n);

  /// Adjust background load to exactly `n` processes (periodic
  /// experiments ramp load up and down).
  void set_background_load(int n);

  /// Step the simulation until `expected` launched apps have exited or
  /// the horizon passes.  Returns true if the count was reached.  The
  /// loop can also stop because the queue drained (no background load
  /// and no event left: the load monitor schedules none); it then
  /// returns false with the clock at the last event, not the horizon.
  bool run_until_complete(std::size_t expected,
                          Duration horizon = Duration::minutes(120));

  [[nodiscard]] std::size_t completed_apps() const { return results_.size(); }
  [[nodiscard]] const std::vector<apps::AppResult>& results() const {
    return results_;
  }

 private:
  std::vector<apps::BenchmarkSpec> specs_;
  ExperimentOptions options_;
  std::unique_ptr<platform::Testbed> testbed_;
  std::shared_ptr<const compiler::CompiledSuite> suite_;
  runtime::ThresholdTable table_;
  std::unique_ptr<runtime::LoadMonitor> monitor_;
  std::unique_ptr<runtime::SchedulerServer> server_;
  std::unique_ptr<runtime::SchedulerClient> client_;
  std::unique_ptr<runtime::MigrationExecutor> executor_;
  std::vector<std::unique_ptr<apps::LoadGenerator>> load_;
  std::vector<apps::AppResult> results_;
};

}  // namespace xartrek::exp
