// Experiment runners for every figure in the paper's evaluation.
//
// Each runner compiles the suite once, builds a fresh Experiment on it
// per (system, run), executes the workload the paper describes, and
// returns structured results; the bench binaries format them into the
// paper's tables and series.  All runners are deterministic given the
// seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/application.hpp"
#include "apps/benchmark_spec.hpp"
#include "apps/multi_image_app.hpp"
#include "common/rng.hpp"
#include "exp/experiment.hpp"
#include "runtime/threshold_table.hpp"

namespace xartrek::exp {

/// Uniformly random application set drawn from `specs` (paper §4.1:
/// "randomly selected (using an uniform distribution)").
[[nodiscard]] std::vector<std::string> random_app_set(
    Rng& rng, const std::vector<apps::BenchmarkSpec>& specs, int count);

/// Table 3's load classes for the 6 + 96 core testbed.
enum class LoadClass { kLow, kMedium, kHigh };
[[nodiscard]] LoadClass classify_load(int processes, int x86_cores,
                                      int total_cores);
[[nodiscard]] const char* to_string(LoadClass c);

// ---------------------------------------------------------------------
// Figures 3-5: average execution time of randomized application sets.
// ---------------------------------------------------------------------

struct AvgExecConfig {
  std::vector<int> set_sizes;
  /// Total resident x86 processes including the set (0 = no background
  /// load; Figure 3).  Background load is MG-B, as in the paper.
  int total_processes = 0;
  std::vector<apps::SystemMode> systems;
  int runs = 10;
  std::uint64_t seed = 42;
  ExperimentOptions base_options = {};
};

struct AvgExecCell {
  apps::SystemMode system;
  int set_size;
  double mean_ms = 0.0;
  double stddev_ms = 0.0;
};

struct AvgExecResult {
  std::vector<AvgExecCell> cells;
  [[nodiscard]] const AvgExecCell& cell(apps::SystemMode system,
                                        int set_size) const;
};

[[nodiscard]] AvgExecResult run_avg_exec_experiment(
    const std::vector<apps::BenchmarkSpec>& specs,
    const runtime::ThresholdTable& seed_table, const AvgExecConfig& config);

// ---------------------------------------------------------------------
// Figure 6: face-detection throughput under fixed background load.
// ---------------------------------------------------------------------

struct ThroughputConfig {
  std::vector<int> background_loads = {0, 25, 50, 75, 100};
  std::vector<apps::SystemMode> systems;
  int runs = 10;
  std::uint64_t seed = 42;
  apps::MultiImageConfig image_config = {};
  std::string face_app = "facedet320";
  ExperimentOptions base_options = {};
};

struct ThroughputCell {
  apps::SystemMode system;
  int background_load;
  double mean_images = 0.0;       ///< images processed per 60 s window
  double images_per_second = 0.0;
};

struct ThroughputResult {
  std::vector<ThroughputCell> cells;
  [[nodiscard]] const ThroughputCell& cell(apps::SystemMode system,
                                           int load) const;
};

[[nodiscard]] ThroughputResult run_throughput_experiment(
    const std::vector<apps::BenchmarkSpec>& specs,
    const runtime::ThresholdTable& seed_table,
    const ThroughputConfig& config);

// ---------------------------------------------------------------------
// Figure 7: periodic workload, average execution time.
// ---------------------------------------------------------------------

struct PeriodicExecConfig {
  int waves = 30;
  int apps_per_wave = 20;
  Duration wave_interval = Duration::seconds(30);
  std::vector<apps::SystemMode> systems;
  std::uint64_t seed = 42;
  ExperimentOptions base_options = {};
  /// Record the x86 load wave (1-second sampling) and report its
  /// min/mean/max alongside the results.
  bool record_load_trace = true;
};

struct PeriodicExecCell {
  apps::SystemMode system;
  double mean_ms = 0.0;
  double stddev_ms = 0.0;
  std::size_t completed = 0;
  double makespan_minutes = 0.0;
  /// x86 load wave statistics (when record_load_trace).
  double load_min = 0.0;
  double load_mean = 0.0;
  double load_max = 0.0;
};

[[nodiscard]] std::vector<PeriodicExecCell> run_periodic_exec_experiment(
    const std::vector<apps::BenchmarkSpec>& specs,
    const runtime::ThresholdTable& seed_table,
    const PeriodicExecConfig& config);

// ---------------------------------------------------------------------
// Figure 8: periodic workload, face-detection throughput.
// ---------------------------------------------------------------------

struct PeriodicTputConfig {
  int min_load = 10;
  int max_load = 120;
  Duration load_period = Duration::minutes(7);  ///< one up-down cycle
  Duration load_step_interval = Duration::seconds(15);
  int app_runs = 10;  ///< sequential 60 s face-detection runs
  std::vector<apps::SystemMode> systems;
  std::uint64_t seed = 42;
  apps::MultiImageConfig image_config = {};
  std::string face_app = "facedet320";
  ExperimentOptions base_options = {};
};

struct PeriodicTputCell {
  apps::SystemMode system;
  double mean_images_per_second = 0.0;
  double stddev = 0.0;
};

[[nodiscard]] std::vector<PeriodicTputCell>
run_periodic_throughput_experiment(
    const std::vector<apps::BenchmarkSpec>& specs,
    const runtime::ThresholdTable& seed_table,
    const PeriodicTputConfig& config);

// ---------------------------------------------------------------------
// Figure 9: profitability vs. workload mix.
// ---------------------------------------------------------------------

struct ProfitabilityConfig {
  /// Number of CG-A instances per 10-app set (rest are Digit2000);
  /// seven mixes, 0%..100% as in the paper.
  std::vector<int> cg_counts = {0, 2, 4, 5, 6, 8, 10};
  int set_size = 10;
  int total_processes = 120;
  std::vector<apps::SystemMode> systems;
  int runs = 10;
  std::uint64_t seed = 42;
  ExperimentOptions base_options = {};
};

struct ProfitabilityCell {
  apps::SystemMode system;
  int cg_count;
  double mean_ms = 0.0;
};

struct ProfitabilityResult {
  std::vector<ProfitabilityCell> cells;
  [[nodiscard]] const ProfitabilityCell& cell(apps::SystemMode system,
                                              int cg_count) const;
};

[[nodiscard]] ProfitabilityResult run_profitability_experiment(
    const std::vector<apps::BenchmarkSpec>& specs,
    const runtime::ThresholdTable& seed_table,
    const ProfitabilityConfig& config);

}  // namespace xartrek::exp
