#include "exp/figures.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "exp/trace.hpp"

namespace xartrek::exp {

std::vector<std::string> random_app_set(
    Rng& rng, const std::vector<apps::BenchmarkSpec>& specs, int count) {
  XAR_EXPECTS(count >= 1 && !specs.empty());
  std::vector<std::string> set;
  set.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    set.push_back(specs[rng.pick_index(specs.size())].name);
  }
  return set;
}

LoadClass classify_load(int processes, int x86_cores, int total_cores) {
  XAR_EXPECTS(x86_cores > 0 && total_cores >= x86_cores);
  if (processes < x86_cores) return LoadClass::kLow;
  if (processes < total_cores) return LoadClass::kMedium;
  return LoadClass::kHigh;
}

const char* to_string(LoadClass c) {
  switch (c) {
    case LoadClass::kLow:    return "low";
    case LoadClass::kMedium: return "medium";
    case LoadClass::kHigh:   return "high";
  }
  return "?";
}

// ---------------------------------------------------------------------

const AvgExecCell& AvgExecResult::cell(apps::SystemMode system,
                                       int set_size) const {
  for (const auto& c : cells) {
    if (c.system == system && c.set_size == set_size) return c;
  }
  throw Error("AvgExecResult: no such cell");
}

AvgExecResult run_avg_exec_experiment(
    const std::vector<apps::BenchmarkSpec>& specs,
    const runtime::ThresholdTable& seed_table, const AvgExecConfig& config) {
  XAR_EXPECTS(!config.set_sizes.empty() && !config.systems.empty());
  XAR_EXPECTS(config.runs >= 1);

  const auto compiled = compile_suite(specs);
  AvgExecResult result;
  for (int size : config.set_sizes) {
    std::vector<RunningStats> stats(config.systems.size());
    Rng set_rng(config.seed + static_cast<std::uint64_t>(size) * 1009);
    for (int run = 0; run < config.runs; ++run) {
      // One random set, evaluated under every system (paired design).
      const std::vector<std::string> set =
          random_app_set(set_rng, specs, size);
      for (std::size_t s = 0; s < config.systems.size(); ++s) {
        ExperimentOptions options = config.base_options;
        options.mode = config.systems[s];
        Experiment exp(specs, compiled, seed_table, options);
        const int background =
            config.total_processes > 0
                ? std::max(0, config.total_processes - size)
                : 0;
        exp.add_background_load(background);
        for (const auto& app : set) exp.launch(app);
        const bool done = exp.run_until_complete(set.size());
        XAR_ENSURES(done);
        for (const auto& r : exp.results()) {
          stats[s].add(r.elapsed().to_ms());
        }
      }
    }
    for (std::size_t s = 0; s < config.systems.size(); ++s) {
      result.cells.push_back(AvgExecCell{config.systems[s], size,
                                         stats[s].mean(),
                                         stats[s].stddev()});
    }
  }
  return result;
}

// ---------------------------------------------------------------------

const ThroughputCell& ThroughputResult::cell(apps::SystemMode system,
                                             int load) const {
  for (const auto& c : cells) {
    if (c.system == system && c.background_load == load) return c;
  }
  throw Error("ThroughputResult: no such cell");
}

ThroughputResult run_throughput_experiment(
    const std::vector<apps::BenchmarkSpec>& specs,
    const runtime::ThresholdTable& seed_table,
    const ThroughputConfig& config) {
  XAR_EXPECTS(!config.systems.empty() && config.runs >= 1);
  ThroughputResult result;
  const apps::BenchmarkSpec& face =
      apps::benchmark_by_name(specs, config.face_app);
  const auto compiled = compile_suite(specs);

  for (int load : config.background_loads) {
    for (apps::SystemMode system : config.systems) {
      // No seed, set or option depends on the run index, so every run
      // of a cell is the same simulation: run it once and weigh its
      // sample `runs` times.
      ExperimentOptions options = config.base_options;
      options.mode = system;
      Experiment exp(specs, compiled, seed_table, options);
      exp.add_background_load(load);

      bool finished = false;
      apps::MultiImageResult mi_result;
      apps::MultiImageFaceApp::launch(
          exp.env(), face, system, config.image_config,
          [&finished, &mi_result](const apps::MultiImageResult& r) {
            finished = true;
            mi_result = r;
          });
      const TimePoint horizon = exp.simulation().now() +
                                config.image_config.deadline +
                                Duration::minutes(5);
      while (!finished && exp.simulation().step_one(horizon)) {
      }
      XAR_ENSURES(finished);
      RunningStats images;
      for (int run = 0; run < config.runs; ++run) {
        images.add(static_cast<double>(mi_result.images_processed));
      }
      ThroughputCell cell;
      cell.system = system;
      cell.background_load = load;
      cell.mean_images = images.mean();
      cell.images_per_second =
          images.mean() / config.image_config.deadline.to_seconds();
      result.cells.push_back(cell);
    }
  }
  return result;
}

// ---------------------------------------------------------------------

std::vector<PeriodicExecCell> run_periodic_exec_experiment(
    const std::vector<apps::BenchmarkSpec>& specs,
    const runtime::ThresholdTable& seed_table,
    const PeriodicExecConfig& config) {
  XAR_EXPECTS(config.waves >= 1 && config.apps_per_wave >= 1);
  XAR_EXPECTS(!config.systems.empty());
  std::vector<PeriodicExecCell> cells;

  // The same wave schedule (same random sets) is replayed per system.
  Rng schedule_rng(config.seed);
  std::vector<std::vector<std::string>> waves;
  waves.reserve(static_cast<std::size_t>(config.waves));
  for (int w = 0; w < config.waves; ++w) {
    waves.push_back(random_app_set(schedule_rng, specs,
                                   config.apps_per_wave));
  }
  const std::size_t total_apps =
      static_cast<std::size_t>(config.waves) *
      static_cast<std::size_t>(config.apps_per_wave);
  const auto compiled = compile_suite(specs);

  for (apps::SystemMode system : config.systems) {
    ExperimentOptions options = config.base_options;
    options.mode = system;
    Experiment exp(specs, compiled, seed_table, options);

    std::unique_ptr<TraceRecorder> trace;
    if (config.record_load_trace) {
      trace = std::make_unique<TraceRecorder>(exp.simulation(),
                                              Duration::seconds(1));
      trace->add_probe("x86_load", [&exp] {
        return static_cast<double>(exp.testbed().x86().load());
      });
    }

    for (int w = 0; w < config.waves; ++w) {
      exp.simulation().schedule_at(
          TimePoint::origin() + config.wave_interval * static_cast<double>(w),
          [&exp, &waves, w] {
            for (const auto& app :
                 waves[static_cast<std::size_t>(w)]) {
              exp.launch(app);
            }
          });
    }
    const bool done =
        exp.run_until_complete(total_apps, Duration::minutes(360));
    XAR_ENSURES(done);

    RunningStats stats;
    for (const auto& r : exp.results()) stats.add(r.elapsed().to_ms());
    PeriodicExecCell cell;
    cell.system = system;
    cell.mean_ms = stats.mean();
    cell.stddev_ms = stats.stddev();
    cell.completed = exp.results().size();
    TimePoint last = TimePoint::origin();
    for (const auto& r : exp.results()) last = std::max(last, r.finished);
    cell.makespan_minutes = (last - TimePoint::origin()).to_ms() / 60'000.0;
    if (trace != nullptr && trace->sample_count() > 0) {
      const auto summary = trace->summarize("x86_load");
      cell.load_min = summary.min;
      cell.load_mean = summary.mean;
      cell.load_max = summary.max;
    }
    cells.push_back(cell);
  }
  return cells;
}

// ---------------------------------------------------------------------

std::vector<PeriodicTputCell> run_periodic_throughput_experiment(
    const std::vector<apps::BenchmarkSpec>& specs,
    const runtime::ThresholdTable& seed_table,
    const PeriodicTputConfig& config) {
  XAR_EXPECTS(!config.systems.empty() && config.app_runs >= 1);
  XAR_EXPECTS(config.max_load >= config.min_load);
  // A zero period feeds fmod(t, 0) into the wave, and a zero step
  // re-arms the load controller at the same instant for ever.
  XAR_EXPECTS(config.load_period > Duration::zero());
  XAR_EXPECTS(config.load_step_interval > Duration::zero());
  std::vector<PeriodicTputCell> cells;
  const apps::BenchmarkSpec& face =
      apps::benchmark_by_name(specs, config.face_app);
  const auto compiled = compile_suite(specs);

  for (apps::SystemMode system : config.systems) {
    ExperimentOptions options = config.base_options;
    options.mode = system;
    Experiment exp(specs, compiled, seed_table, options);

    // Triangular load wave: min -> max -> min per period, adjusted every
    // step interval for the lifetime of the experiment.
    const double period_ms = config.load_period.to_ms();
    const auto load_at = [&](TimePoint t) {
      const double phase =
          std::fmod(t.to_ms(), period_ms) / period_ms;  // 0..1
      const double tri = phase < 0.5 ? 2.0 * phase : 2.0 * (1.0 - phase);
      return config.min_load +
             static_cast<int>(std::lround(
                 tri * (config.max_load - config.min_load)));
    };
    // Self-rescheduling load controller.
    std::function<void()> adjust = [&exp, &load_at, &adjust, &config] {
      exp.set_background_load(load_at(exp.simulation().now()));
      exp.simulation().schedule_in(config.load_step_interval,
                                   [&adjust] { adjust(); });
    };
    adjust();

    // Ten sequential 60 s face-detection runs (paper §4.3).
    RunningStats tput;
    for (int r = 0; r < config.app_runs; ++r) {
      bool finished = false;
      apps::MultiImageResult mi_result;
      apps::MultiImageFaceApp::launch(
          exp.env(), face, system, config.image_config,
          [&finished, &mi_result](const apps::MultiImageResult& res) {
            finished = true;
            mi_result = res;
          });
      const TimePoint horizon = exp.simulation().now() +
                                config.image_config.deadline +
                                Duration::minutes(5);
      while (!finished && exp.simulation().step_one(horizon)) {
      }
      XAR_ENSURES(finished);
      tput.add(mi_result.images_processed /
               config.image_config.deadline.to_seconds());
    }
    exp.set_background_load(0);

    PeriodicTputCell cell;
    cell.system = system;
    cell.mean_images_per_second = tput.mean();
    cell.stddev = tput.stddev();
    cells.push_back(cell);
  }
  return cells;
}

// ---------------------------------------------------------------------

const ProfitabilityCell& ProfitabilityResult::cell(apps::SystemMode system,
                                                   int cg_count) const {
  for (const auto& c : cells) {
    if (c.system == system && c.cg_count == cg_count) return c;
  }
  throw Error("ProfitabilityResult: no such cell");
}

ProfitabilityResult run_profitability_experiment(
    const std::vector<apps::BenchmarkSpec>& specs,
    const runtime::ThresholdTable& seed_table,
    const ProfitabilityConfig& config) {
  XAR_EXPECTS(!config.cg_counts.empty());
  XAR_EXPECTS(!config.systems.empty() && config.runs >= 1);
  const auto compiled = compile_suite(specs);
  ProfitabilityResult result;

  for (int cg : config.cg_counts) {
    XAR_EXPECTS(cg >= 0 && cg <= config.set_size);
    for (apps::SystemMode system : config.systems) {
      // As in Figure 6, every run of a cell is the same simulation: run
      // it once and add its samples once per run, in run order, so the
      // mean is the one `runs` separate simulations give, to the bit.
      ExperimentOptions options = config.base_options;
      options.mode = system;
      Experiment exp(specs, compiled, seed_table, options);
      exp.add_background_load(
          std::max(0, config.total_processes - config.set_size));
      for (int i = 0; i < config.set_size; ++i) {
        exp.launch(i < cg ? "cg_a" : "digit2000");
      }
      const bool done = exp.run_until_complete(
          static_cast<std::size_t>(config.set_size));
      XAR_ENSURES(done);
      RunningStats stats;
      for (int run = 0; run < config.runs; ++run) {
        for (const auto& r : exp.results()) stats.add(r.elapsed().to_ms());
      }
      result.cells.push_back(ProfitabilityCell{system, cg, stats.mean()});
    }
  }
  return result;
}

}  // namespace xartrek::exp
