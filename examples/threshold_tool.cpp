// Operator tool: produce, inspect, and reload the step-G threshold
// table artifact.
//
// The estimation tool "outputs a table that describes, for each
// application, the application name, the hardware kernel, the FPGA
// threshold and the ARM threshold" (paper §3.1).  This tool runs step G,
// writes that artifact to disk, reads it back, verifies the run-time
// behaves identically under the reloaded table, and prints the Vitis-
// style synthesis reports for the suite's kernels.
//
// Build & run:  ./build/examples/threshold_tool [output-path]
#include <fstream>
#include <iostream>
#include <sstream>

#include "apps/benchmark_spec.hpp"
#include "exp/experiment.hpp"
#include "exp/threshold_estimator.hpp"
#include "hls/report.hpp"
#include "runtime/threshold_table_io.hpp"

int main(int argc, char** argv) {
  using namespace xartrek;
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/xartrek_thresholds.txt";

  const auto specs = apps::paper_benchmarks();
  const auto suite = exp::compile_suite(specs);  // steps A-F, once

  // Step G, then persist the artifact.
  const auto estimation = exp::ThresholdEstimator().estimate(specs);
  const std::string text =
      runtime::serialize_threshold_table(estimation.table);
  {
    std::ofstream out(path);
    out << text;
  }
  std::cout << "== Step-G artifact written to " << path << " ==\n\n"
            << text << "\n";

  // Reload and prove the run-time behaves identically.
  std::ifstream in(path);
  const auto reloaded = runtime::parse_threshold_table(in);

  auto placement_under = [&](const runtime::ThresholdTable& table,
                             const std::string& app, int background) {
    exp::ExperimentOptions options;
    options.mode = apps::SystemMode::kXarTrek;
    exp::Experiment exp(specs, suite, table, options);
    exp.warm_fpga_for(app);
    exp.add_background_load(background);
    exp.simulation().run_until(exp.simulation().now() + Duration::ms(50));
    exp.launch(app);
    exp.run_until_complete(1);
    return exp.results().front().func_target;
  };

  bool identical = true;
  for (const auto& spec : specs) {
    for (int background : {0, 20, 60}) {
      const auto a = placement_under(estimation.table, spec.name,
                                     background);
      const auto b = placement_under(reloaded, spec.name, background);
      if (a != b) identical = false;
      std::cout << spec.name << " @load " << background + 1 << ": "
                << to_string(a) << (a == b ? "" : "  <-- MISMATCH") << "\n";
    }
  }
  std::cout << (identical
                    ? "\nreloaded table reproduces every placement.\n\n"
                    : "\nERROR: placements diverged after reload!\n\n");

  // Synthesis reports for the suite (step-D artifacts).
  for (const auto& app : suite->apps) {
    std::cout << hls::utilization_report(app.xos[0],
                                         fpga::alveo_u50_spec())
              << "\n";
  }
  return identical ? 0 : 1;
}
