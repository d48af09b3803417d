// Quickstart: compile one application through the Xar-Trek pipeline and
// watch the run-time place its hot function.
//
//   1. write a step-A profile spec (text) and parse it;
//   2. run steps B-F: instrumentation, multi-ISA build, HLS synthesis,
//      XCLBIN partitioning and generation;
//   3. run step G: threshold estimation on the simulated testbed;
//   4. launch the application at low and at high x86 load and observe
//      the scheduler keep it local / migrate it to the FPGA.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "apps/application.hpp"
#include "apps/benchmark_spec.hpp"
#include "common/table.hpp"
#include "exp/experiment.hpp"
#include "exp/threshold_estimator.hpp"

int main() {
  using namespace xartrek;
  std::cout << "== Xar-Trek quickstart ==\n\n";

  // --- Step A: the profiling spec is a plain text file ----------------
  const auto specs = apps::paper_benchmarks();
  const auto profile = apps::make_profile_spec(specs);
  std::cout << "Step A -- profiling spec:\n" << profile.serialize() << "\n";

  // --- Steps B-F: the compiler pipeline, once for every run below -----
  const auto suite = exp::compile_suite(specs);
  std::cout << "Steps B-F -- compiled " << suite->apps.size()
            << " applications; " << suite->xclbins.size()
            << " XCLBIN image(s):\n";
  for (const auto& image : suite->xclbins) {
    std::cout << "  " << image.id << " (" << image.size_bytes / 1024
              << " KiB) kernels:";
    for (const auto& k : image.kernels) std::cout << " " << k.name;
    std::cout << "\n";
  }
  const auto* fd = suite->find_app("facedet320");
  std::cout << "  facedet320 multi-ISA binary: "
            << fd->binary.file_bytes() / 1024 << " KiB ("
            << fd->binary.metadata().sites().size()
            << " migration points)\n\n";

  // --- Step G: threshold estimation ------------------------------------
  std::cout << "Step G -- threshold estimation (simulated sweeps):\n";
  const auto estimation = exp::ThresholdEstimator().estimate(specs);
  TextTable table("Threshold table");
  table.set_header({"app", "kernel", "FPGA_THR", "ARM_THR"});
  for (const auto& row : estimation.rows) {
    table.add_row({row.app, row.kernel, std::to_string(row.fpga_threshold),
                   std::to_string(row.arm_threshold)});
  }
  std::cout << table.render() << "\n";

  // --- Run-time: placement at low vs high load -------------------------
  auto run_once = [&](int background, const char* label) {
    exp::ExperimentOptions options;
    options.mode = apps::SystemMode::kXarTrek;
    exp::Experiment exp(specs, suite, estimation.table, options);
    exp.warm_fpga_for("facedet320");  // image already live (eager config)
    exp.add_background_load(background);
    exp.simulation().run_until(exp.simulation().now() +
                               Duration::ms(50));  // monitor tick
    exp.launch("facedet320");
    exp.run_until_complete(1);
    const auto& r = exp.results().front();
    std::cout << label << ": facedet320 at x86 load " << (background + 1)
              << " -> executed on " << to_string(r.func_target) << " in "
              << TextTable::num(r.elapsed().to_ms(), 0) << " ms\n";
  };
  run_once(0, "idle server  ");
  run_once(40, "loaded server");

  std::cout << "\nThe scheduler kept the function on x86 while the load was\n"
               "below FPGA_THR and migrated it to the FPGA kernel once the\n"
               "server was saturated -- the paper's headline behaviour.\n";
  return 0;
}
