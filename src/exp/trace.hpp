// Time-series tracing for experiments.
//
// Records sampled values (x86 load, ARM load, FPGA busy state,
// placement counts) over simulated time so experiments can report the
// load waves they generated and operators can plot them.  Sampling is
// event-driven on a fixed period: every sample is kept, unlike the
// scheduler's load monitor, which needs only the last one and so
// catches up on demand without an event.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "sim/simulation.hpp"

namespace xartrek::exp {

/// One named, periodically-sampled series.
struct TraceSeries {
  std::string name;
  std::vector<double> values;  ///< one per sample tick
};

/// A multi-series sampler bound to one simulation.
class TraceRecorder {
 public:
  using Probe = std::function<double()>;

  /// Sampling starts at construction and continues until the recorder
  /// is destroyed (or the simulation stops being stepped).
  TraceRecorder(sim::Simulation& sim, Duration period);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;
  ~TraceRecorder() { tick_.cancel(); }

  /// Register a probe evaluated at every tick.  Add probes before the
  /// first tick fires (construction time) for aligned series.
  void add_probe(const std::string& name, Probe probe);

  [[nodiscard]] const std::vector<TimePoint>& timestamps() const {
    return timestamps_;
  }
  [[nodiscard]] const TraceSeries& series(const std::string& name) const;
  [[nodiscard]] std::size_t sample_count() const {
    return timestamps_.size();
  }

  /// Min/mean/max summary of one series.
  struct Summary {
    double min = 0.0;
    double mean = 0.0;
    double max = 0.0;
  };
  [[nodiscard]] Summary summarize(const std::string& name) const;

 private:
  void tick();

  sim::Simulation& sim_;
  Duration period_;
  std::vector<TimePoint> timestamps_;
  std::vector<std::pair<Probe, TraceSeries>> probes_;
  sim::Simulation::EventHandle tick_;
};

}  // namespace xartrek::exp
