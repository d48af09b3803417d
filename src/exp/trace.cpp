#include "exp/trace.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace xartrek::exp {

TraceRecorder::TraceRecorder(sim::Simulation& sim, Duration period)
    : sim_(sim), period_(period) {
  XAR_EXPECTS(period > Duration::zero());
  tick_ = sim_.schedule_in(period_, [this] { tick(); });
}

void TraceRecorder::add_probe(const std::string& name, Probe probe) {
  XAR_EXPECTS(probe != nullptr);
  XAR_EXPECTS(timestamps_.empty());  // align all series
  probes_.emplace_back(std::move(probe), TraceSeries{name, {}});
}

void TraceRecorder::tick() {
  timestamps_.push_back(sim_.now());
  for (auto& [probe, series] : probes_) {
    series.values.push_back(probe());
  }
  tick_ = sim_.schedule_in(period_, [this] { tick(); });
}

const TraceSeries& TraceRecorder::series(const std::string& name) const {
  for (const auto& [probe, s] : probes_) {
    if (s.name == name) return s;
  }
  throw Error("trace: no series named `" + name + "`");
}

TraceRecorder::Summary TraceRecorder::summarize(
    const std::string& name) const {
  const TraceSeries& s = series(name);
  XAR_EXPECTS(!s.values.empty());
  Summary out;
  out.min = *std::min_element(s.values.begin(), s.values.end());
  out.max = *std::max_element(s.values.begin(), s.values.end());
  double sum = 0.0;
  for (double v : s.values) sum += v;
  out.mean = sum / static_cast<double>(s.values.size());
  return out;
}

}  // namespace xartrek::exp
