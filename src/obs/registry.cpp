#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace xartrek::obs {

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(Options opts)
    : min_exp2_(opts.min_exp2), max_exp2_(opts.max_exp2) {
  XAR_EXPECTS(opts.max_exp2 > opts.min_exp2);
  XAR_EXPECTS(opts.lanes >= 1);
  const std::size_t octaves =
      static_cast<std::size_t>(max_exp2_ - min_exp2_);
  // [underflow] [octaves * 32 linear sub-buckets] [overflow]
  n_buckets_ = 1 + octaves * kSubBuckets + 1;
  lanes_.resize(opts.lanes);
  for (auto& lane : lanes_) lane.buckets.assign(n_buckets_, 0);
}

std::size_t Histogram::index_of(double value) const {
  // Underflow bucket catches everything below the range floor
  // (including zero-latency events; negatives are a caller bug but
  // degrade to the underflow bucket rather than UB).
  const double lo = std::ldexp(1.0, min_exp2_);
  if (!(value >= lo)) return 0;
  int exp = 0;
  std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5, 1)
  const int octave = (exp - 1) - min_exp2_;  // value in [2^(exp-1), 2^exp)
  if (octave >= max_exp2_ - min_exp2_) return n_buckets_ - 1;  // overflow
  const double base = std::ldexp(1.0, exp - 1);
  auto sub = static_cast<std::size_t>((value / base - 1.0) *
                                      static_cast<double>(kSubBuckets));
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return 1 + static_cast<std::size_t>(octave) * kSubBuckets + sub;
}

void Histogram::record(std::size_t lane, double value) {
  XAR_EXPECTS(lane < lanes_.size());
  Lane& l = lanes_[lane];
  ++l.buckets[index_of(value)];
  ++l.count;
  l.sum += value;
  if (value < l.min) l.min = value;
  if (value > l.max) l.max = value;
}

std::uint64_t Histogram::count() const {
  std::uint64_t c = 0;
  for (const auto& l : lanes_) c += l.count;
  return c;
}

double Histogram::sum() const {
  // Lane order is fixed, so the float summation order is deterministic.
  double s = 0.0;
  for (const auto& l : lanes_) s += l.sum;
  return s;
}

double Histogram::min() const {
  double m = std::numeric_limits<double>::infinity();
  for (const auto& l : lanes_) m = std::min(m, l.min);
  return m;
}

double Histogram::max() const {
  double m = -std::numeric_limits<double>::infinity();
  for (const auto& l : lanes_) m = std::max(m, l.max);
  return m;
}

std::vector<std::uint64_t> Histogram::merged_buckets() const {
  std::vector<std::uint64_t> out(n_buckets_, 0);
  for (const auto& l : lanes_) {
    for (std::size_t b = 0; b < n_buckets_; ++b) out[b] += l.buckets[b];
  }
  return out;
}

double Histogram::percentile_from_buckets(
    const std::vector<std::uint64_t>& buckets, std::uint64_t count,
    int min_exp2, double q, double clamp_lo, double clamp_hi) {
  if (count == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  std::size_t chosen = buckets.size() - 1;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    if (cum >= rank) {
      chosen = b;
      break;
    }
  }
  double edge;
  if (chosen == 0) {
    edge = 0.0;
  } else if (chosen >= buckets.size() - 1) {
    edge = std::ldexp(1.0, min_exp2) *
           std::ldexp(1.0, static_cast<int>((buckets.size() - 2) /
                                            Histogram::kSubBuckets));
  } else {
    const std::size_t k = chosen - 1;
    const auto octave = static_cast<int>(k / kSubBuckets);
    const auto sub = static_cast<double>(k % kSubBuckets);
    edge = std::ldexp(1.0, min_exp2 + octave) *
           (1.0 + sub / static_cast<double>(kSubBuckets));
  }
  // Clamp into the exact observed range: a singleton histogram reports
  // its one value exactly, and no quantile can stray outside [min, max].
  return std::clamp(edge, clamp_lo, clamp_hi);
}

double Histogram::percentile(double q) const {
  const std::uint64_t c = count();
  if (c == 0) return 0.0;
  return percentile_from_buckets(merged_buckets(), c, min_exp2_, q, min(),
                                 max());
}

// --- Snapshot ---------------------------------------------------------------

Snapshot Snapshot::delta(const Snapshot& earlier) const {
  Snapshot out;
  out.scalars.reserve(scalars.size());
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    Scalar s = scalars[i];
    if (s.kind == Kind::kCounter && i < earlier.scalars.size() &&
        earlier.scalars[i].name == s.name) {
      s.value -= earlier.scalars[i].value;
    }
    out.scalars.push_back(std::move(s));
  }
  out.hists.reserve(hists.size());
  for (std::size_t i = 0; i < hists.size(); ++i) {
    Hist h = hists[i];
    if (i < earlier.hists.size() && earlier.hists[i].name == h.name &&
        earlier.hists[i].buckets.size() == h.buckets.size()) {
      const Hist& e = earlier.hists[i];
      h.count -= e.count;
      h.sum -= e.sum;
      for (std::size_t b = 0; b < h.buckets.size(); ++b) {
        h.buckets[b] -= e.buckets[b];
      }
      // min/max are not recoverable from a bucket delta; report the
      // bucket-resolution bounds of the delta population instead.
      if (h.count == 0) {
        h.min = h.max = h.p50 = h.p99 = h.p999 = 0.0;
      } else {
        const double lo = 0.0;
        const double hi = std::numeric_limits<double>::infinity();
        h.p50 = Histogram::percentile_from_buckets(h.buckets, h.count,
                                                   h.min_exp2, 0.50, lo, hi);
        h.p99 = Histogram::percentile_from_buckets(h.buckets, h.count,
                                                   h.min_exp2, 0.99, lo, hi);
        h.p999 = Histogram::percentile_from_buckets(h.buckets, h.count,
                                                    h.min_exp2, 0.999, lo, hi);
        h.min = h.p50;  // conservative: no exact extrema for a window
        h.max = h.p999;
      }
    }
    out.hists.push_back(std::move(h));
  }
  return out;
}

// --- Registry ---------------------------------------------------------------

Registry::Counter* Registry::counter(std::string name) {
  owned_.emplace_back();
  Counter* cell = &owned_.back();
  Entry e;
  e.name = std::move(name);
  e.kind = Kind::kCounter;
  e.u64 = &cell->value;
  entries_.push_back(std::move(e));
  return cell;
}

void Registry::link_counter(std::string name, const std::uint64_t* cell) {
  XAR_EXPECTS(cell != nullptr);
  Entry e;
  e.name = std::move(name);
  e.kind = Kind::kCounter;
  e.u64 = cell;
  entries_.push_back(std::move(e));
}

void Registry::link_gauge(std::string name, const std::uint64_t* cell) {
  XAR_EXPECTS(cell != nullptr);
  Entry e;
  e.name = std::move(name);
  e.kind = Kind::kGauge;
  e.u64 = cell;
  entries_.push_back(std::move(e));
}

void Registry::link_value(std::string name, const double* cell, Kind kind) {
  XAR_EXPECTS(cell != nullptr);
  Entry e;
  e.name = std::move(name);
  e.kind = kind;
  e.f64 = cell;
  entries_.push_back(std::move(e));
}

void Registry::probe(std::string name, Probe fn, Kind kind) {
  XAR_EXPECTS(fn != nullptr);
  Entry e;
  e.name = std::move(name);
  e.kind = kind;
  e.fn = std::move(fn);
  entries_.push_back(std::move(e));
}

Histogram* Registry::histogram(std::string name, Histogram::Options opts) {
  hists_.emplace_back(std::move(name), opts);
  return &hists_.back().hist;
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  out.scalars.reserve(entries_.size());
  for (const Entry& e : entries_) {
    Snapshot::Scalar s;
    s.name = e.name;
    s.kind = e.kind;
    if (e.u64 != nullptr) {
      s.value = static_cast<double>(*e.u64);
    } else if (e.f64 != nullptr) {
      s.value = *e.f64;
    } else {
      s.value = e.fn();
    }
    out.scalars.push_back(std::move(s));
  }
  out.hists.reserve(hists_.size());
  for (const HistEntry& he : hists_) {
    Snapshot::Hist h;
    h.name = he.name;
    h.count = he.hist.count();
    h.sum = he.hist.sum();
    h.min = h.count > 0 ? he.hist.min() : 0.0;
    h.max = h.count > 0 ? he.hist.max() : 0.0;
    h.p50 = he.hist.percentile(0.50);
    h.p99 = he.hist.percentile(0.99);
    h.p999 = he.hist.percentile(0.999);
    h.min_exp2 = he.hist.min_exp2();
    h.buckets = he.hist.merged_buckets();
    out.hists.push_back(std::move(h));
  }
  return out;
}

}  // namespace xartrek::obs
