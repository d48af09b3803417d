// Central metrics registry: named counters, gauges, and log2 latency
// histograms, pooled at registration time so the hot path is a plain
// single-writer increment with zero steady-state allocations.
//
// Design: components keep their cheap `Stats` structs as the storage
// (they remain valid views); the registry *links* to those fields at
// registration and only reads them when a snapshot is taken, so every
// linked component must outlive the registry.  Values that are not a
// plain stored uint64_t -- counters settled on read (the scheduler's
// heartbeat counts), size_t gauges, per-pair engine high-water marks --
// are registered as probes: a callable evaluated at snapshot time,
// never on the hot path.
//
// Histograms are lane-sharded: each lane is written by exactly one
// shard/worker thread during an epoch window and merged in lane order
// at snapshot time, which the `ShardedSimulation` drained boundary (or
// a join) orders against the writers.  Because the per-lane event
// order is itself deterministic (the sharded engine is trace-identical
// serial vs parallel), merged snapshots are byte-identical across
// serial and parallel runs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace xartrek::obs {

// Fixed-bucket log2 histogram: 32 linear sub-buckets per octave over
// [2^min_exp2, 2^max_exp2) plus an underflow and an overflow bucket.
// Defaults cover ~1 us .. ~18.6 h when values are milliseconds.
//
// record() touches one bucket and four scalars -- no allocation, no
// atomics (single writer per lane).  Percentiles report the LOWER edge
// of the selected sub-bucket, clamped to the exact observed [min, max]:
// a reported quantile never exceeds the true one (relative
// under-report is bounded by the sub-bucket width, 1/32 ~ 3.1%), so
// budget assertions of the form `p99 <= B` stay safe.
class Histogram {
 public:
  static constexpr std::size_t kSubBuckets = 32;

  struct Options {
    int min_exp2 = -10;      // 2^-10 ms ~ 1 us
    int max_exp2 = 26;       // 2^26 ms ~ 18.6 h
    std::size_t lanes = 1;   // one independent writer per lane
  };

  Histogram() : Histogram(Options{}) {}
  explicit Histogram(Options opts);

  // Hot path: single-writer per lane, zero allocations.
  void record(std::size_t lane, double value);
  void record(double value) { record(0, value); }

  // Aggregates merged across lanes (call only when writers are
  // quiescent -- between epoch windows or after a join).
  std::uint64_t count() const;
  double sum() const;
  double min() const;  // exact; +inf when empty
  double max() const;  // exact; -inf when empty
  double percentile(double q) const;  // lower-edge estimate; 0 if empty

  std::size_t lanes() const { return lanes_.size(); }
  std::size_t bucket_count() const { return n_buckets_; }
  std::vector<std::uint64_t> merged_buckets() const;
  int min_exp2() const { return min_exp2_; }

  // Shared with Snapshot deltas: lower-edge percentile over an
  // arbitrary bucket array laid out like this histogram's.
  static double percentile_from_buckets(const std::vector<std::uint64_t>& b,
                                        std::uint64_t count, int min_exp2,
                                        double q, double clamp_lo,
                                        double clamp_hi);

 private:
  struct alignas(64) Lane {
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  std::size_t index_of(double value) const;

  int min_exp2_;
  int max_exp2_;
  std::size_t n_buckets_;
  std::vector<Lane> lanes_;
};

// A deterministic snapshot of every registered metric, in registration
// order.  Two runs that execute the same event trace and register the
// same metrics in the same order produce byte-identical exports.
struct Snapshot {
  enum class Kind : std::uint8_t {
    kCounter,  // monotonic; delta() subtracts
    kGauge,    // level/peak; delta() keeps the later value
  };
  struct Scalar {
    std::string name;
    double value = 0.0;
    Kind kind = Kind::kCounter;
  };
  struct Hist {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;   // exact (0 when empty)
    double max = 0.0;   // exact (0 when empty)
    double p50 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    int min_exp2 = 0;
    std::vector<std::uint64_t> buckets;
  };

  std::vector<Scalar> scalars;
  std::vector<Hist> hists;

  // Per-phase delta: counters subtract, gauges keep the later value,
  // histogram buckets subtract (percentiles recomputed on the delta).
  Snapshot delta(const Snapshot& earlier) const;
};

class Registry {
 public:
  using Kind = Snapshot::Kind;
  using Probe = std::function<double()>;

  // An owned counter cell with a registry-stable address.  Hot path:
  // `cell->add()` -- a plain increment (single writer).
  struct Counter {
    std::uint64_t value = 0;
    void add(std::uint64_t n = 1) { value += n; }
  };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Owned counter (stable address until the registry dies).
  Counter* counter(std::string name);

  // Linked scalar: reads `*cell` at snapshot time.  The cell must
  // outlive the registry; use probe() for a value read through a call.
  void link_counter(std::string name, const std::uint64_t* cell);
  void link_gauge(std::string name, const std::uint64_t* cell);
  void link_value(std::string name, const double* cell,
                  Kind kind = Kind::kGauge);

  // Snapshot-time callable; never invoked on the hot path.
  void probe(std::string name, Probe fn, Kind kind = Kind::kCounter);

  // Owned lane-sharded histogram (stable address).
  Histogram* histogram(std::string name,
                       Histogram::Options opts = Histogram::Options{});

  Snapshot snapshot() const;

  std::size_t size() const { return entries_.size() + hists_.size(); }

 private:
  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    const std::uint64_t* u64 = nullptr;  // linked or owned counter
    const double* f64 = nullptr;         // linked gauge
    Probe fn;                            // probe
  };
  struct HistEntry {
    std::string name;
    Histogram hist;
    HistEntry(std::string n, Histogram::Options opts)
        : name(std::move(n)), hist(opts) {}
  };

  std::deque<Counter> owned_;      // stable addresses
  std::vector<Entry> entries_;     // registration order
  std::deque<HistEntry> hists_;    // stable addresses, registration order
};

}  // namespace xartrek::obs
