// Observability layer: histogram percentile bounds vs exact statistics,
// registry snapshots and deltas, tracer span mechanics, and the
// cluster-level determinism contract -- serial and parallel gray-storm
// runs export byte-identical Perfetto traces and metrics snapshots, a
// sampling=0 tracer is a bit-identical no-op, and a drained job's spans
// stitch across cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "apps/benchmark_spec.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exp/cluster.hpp"
#include "exp/threshold_estimator.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/fault.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"

namespace xartrek {
namespace {

// --- histogram --------------------------------------------------------------

double exact_quantile(std::vector<double> sorted, double q) {
  const auto idx = static_cast<std::size_t>(std::ceil(
                       q * static_cast<double>(sorted.size()))) -
                   1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

TEST(ObsHistogramTest, PercentileNeverOverestimatesAndErrorIsBounded) {
  obs::Histogram h;
  RunningStats exact;
  std::vector<double> values;
  Rng rng(0xBEEF);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~9 decades, exercising many octaves.
    const double v = std::exp(rng.uniform_real(-6.0, 14.0));
    h.record(v);
    exact.add(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());

  EXPECT_EQ(h.count(), exact.count());
  EXPECT_NEAR(h.sum(), exact.sum(), exact.sum() * 1e-12);
  EXPECT_DOUBLE_EQ(h.min(), exact.min());  // exact, not bucketed
  EXPECT_DOUBLE_EQ(h.max(), exact.max());

  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double est = h.percentile(q);
    const double truth = exact_quantile(values, q);
    // Lower-edge estimate: never above the true quantile, and at most
    // one sub-bucket (1/32, plus slack for the edge) below it.
    EXPECT_LE(est, truth) << "q=" << q;
    EXPECT_GE(est, truth * (1.0 - 2.0 / 32.0)) << "q=" << q;
  }
}

TEST(ObsHistogramTest, ExtremesLandInUnderflowAndOverflowBuckets) {
  obs::Histogram h;
  h.record(0.0);      // below 2^-10 ms
  h.record(1e300);    // above 2^26 ms
  h.record(-3.0);     // negative: underflow, never UB
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e300);
  // Percentiles stay inside the exact observed range.
  EXPECT_GE(h.percentile(0.5), h.min());
  EXPECT_LE(h.percentile(0.999), h.max());
}

TEST(ObsHistogramTest, LaneShardingMergesToTheSameBuckets) {
  obs::Histogram::Options opts;
  opts.lanes = 4;
  obs::Histogram sharded(opts);
  obs::Histogram single;
  Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    const double v = rng.uniform_real(0.001, 5000.0);
    sharded.record(static_cast<std::size_t>(i % 4), v);
    single.record(v);
  }
  EXPECT_EQ(sharded.count(), single.count());
  EXPECT_EQ(sharded.merged_buckets(), single.merged_buckets());
  EXPECT_DOUBLE_EQ(sharded.percentile(0.99), single.percentile(0.99));
}

// --- registry ---------------------------------------------------------------

TEST(ObsRegistryTest, CountersLinksProbesAndHistogramsSnapshotInOrder) {
  obs::Registry reg;
  obs::Registry::Counter* c = reg.counter("a.counter");
  std::uint64_t linked = 0;
  reg.link_counter("b.linked", &linked);
  double level = 0.0;
  reg.link_value("c.gauge", &level, obs::Registry::Kind::kGauge);
  reg.probe("d.probe", [] { return 42.0; });
  obs::Histogram* h = reg.histogram("e.hist");

  c->add(3);
  linked = 7;
  level = 1.5;
  h->record(10.0);

  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.scalars.size(), 4u);
  EXPECT_EQ(snap.scalars[0].name, "a.counter");
  EXPECT_DOUBLE_EQ(snap.scalars[0].value, 3.0);
  EXPECT_EQ(snap.scalars[1].name, "b.linked");
  EXPECT_DOUBLE_EQ(snap.scalars[1].value, 7.0);
  EXPECT_EQ(snap.scalars[2].name, "c.gauge");
  EXPECT_DOUBLE_EQ(snap.scalars[2].value, 1.5);
  EXPECT_EQ(snap.scalars[3].name, "d.probe");
  EXPECT_DOUBLE_EQ(snap.scalars[3].value, 42.0);
  ASSERT_EQ(snap.hists.size(), 1u);
  EXPECT_EQ(snap.hists[0].count, 1u);
}

TEST(ObsRegistryTest, DeltaSubtractsCountersAndKeepsGauges) {
  obs::Registry reg;
  obs::Registry::Counter* c = reg.counter("events");
  double peak = 10.0;
  reg.link_value("peak", &peak, obs::Registry::Kind::kGauge);
  obs::Histogram* h = reg.histogram("lat");
  c->add(5);
  h->record(1.0);
  const obs::Snapshot before = reg.snapshot();
  c->add(2);
  peak = 12.0;
  h->record(100.0);
  h->record(100.0);
  const obs::Snapshot after = reg.snapshot();

  const obs::Snapshot d = after.delta(before);
  EXPECT_DOUBLE_EQ(d.scalars[0].value, 2.0);   // counter: subtracted
  EXPECT_DOUBLE_EQ(d.scalars[1].value, 12.0);  // gauge: later value
  ASSERT_EQ(d.hists.size(), 1u);
  EXPECT_EQ(d.hists[0].count, 2u);  // only the window's samples
  // The window's percentile reflects the window's values (both 100).
  EXPECT_LE(d.hists[0].p50, 100.0);
  EXPECT_GT(d.hists[0].p50, 50.0);
}

// --- tracer -----------------------------------------------------------------

TEST(ObsTracerTest, SpansSortDeterministicallyAndClearKeepsCapacity) {
  obs::Tracer tracer(2);
  ASSERT_TRUE(tracer.enabled());
  tracer.emit(1, obs::kTrackJob, "b", 2, TimePoint::at_ms(5.0),
              TimePoint::at_ms(9.0));
  const obs::SpanRef ref =
      tracer.begin(0, obs::kTrackSched, "a", 1, TimePoint::at_ms(5.0));
  EXPECT_TRUE(ref.valid());
  tracer.end(ref, TimePoint::at_ms(7.0));
  tracer.instant(0, obs::kTrackJob, "c", 1, TimePoint::at_ms(1.0));

  const std::vector<obs::Span> spans = tracer.sorted_spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "c");  // earliest start first
  EXPECT_STREQ(spans[1].name, "a");  // tie on start: lane 0 before 1
  EXPECT_STREQ(spans[2].name, "b");
  EXPECT_DOUBLE_EQ(spans[1].end_ms - spans[1].start_ms, 2.0);

  tracer.clear();
  EXPECT_EQ(tracer.span_count(), 0u);
  // Ending a stale ref after clear() is harmless (generation check).
  tracer.end(ref, TimePoint::at_ms(8.0));
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(ObsTracerTest, SamplingZeroDisablesAndNKeepsMultiples) {
  obs::Tracer::Options off;
  off.sampling = 0;
  obs::Tracer none(1, off);
  EXPECT_FALSE(none.enabled());
  EXPECT_FALSE(none.sampled(0));
  EXPECT_FALSE(none.sampled(7));
  EXPECT_FALSE(none.begin(0, 0, "x", 1, TimePoint::at_ms(0.0)).valid());
  none.emit(0, 0, "x", 1, TimePoint::at_ms(0.0), TimePoint::at_ms(1.0));
  EXPECT_EQ(none.span_count(), 0u);

  obs::Tracer::Options every4;
  every4.sampling = 4;
  obs::Tracer some(1, every4);
  EXPECT_TRUE(some.sampled(0));  // infrastructure: always on when enabled
  EXPECT_TRUE(some.sampled(8));
  EXPECT_FALSE(some.sampled(9));
}

// --- cluster-level determinism contract -------------------------------------

const runtime::ThresholdTable& shared_table() {
  static const exp::EstimationResult result =
      exp::ThresholdEstimator().estimate(apps::paper_benchmarks());
  return result.table;
}

sim::FaultPlan storm_plan() {
  sim::FaultPlan plan;
  plan.add({sim::FaultEvent::Kind::kCellSlow, TimePoint::at_ms(15.0), 0,
            0.25, TimePoint::at_ms(120.0)});
  plan.add({sim::FaultEvent::Kind::kLinkDegraded, TimePoint::at_ms(20.0), 1,
            0.3, TimePoint::at_ms(200.0)});
  plan.add({sim::FaultEvent::Kind::kPortFlaky, TimePoint::at_ms(20.0), 2,
            0.5, TimePoint::at_ms(250.0)});
  plan.add({sim::FaultEvent::Kind::kDsmCorrupt, TimePoint::at_ms(20.0), 1,
            0.5, TimePoint::at_ms(200.0)});
  plan.add({sim::FaultEvent::Kind::kCellKill, TimePoint::at_ms(50.0), 1});
  return plan;
}

struct ObsRun {
  std::string trace;
  std::string metrics;
  std::vector<double> completions;
  std::size_t spans = 0;
};

ObsRun run_traced_storm(bool parallel, std::uint64_t sampling) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 3;
  spec.parallel = parallel;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);
  obs::Tracer::Options topts;
  topts.sampling = sampling;
  cluster.enable_tracing(topts);

  for (std::size_t c = 0; c < 3; ++c) {
    cluster.submit(c, "facedet320");
    cluster.submit(c, "digit500");
  }
  cluster.apply_fault_plan(storm_plan());
  EXPECT_TRUE(cluster.run_until_jobs_complete());
  EXPECT_EQ(cluster.completed_jobs(), cluster.submitted_jobs());

  ObsRun out;
  out.trace = obs::perfetto_trace_json(*cluster.tracer());
  out.metrics = obs::metrics_json(cluster.registry().snapshot());
  out.completions = cluster.job_completion_times_ms();
  out.spans = cluster.tracer()->span_count();
  return out;
}

TEST(ObsClusterTest, GrayStormExportsAreByteIdenticalSerialVsParallel) {
  const ObsRun serial = run_traced_storm(false, 1);
  const ObsRun threaded = run_traced_storm(true, 1);
  EXPECT_GT(serial.spans, 0u);
  // The whole export -- span order, timestamps, metric values -- is a
  // pure function of the deterministic event trace.
  EXPECT_EQ(serial.trace, threaded.trace);
  EXPECT_EQ(serial.metrics, threaded.metrics);
}

TEST(ObsClusterTest, SamplingZeroTracerIsABitIdenticalNoOp) {
  const ObsRun traced = run_traced_storm(true, 1);
  const ObsRun off = run_traced_storm(true, 0);
  EXPECT_EQ(off.spans, 0u);
  // Attached-but-disabled tracing never perturbs the simulation: every
  // job completes at the exact same instant.
  ASSERT_EQ(traced.completions.size(), off.completions.size());
  for (std::size_t i = 0; i < traced.completions.size(); ++i) {
    EXPECT_DOUBLE_EQ(traced.completions[i], off.completions[i]) << i;
  }
}

TEST(ObsClusterTest, DrainedJobSpansStitchAcrossCells) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 3;
  spec.parallel = true;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);
  cluster.enable_tracing();
  for (std::size_t c = 0; c < 3; ++c) {
    cluster.submit(c, "facedet320");
    cluster.submit(c, "digit500");
  }
  cluster.apply_fault_plan(storm_plan());
  ASSERT_TRUE(cluster.run_until_jobs_complete());

  // Cell 1 died mid-run, so its jobs drained to cell 2: their trace ids
  // must appear on at least two lanes, with the drain legs on the dying
  // cell and the landing + completion on the survivor.
  std::size_t stitched = 0;
  for (std::uint64_t id = 0; id < cluster.submitted_jobs(); ++id) {
    const std::uint64_t tid = exp::ClusterExperiment::trace_id_of(id);
    std::vector<std::uint32_t> lanes;
    bool landed = false;
    bool drained = false;
    bool completed = false;
    for (const obs::Span& s : cluster.tracer()->sorted_spans()) {
      if (s.trace_id != tid) continue;
      lanes.push_back(s.lane);
      landed |= std::string_view(s.name) == "job.land";
      drained |= std::string_view(s.name) == "drain.transfer";
      completed |= std::string_view(s.name) == "job.complete";
    }
    std::sort(lanes.begin(), lanes.end());
    lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
    if (lanes.size() >= 2) {
      ++stitched;
      EXPECT_TRUE(landed);
      EXPECT_TRUE(drained);
      EXPECT_TRUE(completed);
    }
  }
  EXPECT_GT(stitched, 0u);

  // The drain's modeled cost: every transform leg is the checkpoint's
  // constant CPU charge, and job 2 (running on cell 1 at the kill, so
  // drained to cell 2) completes at the instant it always has.
  std::size_t transforms = 0;
  for (const obs::Span& s : cluster.tracer()->sorted_spans()) {
    if (std::string_view(s.name) != "drain.transform") continue;
    ++transforms;
    EXPECT_EQ(s.end_ms,
              (TimePoint::at_ms(s.start_ms) + Duration::micros(159.25))
                  .to_ms());
  }
  EXPECT_GT(transforms, 0u);
  EXPECT_EQ(cluster.job_completion_times_ms()[2], 237.37667472853477);
}

TEST(ObsClusterTest, MailboxPairHighWaterIsExportedAndExact) {
  const auto specs = apps::paper_benchmarks();
  exp::ClusterSpec spec;
  spec.cells = 3;
  spec.parallel = false;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(specs, shared_table(), spec, options);
  for (std::size_t c = 0; c < 3; ++c) cluster.submit(c, "facedet320");
  cluster.apply_fault_plan(storm_plan());
  ASSERT_TRUE(cluster.run_until_jobs_complete());

  const obs::Snapshot snap = cluster.registry().snapshot();
  std::uint64_t exported_total = 0;
  std::size_t pair_gauges = 0;
  for (const obs::Snapshot::Scalar& s : snap.scalars) {
    if (s.name.find("sim.mailbox.") != 0) continue;
    ++pair_gauges;
    // The exported gauge reads exactly what the engine reports.
    const std::size_t us = s.name.find('.', 12);
    const std::string pair = s.name.substr(12, us - 12);
    const auto sep = pair.find('_');
    const auto src = static_cast<sim::ShardId>(std::stoul(
        pair.substr(0, sep)));
    const auto dst = static_cast<sim::ShardId>(std::stoul(
        pair.substr(sep + 1)));
    EXPECT_DOUBLE_EQ(
        s.value,
        static_cast<double>(
            cluster.engine().engine().mailbox_pair_hwm(src, dst)));
    exported_total += static_cast<std::uint64_t>(s.value);
  }
  EXPECT_EQ(pair_gauges, 6u);  // 3 shards, src != dst
  // The storm crossed cells (placement replies, drains), so some pair
  // saw traffic.
  EXPECT_GT(exported_total, 0u);
}

}  // namespace
}  // namespace xartrek
