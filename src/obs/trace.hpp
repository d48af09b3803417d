// Simulated-time span tracing of the job lifecycle.
//
// Spans are drawn from a per-lane `sim::SlotPool` slab (zero
// steady-state allocations once the pools and done-lists have reached
// their high-water capacity).  A lane is a single-writer domain -- one
// lane per cell/shard -- so the hot path needs no atomics; the
// `ShardedSimulation` epoch barriers (or a thread join) order the
// writers against the exporting reader, exactly like the metrics
// registry.
//
// Trace context rides with the work it tags: the tracked-job trace id
// (cluster job id + 1; 0 means "untracked infrastructure work") is
// carried as the placement request's pid through the scheduler's batch
// pass, and its job id rides in the drain's callbacks across the
// checkpointed drain hop, which is what lets one job's spans stitch
// across cells.
//
// Sampling: `sampling == 0` disables tracing entirely (a bit-identical
// no-op -- the tracer never touches simulation state, so attached or
// not the event trace is unchanged); `sampling == N` keeps trace ids
// with `id % N == 0`.  Defining XARTREK_OBS_NO_TRACING compiles every
// emission site down to nothing.
//
// Exported span order is (start_ms, lane, seq) -- a pure function of
// the deterministic event trace, so serial and parallel runs export
// byte-identical traces.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "sim/slot_pool.hpp"

namespace xartrek::obs {

// Track ids group spans into named rows inside one lane (Perfetto
// renders lanes as processes and tracks as threads).
enum Track : std::uint32_t {
  kTrackJob = 0,    // submit / run / backoff / complete
  kTrackSched = 1,  // batch decide / placement decisions
  kTrackFpga = 2,   // slot programming / whole-image reconfigure
  // Stays 5, not 3, so exported tids match earlier traces.
  kTrackDrain = 5,  // checkpointed drain legs
};

struct Span {
  const char* name = nullptr;  // static string (taxonomy in docs/observability.md)
  std::uint64_t trace_id = 0;  // 0 = untracked infrastructure work
  std::uint64_t seq = 0;       // per-lane emission order (deterministic)
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::uint32_t lane = 0;   // cell / shard (exported as pid)
  std::uint32_t track = 0;  // Track (exported as tid)
};

// Handle to an open span; generation-checked so a stale ref after
// clear() is harmless.
struct SpanRef {
  std::uint32_t lane = 0;
  std::uint32_t slot = sim::SlotPool<Span>::kNoSlot;
  std::uint32_t generation = 0;
  [[nodiscard]] bool valid() const {
    return slot != sim::SlotPool<Span>::kNoSlot;
  }
};

class Tracer {
 public:
  struct Options {
    // 0 = off (bit-identical no-op), N = trace ids with id % N == 0.
    std::uint64_t sampling = 1;
    // Per-lane capacity reserved up front for completed spans.
    std::size_t reserve = 4096;
  };

  explicit Tracer(std::size_t lanes) : Tracer(lanes, Options{}) {}
  Tracer(std::size_t lanes, Options opts);

  [[nodiscard]] bool enabled() const {
#ifdef XARTREK_OBS_NO_TRACING
    return false;
#else
    return opts_.sampling != 0;
#endif
  }

  // True when spans for this trace id should be recorded.  id 0
  // (infrastructure) is sampled whenever tracing is on.
  [[nodiscard]] bool sampled(std::uint64_t trace_id) const {
#ifdef XARTREK_OBS_NO_TRACING
    (void)trace_id;
    return false;
#else
    return opts_.sampling != 0 && trace_id % opts_.sampling == 0;
#endif
  }

#ifdef XARTREK_OBS_NO_TRACING
  SpanRef begin(std::uint32_t, std::uint32_t, const char*, std::uint64_t,
                TimePoint) {
    return {};
  }
  void end(SpanRef, TimePoint) {}
  void emit(std::uint32_t, std::uint32_t, const char*, std::uint64_t,
            TimePoint, TimePoint) {}
  void instant(std::uint32_t, std::uint32_t, const char*, std::uint64_t,
               TimePoint) {}
#else
  // Open a span on `lane` (must be the executing shard); zero-alloc in
  // steady state.  Returns an invalid ref when the id is not sampled.
  SpanRef begin(std::uint32_t lane, std::uint32_t track, const char* name,
                std::uint64_t trace_id, TimePoint start);
  // Close an open span; invalid/stale refs are ignored.
  void end(SpanRef ref, TimePoint end);
  // Record a complete span in one call (both endpoints known).
  void emit(std::uint32_t lane, std::uint32_t track, const char* name,
            std::uint64_t trace_id, TimePoint start, TimePoint end);
  // Record a zero-duration marker.
  void instant(std::uint32_t lane, std::uint32_t track, const char* name,
               std::uint64_t trace_id, TimePoint at) {
    emit(lane, track, name, trace_id, at, at);
  }
#endif

  [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }
  // Completed spans across all lanes (read only when writers are
  // quiescent).
  [[nodiscard]] std::size_t span_count() const;
  // Deterministic export order: (start_ms, lane, seq).
  [[nodiscard]] std::vector<Span> sorted_spans() const;
  // Drop all spans, keeping slab and vector capacity.
  void clear();

 private:
  struct alignas(64) Lane {
    sim::SlotPool<Span> open;
    std::vector<Span> done;
    std::uint64_t seq = 0;
  };

  Options opts_;
  std::vector<Lane> lanes_;
};

}  // namespace xartrek::obs
