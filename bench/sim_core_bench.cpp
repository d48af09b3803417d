// Hot-path benchmark for the event engine and the scheduler wire codec.
//
// Drives >= 1M events through the pooled simulation core and >= 100k
// placement round-trips through the single-pass protocol codec, and
// compares both against faithful replicas of the pre-refactor designs
// (shared_ptr-per-event priority_queue core; two-BinaryWriter concat
// framing).  A global counting-allocator hook measures bytes and calls
// allocated per event/request.  Results land in BENCH_sim_core.json so
// future perf PRs have a tracked trajectory (schema: docs/perf.md).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "common/binary_io.hpp"
#include "common/cpu_time.hpp"
#include "common/time.hpp"
#include "runtime/protocol.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"

#include "bench/alloc_hook.hpp"

namespace xartrek::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CI smoke mode: same shapes, reduced iteration counts (the
/// bench-smoke workflow compares machine-neutral ratios, so shorter
/// runs keep the gate fast without losing signal).
bool smoke_mode() { return std::getenv("XARTREK_BENCH_SMOKE") != nullptr; }

// --- legacy event engine (the seed design, copied verbatim) ----------------

class LegacySimulation {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// The seed's EventHandle: a refcounted liveness flag.
  class Handle {
   public:
    Handle() = default;
    explicit Handle(std::shared_ptr<bool> alive) : alive_(std::move(alive)) {}
    void cancel() {
      if (alive_) *alive_ = false;
    }

   private:
    std::shared_ptr<bool> alive_;
  };

  Handle schedule_at(TimePoint t, Callback cb) {
    XAR_EXPECTS(t >= now_);
    XAR_EXPECTS(cb != nullptr);
    auto alive = std::make_shared<bool>(true);
    queue_.push(Event{t, next_seq_++, alive, std::move(cb)});
    return Handle{std::move(alive)};
  }
  Handle schedule_in(Duration d, Callback cb) {
    XAR_EXPECTS(d >= Duration::zero());
    return schedule_at(now_ + d, std::move(cb));
  }

  std::size_t run() {
    std::size_t n = 0;
    while (step(TimePoint::at_ms(std::numeric_limits<double>::infinity()))) {
      ++n;
    }
    return n;
  }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    std::shared_ptr<bool> alive;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool step(TimePoint horizon) {
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      if (top.at > horizon) return false;
      Event ev{top.at, top.seq, top.alive,
               std::move(const_cast<Event&>(top).cb)};
      queue_.pop();
      if (!*ev.alive) continue;
      XAR_ASSERT(ev.at >= now_);
      now_ = ev.at;
      *ev.alive = false;
      ev.cb();
      return true;
    }
    return false;
  }

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

// --- legacy protocol framing (two writers + concat) ------------------------

std::vector<std::byte> legacy_encode_request(
    const runtime::PlacementRequestMsg& m) {
  BinaryWriter payload;
  payload.str(m.app);
  payload.str(m.kernel);
  payload.u32(m.pid);
  BinaryWriter framed;
  framed.u16(runtime::kProtocolMagic);
  framed.u8(runtime::kProtocolVersion);
  framed.u8(static_cast<std::uint8_t>(runtime::MessageType::kPlacementRequest));
  framed.u32(static_cast<std::uint32_t>(payload.size()));
  auto out = framed.take();
  auto body = payload.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::vector<std::byte> legacy_encode_reply(
    const runtime::PlacementReplyMsg& m) {
  BinaryWriter payload;
  payload.u8(static_cast<std::uint8_t>(m.target));
  payload.u8(m.wait_for_fpga ? 1 : 0);
  payload.i32(m.observed_load);
  BinaryWriter framed;
  framed.u16(runtime::kProtocolMagic);
  framed.u8(runtime::kProtocolVersion);
  framed.u8(static_cast<std::uint8_t>(runtime::MessageType::kPlacementReply));
  framed.u32(static_cast<std::uint32_t>(payload.size()));
  auto out = framed.take();
  auto body = payload.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

// --- workloads -------------------------------------------------------------

/// Self-rescheduling chain: each fired event schedules its successor,
/// so the pool/queue holds `chains` events in steady state while
/// `total` events execute overall.  The callback captures one pointer
/// and fits the engines' small-object buffers.  With `cancelling` set,
/// every firing also schedules a decoy event and cancels the previous
/// decoy -- the cancel-and-reschedule pattern PsResource and the load
/// monitor drive on every submit/tick, which exercises husk reaping.
template <typename Sim, typename Handle>
struct Churn {
  Sim* sim = nullptr;
  std::uint64_t budget = 0;
  std::uint64_t fired = 0;
  double period_ms = 1.0;
  bool cancelling = false;
  Handle decoy;

  void fire() {
    ++fired;
    if (cancelling) decoy.cancel();
    if (budget == 0) return;
    --budget;
    if (cancelling) {
      decoy = sim->schedule_in(Duration::ms(period_ms * 5.0), [] {});
    }
    sim->schedule_in(Duration::ms(period_ms), [this] { fire(); });
  }
};

struct ChurnResult {
  double seconds = 0;
  std::uint64_t events = 0;
  AllocSnapshot allocs{};  // during the measured (steady-state) phase
};

template <typename Sim, typename Handle>
ChurnResult run_churn(std::uint64_t total_events, std::uint64_t warmup,
                      std::size_t chains, bool cancelling) {
  Sim sim;
  std::vector<Churn<Sim, Handle>> lanes(chains);
  const std::uint64_t per_lane = (total_events + warmup) / chains;
  for (std::size_t i = 0; i < chains; ++i) {
    lanes[i].sim = &sim;
    lanes[i].budget = per_lane - 1;
    lanes[i].period_ms = 0.25 + 0.5 * static_cast<double>(i % 7);
    lanes[i].cancelling = cancelling;
    Churn<Sim, Handle>* lane = &lanes[i];
    sim.schedule_in(Duration::ms(lane->period_ms), [lane] { lane->fire(); });
  }
  // Warm the pool/queue/function storage, then measure the steady
  // state.  The legacy replica has no single-step API; it is measured
  // from cold, which only helps it on the allocation metric (its
  // per-event shared_ptr allocations dwarf one-time queue growth).
  if constexpr (std::is_same_v<Sim, sim::Simulation>) {
    std::uint64_t stepped = 0;
    while (stepped < warmup && sim.step_one(TimePoint::at_ms(1e18))) {
      ++stepped;
    }
  }
  const AllocSnapshot before = alloc_snapshot();
  const auto start = Clock::now();
  const std::size_t ran = sim.run();
  const double secs = seconds_since(start);
  const AllocSnapshot after = alloc_snapshot();
  ChurnResult r;
  r.seconds = secs;
  r.events = ran;
  r.allocs = {after.calls - before.calls, after.bytes - before.bytes};
  return r;
}

struct ProtoResult {
  double seconds = 0;
  std::uint64_t round_trips = 0;
  AllocSnapshot allocs{};
};

ProtoResult run_protocol_pooled(std::uint64_t round_trips) {
  runtime::PlacementRequestMsg request{"facedet320", "KNL_HW_FD320", 4242};
  runtime::PlacementReplyMsg reply{runtime::Target::kFpga, false, 17};
  std::vector<std::byte> scratch;
  // Warm the scratch buffer and the decode path once.
  runtime::encode_message_into(request, scratch);
  (void)runtime::decode_message(scratch);
  std::uint64_t decoded = 0;
  const AllocSnapshot before = alloc_snapshot();
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < round_trips; ++i) {
    runtime::encode_message_into(request, scratch);
    const auto req = runtime::decode_message(scratch);
    decoded += std::get<runtime::PlacementRequestMsg>(req).pid != 0;
    runtime::encode_message_into(reply, scratch);
    const auto rep = runtime::decode_message(scratch);
    decoded +=
        std::get<runtime::PlacementReplyMsg>(rep).observed_load != 0;
  }
  const double secs = seconds_since(start);
  const AllocSnapshot after = alloc_snapshot();
  if (decoded != 2 * round_trips) std::abort();  // defeat dead-code elim
  ProtoResult r;
  r.seconds = secs;
  r.round_trips = round_trips;
  r.allocs = {after.calls - before.calls, after.bytes - before.bytes};
  return r;
}

ProtoResult run_protocol_view(std::uint64_t round_trips) {
  // Borrowed decode: same framed round trips, but the decode side hands
  // back string_views into the frame instead of owning strings.
  runtime::PlacementRequestMsg request{"facedet320", "KNL_HW_FD320", 4242};
  runtime::PlacementReplyMsg reply{runtime::Target::kFpga, false, 17};
  std::vector<std::byte> scratch;
  runtime::encode_message_into(request, scratch);
  (void)runtime::decode_message_view(scratch);
  std::uint64_t decoded = 0;
  const AllocSnapshot before = alloc_snapshot();
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < round_trips; ++i) {
    runtime::encode_message_into(request, scratch);
    const auto req = runtime::decode_message_view(scratch);
    decoded += std::get<runtime::PlacementRequestView>(req).pid != 0;
    runtime::encode_message_into(reply, scratch);
    const auto rep = runtime::decode_message_view(scratch);
    decoded +=
        std::get<runtime::PlacementReplyMsg>(rep).observed_load != 0;
  }
  const double secs = seconds_since(start);
  const AllocSnapshot after = alloc_snapshot();
  if (decoded != 2 * round_trips) std::abort();
  ProtoResult r;
  r.seconds = secs;
  r.round_trips = round_trips;
  r.allocs = {after.calls - before.calls, after.bytes - before.bytes};
  return r;
}

ProtoResult run_protocol_legacy(std::uint64_t round_trips) {
  runtime::PlacementRequestMsg request{"facedet320", "KNL_HW_FD320", 4242};
  runtime::PlacementReplyMsg reply{runtime::Target::kFpga, false, 17};
  std::uint64_t decoded = 0;
  const AllocSnapshot before = alloc_snapshot();
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < round_trips; ++i) {
    const auto wire_req = legacy_encode_request(request);
    const auto req = runtime::decode_message(wire_req);
    decoded += std::get<runtime::PlacementRequestMsg>(req).pid != 0;
    const auto wire_rep = legacy_encode_reply(reply);
    const auto rep = runtime::decode_message(wire_rep);
    decoded +=
        std::get<runtime::PlacementReplyMsg>(rep).observed_load != 0;
  }
  const double secs = seconds_since(start);
  const AllocSnapshot after = alloc_snapshot();
  if (decoded != 2 * round_trips) std::abort();
  ProtoResult r;
  r.seconds = secs;
  r.round_trips = round_trips;
  r.allocs = {after.calls - before.calls, after.bytes - before.bytes};
  return r;
}

// --- sharded engine ---------------------------------------------------------

/// The multi-queue scaling workload: `total_chains` self-rescheduling
/// lanes spread across the shards, every `post_every`-th firing handing
/// a token to the next shard over a 2 ms cross-shard latency (>= the
/// 1 ms epoch).  The single-queue baseline runs the identical workload
/// on one plain Simulation (tokens become local 2 ms events), so the
/// comparison isolates the engine, not the model.
constexpr double kShardEpochMs = 1.0;
constexpr double kTokenLatencyMs = 2.0;
constexpr std::uint32_t kPostEvery = 16;

struct ShardLane {
  sim::ShardedSimulation* ssim = nullptr;
  sim::Simulation* local = nullptr;
  sim::ShardId home = 0;
  sim::ShardId next_shard = 0;
  std::uint64_t budget = 0;
  std::uint64_t fired = 0;
  double period_ms = 1.0;

  void fire() {
    ++fired;
    if (budget == 0) return;
    --budget;
    if (fired % kPostEvery == 0) {
      ssim->post(home, next_shard,
                 local->now() + Duration::ms(kTokenLatencyMs), [] {});
    }
    local->schedule_in(Duration::ms(period_ms), [this] { fire(); });
  }
};

struct ShardResult {
  double wall_seconds = 0;
  double busy_seconds = 0;  ///< summed per-shard thread-CPU time
  std::uint64_t events = 0;
  std::uint64_t posts = 0;
  /// Sum over shards of events_i / busy_i: aggregate processing
  /// capacity with one core per shard.  On an unloaded multicore host
  /// this converges to wall_events_per_sec.
  double aggregate_events_per_sec = 0;
};

ShardResult run_sharded(std::size_t shards, bool parallel,
                        std::uint64_t total_events,
                        std::size_t total_chains) {
  sim::ShardedSimulation ssim(sim::ShardedSimulation::Options{
      .shards = shards, .epoch = Duration::ms(kShardEpochMs),
      .parallel = parallel});
  std::vector<ShardLane> lanes(total_chains);
  const std::uint64_t per_lane = total_events / total_chains;
  for (std::size_t s = 0; s < shards; ++s) {
    ssim.shard(static_cast<sim::ShardId>(s))
        .reserve_events(2 * total_chains / shards + 64);
  }
  for (std::size_t i = 0; i < total_chains; ++i) {
    ShardLane& lane = lanes[i];
    lane.ssim = &ssim;
    lane.home = static_cast<sim::ShardId>(i % shards);
    lane.next_shard = static_cast<sim::ShardId>((i + 1) % shards);
    lane.local = &ssim.shard(lane.home);
    lane.budget = per_lane - 1;
    lane.period_ms = 0.25 + 0.5 * static_cast<double>(i % 7);
    ShardLane* p = &lane;
    lane.local->schedule_in(Duration::ms(lane.period_ms),
                            [p] { p->fire(); });
  }
  const auto start = Clock::now();
  const std::size_t ran = ssim.run();
  ShardResult r;
  r.wall_seconds = seconds_since(start);
  r.events = ran;
  for (sim::ShardId s = 0; s < ssim.shard_count(); ++s) {
    const sim::ShardStats& st = ssim.stats(s);
    r.busy_seconds += st.busy_seconds;
    r.posts += st.posts;
    if (st.busy_seconds > 0.0) {
      r.aggregate_events_per_sec +=
          static_cast<double>(st.executed) / st.busy_seconds;
    }
  }
  return r;
}

ShardResult run_single_queue(std::uint64_t total_events,
                             std::size_t total_chains) {
  // The same lanes and token pattern on today's single global queue.
  sim::Simulation sim;
  struct Lane {
    sim::Simulation* sim = nullptr;
    std::uint64_t budget = 0;
    std::uint64_t fired = 0;
    double period_ms = 1.0;
    void fire() {
      ++fired;
      if (budget == 0) return;
      --budget;
      if (fired % kPostEvery == 0) {
        sim->schedule_in(Duration::ms(kTokenLatencyMs), [] {});
      }
      sim->schedule_in(Duration::ms(period_ms), [this] { fire(); });
    }
  };
  std::vector<Lane> lanes(total_chains);
  const std::uint64_t per_lane = total_events / total_chains;
  sim.reserve_events(2 * total_chains + 64);
  for (std::size_t i = 0; i < total_chains; ++i) {
    lanes[i].sim = &sim;
    lanes[i].budget = per_lane - 1;
    lanes[i].period_ms = 0.25 + 0.5 * static_cast<double>(i % 7);
    Lane* p = &lanes[i];
    sim.schedule_in(Duration::ms(p->period_ms), [p] { p->fire(); });
  }
  const double cpu0 = thread_cpu_seconds();
  const auto start = Clock::now();
  const std::size_t ran = sim.run();
  ShardResult r;
  r.wall_seconds = seconds_since(start);
  r.busy_seconds = thread_cpu_seconds() - cpu0;
  r.events = ran;
  r.aggregate_events_per_sec =
      static_cast<double>(ran) / r.busy_seconds;
  return r;
}

// --- report ----------------------------------------------------------------

void emit_engine(std::ostream& os, const char* key, const ChurnResult& r) {
  os << "    \"" << key << "\": {\n"
     << "      \"seconds\": " << r.seconds << ",\n"
     << "      \"events_per_sec\": "
     << static_cast<double>(r.events) / r.seconds << ",\n"
     << "      \"alloc_calls_per_event\": "
     << static_cast<double>(r.allocs.calls) / static_cast<double>(r.events)
     << ",\n"
     << "      \"alloc_bytes_per_event\": "
     << static_cast<double>(r.allocs.bytes) / static_cast<double>(r.events)
     << "\n    }";
}

void emit_proto(std::ostream& os, const char* key, const ProtoResult& r) {
  os << "    \"" << key << "\": {\n"
     << "      \"seconds\": " << r.seconds << ",\n"
     << "      \"requests_per_sec\": "
     << static_cast<double>(r.round_trips) / r.seconds << ",\n"
     << "      \"alloc_calls_per_request\": "
     << static_cast<double>(r.allocs.calls) /
            static_cast<double>(r.round_trips)
     << ",\n"
     << "      \"alloc_bytes_per_request\": "
     << static_cast<double>(r.allocs.bytes) /
            static_cast<double>(r.round_trips)
     << "\n    }";
}

double rate(const ChurnResult& r) {
  return static_cast<double>(r.events) / r.seconds;
}

void emit_scenario(std::ostream& os, const char* key,
                   const ChurnResult& pooled, const ChurnResult& legacy) {
  os << "    \"" << key << "\": {\n  ";
  emit_engine(os, "pooled", pooled);
  os << ",\n  ";
  emit_engine(os, "legacy", legacy);
  os << ",\n      \"speedup\": " << rate(pooled) / rate(legacy)
     << "\n    }";
}

void emit_sharded(std::ostream& os, const char* key, const ShardResult& r) {
  os << "    \"" << key << "\": {\n"
     << "      \"wall_seconds\": " << r.wall_seconds << ",\n"
     << "      \"busy_seconds\": " << r.busy_seconds << ",\n"
     << "      \"events\": " << r.events << ",\n"
     << "      \"wall_events_per_sec\": "
     << static_cast<double>(r.events) / r.wall_seconds << ",\n"
     << "      \"aggregate_events_per_sec\": " << r.aggregate_events_per_sec
     << ",\n"
     << "      \"posts\": " << r.posts << "\n    }";
}

int bench_main() {
  const bool smoke = smoke_mode();
  const std::uint64_t kEvents = smoke ? 100'000 : 1'000'000;
  const std::uint64_t kWarmup = smoke ? 5'000 : 50'000;
  constexpr std::size_t kChains = 256;
  // The codec section is microseconds-per-10k cheap; smoke mode keeps
  // it at full scale so its speedup ratios stay out of the noise floor.
  const std::uint64_t kRoundTrips = 100'000;
  const std::uint64_t kShardEvents = smoke ? 250'000 : 1'500'000;
  // The sharded section models the wide regime the ROADMAP targets:
  // 4x the chain count of the churn scenarios, so each epoch carries
  // enough work to amortize the boundary synchronization.
  constexpr std::size_t kShardChains = 1024;

  using Pooled = sim::Simulation;
  using PooledHandle = sim::Simulation::EventHandle;

  std::cerr << "[sim_core_bench] steady churn: " << kEvents
            << " events across " << kChains << " chains...\n";
  // Every timed section runs twice and keeps the faster measurement:
  // the CI gate compares ratios of these numbers, and "best of N" is
  // the standard way to keep a neighbor's noisy timeslice out of them.
  auto best2 = [](auto f) {
    const auto a = f();
    const auto b = f();
    return a.seconds <= b.seconds ? a : b;
  };
  const auto pooled_steady = best2([&] {
    return run_churn<Pooled, PooledHandle>(kEvents, kWarmup, kChains, false);
  });
  const auto legacy_steady = best2([&] {
    return run_churn<LegacySimulation, LegacySimulation::Handle>(
        kEvents, kWarmup, kChains, false);
  });
  std::cerr << "[sim_core_bench] cancel churn (decoy + cancel per fire)...\n";
  const auto pooled_cancel = best2([&] {
    return run_churn<Pooled, PooledHandle>(kEvents, kWarmup, kChains, true);
  });
  const auto legacy_cancel = best2([&] {
    return run_churn<LegacySimulation, LegacySimulation::Handle>(
        kEvents, kWarmup, kChains, true);
  });

  std::cerr << "[sim_core_bench] protocol: " << kRoundTrips
            << " placement round-trips...\n";
  const auto proto_pooled = best2([&] {
    return run_protocol_pooled(kRoundTrips);
  });
  const auto proto_view = best2([&] { return run_protocol_view(kRoundTrips); });
  const auto proto_legacy = best2([&] {
    return run_protocol_legacy(kRoundTrips);
  });

  std::cerr << "[sim_core_bench] sharded engine: " << kShardEvents
            << " events across " << kShardChains << " chains...\n";
  // Best of two per config: thread scheduling on an oversubscribed
  // host occasionally steals a big slice of one run, and the gated
  // scaling ratios should reflect the engine, not the neighbor.
  auto best_sharded = [&](std::size_t shards, bool parallel) {
    const auto a = run_sharded(shards, parallel, kShardEvents,
                               kShardChains);
    const auto b = run_sharded(shards, parallel, kShardEvents,
                               kShardChains);
    return a.aggregate_events_per_sec >= b.aggregate_events_per_sec ? a
                                                                    : b;
  };
  // Selected by the same metric the gated ratios divide by, so the
  // noise filter actually protects the denominator.
  const auto single_a = run_single_queue(kShardEvents, kShardChains);
  const auto single_b = run_single_queue(kShardEvents, kShardChains);
  const auto shard_single =
      single_a.aggregate_events_per_sec >= single_b.aggregate_events_per_sec
          ? single_a
          : single_b;
  const auto shard_1 = best_sharded(1, /*parallel=*/false);
  const auto shard_2 = best_sharded(2, /*parallel=*/true);
  const auto shard_4 = best_sharded(4, /*parallel=*/true);
  // Ratios compare CPU-time-based throughput (events per busy second):
  // per-event cost, unpolluted by descheduling on a shared host.  The
  // per-config wall numbers stay in the JSON for the ground truth.
  const double single_rate = shard_single.aggregate_events_per_sec;
  const double one_shard_ratio =
      shard_1.aggregate_events_per_sec / single_rate;
  const double aggregate_speedup_4 =
      shard_4.aggregate_events_per_sec / single_rate;
  const double wall_speedup_4 =
      (static_cast<double>(shard_4.events) / shard_4.wall_seconds) /
      (static_cast<double>(shard_single.events) /
       shard_single.wall_seconds);

  // Aggregate event throughput across both scenarios (equal-events
  // weighting: total fired events over total wall time per engine).
  const double pooled_rate =
      static_cast<double>(pooled_steady.events + pooled_cancel.events) /
      (pooled_steady.seconds + pooled_cancel.seconds);
  const double legacy_rate =
      static_cast<double>(legacy_steady.events + legacy_cancel.events) /
      (legacy_steady.seconds + legacy_cancel.seconds);
  const double event_speedup = pooled_rate / legacy_rate;
  const double proto_speedup =
      (static_cast<double>(proto_pooled.round_trips) / proto_pooled.seconds) /
      (static_cast<double>(proto_legacy.round_trips) / proto_legacy.seconds);

  std::ofstream out("BENCH_sim_core.json");
  out.precision(6);
  out << "{\n  \"bench\": \"sim_core\",\n  \"events\": {\n"
      << "    \"count_per_scenario\": " << pooled_steady.events << ",\n"
      << "    \"chains\": " << kChains << ",\n";
  emit_scenario(out, "steady_churn", pooled_steady, legacy_steady);
  out << ",\n";
  emit_scenario(out, "cancel_churn", pooled_cancel, legacy_cancel);
  out << ",\n    \"pooled_events_per_sec\": " << pooled_rate
      << ",\n    \"legacy_events_per_sec\": " << legacy_rate
      << ",\n    \"speedup\": " << event_speedup << "\n  },\n"
      << "  \"protocol\": {\n"
      << "    \"round_trips\": " << kRoundTrips << ",\n";
  emit_proto(out, "single_pass", proto_pooled);
  out << ",\n";
  emit_proto(out, "borrowed_view", proto_view);
  out << ",\n";
  emit_proto(out, "legacy_concat", proto_legacy);
  out << ",\n    \"speedup\": " << proto_speedup
      << ",\n    \"borrowed_speedup\": "
      << (static_cast<double>(proto_view.round_trips) / proto_view.seconds) /
             (static_cast<double>(proto_legacy.round_trips) /
              proto_legacy.seconds)
      << "\n  },\n"
      << "  \"sharded\": {\n"
      << "    \"total_events\": " << kShardEvents << ",\n"
      << "    \"chains\": " << kShardChains << ",\n"
      << "    \"epoch_ms\": " << kShardEpochMs << ",\n";
  emit_sharded(out, "single_queue", shard_single);
  out << ",\n";
  emit_sharded(out, "shards_1", shard_1);
  out << ",\n";
  emit_sharded(out, "shards_2", shard_2);
  out << ",\n";
  emit_sharded(out, "shards_4", shard_4);
  out << ",\n    \"ratio_1shard_vs_single_queue\": " << one_shard_ratio
      << ",\n    \"aggregate_speedup_4_shards\": " << aggregate_speedup_4
      << ",\n    \"wall_speedup_4_shards\": " << wall_speedup_4
      << "\n  }\n}\n";
  out.close();

  std::cerr << "[sim_core_bench] events/sec pooled=" << pooled_rate
            << " legacy=" << legacy_rate << " speedup=" << event_speedup
            << "\n"
            << "[sim_core_bench] steady-state allocs/event pooled="
            << static_cast<double>(pooled_steady.allocs.calls +
                                   pooled_cancel.allocs.calls) /
                   static_cast<double>(pooled_steady.events +
                                      pooled_cancel.events)
            << " legacy="
            << static_cast<double>(legacy_steady.allocs.calls +
                                   legacy_cancel.allocs.calls) /
                   static_cast<double>(legacy_steady.events +
                                      legacy_cancel.events)
            << "\n"
            << "[sim_core_bench] requests/sec single_pass="
            << static_cast<double>(proto_pooled.round_trips) /
                   proto_pooled.seconds
            << " legacy=" << static_cast<double>(proto_legacy.round_trips) /
                                 proto_legacy.seconds
            << " speedup=" << proto_speedup << "\n"
            << "[sim_core_bench] sharded: single_queue=" << single_rate
            << " ev/s, 1-shard ratio=" << one_shard_ratio
            << ", 4-shard aggregate="
            << shard_4.aggregate_events_per_sec
            << " ev/s (speedup " << aggregate_speedup_4 << ", wall "
            << wall_speedup_4 << ")\n"
            << "[sim_core_bench] wrote BENCH_sim_core.json\n";
  return 0;
}

}  // namespace
}  // namespace xartrek::bench

int main() { return xartrek::bench::bench_main(); }
