// The Popcorn migration run-time (software x86 <-> ARM migration).
//
// When the Xar-Trek scheduler decides to move a function to the ARM
// server, this run-time (1) transforms the thread's dynamic state to the
// destination ISA format (source-CPU work), (2) ships the transformed
// state plus the function's working set over the shared Ethernet link,
// and (3) resumes at the same migration point on the destination.  The
// return trip mirrors it.  All of this is the "communication overhead"
// the paper folds into its in-locus threshold measurements.
//
// State transformation is *hidden behind* the transfer: the working-set
// burst (the bulk of the payload) enters the wire immediately while the
// source CPU rewrites the register/stack state concurrently, and the
// destination resumes once both are done -- migration latency is
// max(transform, transfer), not their sum.  The transformed state
// itself is a few hundred bytes riding at the tail of a multi-megabyte
// burst, so overlapping is sound (Mavrogeorgis et al. make the same
// observation for x86<->ARM migration).
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "hw/link.hpp"
#include "obs/trace.hpp"
#include "popcorn/machine_state.hpp"
#include "popcorn/state_transform.hpp"
#include "sim/callback.hpp"
#include "sim/simulation.hpp"

namespace xartrek::popcorn {

/// Orchestrates one-way thread migrations between ISA-different nodes.
class MigrationRuntime {
 public:
  using MigrationCallback = sim::UniqueFunction<void(MachineState)>;
  using StackCallback = sim::UniqueFunction<void(ThreadStack)>;

  MigrationRuntime(sim::Simulation& sim, hw::Link& ethernet,
                   const StateTransformer& transformer)
      : sim_(sim), ethernet_(ethernet), transformer_(&transformer) {}

  /// Migrate a thread whose state is `state` to `dst_isa`, shipping
  /// `working_set_bytes` of program data along with the transformed
  /// state.  `on_arrival` fires on the destination with the transformed
  /// state once the transfer completes.
  ///
  /// Timing: the transfer starts immediately and the transform cost is
  /// charged concurrently -- arrival happens when the later of the two
  /// finishes.  Callers who model CPU contention should charge the
  /// transform on their CPU pool themselves (concurrently with the
  /// wire) and pass charge_transform_cost = false, which makes this
  /// call transfer-only.
  void migrate(const MachineState& state, isa::IsaKind dst_isa,
               std::uint64_t working_set_bytes, MigrationCallback on_arrival,
               bool charge_transform_cost = true);

  /// Migrate a whole call stack: every activation record is rewritten
  /// and the payload includes all frames (real Popcorn ships the full
  /// stack region).
  void migrate_stack(const ThreadStack& stack, isa::IsaKind dst_isa,
                     std::uint64_t working_set_bytes,
                     StackCallback on_arrival,
                     bool charge_transform_cost = true);

  /// The transformer's CPU cost for this state (exposed so callers can
  /// charge it to a contended CPU pool).
  [[nodiscard]] Duration transform_cost(const MachineState& state) const {
    return transformer_->transform_cost(state);
  }

  /// Completed migrations (diagnostics).
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }

  /// Emit "popcorn.transform" / "popcorn.transfer" leg spans on `lane`
  /// (the shard this runtime's simulation runs on); the span trace id
  /// is the migration sequence number.  Null detaches.
  void set_tracer(obs::Tracer* tracer, std::uint32_t lane) {
    tracer_ = tracer;
    trace_lane_ = lane;
  }

 private:
  /// Ship `payload` and (optionally) charge the transform concurrently;
  /// the arrival delivers when the later of the two completes.
  template <typename State, typename Cb>
  void overlap_and_deliver(Duration transform_cost, std::uint64_t payload,
                           State state, Cb cb, bool charge_transform_cost) {
    if (!charge_transform_cost || transform_cost <= Duration::zero()) {
      if (tracer_ != nullptr) {
        const std::uint64_t mig_id = ++started_;
        if (tracer_->sampled(mig_id)) {
          obs::SpanRef span =
              tracer_->begin(trace_lane_, obs::kTrackMigration,
                             "popcorn.transfer", mig_id, sim_.now());
          ethernet_.transfer(payload, [this, span, state = std::move(state),
                                       cb = std::move(cb)]() mutable {
            tracer_->end(span, sim_.now());
            deliver_arrival(std::move(state), std::move(cb));
          });
          return;
        }
      }
      ethernet_.transfer(payload, [this, state = std::move(state),
                                   cb = std::move(cb)]() mutable {
        deliver_arrival(std::move(state), std::move(cb));
      });
      return;
    }
    // Two concurrent legs meet in a shared join node; migrations are
    // per-burst events (the payload itself is heap state), so the one
    // allocation here is noise next to the transfer it hides.
    struct Join {
      MigrationRuntime* rt;
      State state;
      Cb cb;
      int remaining = 2;
    };
    auto join =
        std::make_shared<Join>(Join{this, std::move(state), std::move(cb)});
    auto leg = [join]() mutable {
      if (--join->remaining == 0) {
        join->rt->deliver_arrival(std::move(join->state),
                                  std::move(join->cb));
      }
    };
    const std::uint64_t mig_id = ++started_;
    if (tracer_ != nullptr && tracer_->sampled(mig_id)) {
      // The transform leg's duration is known up front; the transfer
      // leg closes when the last byte lands (link contention decides).
      tracer_->emit(trace_lane_, obs::kTrackMigration, "popcorn.transform",
                    mig_id, sim_.now(), sim_.now() + transform_cost);
      obs::SpanRef span =
          tracer_->begin(trace_lane_, obs::kTrackMigration,
                         "popcorn.transfer", mig_id, sim_.now());
      sim_.schedule_in(transform_cost, leg);
      ethernet_.transfer(payload, [this, span, leg]() mutable {
        tracer_->end(span, sim_.now());
        leg();
      });
      return;
    }
    sim_.schedule_in(transform_cost, leg);
    ethernet_.transfer(payload, std::move(leg));
  }

  /// Count the migration and run one arrival callback with its
  /// transformed payload.
  template <typename State, typename Callback>
  void deliver_arrival(State state, Callback cb) {
    ++migrations_;
    cb(std::move(state));
  }

  sim::Simulation& sim_;
  hw::Link& ethernet_;
  const StateTransformer* transformer_;
  std::uint64_t migrations_ = 0;
  std::uint64_t started_ = 0;  ///< migrations begun (span trace ids)
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_lane_ = 0;
};

}  // namespace xartrek::popcorn
