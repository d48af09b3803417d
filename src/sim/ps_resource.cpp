#include "sim/ps_resource.hpp"

#include <algorithm>
#include <utility>

namespace xartrek::sim {

namespace {
// Completion tolerance: service demands are milliseconds-scale doubles;
// anything below a femto-unit of residual demand is rounding noise.
constexpr double kEps = 1e-9;
}  // namespace

PsResource::PsResource(Simulation& sim, Config cfg)
    : sim_(sim), cfg_(std::move(cfg)), last_advance_(sim.now()) {
  XAR_EXPECTS(cfg_.capacity > 0.0);
  XAR_EXPECTS(cfg_.per_job_cap > 0.0);
}

void PsResource::release_slot(std::uint32_t slot) {
  slots_[slot].on_complete = nullptr;
  slots_.release(slot);  // invalidates outstanding ids and heap husks
  --live_;
}

PsResource::JobId PsResource::submit(double demand, Callback&& on_complete) {
  XAR_EXPECTS(demand >= 0.0);
  XAR_EXPECTS(on_complete != nullptr);
  advance();
  const std::uint32_t slot = slots_.acquire();
  JobSlot& s = slots_[slot];
  s.finish_v = vtime_ + demand;
  s.on_complete = std::move(on_complete);
  ++live_;
  const std::uint32_t generation = slots_.generation_of(slot);
  heap_push(heap_,
            HeapEntry{heap_key(s.finish_v, next_seq_++), slot, generation});
  reschedule();
  return encode_id(slot, generation);
}

void PsResource::set_capacity_scale(double scale) {
  XAR_EXPECTS(scale > 0.0);
  if (scale == scale_) return;
  // Settle attained service at the old rate, switch, re-arm the next
  // completion at the new rate -- the standard mid-run mutation pattern.
  advance();
  scale_ = scale;
  rate_memo_[0] = {};
  rate_memo_[1] = {};
  reschedule();
}

bool PsResource::cancel(JobId id) {
  const std::uint32_t slot = resolve(id);
  if (slot == kNoSlot) return false;
  advance();
  release_slot(slot);  // the heap husk is reaped lazily
  reschedule();
  return true;
}

double PsResource::delivered_work() const {
  // Include service accrued since the last bookkeeping point.
  const double elapsed = (sim_.now() - last_advance_).to_ms();
  const double rate = rate_per_job(live_);
  return delivered_ + elapsed * rate * static_cast<double>(live_);
}

double PsResource::remaining_demand(JobId id) const {
  const std::uint32_t slot = resolve(id);
  XAR_EXPECTS(slot != kNoSlot);
  const double elapsed = (sim_.now() - last_advance_).to_ms();
  const double v_now = vtime_ + elapsed * rate_per_job(live_);
  const double rem = slots_[slot].finish_v - v_now;
  return rem > 0.0 ? rem : 0.0;
}

void PsResource::advance() {
  const double elapsed = (sim_.now() - last_advance_).to_ms();
  last_advance_ = sim_.now();
  if (elapsed <= 0.0 || live_ == 0) return;
  const double served = elapsed * rate_at(live_);
  vtime_ += served;
  delivered_ += served * static_cast<double>(live_);
}

TimePoint PsResource::finish_at(HeapKey key) {
  const double rate = rate_at(live_);
  XAR_ASSERT(rate > 0.0);
  double dt_ms = (key_time(key) - vtime_) / rate;
  if (dt_ms < 0.0) dt_ms = 0.0;
  return sim_.now() + Duration::ms(dt_ms);
}

void PsResource::reschedule() {
  // Reap cancelled husks so the root names the next live completion.
  while (!heap_.empty() && !entry_live(heap_.front())) heap_pop_root(heap_);
  if (heap_.empty()) {
    // Idle: no live job (every live job holds a heap entry) and no
    // outstanding finish time references the clock, so rebase it.
    // Otherwise vtime_ would grow monotonically forever and its ulp
    // would eventually swallow small demands in long simulations.
    vtime_ = 0.0;
    arm_seq_ = {};
  } else {
    arm_seq_ = sim_.reserve_seq();
  }
  // The armed completion is stale: cancel it, once per batch.  A tick
  // has already forgotten its own event, which is the one running.
  if (pending_.generation != 0) sim_.cancel(std::exchange(pending_, {}));
  if (batch_depth_ == 0) arm();
}

void PsResource::arm() {
  if (!arm_seq_) return;
  // Every state change since the ticket was drawn went through
  // reschedule(), so the root is live and the clock is current.
  pending_ = sim_.schedule_at(finish_at(heap_.front().key),
                              std::move(arm_seq_), [this] { on_tick(); });
}

void PsResource::on_tick() {
  // Until the callbacks return, every reschedule() -- this tick's own
  // and any a callback causes -- only reserves a sequence number; the
  // scope computes the next instant once and arms it under the last
  // number, also when a callback throws.
  const Batch batch(*this);
  pending_ = {};  // fired: nothing to cancel
  advance();
  // Collect finished jobs first, then run their callbacks after internal
  // state is consistent: callbacks routinely resubmit work to this very
  // resource (CP.22 in spirit -- never call unknown code mid-update).
  // The scratch vector is taken out of the member (re-entrant callbacks
  // see an empty pool and fall back to a fresh allocation) and its
  // capacity returned afterwards, so the steady state reuses one warm
  // buffer.
  auto done = std::move(done_scratch_);
  done.clear();
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if (!entry_live(top)) {
      heap_pop_root(heap_);
      continue;
    }
    // Due once the residual is rounding noise, or once the instant it
    // would finish at rounds to now: then re-arming would land on now
    // and serve nothing, forever.  So the final reschedule below always
    // arms strictly later.
    if (key_time(top.key) - vtime_ > kEps && finish_at(top.key) > sim_.now()) {
      break;
    }
    done.emplace_back(key_seq(top.key),
                      std::move(slots_[top.slot].on_complete));
    release_slot(top.slot);
    heap_pop_root(heap_);
  }
  // The heap surfaces the batch in (finish_v, seq) order; a batch may
  // contain *near*-ties whose finish times differ only by rounding
  // (below kEps), so restore exact submission order before invoking --
  // the documented same-instant contract, and what the per-job-decrement
  // formulation did by iterating its id-ordered map.
  std::sort(done.begin(), done.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  reschedule();
  for (auto& [seq, cb] : done) cb();
  done.clear();
  done_scratch_ = std::move(done);
}

}  // namespace xartrek::sim
