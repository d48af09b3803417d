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
  const std::uint32_t slot = slots_.acquire();
  JobSlot& s = slots_[slot];
  s.loop_demand = 0.0;
  s.on_complete = std::move(on_complete);
  return enter(slot, demand);
}

PsResource::JobId PsResource::submit_loop(double demand) {
  XAR_EXPECTS(demand > 0.0);
  const std::uint32_t slot = slots_.acquire();
  slots_[slot].loop_demand = demand;
  return enter(slot, demand);
}

PsResource::JobId PsResource::enter(std::uint32_t slot, double demand) {
  advance();
  JobSlot& s = slots_[slot];
  s.finish_v = vtime_ + demand;
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
  if (slots_[slot].finish_v == kParked) {
    // Served by the running tick and not yet re-entered: already out of
    // live_ and out of the heap, so there is nothing to settle or re-arm.
    slots_.release(slot);
    return true;
  }
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

// Inline, so a one-shot tick tests the residual in its own loop and
// calls out only for the division.
inline bool PsResource::due(HeapKey key) {
  // Due once the residual is rounding noise, or once the instant it
  // would finish at rounds to now: then re-arming would land on now and
  // serve nothing, forever.  So a tick's final reschedule always arms
  // strictly later.
  return !(key_time(key) - vtime_ > kEps && finish_at(key) > sim_.now());
}

bool PsResource::only_root_due() {
  const std::size_t n = heap_.size();
  const std::size_t last = n < kHeapArity + 1 ? n : kHeapArity + 1;
  std::size_t next = 0;
  for (std::size_t c = 1; c < last; ++c) {
    if (!entry_live(heap_[c])) return false;
    if (next == 0 || heap_[c].key < heap_[next].key) next = c;
  }
  return next == 0 || !due(heap_[next].key);
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
  // Until the completions return, every reschedule() -- this tick's own
  // and any a callback causes -- only reserves a sequence number; the
  // scope computes the next instant once and arms it under the last
  // number, also when a callback throws.
  const Batch batch(*this);
  pending_ = {};  // fired: nothing to cancel
  advance();
  // Collect finished jobs first, then run their completions after
  // internal state is consistent: callbacks routinely resubmit work to
  // this very resource (CP.22 in spirit -- never call unknown code
  // mid-update).  The scratch vector is taken out of the member
  // (re-entrant callbacks see an empty pool and fall back to a fresh
  // allocation) and its capacity returned afterwards, so the steady
  // state reuses one warm buffer.
  auto done = std::move(done_scratch_);
  done.clear();
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if (!entry_live(top)) {
      heap_pop_root(heap_);
      continue;
    }
    if (!due(top.key)) break;
    JobSlot& job = slots_[top.slot];
    --live_;  // served: out of service for the due tests that follow
    if (job.loop_demand == 0.0) {
      done.emplace_back(key_seq(top.key), kNoSlot, 0u,
                        std::move(job.on_complete));
      slots_.release(top.slot);  // invalidates outstanding ids
    } else if (done.empty() && only_root_due()) {
      // The only completion of the tick is a loop job's: its next lap
      // replaces the root in one sift-down, keeping its slot -- the
      // state a pop, the idle rebase and a resubmit would leave.
      ++live_;
      if (heap_.size() == 1) vtime_ = 0.0;
      job.finish_v = vtime_ + job.loop_demand;
      sift_down_from_root(
          heap_, HeapEntry{heap_key(job.finish_v, next_seq_++), top.slot,
                           top.generation});
      done_scratch_ = std::move(done);
      reschedule();
      return;
    } else {
      job.finish_v = kParked;
      done.emplace_back(key_seq(top.key), top.slot, top.generation, nullptr);
    }
    heap_pop_root(heap_);
  }
  // The heap surfaces the batch in (finish_v, seq) order; a batch may
  // contain *near*-ties whose finish times differ only by rounding
  // (below kEps), so restore exact submission order before running them
  // -- the documented same-instant contract, and what the
  // per-job-decrement formulation did by iterating its id-ordered map.
  std::sort(done.begin(), done.end(),
            [](const Served& a, const Served& b) { return a.seq < b.seq; });
  reschedule();
  for (Served& s : done) {
    if (s.loop_slot == kNoSlot) {
      s.on_complete();
    } else if (slots_.live_at(s.loop_slot, s.generation)) {
      // The next lap, unless a callback earlier in the tick cancelled it.
      enter(s.loop_slot, slots_[s.loop_slot].loop_demand);
    }
  }
  done.clear();
  done_scratch_ = std::move(done);
}

}  // namespace xartrek::sim
