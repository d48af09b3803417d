// Page-granularity distributed shared memory.
//
// Popcorn Linux implements DSM as a first-class OS abstraction so that a
// thread resuming on the other server observes sequentially-consistent
// memory (paper §2).  This model implements an MSI protocol over the
// inter-server link: each node holds a full-size memory replica plus a
// per-page state; reads pull remote pages, writes invalidate remote
// copies.  It is both *functional* (bytes really move; tests check
// coherence invariants) and *costed* (each page pull occupies the shared
// Ethernet link, which is where the paper's x86->ARM migration overhead
// comes from).
//
// The data path is a pipelined streaming engine.  Operations live in a
// recycled slot slab (no per-op heap allocation), overlapping ops are
// ordered through per-page pending lists (FIFO claim queues -- the MSI
// state of a page is only ever mutated by the page's single active
// claim, so invariants hold with any number of transactions in flight),
// runs of contiguous Invalid pages pulled from the same owner coalesce
// into one link transfer of run_length * page_size bytes, and transfers
// are windowed per (destination, source) node pair so a migration burst
// keeps `window_depth` pulls on the wire at once instead of paying the
// per-transfer latency serially.  Completion callbacks always retire in
// submission order, so the observable transaction order is exactly the
// legacy serialized engine's; `window_depth = 1` degrades to that
// engine outright (one transaction at a time, page by page, no
// coalescing) and reproduces its trace bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "hw/link.hpp"
#include "obs/trace.hpp"
#include "sim/callback.hpp"
#include "sim/simulation.hpp"
#include "sim/slot_pool.hpp"

namespace xartrek::popcorn {

/// MSI page state.
enum class PageState { kInvalid, kShared, kModified };

/// A multi-node DSM instance.
class Dsm {
 public:
  using Callback = sim::UniqueCallback;
  using ReadCallback = sim::UniqueFunction<void(std::vector<std::byte>)>;

  struct Config {
    std::size_t nodes = 2;
    std::uint64_t memory_bytes = 1 << 20;
    std::uint64_t page_size = 4096;
    /// Maximum in-flight link transfers per (destination, source) node
    /// pair.  Depth 1 selects the fully-serialized legacy engine: one
    /// memory transaction at a time, its pages ensured one after
    /// another, every Invalid page its own wire transfer.
    std::size_t window_depth = 8;
    /// Times a corrupted wire transfer is re-requested before the DSM
    /// gives up (throws) -- gray-failure resilience bound.
    std::uint32_t max_transfer_retries = 3;
  };

  struct Stats {
    std::uint64_t local_page_hits = 0;
    std::uint64_t page_transfers = 0;  ///< pages moved over the link
    std::uint64_t invalidations = 0;
    std::uint64_t link_transfers = 0;  ///< wire transfers issued
    std::uint64_t coalesced_runs = 0;  ///< transfers carrying >1 page
    std::uint64_t bytes_transferred = 0;
    std::uint64_t max_in_flight = 0;  ///< peak concurrent wire transfers
    std::uint64_t corrupt_detected = 0;  ///< checksum-verify failures
    std::uint64_t retries = 0;           ///< corrupted runs re-requested
    [[nodiscard]] double bytes_per_transfer() const {
      return link_transfers == 0 ? 0.0
                                 : static_cast<double>(bytes_transferred) /
                                       static_cast<double>(link_transfers);
    }
  };

  /// Node 0 starts as the exclusive (Modified) owner of every page: the
  /// application begins life on the x86 host.
  Dsm(sim::Simulation& sim, hw::Link& link, Config cfg);

  /// Read `len` bytes at `addr` as seen by `node`; pulls pages as needed.
  void read(std::size_t node, std::uint64_t addr, std::uint64_t len,
            ReadCallback on_done);

  /// Zero-copy read: the bytes land in the caller-owned buffer `out`
  /// (`len` bytes; may be null when `len == 0`).  The buffer must stay
  /// valid until `on_done` fires.  This is the streaming path migration
  /// bursts use -- no result vector is materialized per op.
  void read_into(std::size_t node, std::uint64_t addr, std::uint64_t len,
                 std::byte* out, Callback on_done);

  /// Write `data` at `addr` from `node`; acquires exclusive ownership of
  /// the spanned pages (invalidating remote copies) first.
  void write(std::size_t node, std::uint64_t addr,
             std::vector<std::byte> data, Callback on_done);

  /// Zero-copy write: `data` is staged into the op slot's warm buffer
  /// at submit time (the caller's span may die immediately after the
  /// call).  The streaming sibling of read_into -- no per-op vector
  /// allocation in steady state.
  void write_from(std::size_t node, std::uint64_t addr,
                  std::span<const std::byte> data, Callback on_done);

  [[nodiscard]] PageState page_state(std::size_t node,
                                     std::uint64_t page) const;
  [[nodiscard]] std::uint64_t page_count() const { return pages_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Link the stats counters into a metrics registry under `prefix`.
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

  /// Emit a "dsm.burst" span per wire transfer on `lane` (the shard
  /// this DSM's simulation runs on).  The span's trace id is the wire
  /// transfer sequence number, so the tracer's sampling knob thins
  /// burst spans without touching DSM behavior.  Null detaches.
  void set_tracer(obs::Tracer* tracer, std::uint32_t lane) {
    tracer_ = tracer;
    trace_lane_ = lane;
  }

  /// Protocol invariants: per page, at most one Modified copy and no
  /// Shared copy coexisting with a Modified one; all Shared copies hold
  /// identical bytes.  Throws on violation (tests call this).
  void check_invariants() const;

 private:
  static constexpr std::uint32_t kNone = sim::SlotPool<int>::kNoSlot;

  enum class ClaimStatus : std::uint8_t {
    kWaiting,   ///< queued behind an earlier op's claim on the page
    kReady,     ///< head of the page queue, action not yet started
    kInFlight,  ///< upgrade latency or wire transfer outstanding
    kDone,      ///< ensured for this op; held until the op's data phase
  };

  /// One in-flight memory transaction.  Slots recycle; the `data` and
  /// `claims` vectors keep their capacity across ops, so the steady
  /// state performs no engine-side allocation.
  struct Op {
    bool is_write = false;
    bool wants_vector = false;  ///< read(): materialize a result vector
    std::size_t node = 0;
    std::uint64_t addr = 0;
    std::uint64_t len = 0;
    std::vector<std::byte> data;  ///< write payload / read result
    std::byte* out = nullptr;     ///< read_into destination
    ReadCallback on_read;
    Callback on_done;  ///< write / read_into completion
    std::uint64_t first_page = 0;
    std::uint64_t npages = 0;  ///< 0 for empty (len == 0) ops
    std::uint64_t waiting = 0;
    std::uint64_t cursor = 0;             ///< serialized-mode page cursor
    std::vector<std::uint32_t> claims;    ///< claim slot per page
    std::uint32_t order_next = kNone;     ///< submission-order chain
    bool ensured = false;
  };

  /// One op's membership in one page's pending list.
  struct Claim {
    std::uint32_t op = kNone;
    std::uint64_t page = 0;
    std::uint32_t next = kNone;  ///< next claim in the page queue
    ClaimStatus status = ClaimStatus::kWaiting;
  };

  /// One wire transfer: a coalesced run of contiguous Invalid pages
  /// pulled from `source` for `op`.
  struct Unit {
    std::uint32_t op = kNone;
    std::size_t source = 0;
    std::uint64_t first_page = 0;
    std::uint64_t npages = 0;
    std::uint32_t next = kNone;  ///< next unit waiting on the pair window
    std::uint32_t attempts = 0;  ///< wire attempts so far (retry bound)
    obs::SpanRef span = {};      ///< open "dsm.burst" span, if traced
  };

  /// Window state for one (destination, source) node pair.
  struct Pair {
    std::size_t in_flight = 0;
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };

  [[nodiscard]] std::uint64_t page_of(std::uint64_t addr) const {
    return addr / cfg_.page_size;
  }
  [[nodiscard]] std::size_t pair_index(std::size_t node,
                                       std::size_t source) const {
    return node * cfg_.nodes + source;
  }
  [[nodiscard]] bool serialized() const { return cfg_.window_depth == 1; }

  /// Slot setup shared by read/read_into/write.
  std::uint32_t enqueue_op(bool is_write, std::size_t node,
                           std::uint64_t addr, std::uint64_t len);
  void begin_op(std::uint32_t op_slot);

  /// Invalidate every remote copy and take Modified ownership.
  void finish_exclusive(std::size_t node, std::uint64_t page);
  /// Owner (Modified holder) if any, else the lowest-indexed sharer.
  [[nodiscard]] std::size_t pick_source(std::size_t node,
                                        std::uint64_t page) const;

  // Pipelined engine (window_depth >= 2).
  void request_pump(std::uint32_t op_slot);
  void drain_pumps();
  void pump(std::uint32_t op_slot);
  void upgrade_done(std::uint32_t claim_slot);

  // Serialized engine (window_depth == 1).
  void serial_start_next();
  void serial_advance(std::uint32_t op_slot);

  // Wire transfers (both engines).
  void issue_unit(std::uint32_t unit_slot);
  void start_unit(std::uint32_t unit_slot);
  void unit_done(std::uint32_t unit_slot, bool intact);
  /// Close one wire slot in the (node, source) pair window and start
  /// the next parked unit, if any.
  void retire_wire_slot(std::size_t node, std::size_t source);

  void op_ensured(std::uint32_t op_slot);
  void schedule_retire();
  void drain_retire();

  sim::Simulation& sim_;
  hw::Link& link_;
  Config cfg_;
  std::uint64_t pages_;
  std::vector<std::vector<std::byte>> memory_;       // [node][byte]
  std::vector<std::vector<PageState>> page_states_;  // [node][page]
  Stats stats_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_lane_ = 0;

  sim::SlotPool<Op> ops_;
  sim::SlotPool<Claim> claims_;
  sim::SlotPool<Unit> units_;
  std::vector<std::uint32_t> page_head_;  ///< per-page claim FIFO
  std::vector<std::uint32_t> page_tail_;
  std::vector<Pair> pairs_;  ///< [node * nodes + source]
  std::size_t in_flight_total_ = 0;

  /// Submission-order FIFO: ops retire (fire their callbacks) strictly
  /// in this order, whatever order their transfers complete in.
  std::uint32_t order_head_ = kNone;
  std::uint32_t order_tail_ = kNone;
  bool retire_scheduled_ = false;

  /// Serialized mode: the op currently being ensured (kNone when idle),
  /// and the re-entrancy guard that turns back-to-back synchronous
  /// completions into a loop instead of recursion.
  std::uint32_t serial_active_ = kNone;
  bool serial_starting_ = false;

  /// Pump work queue: ops whose claims just became ready.  Drained by
  /// the outermost frame only, so an op ensured mid-pump cannot
  /// invalidate an iteration in progress.  Keeps its capacity.
  std::vector<std::uint32_t> pump_queue_;
  std::size_t pump_next_ = 0;
  bool pumping_ = false;
};

}  // namespace xartrek::popcorn
