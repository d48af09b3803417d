// Multi-tenant FPGA contention workload.
//
// K tenant kernels per cell contend for one card.  The same arrival
// schedule is run against either residency model:
//
//  * slot-virtualized (spec.slots > 0): an fpga::SlotScheduler places
//    and grows tenants across PR slots -- several resident at once,
//    cheap per-slot reconfigurations, replicate-hottest under load;
//  * whole-image baseline (spec.slots == 0): one tenant resident at a
//    time, each switch a full bitstream download, with a dwell-time
//    hysteresis so the baseline doesn't degenerate into pure thrash.
//
// Both models get the same total area budget (the baseline image packs
// as many CUs of its single kernel as the fabric holds), so the
// BENCH_fpga "slots" gate measures virtualization, not extra silicon.
//
// The hot tenant's arrivals also spill a mirrored arrival to the next
// cell around the ring (one sim::CellRing hop, a cross-shard channel),
// so the serial-vs-parallel trace-identity claim is exercised by real
// cross-cell traffic, not independent cells.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "fpga/slots.hpp"

namespace xartrek::exp {

struct ContentionSpec {
  std::size_t cells = 2;
  std::uint32_t tenants = 6;   ///< kernels contending per cell
  /// PR slots per device; 0 selects the whole-image baseline.
  std::uint32_t slots = 4;
  /// Base inter-arrival per tenant; the currently hot tenant arrives
  /// `hot_factor`x as often.  The hot role rotates round-robin every
  /// `hot_phase` of simulated time, so tenants parked outside the slot
  /// table heat up and force evictions (both policy arms fire mid-run,
  /// which the bench's slot_activity flag pins).
  Duration period = Duration::ms(2.0);
  double hot_factor = 4.0;
  Duration hot_phase = Duration::ms(60.0);
  Duration span = Duration::seconds(2.0);
  /// Ring-hop latency between neighboring cells (the epoch).
  Duration spill_latency = Duration::ms(2.0);
  bool parallel = false;
  std::uint64_t items = 4096;  ///< work items per invocation
  /// Baseline hysteresis: a resident image keeps the fabric at least
  /// this long before demand may swap it out.
  Duration whole_image_dwell = Duration::ms(100.0);
  fpga::SlotScheduler::Options policy;
};

struct ContentionResult {
  std::uint64_t arrivals = 0;
  std::uint64_t fpga_completions = 0;  ///< invocations retired on-fabric
  std::uint64_t fallbacks = 0;  ///< arrivals finding the kernel absent
  std::uint64_t reconfigurations = 0;  ///< completed programmings
  std::uint64_t evictions = 0;     ///< slot mode only
  std::uint64_t replications = 0;  ///< slot mode only
  double completions_per_sim_sec = 0.0;
  /// FNV-1a over every completion's (cell, tenant, time) in execution
  /// order -- bitwise identical across serial and parallel runs.
  std::uint64_t trace_hash = 0;
  std::uint64_t executed_events = 0;
};

/// Run the workload.  Deterministic: same spec, same result --
/// including trace_hash -- regardless of spec.parallel.
[[nodiscard]] ContentionResult run_fpga_contention(const ContentionSpec& spec);

}  // namespace xartrek::exp
