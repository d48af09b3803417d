// FPGA accelerator-card device model.
//
// Models an Alveo-class PCIe card whose usable (post-shell) region is a
// table of partial-reconfiguration slots -- the device's only residency
// state.  Every programming, whatever its size, is one request on the
// single reconfiguration port that tears one slot down and installs a
// set of kernels, each with its compute units:
//
//  * Whole-image mode (default): the table holds one slot spanning
//    usable().  `reconfigure(image)` programs it with every kernel of
//    the XCLBIN at the full-image cost (download over PCIe + full
//    programming time), so exactly one image is resident at a time.
//
//  * Slot mode (`enable_slots`): the quiescent table is re-carved into
//    N equal slots.  `reconfigure_slot` programs one of them with one
//    kernel at a replication count (CUs per slot) at a per-slot latency
//    much cheaper than a full bitstream download, and the other slots
//    keep serving meanwhile.  This is the SYNERGY-style virtualization
//    the ROADMAP calls for: several tenants resident at once instead of
//    one hot tenant monopolizing the device.
//
// The device is deliberately dumb: *when* to reconfigure and *whether* a
// kernel is worth calling are the Xar-Trek scheduler's decisions (the
// slot eviction/replication policy lives in fpga::SlotScheduler).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "fpga/resources.hpp"
#include "hw/link.hpp"
#include "sim/callback.hpp"
#include "sim/fifo_station.hpp"
#include "sim/simulation.hpp"

namespace xartrek::fpga {

/// Latency/footprint description of one hardware kernel, as produced by
/// the HLS toolchain model (one per XO file).
struct HwKernelConfig {
  std::string name;          ///< e.g. "KNL_HW_FD320"
  FpgaResources resources;   ///< post-implementation footprint per CU
  double clock_mhz = 300.0;  ///< achieved kernel clock
  std::uint64_t fixed_cycles = 0;  ///< pipeline fill + control overhead
  double cycles_per_item = 0.0;    ///< steady-state cycles per work item
  /// Replicated compute units (Vitis `nk` option): invocations of the
  /// same kernel run concurrently up to this count, at `compute_units`
  /// times the area.
  int compute_units = 1;
};

/// Execution latency of a kernel invocation over `items` work items.
[[nodiscard]] Duration kernel_latency(const HwKernelConfig& k,
                                      std::uint64_t items);

/// A fully built FPGA configuration image (the output of the XCLBIN
/// generation step): the set of kernels that become available when the
/// image is downloaded, plus its on-disk size.
struct XclbinImage {
  std::string id;
  std::vector<HwKernelConfig> kernels;
  std::uint64_t size_bytes = 0;

  [[nodiscard]] bool contains_kernel(const std::string& name) const;
  [[nodiscard]] FpgaResources total_kernel_resources() const;
};

/// Static description of the card.
struct FpgaSpec {
  std::string model;
  FpgaResources total;
  FpgaResources shell;
  /// Fabric programming time after the bitstream lands on the card
  /// (ICAP throughput bound; hundreds of ms for datacenter parts).
  Duration programming_time = Duration::ms(300.0);

  /// Region available to kernels.
  [[nodiscard]] FpgaResources usable() const { return total - shell; }
};

/// The paper's Xilinx Alveo U50.
[[nodiscard]] FpgaSpec alveo_u50_spec();

/// Outcome of a reconfiguration request.  The old bool collapsed four
/// distinct failure paths; callers (retry loops, fault-injection tests,
/// the slot scheduler's accounting) need to tell them apart.
enum class ReconfigureResult : std::uint8_t {
  kOk,               ///< kernels became resident
  kNoFit,            ///< request exceeds the slot's area budget
  kOfflineDrop,      ///< dropped before programming: device offline
  kTornWrite,        ///< device died/blipped mid-programming
  kInjectedFailure,  ///< armed one-shot failure (corrupted bitstream)
};

/// True iff the kernels actually became resident.
[[nodiscard]] constexpr bool succeeded(ReconfigureResult r) {
  return r == ReconfigureResult::kOk;
}

[[nodiscard]] const char* to_string(ReconfigureResult r);

/// Non-owning observer of the card's offline flag: told just before
/// set_offline changes it, so a watcher that has stopped polling the
/// card can settle what the old value was worth first
/// (runtime::SchedulerServer wakes its quiet heartbeat loop here).
class OfflineWatcher {
 public:
  virtual void before_offline_change() = 0;

 protected:
  ~OfflineWatcher() = default;
};

/// Partial-reconfiguration slot geometry (slot mode).
struct SlotConfig {
  std::uint32_t slots = 4;  ///< PR slots carved from usable()
  /// Fabric programming time for one slot's partial bitstream.  Scales
  /// with region size, so roughly programming_time / slots for an
  /// equal carve -- an order of magnitude under a full download.
  Duration slot_program_time = Duration::ms(40.0);
  /// Partial bitstream size moved over PCIe per slot programming.
  std::uint64_t slot_bitstream_bytes = 4ull << 20;
};

/// "No slot", e.g. the hosting slot of a non-resident ResidencyView.
inline constexpr std::uint32_t kNoSlot = ~0u;

/// Snapshot of one kernel's residency, the unit the scheduler's
/// per-batch memo caches.  A resident view carries its hosting slot
/// and that slot's programming version (in whole-image mode: slot 0,
/// the one-slot carve); a non-resident one carries the device residency
/// epoch.  `FpgaDevice::residency_current` says whether the snapshot
/// still holds, replacing the old scheme of comparing a device-wide
/// `residency_version()` by hand.
struct ResidencyView {
  std::uint32_t slot = kNoSlot;  ///< first hosting slot, kNoSlot if none
  std::uint32_t cus = 0;         ///< callable compute units right now
  std::uint64_t version = 0;

  [[nodiscard]] constexpr bool resident() const { return cus != 0; }
};

/// The device model.  Owns the slot table and the per-kernel compute
/// units; reconfiguration requests are serialized FIFO through the
/// single reconfiguration port.
class FpgaDevice {
 public:
  using Callback = sim::UniqueCallback;
  /// Reconfiguration completion.  A request dropped because the card is
  /// offline, killed mid-programming, failed by injection, or refused
  /// for area still completes -- with the matching non-kOk result -- so
  /// callers can distinguish the failure paths.
  using ReconfigureCallback = sim::UniqueFunction<void(ReconfigureResult)>;

  FpgaDevice(sim::Simulation& sim, hw::Link& pcie, FpgaSpec spec,
             Logger log = {});
  FpgaDevice(const FpgaDevice&) = delete;
  FpgaDevice& operator=(const FpgaDevice&) = delete;

  // ---- whole-image mode -------------------------------------------------

  /// Download and program `image` into the one slot.  When programming
  /// starts the previous kernels are torn down (the scheduler must not
  /// route work here until `on_done`).  Concurrent requests queue FIFO.
  /// Requires the image's kernels to fit the usable region, and
  /// whole-image mode.
  void reconfigure(const XclbinImage& image, ReconfigureCallback on_done);

  /// The image loaded in slot 0, if any (always nullopt in slot mode).
  [[nodiscard]] std::optional<std::string> loaded_image() const;

  // ---- slot mode --------------------------------------------------------

  /// Switch to slot mode: re-carve the one-slot table into cfg.slots
  /// equal PR slots of usable().  One-way, and requires a quiescent
  /// device (nothing loaded, nothing queued, online).
  void enable_slots(SlotConfig cfg);

  [[nodiscard]] bool slot_mode() const { return slot_cfg_.has_value(); }
  [[nodiscard]] std::uint32_t slot_count() const {
    return slot_mode() ? slot_cfg_->slots : 0;
  }
  /// Area budget of one slot (slot mode only).
  [[nodiscard]] const FpgaResources& slot_capacity() const;

  /// Program `slot` with `replicas` CUs of `kernel`, tearing down
  /// whatever the slot held.  Serialized FIFO with other programmings
  /// on the reconfiguration port, but only this slot goes dark; the
  /// others keep serving.  Completes kNoFit when replicas x footprint
  /// exceeds the slot capacity.  Requires slot mode.
  void reconfigure_slot(std::uint32_t slot, const HwKernelConfig& kernel,
                        std::uint32_t replicas, ReconfigureCallback on_done);

  /// Kernel hosted by `slot` right now, if any (diagnostics / policy).
  [[nodiscard]] std::optional<std::string> slot_kernel(
      std::uint32_t slot) const;

  // ---- common -----------------------------------------------------------

  /// True while a download/programming is in progress or queued (in slot
  /// mode: the reconfiguration port is busy, not the whole device).
  [[nodiscard]] bool reconfiguring() const {
    return reconfig_active_ || !reconfig_queue_.empty();
  }

  /// True when `name` is loaded and callable right now: some slot holds
  /// it.  A kernel stays callable while *other* slots reprogram.
  [[nodiscard]] bool has_kernel(const std::string& name) const;

  /// Names of callable kernels (the scheduler's "Query Available HW
  /// Kernels", Algorithm 2 line 1).
  [[nodiscard]] std::vector<std::string> available_kernels() const;

  /// Slot-aware residency snapshot for `kernel`; agrees with
  /// has_kernel() on `resident()`.  Cache it and revalidate with
  /// residency_current() -- the scheduler's batched decision pass keys
  /// its per-batch memo on this.
  [[nodiscard]] ResidencyView residency(std::string_view kernel) const;

  /// Whether a cached view still describes the device: a resident view
  /// stays valid until *its* slot reprograms (other slots churning
  /// doesn't invalidate it); a non-resident one is compared against the
  /// device residency epoch.
  [[nodiscard]] bool residency_current(const ResidencyView& view) const;

  /// Run kernel `name` over `items` work items; routed to the
  /// least-backlogged CU hosting it.  Requires has_kernel(name).
  void execute(const std::string& name, std::uint64_t items,
               Callback on_done);

  /// Failure injection: take the card offline (XRT device lost).  Every
  /// slot is torn down and every
  /// subsequent reconfiguration request completes with kOfflineDrop, so
  /// `has_kernel` stays false until the card is brought back.  The
  /// Xar-Trek scheduler degrades to the CPU-only branches of Algorithm
  /// 2; the traditional always-FPGA flow stalls -- exactly the contrast
  /// the tests assert.
  void set_offline(bool offline);
  [[nodiscard]] bool offline() const { return offline_; }

  /// The one offline watcher, told before every set_offline; null (the
  /// default) watches nothing.  The device does not own it, and the
  /// watcher must unregister before it dies.
  void set_offline_watcher(OfflineWatcher* watcher) {
    offline_watcher_ = watcher;
  }
  [[nodiscard]] OfflineWatcher* offline_watcher() const {
    return offline_watcher_;
  }

  /// Failure injection: arm a one-shot reconfiguration failure.  The
  /// next programming to finish installs nothing and completes with
  /// kInjectedFailure (a corrupted bitstream / ICAP error), after which
  /// the card keeps working normally.
  void inject_reconfigure_failure() { fail_armed_ = true; }
  [[nodiscard]] bool reconfigure_failure_armed() const {
    return fail_armed_;
  }

  /// Gray-failure injection (kPortFlaky): while armed, each programming
  /// completion independently fails with probability `fail_probability`
  /// (kInjectedFailure -- bad ICAP writes), the card surviving each
  /// time.  Draws come from `rng` (a split stream of the chaos seed) on
  /// this device's own shard in completion order, so serial and
  /// parallel runs fail the identical programmings and an unarmed
  /// device draws nothing.
  void set_port_flaky(double fail_probability, Rng rng);
  void clear_port_flaky() { flaky_ = false; }
  [[nodiscard]] bool port_flaky() const { return flaky_; }

  /// Completed reconfigurations (diagnostics / tests).  Slot
  /// programmings count individually.
  [[nodiscard]] std::uint64_t reconfigurations() const { return reconfigs_; }

  /// Bumped on every event that can change `has_kernel` answers
  /// (programming start/completion, offline transitions).  Prefer
  /// residency()/residency_current() -- they avoid invalidating cached
  /// answers for slots that didn't change.
  [[nodiscard]] std::uint64_t residency_epoch() const {
    return residency_epoch_;
  }

  /// Completed kernel invocations across all CUs.
  [[nodiscard]] std::uint64_t kernel_invocations() const;

  [[nodiscard]] const FpgaSpec& spec() const { return spec_; }

 private:
  struct LoadedKernel {
    HwKernelConfig config;
    std::vector<std::unique_ptr<sim::FifoStation>> cus;
  };

  /// One partial-reconfiguration slot (whole-image mode: the only one).
  struct Slot {
    enum class State : std::uint8_t { kEmpty, kProgramming, kLoaded };
    State state = State::kEmpty;
    std::string image;  ///< XCLBIN id when kLoaded by reconfigure()
    std::vector<LoadedKernel> kernels;  ///< non-empty when kLoaded
    /// Bumped whenever this slot's contents change (programming start,
    /// completion, teardown).  ResidencyView caching keys on it.
    std::uint64_t version = 0;
  };

  /// A queued programming of one slot: its kernels (each with
  /// `compute_units` CUs) and what the port pays to install them.
  struct PendingReconfig {
    std::uint32_t slot = 0;
    std::string image;  ///< XCLBIN id; empty for a partial bitstream
    std::vector<HwKernelConfig> kernels;
    std::uint64_t bitstream_bytes = 0;
    Duration program_time;
    ReconfigureCallback on_done;
  };

  /// Queue `req` on the port, or drop it as kOfflineDrop when the card
  /// is offline.
  void submit(PendingReconfig req);
  void start_reconfigure();
  void finish_port(ReconfigureCallback done, ReconfigureResult result);
  /// Complete a request that never reached the port with `result`, one
  /// zero-delay event later.
  void refuse(ReconfigureCallback done, ReconfigureResult result);
  /// Tear `slot` down into `state`: its CUs retire, its version bumps.
  void clear_slot(Slot& slot, Slot::State state);
  /// Least-backlogged CU hosting `name` across slots (ties -> lowest
  /// slot, then lowest index); null if absent.
  [[nodiscard]] sim::FifoStation* pick_cu(const std::string& name,
                                          const HwKernelConfig** cfg);
  void bump_epoch() { ++residency_epoch_; }
  /// One-shot arm plus flaky-port draw: decides whether the programming
  /// completing right now fails with kInjectedFailure.
  [[nodiscard]] bool draw_injected_failure();
  /// Displace `cus`: stations with work in flight drain in the
  /// graveyard (their completions still fire, modeling
  /// quiesce-before-reprogram without blocking the port); idle ones are
  /// destroyed now.  A busy FifoStation has a scheduled event pointing
  /// at it, so destroying one in place would be a use-after-free.
  void retire_cus(std::vector<std::unique_ptr<sim::FifoStation>>& cus);

  sim::Simulation& sim_;
  hw::Link& pcie_;
  FpgaSpec spec_;
  Logger log_;

  /// Displaced CUs still draining in-flight work (see retire_cus).
  std::vector<std::unique_ptr<sim::FifoStation>> draining_cus_;
  std::uint64_t retired_invocations_ = 0;

  std::optional<SlotConfig> slot_cfg_;  ///< set once slot mode is on
  FpgaResources slot_capacity_;
  std::vector<Slot> slots_;

  bool reconfig_active_ = false;
  bool offline_ = false;
  OfflineWatcher* offline_watcher_ = nullptr;
  bool fail_armed_ = false;
  bool flaky_ = false;  ///< windowed probabilistic port failures
  double flaky_probability_ = 0.0;
  std::optional<Rng> flaky_rng_;  ///< seeded when set_port_flaky arms it
  /// Offline transitions ever taken.  A programming attempt stamps this
  /// at start and re-checks at completion, so even an offline blip that
  /// heals before programming finishes tears the bitstream write.
  std::uint64_t offline_events_ = 0;
  std::deque<PendingReconfig> reconfig_queue_;
  std::uint64_t reconfigs_ = 0;
  std::uint64_t residency_epoch_ = 0;
};

}  // namespace xartrek::fpga
