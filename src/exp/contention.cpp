#include "exp/contention.hpp"

#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "fpga/device.hpp"
#include "hw/link.hpp"
#include "sim/cell_ring.hpp"

namespace xartrek::exp {

namespace {

/// FNV-1a over the eight bytes of `v`, low byte first.
std::uint64_t fnv_mix_bytes(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

/// Everything one cell owns, living on that cell's shard.  Counters
/// and the running trace hash are touched only from the cell's own
/// events, so parallel runs race nothing.
struct CellState {
  std::uint32_t index = 0;
  sim::Simulation* sim = nullptr;
  std::unique_ptr<hw::Link> pcie;
  std::unique_ptr<fpga::FpgaDevice> device;
  std::unique_ptr<fpga::SlotScheduler> sched;  ///< slot mode only
  /// Whole-image baseline: one single-kernel image per tenant, packed
  /// with as many CUs as the fabric holds (equal area budget).
  std::vector<fpga::XclbinImage> images;
  sim::CrossShardChannel spill;  ///< ring hop to the next cell
  CellState* next_cell = nullptr;

  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t hash = kFnvOffset;
  /// Baseline dwell bookkeeping.
  bool has_resident = false;
  TimePoint resident_since = TimePoint::origin();
};

struct Workload {
  ContentionSpec spec;
  std::vector<fpga::HwKernelConfig> kernels;  ///< by tenant
  std::vector<std::unique_ptr<CellState>> cells;
  TimePoint end = TimePoint::origin();
};

/// The tenant holding the hot role at `at` (rotating hotspot).
std::uint32_t hot_tenant_at(const ContentionSpec& spec, TimePoint at) {
  const double phase = at.to_ms() / spec.hot_phase.to_ms();
  return static_cast<std::uint32_t>(phase) % spec.tenants;
}

Duration period_of(const ContentionSpec& spec, std::uint32_t tenant,
                   TimePoint at) {
  if (tenant == hot_tenant_at(spec, at)) {
    return Duration::ms(spec.period.to_ms() / spec.hot_factor);
  }
  return spec.period;
}

void on_arrival(Workload& w, CellState& cell, std::uint32_t tenant,
                bool spilled) {
  ++cell.arrivals;
  const std::string& name = w.kernels[tenant].name;
  fpga::FpgaDevice& device = *cell.device;

  if (w.spec.slots > 0) {
    cell.sched->note_demand(name);
    if (device.has_kernel(name)) {
      device.execute(name, w.spec.items, [&cell, tenant] {
        ++cell.completions;
        cell.hash = fnv_mix_bytes(cell.hash, cell.index);
        cell.hash = fnv_mix_bytes(cell.hash, tenant);
        cell.hash = fnv_mix_bytes(
            cell.hash, std::bit_cast<std::uint64_t>(cell.sim->now().to_ms()));
      });
    } else {
      ++cell.fallbacks;
    }
    // Every arrival is a decision opportunity: place an absent kernel,
    // or grow a hot resident one.  The scheduler early-outs while the
    // reconfiguration port is busy.
    cell.sched->provision(name);
  } else {
    if (device.has_kernel(name)) {
      device.execute(name, w.spec.items, [&cell, tenant] {
        ++cell.completions;
        cell.hash = fnv_mix_bytes(cell.hash, cell.index);
        cell.hash = fnv_mix_bytes(cell.hash, tenant);
        cell.hash = fnv_mix_bytes(
            cell.hash, std::bit_cast<std::uint64_t>(cell.sim->now().to_ms()));
      });
    } else {
      ++cell.fallbacks;
      // Demand-driven whole-image swap with dwell hysteresis: the
      // resident tenant keeps the fabric for at least the dwell, so the
      // baseline serves *someone* instead of thrashing to zero.
      const TimePoint now = cell.sim->now();
      const bool dwell_over =
          !cell.has_resident ||
          now - cell.resident_since >= w.spec.whole_image_dwell;
      if (!device.reconfiguring() && dwell_over) {
        cell.has_resident = false;
        device.reconfigure(
            cell.images[tenant], [&cell](fpga::ReconfigureResult r) {
              if (fpga::succeeded(r)) {
                cell.has_resident = true;
                cell.resident_since = cell.sim->now();
              }
            });
      }
    }
  }

  // Tenant 0's demand spills to the next cell around the ring -- real
  // cross-shard traffic, so parallel determinism is load-bearing.
  // Spilled arrivals don't re-spill (no amplification loop).
  if (tenant == 0 && !spilled && w.cells.size() > 1) {
    CellState* next = cell.next_cell;
    cell.spill.deliver([&w, next] { on_arrival(w, *next, 0, true); });
  }
}

void schedule_arrivals(Workload& w, CellState& cell, std::uint32_t tenant,
                       TimePoint at) {
  if (at > w.end) return;
  cell.sim->schedule_at(at, [&w, &cell, tenant, at] {
    on_arrival(w, cell, tenant, /*spilled=*/false);
    schedule_arrivals(w, cell, tenant, at + period_of(w.spec, tenant, at));
  });
}

}  // namespace

ContentionResult run_fpga_contention(const ContentionSpec& spec) {
  XAR_EXPECTS(spec.cells >= 1);
  XAR_EXPECTS(spec.tenants >= 1);
  XAR_EXPECTS(spec.hot_factor >= 1.0);
  XAR_EXPECTS(spec.period > Duration::zero());
  XAR_EXPECTS(spec.hot_phase > Duration::zero());

  Workload w;
  w.spec = spec;
  w.end = TimePoint::origin() + spec.span;

  // Tenant kernels sized so a 4-slot carve holds up to 4 CUs per slot,
  // and the baseline's whole image packs 16 CUs of one tenant: both
  // models can spend the entire usable region.
  const fpga::FpgaSpec card = fpga::alveo_u50_spec();
  const fpga::FpgaResources footprint = card.usable() / 16;
  for (std::uint32_t t = 0; t < spec.tenants; ++t) {
    fpga::HwKernelConfig k;
    k.name = "TEN_" + std::to_string(t);
    k.resources = footprint;
    k.fixed_cycles = 30'000;
    k.cycles_per_item = 7.0;
    w.kernels.push_back(std::move(k));
  }

  sim::CellRing ring(spec.cells, spec.spill_latency, std::nullopt,
                     spec.parallel);

  for (std::size_t c = 0; c < spec.cells; ++c) {
    auto cell = std::make_unique<CellState>();
    cell->index = static_cast<std::uint32_t>(c);
    cell->sim = &ring.cell(c);
    cell->pcie = std::make_unique<hw::Link>(*cell->sim, hw::pcie_gen3());
    cell->device = std::make_unique<fpga::FpgaDevice>(*cell->sim, *cell->pcie,
                                                      card);
    if (spec.slots > 0) {
      fpga::SlotConfig slot_cfg;
      slot_cfg.slots = spec.slots;
      cell->device->enable_slots(slot_cfg);
      cell->sched = std::make_unique<fpga::SlotScheduler>(*cell->device,
                                                          spec.policy);
      for (const auto& k : w.kernels) cell->sched->register_kernel(k);
    } else {
      for (const auto& k : w.kernels) {
        fpga::XclbinImage image;
        image.id = "xclbin_" + k.name;
        fpga::HwKernelConfig packed = k;
        packed.compute_units = 16;
        image.kernels.push_back(std::move(packed));
        image.size_bytes = 25ull << 20;
        cell->images.push_back(std::move(image));
      }
    }
    cell->spill = ring.next(c);
    w.cells.push_back(std::move(cell));
  }
  for (std::size_t c = 0; c < spec.cells; ++c) {
    w.cells[c]->next_cell = w.cells[(c + 1) % spec.cells].get();
  }

  // Stagger tenant start phases deterministically so same-instant
  // pileups don't mask per-tenant behavior.
  for (std::size_t c = 0; c < spec.cells; ++c) {
    for (std::uint32_t t = 0; t < spec.tenants; ++t) {
      const TimePoint first = TimePoint::origin() +
                              Duration::micros(10.0 * (t + 1)) +
                              period_of(spec, t, TimePoint::origin());
      schedule_arrivals(w, *w.cells[c], t, first);
    }
  }

  ring.engine().run_until(w.end);

  ContentionResult r;
  r.executed_events = ring.engine().executed_events();
  r.trace_hash = kFnvOffset;
  for (const auto& cell : w.cells) {
    r.arrivals += cell->arrivals;
    r.fpga_completions += cell->completions;
    r.fallbacks += cell->fallbacks;
    r.reconfigurations += cell->device->reconfigurations();
    if (cell->sched != nullptr) {
      r.evictions += cell->sched->stats().evictions;
      r.replications += cell->sched->stats().replications;
    }
    r.trace_hash = fnv_mix_bytes(r.trace_hash, cell->hash);
  }
  const double sim_seconds = spec.span.to_ms() / 1e3;
  r.completions_per_sim_sec =
      sim_seconds > 0.0 ? static_cast<double>(r.fpga_completions) / sim_seconds
                        : 0.0;
  return r;
}

}  // namespace xartrek::exp
