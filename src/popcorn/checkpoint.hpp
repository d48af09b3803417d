// Checkpointed drain tickets.
//
// When a cell dies mid-run, its in-flight jobs are not lost: the dying
// cell snapshots each job as a DrainTicket, lays the ticket out as a
// real popcorn::ThreadStack at a synthetic migration point
// ("__xar_drain"), and ships it to a ring neighbor, which decodes the
// ticket and re-places the job (exp::ClusterExperiment::forward_job
// sends it over the drain link's ReliableChannel; the neighbor's shard
// receives it through the cell's drain arrival channel).  Riding the
// ordinary migration machinery -- metadata-described live values,
// per-ISA locations, StateTransformer rewrite, wire burst over the
// inter-cell link -- means a drain pays the same modeled costs as any
// Popcorn migration and works across ISA boundaries for free.
#pragma once

#include <cstdint>

#include "isa/isa.hpp"
#include "popcorn/machine_state.hpp"
#include "popcorn/metadata.hpp"

namespace xartrek::popcorn {

/// Everything a neighbor needs to re-materialize one drained job.
struct DrainTicket {
  std::uint64_t job = 0;        ///< cluster-wide job id
  std::uint32_t app_index = 0;  ///< index into the experiment's specs
  std::uint32_t attempts = 0;   ///< placement attempts so far (backoff)
};

/// Migration metadata for the synthetic "__xar_drain" checkpoint site:
/// the ticket's fields as live values with x86 stack-slot and aarch64
/// callee-saved-register locations.  One shared immutable table.
[[nodiscard]] const MigrationMetadata& drain_metadata();

/// Lay `ticket` out as a single-frame ThreadStack in `isa`'s format at
/// the "__xar_drain" site.
[[nodiscard]] ThreadStack checkpoint_drain(const DrainTicket& ticket,
                                           isa::IsaKind isa);

/// Recover the ticket from a (possibly ISA-transformed) drain stack.
/// Requires the stack's top frame to be at the "__xar_drain" site.
[[nodiscard]] DrainTicket decode_drain(const ThreadStack& stack);

}  // namespace xartrek::popcorn
