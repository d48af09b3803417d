#!/usr/bin/env python3
"""CI perf-regression gate: compare a fresh BENCH_*.json against the
committed baseline and fail when a tracked metric regresses past its
tolerance.

Usage:
    compare_bench.py --baseline BENCH_sim_core.json \
                     --candidate build/BENCH_sim_core.json [--tolerance 0.25]

The bench type is read from the JSON's "bench" field.  Two metric
classes are gated:

  * machine-neutral: allocation counts (exact contracts -- gated with a
    small absolute epsilon) and same-run ratios (pooled-vs-legacy
    speedups, sharded-vs-single-queue speedups, O(log n) flatness
    ratios).  These are robust across host generations because both
    sides of the ratio ran on the same machine.
  * cross-machine: absolute rates (ns/event, requests/sec).  These
    compare a CI run against the committed baseline, so a runner
    hardware change can shift them; refresh the baselines from the
    bench-smoke artifacts when that happens (see docs/ci.md).  Set
    XARTREK_BENCH_GATE_CROSS_MACHINE=0 to demote them to warnings.

Default tolerance is 25% in the regressing direction; improvements
never fail.
"""

import argparse
import json
import os
import sys

# (path, direction, cross_machine) -- direction "higher" means larger is
# better (gate: candidate >= baseline * (1 - tol)); "lower" means smaller
# is better (gate: candidate <= baseline * (1 + tol)); "abs" means the
# candidate must stay near zero; "exact" means the candidate must equal
# the baseline (conservation flags, which must not drift in either
# direction).
METRICS = {
    "sim_core": [
        ("events.steady_churn.pooled.alloc_calls_per_event", "abs", False),
        ("events.cancel_churn.pooled.alloc_calls_per_event", "abs", False),
        ("events.speedup", "higher", False),
        ("sharded.ratio_1shard_vs_single_queue", "higher", False),
        ("sharded.aggregate_speedup_4_shards", "higher", False),
        ("events.steady_churn.pooled.events_per_sec", "higher", True),
        ("sharded.single_queue.wall_events_per_sec", "higher", True),
    ],
    "ps_resource": [
        ("request_loop.alloc_calls_per_request", "abs", False),
        ("request_loop.alloc_bytes_per_request", "abs", False),
        ("scaling.pooled_cost_ratio_100k_vs_1k", "lower", False),
        # Every completion tick arms exactly one engine event, however
        # its callbacks resubmit: a deterministic count, machine-neutral.
        ("scaling.pooled.0.schedules_per_event", "exact", False),
        ("scaling.pooled.1.schedules_per_event", "exact", False),
        ("scaling.pooled.2.schedules_per_event", "exact", False),
        # A looping lane's lap re-enters inside PsResource: no callback,
        # no allocation, one engine event per tick.  Counts, so exact.
        ("lane_loop.alloc_calls_per_loop", "abs", False),
        ("lane_loop.schedules_per_event", "exact", False),
        ("scaling.pooled.0.ns_per_event", "lower", True),
        ("scaling.pooled.2.ns_per_event", "lower", True),
        ("request_loop.requests_per_sec", "higher", True),
    ],
    "cluster": [
        # Same-run capacity ratios (single queue vs 1/2/4 cells measured
        # on the same host in the same run) are machine-neutral; the
        # aggregate_speedup_4_cells key is the tentpole's >= 2.5x
        # acceptance bar.  Absolute rates cross machines.
        ("cluster.ratio_1cell_vs_single_queue", "higher", False),
        ("cluster.aggregate_speedup_2_cells", "higher", False),
        ("cluster.aggregate_speedup_4_cells", "higher", False),
        # Skewed load: same-run critical-path capacity ratios (a forced
        # 0.1 ms epoch vs the cell ring's own epoch, its hop latency,
        # without and with cell stealing, on the identical trace and
        # host) are machine-neutral; events_conserved pins the trace
        # identity contract exactly.
        ("skew.speedup_plan_epoch_vs_fixed", "higher", False),
        ("skew.speedup_plan_epoch_steal_vs_fixed", "higher", False),
        ("skew.events_conserved", "exact", False),
        # Fault machinery: exactly-once completion is an exact contract;
        # the chaos/no-fault event ratio is simulation-deterministic
        # (same plan, same seeds), hence machine-neutral.
        ("fault.completed_conserved", "exact", False),
        ("fault.event_overhead_ratio", "lower", False),
        # Health checks on a healthy card cost each cell one tick, then
        # the quiet loop schedules nothing: a deterministic constant.
        ("fault.idle_health_events", "exact", False),
        # Gray storm: degraded faults (slow cells, lossy/corrupting
        # links, flaky ports) must not lose jobs, and the retry/backoff
        # machinery's event cost over the clean run stays bounded.
        # Deterministic plan and seeds, hence machine-neutral.
        ("gray.completed_conserved", "exact", False),
        ("gray.retry_overhead_ratio", "lower", False),
        # Thin windows: a storm-shaped run (one tracked job per 50 ms
        # step through a gray storm with a kill, ~1.5 events per
        # window) timed on the serial engine and on 4 workers in five
        # interleaved pairs.  The wall ratio (serial / 4 workers,
        # median over the pairs) is same-run, hence machine-neutral;
        # events_conserved pins that every run simulated the identical
        # events and windows and completed every job.
        ("thin.wall_ratio_w4_vs_w1", "higher", False),
        ("thin.events_conserved", "exact", False),
        # sync8-shaped, ~125 events per window: the pool must win.
        ("dense.wall_ratio_w4_vs_w1", "higher", False),
        ("dense.events_conserved", "exact", False),
        # Observability layer: tracing is pure metadata, so the event
        # counts with the tracer off and on must match exactly, the
        # best-of-3 wall overhead of tracing the gray storm stays
        # within the 5% budget, and the hot primitives (counter add,
        # histogram record, span begin/end) allocate nothing in steady
        # state -- an exact contract.
        ("obs.overhead_ratio", "lower", False),
        ("obs.budget_met", "exact", False),
        ("obs.events_identical", "exact", False),
        ("obs.trace_nonempty", "exact", False),
        ("obs.alloc_calls_per_event", "abs", False),
        ("obs.alloc_bytes_per_event", "abs", False),
        # The cluster drain path (ReliableChannel attempts are verified
        # link transfers) allocates nothing per send in steady state --
        # the same exact contract, on the path the obs probe misses.
        ("drain.alloc_calls_per_send", "abs", False),
        ("drain.alloc_bytes_per_send", "abs", False),
        ("cluster.single_queue.wall_events_per_sec", "higher", True),
        ("attach_detach.jobs_per_sec", "higher", True),
    ],
    "fpga": [
        # Everything gated here is a simulated-time count from a
        # deterministic workload (same arrival schedule, same policy
        # decisions on any host), so all metrics are machine-neutral.
        # speedup_vs_whole_image is the virtualization tentpole's >= 2x
        # acceptance bar; trace_identical pins serial-vs-parallel
        # bitwise trace identity with the slot scheduler evicting and
        # replicating mid-run, and slot_activity pins that both policy
        # arms actually fired (identity over an idle scheduler would be
        # vacuous).  Gating both absolute completion counts keeps the
        # ratio honest -- the speedup cannot "improve" by degrading the
        # whole-image baseline.
        ("slots.speedup_vs_whole_image", "higher", False),
        ("slots.trace_identical", "exact", False),
        ("slots.slot_activity", "exact", False),
        ("slots.virtualized.fpga_completions", "higher", False),
        ("slots.whole_image.fpga_completions", "higher", False),
    ],
}

# Allocation-count contracts: the candidate must stay (near) zero
# regardless of the baseline value.
ABS_EPSILON = 0.01


def lookup(doc, path):
    node = doc
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        else:
            node = node[part]
    return float(node)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--candidate", required=True)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.candidate) as f:
        candidate = json.load(f)

    bench = candidate.get("bench")
    if bench != baseline.get("bench"):
        print(f"FAIL: baseline is '{baseline.get('bench')}' but candidate "
              f"is '{bench}'")
        return 1
    if bench not in METRICS:
        print(f"FAIL: unknown bench type '{bench}'")
        return 1

    gate_cross = os.environ.get(
        "XARTREK_BENCH_GATE_CROSS_MACHINE", "1") != "0"
    tol = args.tolerance
    failures = []
    print(f"{'metric':55} {'baseline':>12} {'candidate':>12}  verdict")
    for path, direction, cross_machine in METRICS[bench]:
        try:
            base = lookup(baseline, path)
            cand = lookup(candidate, path)
        except (KeyError, IndexError, TypeError):
            failures.append(f"{path}: missing from baseline or candidate")
            print(f"{path:55} {'-':>12} {'-':>12}  MISSING")
            continue
        if direction == "abs":
            ok = cand <= max(base, 0.0) + ABS_EPSILON
        elif direction == "exact":
            ok = abs(cand - base) <= ABS_EPSILON
        elif direction == "higher":
            ok = cand >= base * (1.0 - tol)
        else:  # lower
            ok = cand <= base * (1.0 + tol)
        verdict = "ok"
        if not ok:
            if cross_machine and not gate_cross:
                verdict = "WARN (cross-machine, not gated)"
            else:
                verdict = "REGRESSED"
                failures.append(
                    f"{path}: baseline {base:g}, candidate {cand:g} "
                    f"(direction: {direction}, tolerance {tol:.0%})")
        print(f"{path:55} {base:12.4g} {cand:12.4g}  {verdict}")

    if failures:
        print(f"\nFAIL: {len(failures)} metric(s) regressed more than "
              f"{tol:.0%} vs {args.baseline}:")
        for f_ in failures:
            print(f"  - {f_}")
        print("\nIf this is an accepted trade-off or a runner hardware "
              "change, refresh the baseline from the bench-smoke "
              "artifacts (see docs/ci.md).")
        return 1
    print(f"\nOK: no tracked metric regressed more than {tol:.0%}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
