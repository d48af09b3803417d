#!/usr/bin/env python3
"""Wall-clock benchmark of the Xar-Trek reproduction: the one command.

    python3 benchmark/run.py                  # every workload, end-to-end metrics
    python3 benchmark/run.py --trace 1        # every workload, per-layer metrics
    python3 benchmark/run.py --workload storm4 --seed 7 --seconds 10 --trace 0
    python3 benchmark/run.py --smoke          # every workload at 1/20 size
    python3 benchmark/run.py --compare A.json B.json

It builds the library and the xbench program from the repository's sources
in benchmark/.build (Release), runs each workload in a fresh process,
prints every metric by name with its unit, and fails when an output check
fails.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Metric names, units, directions and bounds
come from BENCHMARK.json at the repository root; README.md explains them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / ".build"
OUT = HERE / "out"
DEFAULT_SEED = 2021
XBENCH_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Configure (once) and build xbench; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources next to {HERE}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "xbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return BUILD / "xbench"


def run_xbench(xbench, workload, seed, seconds, trace, smoke):
    """One workload in a fresh process; returns its parsed JSON line."""
    OUT.mkdir(exist_ok=True)
    cmd = [str(xbench), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(OUT)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=XBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: xbench exceeded {XBENCH_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload}: xbench printed no result "
                         f"(exit {proc.returncode})")


def summary(samples):
    """Median, first and third quartile, and count of a sample list."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0], 1
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), q1, q3, len(samples)


def report(result, spec, trace):
    """Print one workload's metrics; returns (metrics, problems).

    End-to-end metrics must all be measured.  A per-layer metric that
    the workload does not exercise reads 0 and prints as n/a."""
    section, listed = (("per_layer", spec["per_layer"]) if trace
                       else ("end_to_end", spec["end_to_end"]))
    measured = result[section]
    problems = [f"{result['workload']}: {c}" for c in result["checks_failed"]]
    known = {m["name"] for m in spec["per_layer"]}
    problems += [f"{result['workload']}: unlisted per-layer metric {n}"
                 for n in result["per_layer"] if n not in known]
    metrics = {}
    for m in listed:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                problems.append(f"{result['workload']}: {name} not measured")
            metrics[name] = {"value": 0, "unit": unit}
            print(f"  {name:30s} n/a")
            continue
        if got["unit"] != unit:
            problems.append(f"{result['workload']}: {name} in {got['unit']}, "
                            f"listed in {unit}")
        med, q1, q3, n = summary(got["samples"])
        metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:30s} {med:14.6g} {unit:8s} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}, n {n}]")
    return metrics, problems


def save_run(path, record):
    """Append one run (every workload's raw result) to a save file."""
    path = Path(path)
    runs = json.loads(path.read_text())["runs"] if path.is_file() else []
    runs.append(record)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


# --- comparing two commits ---------------------------------------------------

def load_runs(path):
    """{workload: [xbench result, ...]} over every run in a save file."""
    by_workload = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for workload, result in run["workloads"].items():
            by_workload.setdefault(workload, []).append(result)
    return by_workload


def side_values(results, section, name):
    """One value per run (its median) when a side has several runs;
    otherwise the single run's own per-pass samples."""
    series = [r[section][name]["samples"] for r in results
              if name in r[section]]
    if len(series) >= 2:
        return [statistics.median(s) for s in series]
    return series[0] if series else []


def verdict(a, b, better, bound):
    """Change of B against A in the worse direction, and the verdict."""
    med_a, q1_a, q3_a, _ = summary(a)
    med_b, q1_b, q3_b, _ = summary(b)
    if med_a == 0:
        return 0.0, "same" if med_b == 0 else "changed"
    sign = 1 if better == "lower" else -1
    worse = sign * (med_b - med_a) / abs(med_a)
    if bound is None:
        return worse, "-"
    spread = max((q3_a - q1_a) / abs(med_a),
                 (q3_b - q1_b) / abs(med_b) if med_b else 0.0)
    # "Every run of B beats every run of A" means little below 3 a side.
    b_wins_all = (min(len(a), len(b)) >= 3 and
                  all(sign * (y - x) < 0 for x in a for y in b))
    if spread > bound and not b_wins_all:
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    if b_wins_all or -worse > (q3_a - q1_a) / abs(med_a) > 0:
        return worse, "better"
    return worse, "ok"


def compare(path_a, path_b, spec):
    a_runs, b_runs = load_runs(path_a), load_runs(path_b)
    rows = ([("end_to_end", m) for m in spec["end_to_end"]] +
            [("per_layer", m) for m in spec["per_layer"]])
    regressions = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':9s} {'metric':30s} {'A median [q1, q3] n':36s} "
          f"{'B median [q1, q3] n':36s} {'worse by':>9s} {'bound':>6s} verdict")
    for workload in sorted(set(a_runs) & set(b_runs)):
        for section, m in rows:
            a = side_values(a_runs[workload], section, m["name"])
            b = side_values(b_runs[workload], section, m["name"])
            if not a or not b:
                continue
            bound = m.get("bound")
            worse, word = verdict(a, b, m["better"], bound)
            regressions += word == "REGRESSION"
            cells = []
            for values in (a, b):
                med, q1, q3, n = summary(values)
                cells.append(f"{med:.6g} [{q1:.4g}, {q3:.4g}] {n}")
            bound_txt = f"{100 * bound:.0f}%" if bound is not None else "-"
            print(f"{workload:9s} {m['name']:30s} {cells[0]:36s} "
                  f"{cells[1]:36s} {100 * worse:8.2f}% {bound_txt:>6s} {word}")
    return 1 if regressions else 0


# --- main ----------------------------------------------------------------------

def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads,
                   help="run one workload (default: all)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics and write "
                        "benchmark/out/<workload>.trace.json")
    p.add_argument("--traced", action="store_true", help="same as --trace 1")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at 1/20 size, traced, minimal passes")
    p.add_argument("--save", metavar="FILE",
                   help="append this run's raw results to FILE")
    p.add_argument("--xbench", metavar="PATH",
                   help="use this xbench binary instead of building one")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                   help="compare two save files")
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare, spec)
    trace = 1 if args.traced or args.smoke else args.trace
    seconds = 0 if args.smoke else args.seconds
    try:
        xbench = Path(args.xbench) if args.xbench else build()
        results = {}
        for workload in [args.workload] if args.workload else workloads:
            log(f"[run.py] {workload}: seed {args.seed}, {seconds} s, "
                f"trace {trace}")
            results[workload] = run_xbench(xbench, workload, args.seed,
                                           seconds, trace, args.smoke)
    except BenchError as e:
        log(f"[run.py] error: {e}")
        return 2

    problems = []
    metrics = {}
    for workload, result in results.items():
        print(f"{workload} (seed {result['seed']}, {result['workers']} "
              f"workers): attempted {result['attempted']}, "
              f"failed {result['failed']}")
        ran, found = report(result, spec, trace)
        problems += found
        for name, value in ran.items():
            metrics[name if args.workload else f"{workload}/{name}"] = value
        if args.smoke:
            # The smoke run checks both metric sets of every workload.
            _, found = report(result, spec, 0)
            problems += found
    if args.smoke:
        covered = {n for r in results.values() for n in r["per_layer"]}
        problems += [f"per-layer metric {m['name']} measured by no workload"
                     for m in spec["per_layer"] if m["name"] not in covered]
    problems = list(dict.fromkeys(problems))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if args.save:
        save_run(args.save, {"seed": args.seed, "seconds": seconds,
                             "trace": trace, "smoke": args.smoke,
                             "workloads": results})
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
