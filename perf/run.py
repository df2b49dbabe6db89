#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 perf/run.py --workload e1_titles --seed 7 --seconds 15 --trace 0
    python3 perf/run.py                      # every workload, one subprocess each
    python3 perf/run.py --repeat 10          # ... ten times, seeds 7..16

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Metric names, units and workloads are declared once, in
``BENCHMARK.json``.  Nothing is written outside ``perf/out/``.

Latencies are this sandbox's: the OS page cache serves every read and
flushes are cheap, so they are not a storage device's.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "perf" / "out"
HEADER = (
    "# closed loop, one client (ingest_beside_reads: one reader + one writer); "
    "latencies are this sandbox's (OS page cache serves reads), not a device's"
)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(benchmark: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument(
        "--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
        help="1: also run the traced pass and report the per-layer metrics",
    )
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="directory for results")
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="suite only: run every workload this many times, seed, seed+1, ...",
    )
    return parser.parse_args()


def run_one(args: argparse.Namespace, benchmark: dict) -> int:
    """Run one workload in this process and print its result line."""
    if not (ROOT / "src" / "repro").is_dir():
        print("perf/run.py: src/repro not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # The script's own directory comes off the path: perf/trace.py must
    # not shadow the standard library's trace module.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perf.harness import run_workload
    from perf.workloads import WORKLOADS

    os.makedirs(args.out, exist_ok=True)
    trace = bool(args.trace)
    try:
        result = run_workload(
            WORKLOADS[args.workload],
            seed=args.seed, seconds=args.seconds, trace=trace, scratch=args.out,
        )
    except Exception as error:  # noqa: BLE001 - the correctness gate: report, exit non-zero
        print(f"perf/run.py: {args.workload} failed its correctness gate: "
              f"{type(error).__name__}: {error}", file=sys.stderr)
        return 1

    declared = benchmark["per_layer" if trace else "end_to_end"]
    measured = result.per_layer if trace else result.end_to_end
    # A per-layer metric a workload does not exercise reads 0.
    metrics = {
        metric["name"]: {"value": measured.get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in declared
    }
    print(HEADER)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"samples={result.samples} attempted={result.attempted} failed={result.failed}")
    print(f"# {result.note}")
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:14.4f} {metric['unit']:12s} n={result.samples}")
    if trace:
        path = os.path.join(args.out, f"trace_{args.workload}.json")
        result.tracer.write(path, workload=args.workload, seed=args.seed)
        print(f"# per-layer self time (traced pass + probes), spans in {path}")
        for layer, row in sorted(result.tracer.self_time_by_layer().items()):
            print(f"#   {layer:10s} self {row['self_ms']:10.2f} ms  "
                  f"total {row['total_ms']:10.2f} ms  spans {row['spans']:6d}")
    correct = result.failed == 0
    line = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if correct else 1


def run_child(args: argparse.Namespace, workload: str, seed: int, trace: int) -> dict | None:
    """One workload run in a subprocess; its result line, or None."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", args.out,
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def run_suite(args: argparse.Namespace, benchmark: dict) -> int:
    """Every workload in its own subprocess, so the program's module-
    global counters and ``ru_maxrss`` are per workload."""
    os.makedirs(args.out, exist_ok=True)
    runs = []
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        workloads = {}
        for workload in benchmark["workloads"]:
            name = workload["name"]
            workloads[name] = {"end_to_end": run_child(args, name, seed, 0)}
            if args.trace:
                workloads[name]["per_layer"] = run_child(args, name, seed, 1)
        runs.append({"seed": seed, "workloads": workloads})
    path = os.path.join(args.out, "suite.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seconds": args.seconds, "runs": runs}, handle, indent=1)
    print(f"# suite results in {path}")
    lines = [line for run in runs for entry in run["workloads"].values() for line in entry.values()]
    return 0 if all(line is not None and line["correct"] for line in lines) else 1


def main() -> int:
    benchmark = load_benchmark()
    args = parse_args(benchmark)
    if args.workload:
        return run_one(args, benchmark)
    return run_suite(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
