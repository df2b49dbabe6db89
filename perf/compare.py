#!/usr/bin/env python3
"""Compare two suite results: one row per workload x end-to-end metric.

    python3 perf/compare.py A/suite.json B/suite.json [--markdown]

A suite file is what ``perf/run.py [--repeat N]`` leaves in its
``--out`` directory.  Each side's value is the median over its runs;
``spread`` is the interquartile range of those runs as a share of
their median (blank with fewer than four runs).  Verdicts, against the
bound ``BENCHMARK.json`` fixes for the metric:

* ``regressed``  B's median is worse than A's by more than the bound;
* ``unresolved`` either side's spread is wider than the bound, so the
  runs cannot tell;
* ``ok``         otherwise.

``failed_ratio`` (failed, refused or wrong-answer ops over attempted,
from the result lines) has bound zero: any increase is ``regressed``.

Exit status 1 when any row is ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def series(suite: dict, workload: str, metric: str) -> list[float]:
    """The metric's value in every run of the suite that produced it."""
    values = []
    for run in suite["runs"]:
        line = run["workloads"].get(workload, {}).get("end_to_end")
        if line is not None:
            values.append(line["metrics"][metric]["value"])
    return values


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median."""
    if len(values) < 4:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(a: list[float], b: list[float], metric: dict) -> tuple[float, str]:
    """(relative worsening of B against A, verdict)."""
    before, after = statistics.median(a), statistics.median(b)
    change = (after - before) / before
    worse = change if metric["better"] == "lower" else -change
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if worse > metric["bound"]:
        return worse, "regressed"
    if any(s > metric["bound"] for s in spreads):
        return worse, "unresolved"
    return worse, "ok"


def failed_ratio(suite: dict, workload: str) -> float | None:
    """Failed, refused or wrong-answer ops over attempted, all runs; a
    run that produced no result line counts as wholly failed."""
    lines = [run["workloads"].get(workload, {}).get("end_to_end") for run in suite["runs"]]
    if any(line is None for line in lines):
        return 1.0
    attempted = sum(line["attempted"] for line in lines)
    return sum(line["failed"] for line in lines) / attempted if attempted else None


def compare(suite_a: dict, suite_b: dict, benchmark: dict) -> list[dict]:
    rows = []
    for workload in benchmark["workloads"]:
        name = workload["name"]
        for metric in benchmark["end_to_end"]:
            a = series(suite_a, name, metric["name"])
            b = series(suite_b, name, metric["name"])
            row = {"workload": name, "metric": metric["name"], "unit": metric["unit"],
                   "bound": metric["bound"], "runs": f"{len(a)}/{len(b)}"}
            if a and b:
                row["worse"], row["verdict"] = verdict(a, b, metric)
                row.update(a=statistics.median(a), b=statistics.median(b),
                           spread_a=spread(a), spread_b=spread(b))
            else:
                row["verdict"] = "regressed"  # a side that did not report cannot pass
            rows.append(row)
        # Any increase in failures is a regression: the bound is zero.
        a, b = failed_ratio(suite_a, name), failed_ratio(suite_b, name)
        rows.append({
            "workload": name, "metric": "failed_ratio", "unit": "ratio", "a": a, "b": b,
            "bound": 0.0, "runs": f"{len(suite_a['runs'])}/{len(suite_b['runs'])}",
            "verdict": "regressed" if a is None or b is None or b > a else "ok",
        })
    return rows


def render(rows: list[dict], markdown: bool) -> str:
    def number(value: float | None) -> str:
        return "" if value is None else f"{value:.4g}"

    def share(value: float | None, sign: str = "") -> str:
        return "" if value is None else f"{value * 100:{sign}.1f}%"

    header = ["workload", "metric", "unit", "A", "B", "worse by", "bound",
              "spread A", "spread B", "runs", "verdict"]
    table = [header] + [
        [
            row["workload"], row["metric"], row["unit"],
            number(row.get("a")), number(row.get("b")),
            share(row.get("worse"), "+"), share(row["bound"]),
            share(row.get("spread_a")), share(row.get("spread_b")),
            row["runs"], row["verdict"],
        ]
        for row in rows
    ]
    if markdown:
        lines = ["| " + " | ".join(cells) + " |" for cells in table]
        lines.insert(1, "|" + "---|" * len(header))
        return "\n".join(lines)
    widths = [max(len(cells[i]) for cells in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
        for cells in table
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--markdown", action="store_true", help="print a markdown table")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    suites = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            suites.append(json.load(handle))
    rows = compare(*suites, benchmark)
    print(render(rows, args.markdown))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
