"""Smoke tests of the benchmark command.  Not part of tier-1:

    python -m pytest perf/tests -q

Every workload runs at ``--seconds 1`` in a subprocess, as the driver
runs it, so the whole file takes a couple of minutes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
#: Counts of faults and refusals: zero on every workload of a healthy run.
ZERO_WHEN_HEALTHY = {
    "failed_ratio", "service.rejected_ratio", "indexing.columnar_fallbacks_per_op",
    "wire.client_retries", "wire.reconnects", "cluster.hedges", "cluster.retries",
}
#: Needs two batch commits inside the window: not certain at --seconds 1.
NEEDS_A_LONGER_WINDOW = {"ingest.batch_commit_ms_p50"}


def run_benchmark(workload: str, out: Path, *, seed: int = 7, trace: int = 0,
                  script: Path = ROOT / "perf" / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=170, check=False,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


@pytest.fixture(scope="module")
def out(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("perf-out")


@pytest.fixture(scope="module")
def lines(out) -> dict[tuple[str, int], dict]:
    """One seed-7 result line per workload and trace mode."""
    return {
        (workload, trace): result_line(run_benchmark(workload, out, trace=trace))
        for workload in WORKLOADS
        for trace in (0, 1)
    }


def test_declarations_fit_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["perf"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_declared_metrics(lines, workload, trace):
    line = lines[workload, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        reported = line["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_every_per_layer_metric_is_measured_on_some_workload(lines):
    for metric in BENCHMARK["per_layer"]:
        values = [lines[workload, 1]["metrics"][metric["name"]]["value"] for workload in WORKLOADS]
        if metric["name"] in ZERO_WHEN_HEALTHY:
            assert not any(values), metric["name"]
        elif metric["name"] not in NEEDS_A_LONGER_WINDOW:
            assert any(values), f"{metric['name']} is declared but no workload measures it"


def test_the_trace_attributes_time_as_predicted(lines):
    def layer(workload: str, name: str) -> float:
        return lines[workload, 1]["metrics"][name]["value"]

    e1_share = layer("e1_titles", "query.op.project_groups_ms") / layer("e1_titles", "query.execute_ms")
    e2_share = layer("e2_count", "query.op.project_groups_ms") / layer("e2_count", "query.execute_ms")
    assert e1_share >= 0.70 and e2_share < 0.40
    assert layer("wire_hot", "service.result_cache_hit_ratio") >= 0.99
    assert layer("cluster_scatter_cold", "cluster.slowdown_vs_embedded") > 5
    assert layer("ingest_beside_reads", "storage.pool_hit_ratio") < 1.0
    for workload in WORKLOADS:
        assert layer(workload, "trace.overhead_ratio") > 0


def test_the_traced_run_writes_spans_with_a_self_time_table(lines, out):
    trace = json.loads((out / "trace_e1_titles.json").read_text(encoding="utf-8"))
    assert {"query", "xmlmodel", "storage", "service"} <= set(trace["self_time_by_layer"])
    assert set(trace["spans"][0]) == {
        "id", "parent", "request", "name", "layer", "start_ns", "end_ns"
    }
    roots = [span for span in trace["spans"] if span["name"] == "op"]
    assert len(roots) == 30 and len({span["request"] for span in roots}) == 30


def test_an_unseen_seed_changes_the_data_but_not_the_metric_set(lines, out):
    other = result_line(run_benchmark("e2_count", out, seed=11, trace=1))
    assert list(other["metrics"]) == list(lines["e2_count", 1]["metrics"])
    counter = "storage.record_lookups_per_op"
    assert other["metrics"][counter] != lines["e2_count", 1]["metrics"][counter]


@pytest.mark.parametrize("workload", ("e1_titles", "e2_count"))
def test_deterministic_counters_repeat_exactly(lines, out, workload):
    again = result_line(run_benchmark(workload, out, trace=1))
    for counter in ("storage.record_lookups_per_op", "pattern.join_pairs_per_op"):
        assert again["metrics"][counter] == lines[workload, 1]["metrics"][counter]


def test_a_run_leaves_the_working_tree_as_it_found_it(lines, out):
    """Hermeticity: no tracked file changes (BENCH_trajectory.json in
    particular), results go to the ignored perf/out/, temp directories
    are removed."""
    assert not list(out.glob("ingest-*")), "a temp directory was left behind"
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")

    def status() -> str:
        return subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout

    before = status()
    default_out = ROOT / "perf" / "out"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--workload", "ingest_beside_reads",
         "--seconds", "1"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert status() == before
    assert not list(default_out.glob("ingest-*"))


def test_it_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/ there is no
    program to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark("e2_count", tmp_path / "perf" / "out", script=tmp_path / "perf" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
