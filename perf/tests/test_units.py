"""Unit tests of the harness arithmetic: self time, the tail mean, verdicts."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf import compare  # noqa: E402
from perf.trace import Span, Tracer  # noqa: E402


def test_self_time_is_duration_minus_the_union_of_child_intervals():
    tracer = Tracer()
    tracer.spans = [
        Span(1, None, "r", "op", "harness", 0, 100_000_000),
        # Two overlapping children cover 10..60 ms of the parent, once.
        Span(2, 1, "r", "query.execute", "query", 10_000_000, 50_000_000),
        Span(3, 1, "r", "xmlmodel.serialize", "xmlmodel", 40_000_000, 60_000_000),
        # A child that began before its parent is clipped to it.
        Span(4, 2, "r", "storage.record", "storage", 0, 20_000_000),
    ]
    table = tracer.self_time_by_layer()
    assert table["harness"]["self_ms"] == 50.0
    assert table["query"]["self_ms"] == 30.0
    assert table["xmlmodel"]["self_ms"] == 20.0
    assert table["storage"] == {"spans": 1, "total_ms": 20.0, "self_ms": 20.0}


def test_spans_nest_per_thread_and_share_the_request():
    tracer = Tracer()
    with tracer.span("op", "harness", request="op-0") as root:
        with tracer.span("query.execute", "query") as child:
            pass
        late = tracer.add("ingest.batch", "ingest", child.start_ns, child.end_ns)
    assert (child.parent, child.request) == (root.id, "op-0")
    assert (late.parent, late.request) == (root.id, "op-0")
    assert tracer.median_ms("query.execute") == child.ms
    assert tracer.median_ms("no.such.span") is None


def test_the_tail_is_the_mean_of_the_slowest_tenth():
    from perf.harness import tail_mean

    assert tail_mean([float(v) for v in range(1, 101)]) == 95.5
    assert tail_mean([3.0, 1.0, 2.0]) == 3.0
    # Where a p90 would jump from 20 to 30, the tail mean moves by a tenth.
    assert tail_mean([20.0] * 91 + [30.0] * 9) == 29.0
    assert tail_mean([20.0] * 89 + [30.0] * 11) == 30.0


def suite(values: list[float], failed: int = 0) -> dict:
    line = {"correct": not failed, "attempted": 100, "failed": failed}
    return {"runs": [
        {"seed": seed, "workloads": {"w": {"end_to_end": {
            **line, "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}}}}}}
        for seed, value in enumerate(values)
    ]}


BENCH = {
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10}],
}


def verdicts(a: dict, b: dict) -> dict[str, str]:
    return {row["metric"]: row["verdict"] for row in compare.compare(a, b, BENCH)}


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdicts(suite(steady), suite(steady)) == {"latency_p50_ms": "ok", "failed_ratio": "ok"}
    slower = [value * 1.2 for value in steady]
    assert verdicts(suite(steady), suite(slower))["latency_p50_ms"] == "regressed"
    assert verdicts(suite(slower), suite(steady))["latency_p50_ms"] == "ok"
    noisy = [80.0, 120.0, 100.0, 90.0, 115.0]
    assert verdicts(suite(steady), suite(noisy))["latency_p50_ms"] == "unresolved"
    assert verdicts(suite(steady), suite(steady, failed=1))["failed_ratio"] == "regressed"
    # A side that never reported the workload cannot pass.
    assert verdicts(suite(steady), {"runs": []})["latency_p50_ms"] == "regressed"
