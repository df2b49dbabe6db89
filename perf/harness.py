"""Measurement primitives: the closed loop, the tail mean, one workload run.

One run of one workload is: set-up (repeated, timed, each with its
correctness gate) -> warm-up -> ``gc.collect()`` -> an untraced
measurement window -> with ``trace`` a traced pass of a fixed number of
ops plus the direct layer probes -> post-run checks.  End-to-end
metrics always come from the untraced window, each timing as the best
of its SUB_WINDOWS sub-windows.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from .probes import common_probes
from .trace import Tracer

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Untimed closed-loop seconds before the window (caches, lazy builds).
WARMUP_SECONDS = 2.0
#: The window's ops are cut into this many consecutive sub-windows and
#: each timing metric is the best of the sub-windows' values.  The
#: sandbox has interference bursts (15-20 s, every few minutes, slowing
#: these workloads 1.5x; see perf/README.md) that a median over the
#: window cannot reject; one undisturbed sub-window is enough for this.
SUB_WINDOWS = 5
#: ``latency_tail_ms`` is the mean latency of the slowest ops, this share
#: of them.  A mean, not the percentile at this share: in ``e2_count``
#: and ``wire_hot`` a full GC pass lengthens every tenth op by half, so
#: the slow ops are 10-15 % of all and a p90 reads either the fast or
#: the slow kind, 40 % apart, as that share wanders around 10 %.
TAIL_SHARE = 0.10
#: Ops in the traced pass.
TRACED_OPS = 30
#: A traced run spends this share of ``--seconds`` on its untraced
#: window; the rest of the budget goes to the traced pass and probes.
TRACED_WINDOW_SHARE = 0.5


@dataclass
class Window:
    """What one closed loop saw."""

    latencies: list[float] = field(default_factory=list)  # seconds, successes
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    start: float = 0.0  # perf_counter at the first op
    end: float = 0.0  # perf_counter after the last op

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def median_ms(self) -> float:
        return statistics.median(self.latencies) * 1000.0

    def best_sub_window(self, measure, best) -> float:
        """``best`` (min or max) of ``measure(latencies)`` over SUB_WINDOWS
        consecutive, equally long runs of successful ops."""
        size = max(1, len(self.latencies) // SUB_WINDOWS)
        parts = [self.latencies[at:at + size] for at in range(0, size * SUB_WINDOWS, size)]
        return best(measure(part) for part in parts if part)


def closed_loop(op, *, seconds: float | None = None, ops: int | None = None,
                tracer: Tracer | None = None) -> Window:
    """One client: the next op starts when the previous one returned.

    Runs for ``seconds`` (the op in flight at the deadline completes)
    or for exactly ``ops`` ops.  ``op(i, tracer)`` returns whether its
    answer was right; an exception counts as a failed op.
    """
    window = Window()
    window.start = now = time.perf_counter()
    deadline = now + seconds if seconds is not None else math.inf
    index = 0
    while now < deadline and (ops is None or index < ops):
        try:
            if tracer is None:
                ok = op(index, None)
            else:
                with tracer.span("op", "harness", request=f"op-{index}"):
                    ok = op(index, tracer)
        except Exception:  # noqa: BLE001 - a failed op must not end the run
            ok = False
            if len(window.errors) < 5:
                window.errors.append(traceback.format_exc(limit=4))
        after = time.perf_counter()
        if ok:
            window.latencies.append(after - now)
        else:
            window.failed += 1
        now = after
        index += 1
    window.end = now
    return window


def tail_mean(values: list[float]) -> float:
    """Mean of the slowest TAIL_SHARE of ``values`` (of at least one)."""
    count = max(1, round(len(values) * TAIL_SHARE))
    return statistics.fmean(sorted(values)[-count:])


def rss_peak_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    attempted: int
    failed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    samples: int
    note: str
    tracer: Tracer | None = None


def run_workload(cls, *, seed: int, seconds: float, trace: bool, scratch: str) -> RunResult:
    """Run one workload once; see the module docstring for the phases."""
    setup_times: list[float] = []
    workload = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = cls(seed, scratch)
        started = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        setup_times.append(time.perf_counter() - started)

    tracer = Tracer() if trace else None
    per_layer: dict[str, float] = {}
    try:
        workload.start()
        closed_loop(workload.op, seconds=min(WARMUP_SECONDS, seconds))
        gc.collect()
        before = workload.counters()
        window = closed_loop(
            workload.op, seconds=seconds * TRACED_WINDOW_SHARE if trace else seconds
        )
        after = workload.counters()
        loops = [window]
        if trace:
            workload.tracer = tracer
            traced = closed_loop(workload.op, ops=TRACED_OPS, tracer=tracer)
            loops.append(traced)
        workload.stop()  # still traced: a writer finishes its document here
        workload.tracer = None
        for loop in loops:
            for error in loop.errors:
                print(f"[{workload.name}] failed op:\n{error}", file=sys.stderr)
        if not window.latencies:
            raise RuntimeError(f"{workload.name}: no op succeeded in the window")
        if trace:
            per_layer.update(window_counters(before, after, len(window.latencies)))
            per_layer.update(workload.window_metrics(window, before, after))
            per_layer.update(common_probes(workload.db, workload.corpus, workload.probe_query, tracer))
            per_layer.update(workload.probes(tracer))
            per_layer.update(span_metrics(tracer))
            if traced.latencies:
                per_layer["trace.overhead_ratio"] = traced.median_ms() / window.median_ms()
        per_layer.update(workload.finish())
    finally:
        workload.close()

    attempted = sum(loop.attempted for loop in loops) + workload.background_attempted
    failed = sum(loop.failed for loop in loops) + workload.background_failed
    per_layer["failed_ratio"] = failed / attempted
    samples = len(window.latencies)
    per_part = max(1, samples // SUB_WINDOWS)
    note = (
        f"timings are the best of {SUB_WINDOWS} sub-windows of {per_part} samples; "
        f"the tail is the slowest {max(1, round(per_part * TAIL_SHARE))} of each"
    )
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": window.best_sub_window(lambda part: len(part) / sum(part), max),
        "latency_p50_ms": window.best_sub_window(statistics.median, min) * 1000.0,
        "latency_tail_ms": window.best_sub_window(tail_mean, min) * 1000.0,
        "rss_peak_mb": rss_peak_mb(),
    }
    return RunResult(
        attempted=attempted,
        failed=failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        samples=samples,
        note=note,
        tracer=tracer,
    )


def window_counters(before: dict, after: dict, ops: int) -> dict[str, float]:
    """The *window* per-layer metrics: counter deltas over the untraced
    window, per successful op."""

    def delta(key: str) -> int:
        return after.get(key, 0) - before.get(key, 0)

    def per_op(key: str) -> float:
        return delta(key) / ops

    requests = delta("hits") + delta("misses")
    materialized = delta("nodes_materialized")
    submitted = delta("queries_submitted")
    waits = delta("queue_waits")
    plan_lookups = delta("plan_cache_hits") + delta("plan_cache_misses")
    result_lookups = delta("result_cache_hits") + delta("result_cache_misses")
    return {
        "pattern.join_runs_per_op": per_op("join_runs"),
        "pattern.join_pairs_per_op": per_op("join_pairs"),
        "pattern.join_candidates_per_op": per_op("join_candidates"),
        "storage.record_lookups_per_op": per_op("record_lookups"),
        "storage.value_lookups_per_op": per_op("value_lookups"),
        "storage.nodes_materialized_per_op": per_op("nodes_materialized"),
        "storage.lookups_per_node_materialized": (
            delta("record_lookups") / materialized if materialized else 0.0
        ),
        "storage.pool_requests_per_op": requests / ops,
        "storage.pool_hit_ratio": delta("hits") / requests if requests else 0.0,
        "storage.physical_reads_per_op": per_op("physical_reads"),
        "indexing.columnar_scans_per_op": per_op("columnar_scans"),
        "indexing.columnar_fallbacks_per_op": per_op("columnar_fallbacks"),
        "indexing.tag_index_lookups_per_op": per_op("tag_index_lookups"),
        "indexing.incremental_updates": delta("index_incremental_updates"),
        "indexing.rebuild_avoided": delta("index_rebuild_avoided"),
        "service.queue_wait_ms_mean": (
            delta("queue_wait_us_total") / waits / 1000.0 if waits else 0.0
        ),
        "service.peak_queue_depth": after.get("peak_queue_depth", 0),
        "service.plan_cache_hit_ratio": (
            delta("plan_cache_hits") / plan_lookups if plan_lookups else 0.0
        ),
        "service.result_cache_hit_ratio": (
            delta("result_cache_hits") / result_lookups if result_lookups else 0.0
        ),
        "service.rejected_ratio": (
            delta("admission_rejections") / submitted if submitted else 0.0
        ),
    }


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer timings read off the spans: ``<span name>_ms`` is the
    median duration of the spans of that name, whichever phase (traced
    pass or probe) recorded them; the rest are differences of those."""
    out = {
        f"{name}_ms": tracer.median_ms(name)
        for name in sorted({span.name for span in tracer.spans if span.layer != "harness"})
    }
    # Database.prepare() parses the text itself, so planning alone
    # (translate + rewrite + optimizer) is prepare minus a parse.
    prepare = out.pop("query.prepare_ms")
    out["query.plan_ms"] = prepare - out["query.parse_ms"]
    out["service.overhead_ms"] = out["service.query_ms"] - out["query.execute_ms"]
    if "wire.query_ms" in out:
        out["wire.overhead_ms"] = out["wire.query_ms"] - out["service.cache_hit_ms"]
    if "cluster.query_ms" in out:
        # Embedded Database.query() is prepare + execute on the same corpus.
        out["cluster.slowdown_vs_embedded"] = out["cluster.query_ms"] / (
            prepare + out["query.execute_ms"]
        )
    return out
