"""Experiment harness: database setup, measured runs, and run records.

The paper's evaluation (Sec. 6) compares two executions of the
group-by-author query on DBLP journals: the "direct" execution of the
XQuery as written, and the TIMBER plan with the grouping operator.  The
harness reproduces that comparison on the synthetic DBLP generator and
reports, per run:

* wall-clock seconds (the paper's headline metric — absolute values
  differ from the 550 MHz testbed, ratios are what's reproduced);
* data value lookups and record lookups (the store's logical cost);
* buffer-pool requests and physical page reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..datagen.dblp import DBLPConfig, DBLPProfile, generate_dblp_with_profile
from ..observability import ExecutionProfile
from ..query.database import Database
from ..storage.buffer import DEFAULT_POOL_FRAMES


@dataclass
class RunRecord:
    """One measured query execution."""

    label: str
    plan_mode: str
    seconds: float
    statistics: dict[str, int] = field(default_factory=dict)
    result_size: int = 0
    profile: ExecutionProfile | None = None

    def row(self) -> dict[str, object]:
        return {
            "label": self.label,
            "plan": self.plan_mode,
            "seconds": round(self.seconds, 4),
            "value_lookups": self.statistics.get("value_lookups", 0),
            "record_lookups": self.statistics.get("record_lookups", 0),
            "pool_requests": self.statistics.get("hits", 0)
            + self.statistics.get("misses", 0),
            "physical_reads": self.statistics.get("physical_reads", 0),
            "results": self.result_size,
        }


@dataclass
class ExperimentReport:
    """A set of runs plus the workload's shape profile."""

    name: str
    profile: DBLPProfile
    runs: list[RunRecord] = field(default_factory=list)

    def run_by_label(self, label: str) -> RunRecord:
        for run in self.runs:
            if run.label == label:
                return run
        raise KeyError(label)

    def speedup(self, baseline_label: str, improved_label: str) -> float:
        """Wall-clock ratio baseline / improved (the paper's "6x")."""
        baseline = self.run_by_label(baseline_label).seconds
        improved = self.run_by_label(improved_label).seconds
        return baseline / improved if improved > 0 else float("inf")

    def lookup_ratio(self, baseline_label: str, improved_label: str) -> float:
        """Value-lookup ratio — the machine-independent cost signal."""
        baseline = self.run_by_label(baseline_label).statistics.get("value_lookups", 0)
        improved = self.run_by_label(improved_label).statistics.get("value_lookups", 0)
        return baseline / improved if improved else float("inf")


def build_database(
    config: DBLPConfig,
    pool_frames: int = DEFAULT_POOL_FRAMES,
    grouping_strategy: str | None = None,
    use_indexes: bool = True,
    columnar: bool | None = None,
) -> tuple[Database, DBLPProfile]:
    """Generate, load, and index a synthetic DBLP database.

    ``columnar`` forces the columnar hot path on or off (``None``
    defers to the ``REPRO_COLUMNAR`` environment flag).
    ``grouping_strategy`` picks the GROUPBY implementation (``None`` is
    the paper's identifier sort).
    """
    tree, profile = generate_dblp_with_profile(config)
    db = Database(
        pool_frames=pool_frames,
        grouping_strategy=grouping_strategy,
        use_indexes=use_indexes,
        columnar=columnar,
    )
    db.load(tree=tree, name="bib.xml")
    return db, profile


def measured_run(
    db: Database,
    label: str,
    query: str,
    plan: str,
    analyze: bool = False,
    scale: float | None = None,
) -> RunRecord:
    """Execute once with counters reset; capture time + statistics.

    ``analyze=True`` additionally attaches the per-operator
    :class:`~repro.observability.ExecutionProfile` to the record, so a
    report can show *where* each plan spends its lookups.  Every run is
    also appended to the global benchmark trajectory
    (:mod:`repro.bench.trajectory`).
    """
    from ..indexing.columnar import columnar_statistics
    from ..pattern.structural_join import join_statistics
    from .trajectory import record_run

    db.store.reset_stats()
    before = columnar_statistics().snapshot()
    before.update(join_statistics().snapshot())
    started = time.perf_counter()
    result = db.query(query, plan=plan, analyze=analyze, reset_statistics=False)
    seconds = time.perf_counter() - started
    statistics = db.store.statistics()
    after = columnar_statistics().snapshot()
    after.update(join_statistics().snapshot())
    statistics.update({key: after[key] - before[key] for key in after})
    record_run(
        label,
        seconds,
        scale=scale,
        counters=statistics,
        plan=result.plan_mode,
        results=len(result.collection),
    )
    return RunRecord(
        label=label,
        plan_mode=result.plan_mode,
        seconds=seconds,
        statistics=statistics,
        result_size=len(result.collection),
        profile=result.profile,
    )
