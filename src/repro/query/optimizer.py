"""The cost-based optimizer: statistics-driven plan choice + feedback.

TIMBER's Query Optimizer box (Fig. 12), instantiated: for a query in
the grouping family the optimizer enumerates the alternative plans —
the GROUPBY rewrite, the naive join under both join strategies, and
(for 3-level nested FLWRs) the join-graph-isolation collapse against
direct per-binding evaluation — costs each one from the load-time
:mod:`~repro.indexing.statistics` through
:class:`~repro.query.estimate.CardinalityEstimator`, and picks the
cheapest.  It also costs the *match strategy* (columnar staircase vs
object walk) and the *grouping strategy* (identifier sort vs hash vs
the footnote-8 value-index probe).

The loop closes through the profiler: :class:`FeedbackLoop` compares
every operator's estimated rows against the observed cardinality; a
divergence beyond :data:`DIVERGENCE_RATIO` flags the plan, stores the
actuals as corrections, and the next preparation re-costs with the
corrections applied (the service layer drops its plan-cache entry on
the flag).  Every decision is surfaced in EXPLAIN's
``=== cost model ===`` section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..indexing.manager import IndexManager
from ..storage.store import NodeStore
from .estimate import SORT_COMPARISON_WEIGHT, CardinalityEstimator, PlanEstimate
from .plan import PlanNode
from .rewrite import collapse_nested, rewrite
from .translate import NestedGroupingQuery, naive_plan, recognize_any

#: Estimate-vs-actual row ratio beyond which a plan is flagged for
#: re-costing.  Documented contract: on the paper's workloads (E1–E4)
#: every operator estimate stays within this ratio of the observed
#: cardinality; anything beyond it is treated as a mis-estimate.
DIVERGENCE_RATIO = 4.0


class OptimizerStatistics:
    """Counters for optimizer work (surfaced in CounterSnapshot)."""

    __slots__ = ("plans_costed", "feedback_flags", "recosts")

    def __init__(self):
        self.plans_costed = 0
        self.feedback_flags = 0
        self.recosts = 0

    def reset(self) -> None:
        self.plans_costed = 0
        self.feedback_flags = 0
        self.recosts = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "optimizer_plans_costed": self.plans_costed,
            "optimizer_feedback_flags": self.feedback_flags,
            "optimizer_recosts": self.recosts,
        }


_GLOBAL_STATS = OptimizerStatistics()


def optimizer_statistics() -> OptimizerStatistics:
    """The module-level statistics object (reset per measured run)."""
    return _GLOBAL_STATS


@dataclass(frozen=True)
class OperatorForecast:
    """One operator's estimated cardinality and cost in the chosen plan."""

    op: str
    detail: str
    est_rows: float
    est_cost: float


@dataclass(frozen=True)
class CandidatePlan:
    """One costed alternative."""

    name: str  # e.g. groupby / naive-nested-loop / isolated-groupby
    mode: str  # the PlanMode value executing it
    join_strategy: str
    cost: float
    rows: float


@dataclass
class PlanDecision:
    """Everything the optimizer decided for one query, for execution
    and for EXPLAIN's ``=== cost model ===`` section."""

    kind: str  # "grouping" | "nested-grouping"
    stats_version: int
    chosen: CandidatePlan
    candidates: list[CandidatePlan]
    forecasts: list[OperatorForecast] = field(default_factory=list)
    match_strategy: str = "columnar"
    match_candidates: list[tuple[str, float]] = field(default_factory=list)
    grouping_strategy: str | None = None
    grouping_candidates: list[tuple[str, float]] = field(default_factory=list)
    recosted: bool = False

    @property
    def rejected(self) -> list[CandidatePlan]:
        return [c for c in self.candidates if c.name != self.chosen.name]


class Optimizer:
    """Cost the alternatives, pick the cheapest, remember the forecast."""

    def __init__(self, store: NodeStore, indexes: IndexManager):
        self.store = store
        self.indexes = indexes
        self.estimator = CardinalityEstimator(store, indexes)

    # ------------------------------------------------------------------
    def decide(
        self,
        expr,
        root_tag: str,
        *,
        columnar_available: bool = True,
        grouping_forced: str | None = None,
        corrections: dict[tuple[str, str], float] | None = None,
    ) -> tuple[PlanDecision, PlanNode | None]:
        """Cost the alternatives for a grouping-family query.

        Raises :class:`~repro.errors.TranslationError` when the query
        is outside both the 2-level and the 3-level family (the caller
        falls back to the direct interpreter, uncosted).  Returns the
        decision and the chosen plan (``None`` when direct evaluation
        won).
        """
        est = self.estimator
        query = recognize_any(expr)
        kind = "nested-grouping" if isinstance(query, NestedGroupingQuery) else "grouping"

        plans: dict[str, PlanNode | None] = {}
        estimates: dict[str, PlanEstimate] = {}
        if kind == "grouping":
            naive = naive_plan(query, root_tag)
            grouped = rewrite(naive)
            estimates["groupby"] = est.estimate_plan(
                grouped, "nested-loop", overrides=corrections
            )
            estimates["naive-nested-loop"] = est.estimate_plan(
                naive, "nested-loop", overrides=corrections
            )
            estimates["naive-value-hash"] = est.estimate_plan(
                naive, "value-hash", overrides=corrections
            )
            plans = {
                "groupby": grouped,
                "naive-nested-loop": naive,
                "naive-value-hash": naive,
            }
            candidates = [
                self._candidate("groupby", "groupby", "nested-loop", estimates),
                self._candidate(
                    "naive-nested-loop", "naive", "nested-loop", estimates
                ),
                self._candidate(
                    "naive-value-hash", "naive-hash", "value-hash", estimates
                ),
            ]
        else:
            collapsed = collapse_nested(query, root_tag)
            estimates["isolated-groupby"] = est.estimate_plan(
                collapsed, "nested-loop", overrides=corrections
            )
            plans = {"isolated-groupby": collapsed, "direct-nested-loop": None}
            isolated = self._candidate(
                "isolated-groupby", "groupby", "nested-loop", estimates
            )
            candidates = [
                isolated,
                CandidatePlan(
                    name="direct-nested-loop",
                    mode="direct",
                    join_strategy="nested-loop",
                    cost=self._direct_nested_cost(query),
                    rows=isolated.rows,
                ),
            ]

        chosen = min(candidates, key=lambda c: c.cost)  # stable: first wins ties
        chosen_plan = plans[chosen.name]
        chosen_estimate = estimates.get(chosen.name)
        forecasts = (
            [
                OperatorForecast(
                    op=node.op,
                    detail=node.describe()[len(node.op) :].strip(),
                    est_rows=rows,
                    est_cost=cost,
                )
                for node, rows, cost in chosen_estimate.per_node
            ]
            if chosen_estimate is not None
            else []
        )
        match_strategy, match_candidates = self._match_choice(
            chosen_plan, columnar_available
        )
        grouping_strategy, grouping_candidates = self._grouping_choice(
            chosen_plan, grouping_forced
        )
        _GLOBAL_STATS.plans_costed += 1
        if corrections:
            _GLOBAL_STATS.recosts += 1
        decision = PlanDecision(
            kind=kind,
            stats_version=est.statistics_version,
            chosen=chosen,
            candidates=candidates,
            forecasts=forecasts,
            match_strategy=match_strategy,
            match_candidates=match_candidates,
            grouping_strategy=grouping_strategy,
            grouping_candidates=grouping_candidates,
            recosted=bool(corrections),
        )
        return decision, chosen_plan

    def _candidate(
        self,
        name: str,
        mode: str,
        join_strategy: str,
        estimates: dict[str, PlanEstimate],
    ) -> CandidatePlan:
        estimate = estimates[name]
        return CandidatePlan(
            name=name,
            mode=mode,
            join_strategy=join_strategy,
            cost=estimate.cost,
            rows=estimate.rows,
        )

    # ------------------------------------------------------------------
    # Match-strategy and grouping-strategy costing
    # ------------------------------------------------------------------
    def _match_choice(
        self, plan: PlanNode | None, columnar_available: bool
    ) -> tuple[str, list[tuple[str, float]]]:
        """Columnar staircase merge vs object walk, costed per pattern
        match the plan performs."""
        if plan is None:
            return "interpreter", []
        patterns = []
        for node in plan.walk():
            if node.op in ("select", "groupby"):
                patterns.append(node.params["pattern"])
            elif node.op == "left_outer_join":
                patterns.append(node.params["right_pattern"])
        if not patterns:
            return "object-walk", []
        # Columnar: one merge pass over the candidate streams (per-tag
        # counts); object walk: a full node sweep per pattern match.
        columnar_cost = sum(self.estimator.pattern_match_cost(p) for p in patterns)
        walk_cost = float(len(patterns) * self.store.n_nodes())
        candidates = [("columnar", columnar_cost), ("object-walk", walk_cost)]
        if columnar_available and columnar_cost <= walk_cost:
            return "columnar", candidates
        return "object-walk", candidates

    def _grouping_choice(
        self, plan: PlanNode | None, forced: str | None
    ) -> tuple[str | None, list[tuple[str, float]]]:
        """Identifier sort vs hash vs the value-index probe (footnote 8:
        the index returns value-node identifiers, so every witness pays
        a parent-chain navigation to the grouped element)."""
        if plan is None:
            return None, []
        groupbys = plan.find("groupby")
        if not groupbys:
            return None, []
        witnesses = max(self.estimator._groupby_witnesses(groupbys[0]), 1.0)
        pattern = groupbys[0].params["pattern"]
        basis_label = groupbys[0].params["basis"][0].rstrip("*")
        basis_tag = pattern.node(basis_label).predicate.tag_constraint()
        distinct = (
            float(self.estimator.distinct_count(basis_tag)) if basis_tag else witnesses
        )
        sort_cost = witnesses * (
            1.0 + SORT_COMPARISON_WEIGHT * math.log2(max(witnesses, 2.0))
        )
        hash_cost = 2.0 * witnesses  # hashing constant ~2 lookups-worth per key
        probe_cost = 3.0 * witnesses + distinct  # parent-chain hops per posting
        candidates = [
            ("sort", sort_cost),
            ("hash", hash_cost),
            ("value-index", probe_cost),
        ]
        if forced is not None:
            return forced, candidates
        chosen = min(candidates, key=lambda item: item[1])[0]
        return chosen, candidates

    def _direct_nested_cost(self, nested) -> float:
        """Per-binding re-evaluation of a 3-level nested FLWR: the outer
        FOR re-runs the middle FLWR per distinct value, which re-runs
        the inner FLWR per *its* distinct value — the multiplicative
        blow-up join-graph isolation removes."""
        est = self.estimator
        inner = nested.inner
        total = float(self.store.n_nodes())  # each FLWR walks the document
        n1 = float(est.tag_count(nested.outer_group_tag))
        d1 = float(max(est.distinct_count(nested.outer_group_tag), 1))
        n2 = float(est.tag_count(inner.group_tag))
        d2 = float(max(est.distinct_count(inner.group_tag), 1))
        n3 = float(est.tag_count(inner.inner_tag))
        per_inner = total + n3 * (len(inner.condition_path) + 1)
        per_middle = total + n2 * (len(nested.link_path) + 1) + d2 * per_inner
        return total + n1 + d1 * per_middle


# ----------------------------------------------------------------------
# The feedback loop (estimated vs actual cardinalities)
# ----------------------------------------------------------------------
class FeedbackLoop:
    """Estimate-vs-actual tracking per query text.

    ``observe`` compares a decision's operator forecasts against the
    observed per-operator cardinalities; a divergence beyond ``ratio``
    stores the actuals as corrections and flags the plan.  The next
    :meth:`corrections` call hands the stored actuals to the estimator
    (re-cost); :meth:`consume_flag` lets a plan cache drop its entry
    exactly once per flagging.
    """

    def __init__(self, ratio: float = DIVERGENCE_RATIO):
        self.ratio = ratio
        self._corrections: dict[str, dict[tuple[str, str], float]] = {}
        self._actuals: dict[str, dict[tuple[str, str], float]] = {}
        self._flagged: dict[str, bool] = {}

    def observe(
        self,
        key: str,
        forecasts: list[OperatorForecast],
        actuals: dict[tuple[str, str], float],
    ) -> bool:
        """Record observed cardinalities; returns True when the plan was
        newly flagged as mis-estimated."""
        if not forecasts or not actuals:
            return False
        self._actuals[key] = dict(actuals)
        diverged: dict[tuple[str, str], float] = {}
        for forecast in forecasts:
            actual = actuals.get((forecast.op, forecast.detail))
            if actual is None:
                continue
            estimated = max(forecast.est_rows, 1.0)
            observed = max(float(actual), 1.0)
            if max(estimated, observed) / min(estimated, observed) > self.ratio:
                diverged[(forecast.op, forecast.detail)] = float(actual)
        if not diverged:
            return False
        if self._corrections.get(key) == diverged:
            return False  # already corrected; the re-costed plan stands
        self._corrections[key] = diverged
        self._flagged[key] = True
        _GLOBAL_STATS.feedback_flags += 1
        return True

    def corrections(self, key: str) -> dict[tuple[str, str], float] | None:
        return self._corrections.get(key)

    def actuals(self, key: str) -> dict[tuple[str, str], float]:
        return self._actuals.get(key, {})

    def consume_flag(self, key: str) -> bool:
        return self._flagged.pop(key, False)
