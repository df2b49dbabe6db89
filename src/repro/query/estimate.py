"""Cardinality estimation and plan costing — the Query Optimizer box.

TIMBER's architecture (Fig. 12) routes plans through a Query Optimizer;
the paper cites Wu/Patel/Jagadish, "Estimating Answer Sizes for XML
Queries" (EDBT 2002) for the underlying estimation problem.  This
module implements a deliberately simple instance of that idea on top of
the index statistics:

* **pattern cardinality** — the expected number of witnesses of a
  pattern tree, from per-tag node counts under a containment-
  completeness assumption: every node with the child's tag sits below
  some node with the parent's tag (exact for DBLP-shaped data, an
  upper-bound estimate otherwise);
* **distinct counts** — from the value index's key counts;
* **plan costing** — expected node-lookup work per operator, which is
  the unit the experiments actually measure.

The optimizer's conclusion for grouping queries is always the rewrite —
the naive plan's join term strictly dominates — but the estimates make
that decision inspectable (`Database.explain(verbose=True)`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import TranslationError
from ..indexing.manager import IndexManager
from ..pattern.pattern import PatternTree
from ..storage.store import NodeStore
from .plan import PlanNode

# One in-memory sort comparison costs a small fraction of a record
# lookup (no page access, no decode).  The weight folds comparison work
# into the lookup unit the rest of the model uses.
SORT_COMPARISON_WEIGHT = 0.05


@dataclass
class PlanEstimate:
    """Estimated output size and cumulative cost of one plan."""

    rows: float
    cost: float
    per_node: list[tuple[PlanNode, float, float]] = field(default_factory=list)
    # (node, estimated rows, estimated cost of this operator)


@dataclass(frozen=True)
class PlanChoice:
    """The optimizer's comparison of the two candidate plans."""

    naive_cost: float
    groupby_cost: float

    @property
    def winner(self) -> str:
        return "groupby" if self.groupby_cost <= self.naive_cost else "naive"

    @property
    def advantage(self) -> float:
        if self.groupby_cost <= 0:
            return math.inf
        return self.naive_cost / self.groupby_cost


class CardinalityEstimator:
    """Size and cost estimates from store + index statistics."""

    def __init__(self, store: NodeStore, indexes: IndexManager):
        self.store = store
        self.indexes = indexes
        indexes.ensure_built()
        self._distinct_cache: dict[str, int] = {}
        # Load-time statistics: per-tag counts, distincts, and subtree
        # sizes collected (and persisted) by the index manager — the
        # estimator reads them without touching postings or counters.
        self._stats = indexes.ensure_statistics()

    def _tag_stats(self, tag: str):
        sym = self.store.meta.symbols.lookup(tag)
        if sym is None:
            return None
        return self._stats.for_tag(sym)

    # ------------------------------------------------------------------
    # Base statistics
    # ------------------------------------------------------------------
    @property
    def statistics_version(self) -> int:
        """The statistics version the estimates are derived from."""
        return self._stats.version

    def tag_count(self, tag: str | None) -> int:
        """Number of nodes with the tag (all nodes for an unconstrained
        pattern node)."""
        if tag is None:
            return self.store.n_nodes()
        stats = self._tag_stats(tag)
        return stats.count if stats is not None else 0

    def distinct_count(self, tag: str) -> int:
        """Number of distinct content values among nodes with the tag."""
        cached = self._distinct_cache.get(tag)
        if cached is None:
            stats = self._tag_stats(tag)
            cached = stats.distinct_values if stats is not None else 0
            self._distinct_cache[tag] = cached
        return cached

    def avg_subtree_size(self, tag: str | None) -> float:
        """Mean subtree node count of nodes with the tag, from the
        load-time statistics (no postings or data pages touched)."""
        if tag is None:
            return 1.0
        stats = self._tag_stats(tag)
        if stats is None:
            return 1.0
        return stats.avg_subtree_size

    # ------------------------------------------------------------------
    # Patterns
    # ------------------------------------------------------------------
    def pattern_cardinality(self, pattern: PatternTree) -> float:
        """Expected number of witnesses.

        Model: the root contributes its tag count; each edge multiplies
        by the expected number of child-tag matches per parent-tag node,
        ``count(child) / count(parent)`` — exact when child-tag nodes
        appear only below parent-tag nodes and parents are uniform.
        Value predicates scale the estimate by a selectivity factor
        (uniformity assumption: equality selects ``1/distinct``).
        """
        root_tag = pattern.root.predicate.tag_constraint()
        estimate = float(self.tag_count(root_tag))
        estimate *= self.value_selectivity(pattern.root.predicate, root_tag)
        for parent, child, _axis in pattern.edges():
            parent_count = self.tag_count(parent.predicate.tag_constraint())
            child_tag = child.predicate.tag_constraint()
            child_count = self.tag_count(child_tag)
            if parent_count <= 0:
                return 0.0
            estimate *= child_count / parent_count
            estimate *= self.value_selectivity(child.predicate, child_tag)
        return estimate

    # Heuristic selectivities for non-equality value conditions, in the
    # System-R tradition.
    COMPARE_SELECTIVITY = 1 / 3
    WILDCARD_SELECTIVITY = 1 / 4
    ATTRIBUTE_SELECTIVITY = 1 / 2

    def value_selectivity(self, predicate, tag: str | None) -> float:
        """Fraction of tag-matching nodes a value predicate keeps."""
        from ..pattern.predicates import (
            AttributeEquals,
            Conjunction,
            ContentCompare,
            ContentEquals,
            ContentWildcard,
        )

        if isinstance(predicate, Conjunction):
            factor = 1.0
            for part in predicate.parts:
                factor *= self.value_selectivity(part, tag)
            return factor
        if isinstance(predicate, ContentEquals):
            distinct = self.distinct_count(tag) if tag else 0
            return 1.0 / distinct if distinct else 1.0
        if isinstance(predicate, ContentWildcard):
            if predicate.content_equality() is not None:
                distinct = self.distinct_count(tag) if tag else 0
                return 1.0 / distinct if distinct else 1.0
            return self.WILDCARD_SELECTIVITY
        if isinstance(predicate, ContentCompare):
            return self.COMPARE_SELECTIVITY
        if isinstance(predicate, AttributeEquals):
            return self.ATTRIBUTE_SELECTIVITY
        return 1.0

    def pattern_match_cost(self, pattern: PatternTree) -> float:
        """Structural-join matching work: candidates consumed per node."""
        return float(
            sum(self.tag_count(node.predicate.tag_constraint()) for node in pattern.nodes())
        )

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def estimate_plan(
        self,
        plan: PlanNode,
        join_strategy: str = "nested-loop",
        overrides: dict[tuple[str, str], float] | None = None,
    ) -> PlanEstimate:
        """Bottom-up row/cost estimation for the supported operator set.

        ``overrides`` maps ``(op, detail)`` to *observed* output rows —
        the feedback loop's corrections.  A corrected operator's row
        estimate is replaced by its actual, and the correction
        propagates into every downstream operator's cost.
        """
        per_node: list[tuple[PlanNode, float, float]] = []

        def visit(node: PlanNode) -> tuple[float, float]:
            child_estimates = [visit(child) for child in node.inputs]
            rows, cost = self._estimate_node(node, child_estimates, join_strategy)
            if overrides:
                detail = node.describe()[len(node.op) :].strip()
                corrected = overrides.get((node.op, detail))
                if corrected is not None:
                    rows = float(corrected)
            total_cost = cost + sum(child_cost for _, child_cost in child_estimates)
            per_node.append((node, rows, cost))
            return rows, total_cost

        rows, cost = visit(plan)
        per_node.reverse()  # preorder-ish for display
        return PlanEstimate(rows=rows, cost=cost, per_node=per_node)

    def _estimate_node(
        self,
        node: PlanNode,
        child_estimates: list[tuple[float, float]],
        join_strategy: str,
    ) -> tuple[float, float]:
        op = node.op
        if op == "scan":
            return 1.0, 0.0
        if op == "select":
            pattern = node.params["pattern"]
            return self.pattern_cardinality(pattern), self.pattern_match_cost(pattern)
        if op == "project":
            return child_estimates[0][0], 0.0
        if op == "dupelim":
            rows = child_estimates[0][0]
            label = node.params["label"]
            if label is None:
                return rows, rows
            pattern = node.params["pattern"]
            tag = pattern.node(label).predicate.tag_constraint()
            distinct = self.distinct_count(tag) if tag else rows
            return float(min(distinct, rows)), rows  # one value lookup per input
        if op == "left_outer_join":
            left_rows = child_estimates[0][0]
            right_rows = self.pattern_cardinality(node.params["right_pattern"])
            match_cost = self.pattern_match_cost(node.params["right_pattern"])
            if join_strategy == "nested-loop":
                join_cost = left_rows * right_rows
            else:
                join_cost = left_rows + right_rows
            return max(right_rows, left_rows), match_cost + join_cost
        if op == "groupby":
            pattern = node.params["pattern"]
            witnesses = child_estimates[0][0] * self._edge_fanout(pattern)
            basis_label = node.params["basis"][0].rstrip("*")
            basis_tag = pattern.node(basis_label).predicate.tag_constraint()
            groups = self.distinct_count(basis_tag) if basis_tag else witnesses
            sort_cost = (
                SORT_COMPARISON_WEIGHT
                * witnesses
                * max(1.0, math.log2(max(witnesses, 2.0)))
            )
            return float(min(groups, witnesses)), witnesses + sort_cost
        if op in ("stitch", "project_groups"):
            rows = child_estimates[0][0]
            if op == "stitch":
                template = node.params["spec"].template
            else:
                template = node.params["template"]
            member_tag = self._member_tag(node)
            members = self._member_estimate(node)
            # Construction is the sum over the template's leaves: a key
            # leaf fetches the group node, COUNT nothing (late
            # materialization), a member list or numeric aggregate one
            # subtree per member — the member's own in the naive plan
            # (it walks the member tuple at a time to reach the output
            # path), the reached node's in the GROUPBY plan (it gets
            # there on labels and fetches only what it emits).
            cost = 0.0
            for leaf in template.leaves():
                if leaf.kind == "key":
                    cost += rows
                elif leaf.kind != "count":
                    fetched_tag = (
                        member_tag
                        if op == "stitch"
                        else self._output_tag(leaf.path, member_tag)
                    )
                    cost += members * self.avg_subtree_size(fetched_tag)
            return rows, cost
        if op == "nested_groups":
            return self._estimate_nested_groups(node, child_estimates)
        if op == "rename_root":
            return child_estimates[0][0], 0.0
        raise TranslationError(f"estimator: unsupported op {op!r}")

    def _estimate_nested_groups(
        self, node: PlanNode, child_estimates: list[tuple[float, float]]
    ) -> tuple[float, float]:
        """Join-graph isolation assembly: outer x middle membership
        probes, one link navigation per middle representative, and the
        construction of every qualifying element."""
        spec = node.params["spec"]
        outer_rows = child_estimates[0][0]
        middle_rows = child_estimates[1][0]
        outer_tag = self._distinct_segment_tag(node.inputs[0])
        middle_tag = self._distinct_segment_tag(node.inputs[1])
        # One child-step navigation chain per middle representative.
        link_cost = middle_rows * (len(spec.link_path) + 1)
        # Membership probes (set lookups, comparison-weighted).
        probe_cost = outer_rows * middle_rows * SORT_COMPARISON_WEIGHT
        # Construction: every outer and (qualifying ~ all) middle
        # representative materializes its subtree; members add their
        # output-path subtrees (values) or value fetches (aggregates).
        member_tag = self._member_tag_from(node.inputs[2])
        members = self._members_from(node.inputs[2])
        construct = 0.0
        for leaf in spec.outer.leaves():
            if leaf.kind == "key":
                construct += outer_rows * self.avg_subtree_size(outer_tag)
        for leaf in spec.middle.leaves():
            if leaf.kind == "key":
                construct += middle_rows * self.avg_subtree_size(middle_tag)
            elif leaf.kind == "members":
                construct += members * self.avg_subtree_size(
                    self._output_tag(leaf.path, member_tag)
                )
            else:
                construct += members
        return outer_rows, link_cost + probe_cost + construct

    def _distinct_segment_tag(self, segment: PlanNode) -> str | None:
        """The grouping element's tag of a distinct-values segment."""
        for candidate in segment.walk():
            if candidate.op == "dupelim" and candidate.params.get("label"):
                pattern = candidate.params["pattern"]
                return pattern.node(candidate.params["label"]).predicate.tag_constraint()
        return None

    def _members_from(self, source: PlanNode) -> float:
        for candidate in source.walk():
            if candidate.op == "groupby":
                return self._groupby_witnesses(candidate)
        return 0.0

    def _member_tag_from(self, source: PlanNode) -> str | None:
        for candidate in source.walk():
            if candidate.op == "groupby":
                return candidate.params["pattern"].root.predicate.tag_constraint()
        return None

    @staticmethod
    def _output_tag(member_path: tuple[str, ...], member_tag: str | None) -> str | None:
        """The tag of the nodes a values-mode GROUPBY plan fetches: the
        last ``member_path`` step, or the member itself for an empty
        path."""
        return member_path[-1] if member_path else member_tag

    def _member_estimate(self, node: PlanNode) -> float:
        """Expected total group members feeding a construction step."""
        source = node.inputs[0]
        for candidate in source.walk():
            if candidate.op == "groupby":
                return self._groupby_witnesses(candidate)
            if candidate.op == "left_outer_join":
                return self.pattern_cardinality(candidate.params["right_pattern"])
        return 0.0

    def _groupby_witnesses(self, groupby_node: PlanNode) -> float:
        pattern = groupby_node.params["pattern"]
        base = self.tag_count(pattern.root.predicate.tag_constraint())
        return base * self._edge_fanout(pattern)

    def _member_tag(self, node: PlanNode) -> str | None:
        """The grouped element's tag (whose subtree construction walks)."""
        source = node.inputs[0]
        for candidate in source.walk():
            if candidate.op == "groupby":
                return candidate.params["pattern"].root.predicate.tag_constraint()
            if candidate.op == "left_outer_join":
                from .translate import INNER_LABEL

                pattern = candidate.params["right_pattern"]
                if pattern.has_node(INNER_LABEL):
                    return pattern.node(INNER_LABEL).predicate.tag_constraint()
        return None

    def _edge_fanout(self, pattern: PatternTree) -> float:
        """Witnesses per pattern-root match (the chain's multiplicity)."""
        fanout = 1.0
        for parent, child, _axis in pattern.edges():
            parent_count = self.tag_count(parent.predicate.tag_constraint())
            child_count = self.tag_count(child.predicate.tag_constraint())
            if parent_count <= 0:
                return 0.0
            fanout *= child_count / parent_count
        return fanout

    # ------------------------------------------------------------------
    # The optimizer decision
    # ------------------------------------------------------------------
    def compare_plans(
        self, naive: PlanNode, grouped: PlanNode, join_strategy: str = "nested-loop"
    ) -> PlanChoice:
        return PlanChoice(
            naive_cost=self.estimate_plan(naive, join_strategy).cost,
            groupby_cost=self.estimate_plan(grouped, join_strategy).cost,
        )

    def annotate(self, plan: PlanNode, join_strategy: str = "nested-loop") -> str:
        """The plan's explain text with per-operator row/cost estimates."""
        estimate = self.estimate_plan(plan, join_strategy)
        by_id = {id(node): (rows, cost) for node, rows, cost in estimate.per_node}

        def render(node: PlanNode, depth: int) -> list[str]:
            rows, cost = by_id[id(node)]
            lines = [
                "  " * depth
                + f"{node.describe()}  [~{rows:.0f} rows, ~{cost:.0f} lookups]"
            ]
            for child in node.inputs:
                lines.extend(render(child, depth + 1))
            return lines

        return "\n".join(render(plan, 0))
