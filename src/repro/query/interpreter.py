"""Direct ("as written") evaluation of the XQuery subset — the baseline.

Sec. 6 compares the grouping plan against "a 'direct' execution of the
XQuery as written": use the tag index to identify nodes, look up data
values for duplicate elimination and the join, and evaluate nested FLWR
expressions by nested loops, one outer binding at a time.  This module
is that baseline, implemented over the same store/index substrate as
the algebraic engine so the two are cost-comparable.

Items flowing through evaluation are either stored-node ids (``int``),
constructed :class:`~repro.xmlmodel.node.XMLNode` trees, or atomic
strings.  Sequences are Python lists of items.
"""

from __future__ import annotations

from ..cancellation import checkpoint
from ..errors import TranslationError
from ..indexing.manager import IndexManager
from ..storage.store import NodeStore
from ..xmlmodel.node import XMLNode
from ..xmlmodel.tree import Collection, DataTree
from .ast import (
    AggregateCall,
    AndExpr,
    Comparison,
    CountCall,
    DistinctValues,
    DocumentCall,
    ElementConstructor,
    EmbeddedExpr,
    Expr,
    FLWR,
    ForClause,
    LetClause,
    NumberLiteral,
    PathExpr,
    Step,
    StringLiteral,
    TextItem,
    VarRef,
)
from .template import sort_items

Item = object  # int (nid) | str | XMLNode
Sequence = list


class Interpreter:
    """Tuple-at-a-time evaluator bound to one store + index manager."""

    def __init__(self, store: NodeStore, indexes: IndexManager):
        self.store = store
        self.indexes = indexes
        self.profiler = None

    def enable_profiling(self):
        """Record the whole evaluation as one ``interpret`` span.

        The direct evaluator has no operator tree to attribute work to —
        it *is* the paper's tuple-at-a-time baseline — so its profile is
        a single span carrying the query-wide counter deltas.
        """
        from ..observability import Profiler, snapshot_counters

        self.profiler = Profiler(
            lambda: snapshot_counters(self.store, self.indexes)
        )
        return self.profiler

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def evaluate(self, expr: Expr) -> Sequence:
        """Evaluate to a raw item sequence."""
        return self._eval(expr, {})

    def run(self, expr: Expr) -> Collection:
        """Evaluate and wrap constructed results as a collection."""
        if self.profiler is not None:
            with self.profiler.operator("interpret", "direct evaluation") as span:
                output = self._run_unprofiled(expr)
                span.output_rows = len(output)
            return output
        return self._run_unprofiled(expr)

    def _run_unprofiled(self, expr: Expr) -> Collection:
        output = Collection(name="direct")
        for item in self.evaluate(expr):
            output.append(DataTree(self._to_node(item)))
        return output

    # ------------------------------------------------------------------
    # Core dispatch
    # ------------------------------------------------------------------
    def _eval(self, expr: Expr, env: dict[str, Sequence]) -> Sequence:
        if isinstance(expr, StringLiteral):
            return [expr.value]
        if isinstance(expr, NumberLiteral):
            return [expr.text]
        if isinstance(expr, VarRef):
            if expr.name not in env:
                raise TranslationError(f"unbound variable ${expr.name}")
            return list(env[expr.name])
        if isinstance(expr, DocumentCall):
            info = self.store.document(expr.name)
            return [info.root_nid]
        if isinstance(expr, PathExpr):
            return self._eval_path(expr, env)
        if isinstance(expr, DistinctValues):
            return self._distinct(self._eval(expr.argument, env))
        if isinstance(expr, CountCall):
            return [str(len(self._eval(expr.argument, env)))]
        if isinstance(expr, AggregateCall):
            return self._aggregate(expr, env)
        if isinstance(expr, FLWR):
            return self._eval_flwr(expr, env)
        if isinstance(expr, ElementConstructor):
            return [self._construct(expr, env)]
        if isinstance(expr, (Comparison, AndExpr)):
            return ["true" if self._eval_boolean(expr, env) else "false"]
        raise TranslationError(f"cannot evaluate {type(expr).__name__}")

    # ------------------------------------------------------------------
    # FLWR
    # ------------------------------------------------------------------
    def _eval_flwr(self, expr: FLWR, env: dict[str, Sequence]) -> Sequence:
        results: Sequence = []

        def recurse(index: int, scope: dict[str, Sequence]) -> None:
            if index == len(expr.clauses):
                if expr.where is not None and not self._eval_boolean(expr.where, scope):
                    return
                results.extend(self._eval(expr.ret, scope))
                return
            clause = expr.clauses[index]
            if isinstance(clause, LetClause):
                bound = dict(scope)
                bound[clause.var] = self._eval(clause.source, scope)
                recurse(index + 1, bound)
                return
            assert isinstance(clause, ForClause)
            for item in self._eval(clause.source, scope):
                # Cancellation point per outer binding: nested FLWRs are
                # the direct baseline's O(n*m) hot loop.
                checkpoint()
                bound = dict(scope)
                bound[clause.var] = [item]
                recurse(index + 1, bound)

        recurse(0, dict(env))
        if expr.sortby:
            results = self._apply_sortby(results, expr.sortby)
        return results

    def _apply_sortby(self, items: Sequence, sortby) -> Sequence:
        ordering = tuple((key.path, key.direction) for key in sortby)
        return sort_items(items, ordering, self._sort_value)

    def _sort_value(self, item: Item, path: tuple[str, ...]) -> str:
        if path == (".",):
            return self._atomize(item)
        if isinstance(item, int):
            frontier = [item]
            for name in path:
                frontier = [
                    child
                    for current in frontier
                    for child in self.store.children(current)
                    if self.store.tag(child) == name
                ]
            return self._atomize(frontier[0]) if frontier else ""
        if isinstance(item, XMLNode):
            nodes = [item]
            for name in path:
                nodes = [c for node in nodes for c in node.findall(name)]
            return self._atomize(nodes[0]) if nodes else ""
        return self._atomize(item)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _eval_path(self, expr: PathExpr, env: dict[str, Sequence]) -> Sequence:
        context = self._eval(expr.base, env)
        for step in expr.steps:
            if step.axis == "@":
                context = self._eval_attribute_step(context, step.name)
            else:
                context = self._eval_step(context, step, env)
        return context

    def _eval_attribute_step(self, context: Sequence, name: str) -> Sequence:
        """``/@name``: attribute string values of the context nodes."""
        out: Sequence = []
        for item in context:
            if isinstance(item, int):
                attributes = dict(self.store.record(item).attributes)
            elif isinstance(item, XMLNode):
                attributes = item.attributes
            else:
                raise TranslationError("attribute steps apply to nodes only")
            value = attributes.get(name)
            if value is not None:
                out.append(value)
        return out

    def _eval_step(self, context: Sequence, step: Step, env: dict[str, Sequence]) -> Sequence:
        out: Sequence = []
        seen: set[int] = set()
        for item in context:
            checkpoint()
            for nid in self._step_from(item, step):
                if nid in seen:
                    continue
                seen.add(nid)
                if step.predicate is None or self._check_predicate(nid, step, env):
                    out.append(nid)
        return out

    def _step_from(self, item: Item, step: Step) -> list[int]:
        if not isinstance(item, int):
            raise TranslationError("path steps apply to stored nodes only")
        if step.axis == "//":
            # Index-assisted: take the tag's posting list and keep labels
            # inside the context subtree (the direct plan's index use).
            record = self.store.record(item)
            if step.name == "*":
                return list(self.store.subtree_nids(item))[1:]
            labels = self.indexes.labels_for_tag(step.name)
            return [
                label.nid
                for label in labels
                if record.start < label.start and label.end < record.end
            ]
        children = self.store.children(item)
        if step.name == "*":
            return children
        return [nid for nid in children if self.store.tag(nid) == step.name]

    def _check_predicate(self, nid: int, step: Step, env: dict[str, Sequence]) -> bool:
        predicate = step.predicate
        assert predicate is not None
        # Navigate the relative path inside the brackets.
        frontier = [nid]
        for name in predicate.path:
            next_frontier: list[int] = []
            for current in frontier:
                next_frontier.extend(
                    child
                    for child in self.store.children(current)
                    if self.store.tag(child) == name
                )
            frontier = next_frontier
        right_values = [self._atomize(item) for item in self._eval(predicate.right, env)]
        left_values = [self._atomize(item) for item in frontier]
        return _existential(left_values, predicate.op, right_values)

    # ------------------------------------------------------------------
    # Booleans and atomization
    # ------------------------------------------------------------------
    def _eval_boolean(self, expr: Expr, env: dict[str, Sequence]) -> bool:
        if isinstance(expr, AndExpr):
            return all(self._eval_boolean(part, env) for part in expr.parts)
        if isinstance(expr, Comparison):
            left = [self._atomize(item) for item in self._eval(expr.left, env)]
            right = [self._atomize(item) for item in self._eval(expr.right, env)]
            return _existential(left, expr.op, right)
        raise TranslationError("WHERE supports comparisons and AND only")

    def _atomize(self, item: Item) -> str:
        if isinstance(item, str):
            return item
        if isinstance(item, int):
            content = self.store.content(item)
            if content is not None:
                return content
            # Fall back to the subtree string value (rare in our data).
            node = self.store.materialize(item, with_content=True)
            return "".join(n.content or "" for n in node.iter())
        if isinstance(item, XMLNode):
            return "".join(n.content or "" for n in item.iter())
        raise TranslationError(f"cannot atomize {type(item).__name__}")

    def _aggregate(self, expr: AggregateCall, env: dict[str, Sequence]) -> Sequence:
        """Numeric aggregates over the atomized argument sequence.

        Follows XQuery's empty-sequence behaviour: ``sum`` of nothing is
        0; ``min``/``max``/``avg`` of nothing are the empty sequence.
        """
        values = [self._atomize(item) for item in self._eval(expr.argument, env)]
        numbers: list[float] = []
        for value in values:
            try:
                numbers.append(float(value))
            except ValueError as exc:
                raise TranslationError(
                    f"{expr.function}(): non-numeric value {value!r}"
                ) from exc
        if not numbers:
            return ["0"] if expr.function == "sum" else []
        if expr.function == "sum":
            result = sum(numbers)
        elif expr.function == "min":
            result = min(numbers)
        elif expr.function == "max":
            result = max(numbers)
        else:
            result = sum(numbers) / len(numbers)
        if result == int(result):
            return [str(int(result))]
        return [repr(result)]

    def _distinct(self, items: Sequence) -> Sequence:
        seen: set[str] = set()
        out: Sequence = []
        for item in items:
            value = self._atomize(item)
            if value in seen:
                continue
            seen.add(value)
            out.append(item)
        return out

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _construct(self, expr: ElementConstructor, env: dict[str, Sequence]) -> XMLNode:
        node = XMLNode(expr.tag, attributes=dict(expr.attributes) or None)
        texts: list[str] = []
        for item in expr.items:
            if isinstance(item, TextItem):
                texts.append(item.text)
            elif isinstance(item, ElementConstructor):
                node.append_child(self._construct(item, env))
            elif isinstance(item, EmbeddedExpr):
                for value in self._eval(item.expr, env):
                    if isinstance(value, str):
                        texts.append(value)
                    else:
                        node.append_child(self._to_node(value))
            else:  # pragma: no cover - AST is closed
                raise TranslationError(f"bad constructor item {item!r}")
        if texts:
            node.content = " ".join(texts)
        return node

    def _to_node(self, item: Item) -> XMLNode:
        if isinstance(item, XMLNode):
            return item
        if isinstance(item, int):
            return self.store.materialize(item, with_content=True)
        return XMLNode("value", str(item))


def _existential(left: list[str], op: str, right: list[str]) -> bool:
    """XPath general comparison: true if any pair satisfies ``op``."""
    for a in left:
        for b in right:
            if _compare(a, op, b):
                return True
    return False


def _compare(a: str, op: str, b: str) -> bool:
    # Equality on untyped XML values is string equality ('10' != '10.0'),
    # matching the value-based joins of the algebraic plans.  Ordering
    # comparisons coerce to numbers when both sides parse, which is what
    # year/page predicates want.
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    try:
        left, right = float(a), float(b)  # type: ignore[assignment]
    except ValueError:
        left, right = a, b  # type: ignore[assignment]
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise TranslationError(f"unsupported comparison operator {op!r}")
