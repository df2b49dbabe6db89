"""The TAX aggregation operator ``A`` (Sec. 4.3).

Aggregation "maps collections of values to aggregate or summary values"
and — unlike SQL — is separate from grouping: it takes a pattern ``P``,
an aggregate function, and an **update specification** saying where the
computed value is inserted in each output tree.  The paper's example::

    A_{aggElem = f1($j), after lastChild($i)}(C)

computes ``f1`` over the values bound to ``$j`` *per input tree* and
appends a new node carrying the result as the new last child of the
node matching ``$i``.

Supported functions: COUNT, SUM, MIN, MAX, AVG.  Supported update
positions: ``after lastChild($i)``, ``before firstChild($i)``,
``precedes($i)``, ``follows($i)`` — the paper calls the exact set "an
extensible notion", so the enum here is the extension point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import AlgebraError
from ..pattern.matcher import TreeMatcher
from ..pattern.pattern import PatternTree
from ..xmlmodel.node import XMLNode
from ..xmlmodel.tree import Collection, DataTree
from .base import UnaryOperator, atomic_value_of


class AggregateFunction(str, Enum):
    COUNT = "COUNT"
    SUM = "SUM"
    MIN = "MIN"
    MAX = "MAX"
    AVG = "AVG"

    def compute(self, values: list[str]) -> str:
        """Apply to the collected values and render the result as text.

        Empty input follows XQuery: COUNT -> "0", SUM -> "0",
        MIN/MAX/AVG -> "" (the empty sequence).
        """
        if self is AggregateFunction.COUNT:
            return str(len(values))
        numbers = [_as_number(value) for value in values]
        if not numbers:
            return "0" if self is AggregateFunction.SUM else ""
        if self is AggregateFunction.SUM:
            return render_number(sum(numbers))
        if self is AggregateFunction.MIN:
            return render_number(min(numbers))
        if self is AggregateFunction.MAX:
            return render_number(max(numbers))
        return render_number(sum(numbers) / len(numbers))


class UpdatePosition(str, Enum):
    """Where the aggregate node is inserted, relative to ``anchor``."""

    AFTER_LAST_CHILD = "after lastChild"
    BEFORE_FIRST_CHILD = "before firstChild"
    PRECEDES = "precedes"
    FOLLOWS = "follows"


@dataclass(frozen=True)
class UpdateSpec:
    """``(position, anchor-label)`` — e.g. ``after lastChild($1)``."""

    position: UpdatePosition
    anchor: str

    def render(self) -> str:
        return f"{self.position.value}({self.anchor})"


class Aggregation(UnaryOperator):
    """``A_{name=f($j), spec}(C)`` — per-tree aggregate with insertion."""

    name = "aggregation"

    def __init__(
        self,
        pattern: PatternTree,
        function: AggregateFunction | str,
        source_label: str,
        new_tag: str,
        update: UpdateSpec,
        source_attribute: str | None = None,
    ):
        self.pattern = pattern
        self.function = AggregateFunction(function)
        self.source_label = source_label
        self.source_attribute = source_attribute
        self.new_tag = new_tag
        self.update = update
        pattern.node(source_label)
        pattern.node(update.anchor)
        self._matcher = TreeMatcher()

    # ------------------------------------------------------------------
    def apply(self, collection: Collection) -> Collection:
        output = Collection(name="aggregation")
        for index, tree in enumerate(collection):
            output.append(self._aggregate_tree(tree, index))
        return output

    def _aggregate_tree(self, tree: DataTree, index: int) -> DataTree:
        copy = tree.copy()
        matches = self._matcher.match_tree(self.pattern, copy.root, index)
        values: list[str] = []
        seen: set[int] = set()
        anchor: XMLNode | None = None
        for match in matches:
            if anchor is None:
                anchor = match.bindings[self.update.anchor]
            node = match.bindings[self.source_label]
            # One value per distinct bound node: several witnesses can bind
            # the same node (e.g. via a sibling's multiplicity) and the
            # aggregate must not double-count it.
            if id(node) in seen:
                continue
            seen.add(id(node))
            values.append(self._value_of(node))
        aggregate = XMLNode(self.new_tag, self.function.compute(values))
        if anchor is None:
            # No witness: the output is identical to the input (with a
            # zero COUNT appended at the root for countable queries).
            if self.function is AggregateFunction.COUNT:
                copy.root.append_child(aggregate)
            return copy
        self._insert(anchor, aggregate)
        return copy

    def _value_of(self, node: XMLNode) -> str:
        if self.source_attribute is not None:
            value = node.attributes.get(self.source_attribute)
            if value is None:
                raise AlgebraError(
                    f"node bound to {self.source_label} lacks attribute "
                    f"{self.source_attribute!r}"
                )
            return value
        return atomic_value_of(node)

    def _insert(self, anchor: XMLNode, aggregate: XMLNode) -> None:
        position = self.update.position
        if position is UpdatePosition.AFTER_LAST_CHILD:
            anchor.append_child(aggregate)
        elif position is UpdatePosition.BEFORE_FIRST_CHILD:
            anchor.insert_child(0, aggregate)
        elif position in (UpdatePosition.PRECEDES, UpdatePosition.FOLLOWS):
            parent = anchor.parent
            if parent is None:
                raise AlgebraError(
                    f"update {self.update.render()}: anchor is a root node"
                )
            index = anchor.child_index()
            if position is UpdatePosition.FOLLOWS:
                index += 1
            parent.insert_child(index, aggregate)
        else:  # pragma: no cover - enum is closed
            raise AlgebraError(f"unsupported update position {position}")

    def describe(self) -> str:
        source = self.source_label
        if self.source_attribute:
            source += f".{self.source_attribute}"
        return (
            f"aggregate {self.new_tag}={self.function.value}({source}) "
            f"{self.update.render()}"
        )


def _as_number(value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise AlgebraError(f"non-numeric value {value!r} in numeric aggregate") from exc


def render_number(value: float) -> str:
    """An aggregate as the interpreter prints it: int-if-whole, else
    ``repr``."""
    if value == int(value):
        return str(int(value))
    return repr(value)
