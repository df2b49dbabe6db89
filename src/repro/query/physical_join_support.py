"""Label-only path navigation for the physical engine.

Given a set of starting node labels and a child-step path, find the
labels of the nodes reached — using one structural join per step over
the tag index's candidate streams, so no record or data page is ever
touched.  This is what lets the COUNT plan stay identifier-only even
though ``count($t)`` counts *path targets*, not members.

With a columnar node table available the joins run as staircase window
scans over its arrays (:func:`~repro.pattern.structural_join.staircase_join_rows`)
instead of label-object merges.
"""

from __future__ import annotations

from ..indexing.columnar import ColumnarTable
from ..indexing.labels import NodeLabel
from ..indexing.manager import IndexManager
from ..pattern.pattern import Axis
from ..pattern.structural_join import staircase_join_rows, structural_join


def descend_path(
    indexes: IndexManager,
    starts: list[NodeLabel],
    path: tuple[str, ...],
    columnar: ColumnarTable | None = None,
) -> dict[int, list[NodeLabel]]:
    """Map each start nid to the labels reached by following ``path``
    with parent-child steps.

    ``starts`` must be start-sorted and distinct; they may nest inside
    one another (a child step gives each reached node exactly one
    parent, hence one owning start).  Each start's reached labels come
    back in document order.
    """
    if columnar is not None:
        reached = _descend_path_columnar(indexes, starts, path, columnar)
        if reached is not None:
            return reached
    owner: dict[int, int] = {label.nid: label.nid for label in starts}
    frontier = list(starts)
    for name in path:
        candidates = indexes.labels_for_tag(name)
        if not candidates:
            return {label.nid: [] for label in starts}
        pairs = structural_join(frontier, candidates, Axis.PC)
        next_owner: dict[int, int] = {}
        next_frontier: list[NodeLabel] = []
        for ancestor, descendant in pairs:
            next_owner[descendant.nid] = owner[ancestor.nid]
            next_frontier.append(descendant)
        owner = next_owner
        # Pairs are emitted in descendant document order; pc steps give
        # each descendant a unique parent, so no deduplication needed.
        frontier = next_frontier

    reached: dict[int, list[NodeLabel]] = {label.nid: [] for label in starts}
    for label in frontier:
        reached[owner[label.nid]].append(label)
    return reached


def _descend_path_columnar(
    indexes: IndexManager,
    starts: list[NodeLabel],
    path: tuple[str, ...],
    table: ColumnarTable,
) -> dict[int, list[NodeLabel]] | None:
    """Row-based descent; None when a label is unknown to the table."""
    start_rows = table.rows_for_labels(starts)
    if start_rows is None:
        return None
    symbols = indexes.store.meta.symbols
    owner: dict[int, int] = {row: row for row in start_rows}
    frontier = list(start_rows)
    for name in path:
        sym = symbols.lookup(name)
        stream = table.stream_for_tag(sym) if sym is not None else None
        if stream is None or not stream.size:
            frontier = []
            break
        grouped = staircase_join_rows(table.stream_for_rows(frontier), stream, Axis.PC)
        next_owner: dict[int, int] = {}
        next_frontier: list[int] = []
        for parent_row, child_rows in grouped.items():
            owning = owner[parent_row]
            for child_row in child_rows:
                next_owner[child_row] = owning
                next_frontier.append(child_row)
        next_frontier.sort()  # document order for the next join's input
        owner = next_owner
        frontier = next_frontier

    label_of_row = table.label_of_row
    reached: dict[int, list[NodeLabel]] = {
        table.nids[row]: [] for row in start_rows
    }
    for row in frontier:
        reached[table.nids[owner[row]]].append(label_of_row(row))
    return reached
