"""Distributed merge planning: the paper's grouping, scattered.

The TAX GROUPBY is *identifier-only*: a shard can group its slice and
report, per group, the grouping basis plus partial aggregates — it
never needs the other slices to do so.  :func:`compile_merge` inspects
a query AST and decides how slice results combine:

* ``group`` — the paper's shape (``FOR $g IN distinct-values(...)``
  over one document, LET bindings, a constructor RETURN).  Each shard
  runs a rewritten query whose RETURN wraps every constructor item in
  a tagged wrapper inside one ``<zrow>`` per group, always including a
  hidden ``<zk>`` carrying the group key (an item that is exactly the
  group variable is rebuilt from ``<zk>``, not shipped twice).  The
  shard query is itself in the grouping family — its constructor is an
  output template over the same join-plan pattern — so every shard
  answers it with the GROUPBY plan.  The coordinator unions
  groups by atomized key in *slice-major* order — slices are
  contiguous spans of the document, so slice-major first-appearance
  order **is** global document order of first occurrences — and merges
  each wrapper by its operator: ``key`` (take the earliest slice's
  representative, which is the global first occurrence), ``list``
  (concatenate slice-major, restoring document order), ``count``/
  ``sum`` (add), ``min``/``max`` (combine), ``avg`` (shipped as
  sum+count, divided once at the coordinator — the only way partial
  averages merge exactly).
* ``concat`` — no ``distinct-values`` anywhere and iteration is the
  only thing touching the document: shard rows simply concatenate in
  slice-major order.
* ``scalar-count`` — a bare ``count(...)`` over the document: per-shard
  counts add into one scalar row.

``SORTBY`` is stripped from the shard query and re-applied after the
merge (sorting a slice tells you nothing about global order): the outer
one to the merged rows, a member list's own to its concatenated list —
a stable sort over the slice-major concatenation is the single-node
order.

Anything else — cross-slice dedup inside an item, a LET the WHERE
filters on (HAVING-style), document-spanning joins per row — raises
:class:`~repro.errors.ClusterMergeError`; the coordinator surfaces it
typed instead of merging wrong answers.

Reconstruction mirrors :meth:`Interpreter._construct` exactly: string
values accumulate into the row's ``content`` joined by single spaces,
node values append as children, and aggregate formatting is
int-if-whole else ``repr(float)`` — so a merged row is byte-identical
to the single-node row (asserted by ``xmlmodel.diff`` in the identity
tests).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import ClusterMergeError
from ..query.ast import (
    AggregateCall,
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
    PathExpr,
    SortKey,
    StepPredicate,
    TextItem,
    VarRef,
    render,
)
from ..xmlmodel.node import XMLNode

#: Wrapper tags inside a shard row: the hidden group key, per-item
#: wrappers, and the sum/count pair an avg ships as.
ROW_TAG = "zrow"
KEY_TAG = "zk"


def _item_tag(index: int) -> str:
    return f"z{index}"


def _avg_tags(index: int) -> tuple[str, str]:
    return f"zs{index}", f"zn{index}"


# ----------------------------------------------------------------------
# AST inspection helpers
# ----------------------------------------------------------------------
def _children(node: object):
    if not hasattr(node, "__dataclass_fields__"):
        return
    for name in node.__dataclass_fields__:  # type: ignore[union-attr]
        value = getattr(node, name)
        if isinstance(value, tuple):
            for item in value:
                if hasattr(item, "__dataclass_fields__"):
                    yield item
        elif hasattr(value, "__dataclass_fields__"):
            yield value


def _walk(node: object):
    yield node
    for child in _children(node):
        yield from _walk(child)


def _contains(node: object, kinds: tuple[type, ...]) -> bool:
    return any(isinstance(n, kinds) for n in _walk(node))


def document_names(expr: Expr) -> set[str]:
    return {n.name for n in _walk(expr) if isinstance(n, DocumentCall)}


def free_vars(node: object, bound: frozenset = frozenset()) -> set[str]:
    """Variables referenced by ``node`` that it does not itself bind."""
    if isinstance(node, VarRef):
        return set() if node.name in bound else {node.name}
    if isinstance(node, FLWR):
        names: set[str] = set()
        inner = set(bound)
        for clause in node.clauses:
            names |= free_vars(clause.source, frozenset(inner))
            inner.add(clause.var)
        if node.where is not None:
            names |= free_vars(node.where, frozenset(inner))
        names |= free_vars(node.ret, frozenset(inner))
        return names
    names = set()
    for child in _children(node):
        names |= free_vars(child, bound)
    return names


# ----------------------------------------------------------------------
# The merge plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ItemPlan:
    """How one constructor item merges across slices."""

    # static-text | static-elem | group | key | list | count | sum | min | max | avg
    kind: str
    index: int
    source: object  # the original AST item
    sortby: tuple[SortKey, ...] = ()  # a list item's own SORTBY, re-applied here


@dataclass(frozen=True)
class MergePlan:
    """Everything the coordinator needs to scatter and gather."""

    kind: str  # group | concat | scalar-count
    document: str
    shard_query: str  # rewritten query the shards run (SORTBY stripped)
    sortby: tuple[SortKey, ...]
    row_tag: str | None = None
    row_attributes: tuple[tuple[str, str], ...] = ()
    items: tuple[ItemPlan, ...] = ()

    def describe(self) -> str:
        """The merge operators, for the cluster EXPLAIN."""
        if self.kind == "concat":
            text = "concat: shard rows in slice-major order"
        elif self.kind == "scalar-count":
            text = "scalar: sum of per-shard counts"
        else:
            ops = [f"{KEY_TAG}=group-key union (slice-major)"]
            for item in self.items:
                if item.kind in ("static-text", "static-elem"):
                    continue
                if item.kind == "avg":
                    zs, zn = _avg_tags(item.index)
                    ops.append(f"{zs}/{zn}=avg (sum+count)")
                elif item.kind == "list":
                    ops.append(
                        f"{_item_tag(item.index)}=concat"
                        + (" + SORTBY" if item.sortby else "")
                    )
                elif item.kind == "group":
                    ops.append(f"item {item.index}=rebuilt from {KEY_TAG}")
                elif item.kind == "key":
                    ops.append(f"{_item_tag(item.index)}=first-slice representative")
                else:
                    ops.append(f"{_item_tag(item.index)}={item.kind}")
            text = "group: " + ", ".join(ops)
        if self.sortby:
            text += "; SORTBY re-applied after merge"
        return text


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def compile_merge(expr: Expr) -> MergePlan:
    """Decide how slice results merge for ``expr``.

    Raises :class:`~repro.errors.ClusterMergeError` for shapes with no
    sound merge operator.
    """
    names = document_names(expr)
    if len(names) != 1:
        raise ClusterMergeError(
            f"cluster queries must target exactly one document (found {sorted(names)})"
        )
    document = names.pop()

    if isinstance(expr, CountCall):
        if _contains(expr.argument, (DistinctValues,)):
            raise ClusterMergeError(
                "count over distinct-values needs cross-slice dedup"
            )
        return MergePlan(
            kind="scalar-count",
            document=document,
            shard_query=render(expr),
            sortby=(),
        )

    if isinstance(expr, PathExpr) and not _contains(expr, (DistinctValues,)):
        return MergePlan(
            kind="concat", document=document, shard_query=render(expr), sortby=()
        )

    if not isinstance(expr, FLWR):
        raise ClusterMergeError(
            f"no merge operator for top-level {type(expr).__name__}"
        )

    if _is_group_shape(expr):
        return _compile_group(expr, document)
    return _compile_concat(expr, document)


def _is_group_shape(expr: FLWR) -> bool:
    return (
        bool(expr.clauses)
        and isinstance(expr.clauses[0], ForClause)
        and isinstance(expr.clauses[0].source, DistinctValues)
    )


def _compile_group(expr: FLWR, document: str) -> MergePlan:
    first = expr.clauses[0]
    assert isinstance(first, ForClause)
    group_var = first.var
    if not _contains(first.source, (DocumentCall,)):
        raise ClusterMergeError(
            "the grouping distinct-values must range over the document"
        )
    for clause in expr.clauses[1:]:
        if not isinstance(clause, LetClause):
            raise ClusterMergeError(
                "group merge supports one FOR over distinct-values plus LETs"
            )
        if _contains(clause.source, (DistinctValues,)):
            raise ClusterMergeError(
                f"LET ${clause.var} uses distinct-values (cross-slice dedup)"
            )
    for clause in expr.clauses[1:]:
        if _contains(clause.source, (DocumentCall,)) and not _correlated(
            clause.source, group_var
        ):
            raise ClusterMergeError(
                f"LET ${clause.var} reads the document without comparing "
                f"against ${group_var}; its matches need not co-occur with "
                "the group key's slice"
            )
    let_vars = {c.var for c in expr.clauses[1:]}
    if expr.where is not None:
        where_free = free_vars(expr.where)
        if where_free & let_vars or _contains(expr.where, (DocumentCall,)):
            raise ClusterMergeError(
                "WHERE over LET bindings is HAVING-shaped; shards cannot "
                "filter groups locally"
            )
    if not isinstance(expr.ret, ElementConstructor):
        raise ClusterMergeError(
            "group merge needs a constructor RETURN (one row per group)"
        )

    items: list[ItemPlan] = []
    wrappers: list[ElementConstructor] = [
        ElementConstructor(KEY_TAG, (), (EmbeddedExpr(VarRef(group_var)),))
    ]
    for index, item in enumerate(expr.ret.items):
        plan = _classify_item(item, index, group_var)
        items.append(plan)
        wrappers.extend(_wrappers_for(plan))
    shard_expr = FLWR(
        clauses=expr.clauses,
        where=expr.where,
        ret=ElementConstructor(ROW_TAG, (), tuple(wrappers)),
        sortby=(),
    )
    return MergePlan(
        kind="group",
        document=document,
        shard_query=render(shard_expr),
        sortby=expr.sortby,
        row_tag=expr.ret.tag,
        row_attributes=expr.ret.attributes,
        items=tuple(items),
    )


def _classify_item(item: object, index: int, group_var: str) -> ItemPlan:
    if isinstance(item, TextItem):
        return ItemPlan("static-text", index, item)
    if isinstance(item, ElementConstructor):
        if _contains(item, (EmbeddedExpr,)):
            raise ClusterMergeError(
                f"nested constructor <{item.tag}> with embedded expressions "
                "has no per-item merge operator"
            )
        return ItemPlan("static-elem", index, item)
    assert isinstance(item, EmbeddedExpr)
    inner = item.expr
    if inner == VarRef(group_var):
        return ItemPlan("group", index, item)
    if _contains(inner, (DistinctValues,)):
        raise ClusterMergeError(
            "distinct-values inside a RETURN item needs cross-slice dedup"
        )
    # Deterministic per group value: depends only on the group variable,
    # never on slice-local data — the winning (earliest) slice's value
    # is the global value.
    if free_vars(inner) <= {group_var} and not _contains(
        inner, (DocumentCall, FLWR)
    ):
        return ItemPlan("key", index, item)
    if _contains(inner, (DocumentCall,)) and not _correlated(inner, group_var):
        raise ClusterMergeError(
            f"a RETURN item reads the document without comparing against "
            f"${group_var}; its matches need not co-occur with the group "
            "key's slice"
        )
    if isinstance(inner, CountCall):
        return ItemPlan("count", index, item)
    if isinstance(inner, AggregateCall):
        return ItemPlan(inner.function, index, item)
    if isinstance(inner, FLWR) and inner.sortby:
        if not _yields_nodes(inner.ret):
            raise ClusterMergeError(
                "SORTBY inside a RETURN item over atomic values cannot be "
                "re-applied after the merge"
            )
        unsorted = EmbeddedExpr(dataclasses.replace(inner, sortby=()))
        return ItemPlan("list", index, unsorted, sortby=inner.sortby)
    return ItemPlan("list", index, item)


def _yields_nodes(ret: object) -> bool:
    """True when a FLWR's RETURN produces nodes (which survive the wire
    one by one) rather than strings (which join into wrapper content)."""
    if isinstance(ret, ElementConstructor):
        return True
    return isinstance(ret, PathExpr) and bool(ret.steps) and ret.steps[-1].axis != "@"


def _correlated(expr: object, group_var: str) -> bool:
    """True when ``expr`` compares something against the group variable
    (a WHERE clause or a step predicate), i.e. its document matches are
    anchored to occurrences of the group key.  This *locality* is what
    makes slice-local evaluation exact: a match in slice ``k`` contains
    the key, so slice ``k``'s grouping pass also emits the group."""
    for node in _walk(expr):
        if isinstance(node, Comparison):
            if any(
                isinstance(side, VarRef) and side.name == group_var
                for side in (node.left, node.right)
            ):
                return True
        elif isinstance(node, StepPredicate):
            right = node.right
            if isinstance(right, VarRef) and right.name == group_var:
                return True
    return False


def _wrappers_for(plan: ItemPlan) -> list[ElementConstructor]:
    if plan.kind in ("static-text", "static-elem", "group"):
        return []  # rebuilt at the coordinator; never shipped
    item = plan.source
    assert isinstance(item, EmbeddedExpr)
    if plan.kind == "avg":
        inner = item.expr
        assert isinstance(inner, AggregateCall)
        zs, zn = _avg_tags(plan.index)
        return [
            ElementConstructor(
                zs, (), (EmbeddedExpr(AggregateCall("sum", inner.argument)),)
            ),
            ElementConstructor(
                zn, (), (EmbeddedExpr(CountCall(inner.argument)),)
            ),
        ]
    return [ElementConstructor(_item_tag(plan.index), (), (item,))]


def _compile_concat(expr: FLWR, document: str) -> MergePlan:
    if _contains(expr, (DistinctValues,)):
        raise ClusterMergeError(
            "distinct-values outside the grouping FOR needs cross-slice dedup"
        )
    doc_fors = 0
    for position, clause in enumerate(expr.clauses):
        has_doc = _contains(clause.source, (DocumentCall,))
        if not has_doc:
            continue
        if isinstance(clause, LetClause):
            raise ClusterMergeError(
                f"LET ${clause.var} binds document data as one sequence; "
                "slices cannot reproduce it"
            )
        doc_fors += 1
        if doc_fors > 1 or position != 0:
            raise ClusterMergeError(
                "only the first FOR may range over the document "
                "(cross products do not distribute over slices)"
            )
    if doc_fors == 0:
        raise ClusterMergeError("the query never iterates the document")
    if expr.where is not None and _contains(expr.where, (DocumentCall,)):
        raise ClusterMergeError("WHERE re-reads the document (cross-slice)")
    if _contains(expr.ret, (DocumentCall,)):
        raise ClusterMergeError(
            "RETURN re-reads the document per row (cross-slice join)"
        )
    shard_expr = FLWR(
        clauses=expr.clauses, where=expr.where, ret=expr.ret, sortby=()
    )
    return MergePlan(
        kind="concat",
        document=document,
        shard_query=render(shard_expr),
        sortby=expr.sortby,
    )


# ----------------------------------------------------------------------
# Document rewriting (replica routing)
# ----------------------------------------------------------------------
def rename_document(text_or_expr, mapping: dict[str, str]) -> str:
    """The query text with every ``document(old)`` renamed per
    ``mapping`` — how a hedged call targets a replica's alias."""
    from ..query.parser import parse_query

    expr = (
        parse_query(text_or_expr)
        if isinstance(text_or_expr, str)
        else text_or_expr
    )
    return render(_rename(expr, mapping))


def _rename(node, mapping: dict[str, str]):
    if isinstance(node, DocumentCall):
        return DocumentCall(mapping.get(node.name, node.name))
    if not hasattr(node, "__dataclass_fields__"):
        return node
    changes = {}
    for name in node.__dataclass_fields__:
        value = getattr(node, name)
        if isinstance(value, tuple):
            renamed = tuple(
                _rename(item, mapping)
                if hasattr(item, "__dataclass_fields__")
                else item
                for item in value
            )
            if renamed != value:
                changes[name] = renamed
        elif hasattr(value, "__dataclass_fields__"):
            renamed_one = _rename(value, mapping)
            if renamed_one is not value:
                changes[name] = renamed_one
    if not changes:
        return node
    return dataclasses.replace(node, **changes)


# ----------------------------------------------------------------------
# Row merging
# ----------------------------------------------------------------------
def atomize(node: XMLNode) -> str:
    """``Interpreter._atomize`` of a constructed node."""
    return "".join(n.content or "" for n in node.iter())


def _stored_value(node: XMLNode) -> str:
    """``Interpreter._atomize`` of a *stored* node (what a path or
    ``distinct-values`` yields): its own content when it has any, the
    subtree string otherwise."""
    return node.content if node.content is not None else atomize(node)


def _key_value(wrapper: XMLNode) -> str:
    """The value ``distinct-values`` compared: ``<zk>`` holds the group
    variable's one binding, a stored node or an atomic string."""
    if wrapper.children:
        return _stored_value(wrapper.children[0])
    return wrapper.content or ""


def _wrapper(row: XMLNode, tag: str) -> XMLNode | None:
    for child in row.children:
        if child.tag == tag:
            return child
    return None


def merge_rows(plan: MergePlan, slice_rows: list[list[XMLNode]]) -> list[XMLNode]:
    """Combine per-slice row lists (slice order!) into the global rows.

    ``slice_rows[i]`` is slice ``i``'s result rows in shard-local
    order.  Missing slices must already have been handled (partial
    degradation) — this function assumes what it is given is what
    should merge.
    """
    if plan.kind == "concat":
        return [row for rows in slice_rows for row in rows]
    if plan.kind == "scalar-count":
        total = 0
        for rows in slice_rows:
            for row in rows:
                total += int(atomize(row) or "0")
        return [XMLNode("value", str(total))]
    # group: union keys slice-major, then rebuild each row.
    order: list[str] = []
    buckets: dict[str, list[XMLNode]] = {}
    for rows in slice_rows:
        for row in rows:
            key_node = _wrapper(row, KEY_TAG)
            key = _key_value(key_node) if key_node is not None else ""
            bucket = buckets.get(key)
            if bucket is None:
                order.append(key)
                buckets[key] = [row]
            else:
                bucket.append(row)
    return [_rebuild_row(plan, buckets[key]) for key in order]


def _rebuild_row(plan: MergePlan, rows: list[XMLNode]) -> XMLNode:
    """One merged group row, reconstructed with the exact semantics of
    ``Interpreter._construct`` (texts join into content, nodes become
    children)."""
    assert plan.row_tag is not None
    node = XMLNode(plan.row_tag, attributes=dict(plan.row_attributes) or None)
    texts: list[str] = []
    winner = rows[0]  # earliest slice containing the group
    for item in plan.items:
        if item.kind == "static-text":
            assert isinstance(item.source, TextItem)
            texts.append(item.source.text)
        elif item.kind == "static-elem":
            assert isinstance(item.source, ElementConstructor)
            node.append_child(_build_static(item.source))
        elif item.kind == "group":
            # ``<zk>`` also keys the merge and may serve several items.
            key = _wrapper(winner, KEY_TAG)
            if key is not None:
                _absorb(key.deep_copy(), texts, node)
        elif item.kind == "key":
            wrapper = _wrapper(winner, _item_tag(item.index))
            _absorb(wrapper, texts, node)
        elif item.kind == "list":
            # Concatenate slice-major (document order), then re-apply
            # the list's own SORTBY: the sort is stable, so the result
            # is the single-node order.
            start = len(node.children)
            for row in rows:
                _absorb(_wrapper(row, _item_tag(item.index)), texts, node)
            if item.sortby:
                # A path yields stored nodes, a constructor built ones.
                stored = isinstance(item.source.expr.ret, PathExpr)
                node.children[start:] = apply_sortby(
                    node.children[start:],
                    item.sortby,
                    _stored_value if stored else atomize,
                )
        elif item.kind == "count":
            total = 0
            for row in rows:
                wrapper = _wrapper(row, _item_tag(item.index))
                if wrapper is not None and wrapper.content:
                    total += int(wrapper.content)
            texts.append(str(total))
        elif item.kind == "sum":
            texts.append(
                _format_number(
                    sum(_numbers_from(rows, _item_tag(item.index))) or 0.0
                )
            )
        elif item.kind in ("min", "max"):
            values = _numbers_from(rows, _item_tag(item.index))
            if values:
                combine = min if item.kind == "min" else max
                texts.append(_format_number(combine(values)))
        elif item.kind == "avg":
            zs, zn = _avg_tags(item.index)
            total = sum(_numbers_from(rows, zs))
            count = int(sum(_numbers_from(rows, zn)))
            if count:
                texts.append(_format_number(total / count))
        else:  # pragma: no cover - plan kinds are closed
            raise ClusterMergeError(f"unknown item kind {item.kind!r}")
    if texts:
        node.content = " ".join(texts)
    return node


def _absorb(wrapper: XMLNode | None, texts: list[str], node: XMLNode) -> None:
    """Move a wrapper's payload into the row under reconstruction.

    A wrapper's ``content`` is the space-join of that item's string
    values on that shard; appending it as one text piece yields the
    same final space-joined ``content`` as appending each value."""
    if wrapper is None:
        return
    if wrapper.content:
        texts.append(wrapper.content)
    for child in list(wrapper.children):
        node.append_child(child)


def _numbers_from(rows: list[XMLNode], tag: str) -> list[float]:
    values: list[float] = []
    for row in rows:
        wrapper = _wrapper(row, tag)
        if wrapper is not None and wrapper.content:
            values.append(float(wrapper.content))
    return values


def _format_number(result: float) -> str:
    """Match ``Interpreter._aggregate``: int-if-whole else repr."""
    if result == int(result):
        return str(int(result))
    return repr(result)


def _build_static(ctor: ElementConstructor) -> XMLNode:
    node = XMLNode(ctor.tag, attributes=dict(ctor.attributes) or None)
    texts: list[str] = []
    for item in ctor.items:
        if isinstance(item, TextItem):
            texts.append(item.text)
        elif isinstance(item, ElementConstructor):
            node.append_child(_build_static(item))
    if texts:
        node.content = " ".join(texts)
    return node


# ----------------------------------------------------------------------
# SORTBY over merged rows
# ----------------------------------------------------------------------
def apply_sortby(
    rows: list[XMLNode], sortby: tuple[SortKey, ...], value=atomize
) -> list[XMLNode]:
    """The interpreter's 2001-era SORTBY: stable sort, rightmost key
    first so the leftmost is primary.  ``value`` atomizes a sort node —
    constructed nodes (merged rows) by default."""
    if not sortby:
        return rows
    from ..core.base import numeric_or_text

    ordered = list(rows)
    for key in reversed(sortby):
        ordered.sort(
            key=lambda row: numeric_or_text(_sort_value(row, key.path, value)),
            reverse=key.direction == "DESCENDING",
        )
    return ordered


def _sort_value(node: XMLNode, path: tuple[str, ...], value) -> str:
    if path == (".",):
        return value(node)
    nodes = [node]
    for name in path:
        nodes = [child for n in nodes for child in n.findall(name)]
    return value(nodes[0]) if nodes else ""
