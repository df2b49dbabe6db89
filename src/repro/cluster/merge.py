"""Distributed merge planning: the paper's grouping, scattered.

The TAX GROUPBY is *identifier-only*: a shard can group its slice and
report, per group, the grouping basis plus partial aggregates — it
never needs the other slices to do so.  Merging is then the same
grouping applied again to coarser input: the query's own RETURN
constructor, as an :class:`~repro.query.template.OutputTemplate`,
refilled over the shard rows.  :func:`compile_merge` decides how slice
results combine:

* ``group`` — the paper's shape (``FOR $g IN distinct-values(...)``
  over one document, LET bindings, a constructor RETURN).  The
  constructor becomes a template whose leaves are its embedded
  expressions; literal text, attributes and wrapper elements at any
  depth are template structure.  Each shard runs a rewritten query
  whose RETURN is one ``<zrow>`` per group: a hidden ``<zk>`` carrying
  the group key and one tagged wrapper per leaf (``{$g}`` itself reads
  ``<zk>``, so it is not shipped twice).  The shard query is itself in
  the grouping family, so every shard answers it with the GROUPBY plan.
  The coordinator unions groups by atomized key in *slice-major* order
  — slices are contiguous spans of the document, so slice-major
  first-appearance order **is** global document order of first
  occurrences — and fills the template once per group through
  :func:`~repro.query.template.fill_template`.  Each leaf's kind is its
  merge operator: ``key`` (the earliest slice's payload, which is the
  global first occurrence), ``members`` (concatenate slice-major,
  restoring document order, then re-apply the list's own SORTBY),
  ``count``/``sum`` (add), ``min``/``max`` (combine), ``avg`` (shipped
  as sum+count, divided once at the coordinator — the only way partial
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

Anything else raises :class:`~repro.errors.ClusterMergeError`, typed
instead of merging wrong answers: ``distinct-values`` inside an item
(cross-slice dedup, which is also what refuses the 3-level nested
form), a LET the WHERE filters on (HAVING-shaped), a document read not
anchored to the group key (its matches need not share the key's
slice), a SORTBY over atomic values (strings join into one text and
cannot be re-sorted), document-spanning joins per row.

Filling mirrors :meth:`Interpreter._construct` exactly — string values
join into an element's content with single spaces, node values append
as children, aggregates print int-if-whole else ``repr(float)`` — so a
merged row is byte-identical to the single-node row (asserted by
``xmlmodel.diff`` in the identity tests).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

from ..core.aggregation import render_number
from ..core.base import atomic_value_of
from ..errors import ClusterMergeError
from ..query.ast import (
    AggregateCall,
    Comparison,
    CountCall,
    DistinctValues,
    ElementConstructor,
    EmbeddedExpr,
    Expr,
    FLWR,
    ForClause,
    LetClause,
    PathExpr,
    SortKey,
    StepPredicate,
    VarRef,
    documents,
    render,
    walk,
)
from ..query.template import (
    Ordering,
    OutputTemplate,
    TemplateLeaf,
    aggregate_text,
    fill_template,
    sort_items,
)
from ..xmlmodel.node import XMLNode

#: Wrapper tags inside a shard row: the row itself and the hidden group
#: key.  A leaf's own wrappers are ``z<i>`` (``zs<i>``/``zn<i>`` for the
#: sum and count an avg ships as), ``i`` its position among the leaves.
ROW_TAG = "zrow"
KEY_TAG = "zk"

#: Each leaf kind's merge operator, for the cluster EXPLAIN.
_OPERATORS = {
    "key": "earliest slice",
    "members": "slice-major concat",
    "count": "add",
    "sum": "add",
    "min": "min",
    "max": "max",
    "avg": "sum/count",
}


# ----------------------------------------------------------------------
# The merge plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MergePlan:
    """Everything the coordinator needs to scatter and gather.

    For ``group`` plans ``template`` is the query's RETURN constructor
    with each leaf's ``path`` naming the shard-row wrappers it reads;
    ``built`` names the member-list wrappers that hold constructed
    (rather than stored) nodes, which a SORTBY atomizes whole.
    """

    kind: str  # group | concat | scalar-count
    document: str
    shard_expr: Expr  # the query the shards run (SORTBY stripped)
    sortby: Ordering = ()  # the outer SORTBY, re-applied to the merged rows
    template: OutputTemplate | None = None
    built: frozenset[str] = frozenset()
    shard_query: str = field(init=False)  # ``shard_expr`` as shipped text

    def __post_init__(self):
        object.__setattr__(self, "shard_query", render(self.shard_expr))

    def describe(self) -> str:
        """The merge operators, for the cluster EXPLAIN."""
        if self.kind == "concat":
            text = "concat: shard rows in slice-major order"
        elif self.kind == "scalar-count":
            text = "scalar: sum of per-shard counts"
        else:
            ops = ", ".join(
                f"{'/'.join(leaf.path)}={_OPERATORS[leaf.kind]}"
                + (" + SORTBY" if leaf.ordering else "")
                for leaf in dict.fromkeys(self.template.leaves())
            )
            text = (
                f"group: {KEY_TAG} union (slice-major) into "
                f"{self.template.render()}; {ops}"
            )
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
    names = documents(expr)
    if len(names) != 1:
        raise ClusterMergeError(
            f"cluster queries must target exactly one document (found {sorted(names)})"
        )
    document = names.pop()

    if isinstance(expr, CountCall):
        if _dedups(expr.argument):
            raise ClusterMergeError(
                "count over distinct-values needs cross-slice dedup"
            )
        return MergePlan("scalar-count", document, expr)

    if isinstance(expr, PathExpr) and not _dedups(expr):
        return MergePlan("concat", document, expr)

    if not isinstance(expr, FLWR):
        raise ClusterMergeError(
            f"no merge operator for top-level {type(expr).__name__}"
        )

    if (
        expr.clauses
        and isinstance(expr.clauses[0], ForClause)
        and isinstance(expr.clauses[0].source, DistinctValues)
    ):
        return _compile_group(expr, document)
    return _compile_concat(expr, document)


def _dedups(node: object) -> bool:
    """True when ``node`` calls ``distinct-values``: a dedup no slice
    can do alone."""
    return any(isinstance(inner, DistinctValues) for inner in walk(node))


def _ordering(sortby: tuple[SortKey, ...]) -> Ordering:
    return tuple((key.path, key.direction) for key in sortby)


def _compile_group(expr: FLWR, document: str) -> MergePlan:
    group_var = expr.clauses[0].var
    if not documents(expr.clauses[0].source):
        raise ClusterMergeError(
            "the grouping distinct-values must range over the document"
        )
    lets = expr.clauses[1:]
    for clause in lets:
        if not isinstance(clause, LetClause):
            raise ClusterMergeError(
                "group merge supports one FOR over distinct-values plus LETs"
            )
        if _dedups(clause.source):
            raise ClusterMergeError(
                f"LET ${clause.var} uses distinct-values (cross-slice dedup)"
            )
        if documents(clause.source) and not _correlated(clause.source, group_var):
            raise ClusterMergeError(
                f"LET ${clause.var} reads the document without comparing "
                f"against ${group_var}; its matches need not co-occur with "
                "the group key's slice"
            )
    let_vars = {clause.var for clause in lets}
    if expr.where is not None and (
        documents(expr.where)
        or any(
            isinstance(node, VarRef) and node.name in let_vars
            for node in walk(expr.where)
        )
    ):
        raise ClusterMergeError(
            "WHERE over LET bindings is HAVING-shaped; shards cannot "
            "filter groups locally"
        )
    if not isinstance(expr.ret, ElementConstructor):
        raise ClusterMergeError(
            "group merge needs a constructor RETURN (one row per group)"
        )

    wrappers = [_wrapper(KEY_TAG, VarRef(group_var))]
    built: set[str] = set()
    numbering = itertools.count()

    def leaf_for(inner: Expr) -> TemplateLeaf:
        index = next(numbering)
        if inner == VarRef(group_var):
            return TemplateLeaf("key", (KEY_TAG,))
        kind, shipped, ordering = _classify(inner, group_var)
        if kind == "avg":
            tags = (f"zs{index}", f"zn{index}")
            wrappers.append(_wrapper(tags[0], AggregateCall("sum", shipped.argument)))
            wrappers.append(_wrapper(tags[1], CountCall(shipped.argument)))
        else:
            tags = (f"z{index}",)
            wrappers.append(_wrapper(tags[0], shipped))
        if ordering and isinstance(inner.ret, ElementConstructor):
            built.add(tags[0])
        return TemplateLeaf(kind, tags, ordering)

    template = OutputTemplate.from_constructor(expr.ret, leaf_for)
    shard_expr = FLWR(
        expr.clauses, expr.where, ElementConstructor(ROW_TAG, (), tuple(wrappers))
    )
    return MergePlan(
        "group", document, shard_expr, _ordering(expr.sortby), template, frozenset(built)
    )


def _wrapper(tag: str, expr: Expr) -> ElementConstructor:
    return ElementConstructor(tag, (), (EmbeddedExpr(expr),))


def _classify(inner: Expr, group_var: str) -> tuple[str, Expr, Ordering]:
    """An embedded expression's merge operator, the expression the
    shards ship for it, and (a member list's) SORTBY."""
    if _dedups(inner):
        raise ClusterMergeError(
            "distinct-values inside a RETURN item needs cross-slice dedup"
        )
    reads = documents(inner)
    # Deterministic per group value: depends only on the group variable,
    # never on slice-local data — the winning (earliest) slice's value
    # is the global value.  With no FLWR inside nothing is bound, so
    # every variable it mentions is free.
    if not reads and not any(
        isinstance(node, FLWR) or (isinstance(node, VarRef) and node.name != group_var)
        for node in walk(inner)
    ):
        return "key", inner, ()
    if reads and not _correlated(inner, group_var):
        raise ClusterMergeError(
            f"a RETURN item reads the document without comparing against "
            f"${group_var}; its matches need not co-occur with the group "
            "key's slice"
        )
    if isinstance(inner, CountCall):
        return "count", inner, ()
    if isinstance(inner, AggregateCall):
        return inner.function, inner, ()
    if isinstance(inner, FLWR) and inner.sortby:
        if not _yields_nodes(inner.ret):
            raise ClusterMergeError(
                "SORTBY inside a RETURN item over atomic values cannot be "
                "re-applied after the merge"
            )
        return "members", dataclasses.replace(inner, sortby=()), _ordering(inner.sortby)
    return "members", inner, ()


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
    for node in walk(expr):
        if isinstance(node, Comparison):
            sides = (node.left, node.right)
        elif isinstance(node, StepPredicate):
            sides = (node.right,)
        else:
            continue
        if any(isinstance(side, VarRef) and side.name == group_var for side in sides):
            return True
    return False


def _compile_concat(expr: FLWR, document: str) -> MergePlan:
    if _dedups(expr):
        raise ClusterMergeError(
            "distinct-values outside the grouping FOR needs cross-slice dedup"
        )
    doc_fors = 0
    for position, clause in enumerate(expr.clauses):
        if not documents(clause.source):
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
    if expr.where is not None and documents(expr.where):
        raise ClusterMergeError("WHERE re-reads the document (cross-slice)")
    if documents(expr.ret):
        raise ClusterMergeError(
            "RETURN re-reads the document per row (cross-slice join)"
        )
    return MergePlan(
        "concat",
        document,
        FLWR(expr.clauses, expr.where, expr.ret),
        _ordering(expr.sortby),
    )


# ----------------------------------------------------------------------
# Row merging
# ----------------------------------------------------------------------
def atomize(node: XMLNode) -> str:
    """``Interpreter._atomize`` of a constructed node."""
    return "".join(n.content or "" for n in node.iter())


def _key_value(wrapper: XMLNode) -> str:
    """The value ``distinct-values`` compared: ``<zk>`` holds the group
    variable's one binding, a stored node or an atomic string."""
    if wrapper.children:
        return atomic_value_of(wrapper.children[0])
    return wrapper.content or ""


def merge_rows(plan: MergePlan, slice_rows: list[list[XMLNode]]) -> list[XMLNode]:
    """Combine per-slice row lists (slice order!) into the global rows.

    ``slice_rows[i]`` is slice ``i``'s result rows in shard-local
    order.  Missing slices must already have been handled (partial
    degradation) — this function assumes what it is given is what
    should merge.  Shard rows are consumed: their payload nodes move
    into the merged rows.
    """
    if plan.kind == "concat":
        return [row for rows in slice_rows for row in rows]
    if plan.kind == "scalar-count":
        total = 0
        for rows in slice_rows:
            for row in rows:
                total += int(atomize(row) or "0")
        return [XMLNode("value", str(total))]
    # group: union keys slice-major, then fill the template per group.
    groups: dict[str, list[dict[str, XMLNode]]] = {}
    for rows in slice_rows:
        for row in rows:
            wrappers = {child.tag: child for child in row.children}
            key = wrappers.get(KEY_TAG)
            groups.setdefault(_key_value(key) if key is not None else "", []).append(
                wrappers
            )
    resolve = _resolver(plan)
    return [
        fill_template(plan.template, resolve, rows).build() for rows in groups.values()
    ]


def _resolver(plan: MergePlan):
    """``fill_template``'s ``resolve`` for ``plan``: a leaf's value from
    one group's shard rows (slice-major) by the leaf's merge operator.
    A wrapper's ``content`` is the space-join of that item's string
    values on that shard, so joining contents again yields the
    single-node content.  Payload nodes move into the merged row; only a
    ``<zk>`` that serves several leaves is copied."""
    copy_key = sum(leaf.path == (KEY_TAG,) for leaf in plan.template.leaves()) > 1

    def contents(rows: list[dict[str, XMLNode]], tag: str) -> list[str]:
        return [row[tag].content for row in rows if tag in row and row[tag].content]

    def resolve(leaf: TemplateLeaf, rows: list[dict[str, XMLNode]]):
        tag = leaf.path[0]
        if leaf.kind == "key":
            wrapper = rows[0].get(tag)  # the earliest slice holding the group
            if wrapper is None:
                return None
            if wrapper.content:
                return wrapper.content
            if copy_key and tag == KEY_TAG:
                return [child.deep_copy() for child in wrapper.children]
            return wrapper.children
        if leaf.kind == "members":
            texts = contents(rows, tag)
            if texts:
                return " ".join(texts)
            nodes = [child for row in rows if tag in row for child in row[tag].children]
            if leaf.ordering:
                # A stored node (what a path yields) atomizes to its own
                # content when it has any, the subtree string otherwise.
                value = atomize if tag in plan.built else atomic_value_of
                nodes = apply_sortby(nodes, leaf.ordering, value)
            return nodes
        if leaf.kind == "avg":
            total = sum(float(value) for value in contents(rows, tag))
            count = sum(int(value) for value in contents(rows, leaf.path[1]))
            return render_number(total / count) if count else None
        # count/sum add their partials; min/max combine theirs.
        return aggregate_text(
            "sum" if leaf.kind == "count" else leaf.kind, contents(rows, tag)
        )

    return resolve


# ----------------------------------------------------------------------
# SORTBY over merged rows
# ----------------------------------------------------------------------
def apply_sortby(
    rows: list[XMLNode], ordering: Ordering, value=atomize
) -> list[XMLNode]:
    """The interpreter's SORTBY over merged nodes.  ``value`` atomizes a
    sort node — constructed nodes (merged rows) by default."""

    def value_at(node: XMLNode, path: tuple[str, ...]) -> str:
        nodes = [node]
        if path != (".",):
            for name in path:
                nodes = [child for n in nodes for child in n.findall(name)]
        return value(nodes[0]) if nodes else ""

    return sort_items(rows, ordering, value_at)
