"""Naive parsing: XQuery AST -> join-based TAX logical plan (Sec. 4.1/4.2).

"Unfortunately a parser cannot detect the logical grouping in the XQuery
statement right away.  It will 'naively' try to interpret it as a join."
This module is that first pass.  It recognizes the *grouping query
family* — the queries the paper studies — in both surface forms:

* **nested** (Query 1): outer FOR over ``distinct-values``, RETURN with
  ``{$a}`` and a nested FLWR joining back to the database;
* **unnested** (Query 2): the LET formulation
  (``LET $t := document(..)//article[author = $a]/title``).

Both translate to the *same* naive plan shape — the paper's point in
Sec. 4.2 — and both produce the pattern trees of Fig. 4:

* the **outer pattern tree** (Fig. 4.a): document root ad-edge to the
  grouping element; selection + projection + duplicate elimination;
* the **join-plan pattern tree** (Fig. 4.b): a left outer join between
  the outer result and the database, equating the grouping element's
  content across the sides;
* the **inner projection pattern tree** (Fig. 4.c): the RETURN path.

Grouping is detected from the join-plan pattern; the RETURN constructor
only decides what hangs off each group.  It is therefore taken as
written — attributes, literal text, wrapper elements — into an
:class:`~repro.query.template.OutputTemplate` whose embedded
expressions must all range over the *same* join-plan pattern (same
inner element, join condition and filters): the group key, member
lists, and ``count``/``sum``/``min``/``max``/``avg`` aggregates, in any
number and order.

Queries outside the family raise :class:`TranslationError`; the general
fallback is the direct interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import TranslationError
from ..pattern.pattern import Axis, PatternNode, PatternTree, pcify
from ..pattern.predicates import ContentCompare, ContentEquals, TagEquals, conjoin
from .ast import (
    AggregateCall,
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
    Step,
    VarRef,
    walk,
)
from .plan import (
    PlanNode,
    StitchSpec,
    dupelim,
    left_outer_join,
    project,
    scan,
    select,
    stitch,
)
from .template import Ordering, OutputTemplate, TemplateLeaf


@dataclass(frozen=True)
class GroupingQuery:
    """Normal form of a recognized grouping query."""

    doc: str
    group_tag: str  # the grouping element, e.g. author / institution
    inner_tag: str  # the grouped element, e.g. article
    condition_path: tuple[str, ...]  # path from inner element to the join value
    # The RETURN constructor over the one join-plan pattern above: which
    # projections and aggregates hang off each group.
    template: OutputTemplate
    nested_form: bool  # True for Query-1 style, False for Query-2 style
    # Extra inner-WHERE conjuncts: (path from the inner element, op,
    # literal) filters, e.g. AND $b/year > "1995".  They become value
    # predicates on the selection pattern trees.
    filters: tuple[tuple[tuple[str, ...], str, str], ...] = ()


@dataclass(frozen=True)
class NestedGroupingQuery:
    """Normal form of a recognized 3-level nested grouping query.

    The outer FOR iterates distinct values of ``outer_group_tag``; the
    middle FOR iterates distinct values of ``inner.group_tag`` filtered
    by ``outer_var = $middle/link_path``; the middle RETURN is exactly
    the 2-level grouping family (``inner``), so join-graph isolation can
    collapse the whole query into one single-block grouping plan.
    """

    doc: str
    outer_group_tag: str  # e.g. institution
    link_path: tuple[str, ...]  # middle element -> outer value, e.g. (institution,)
    # The outer constructor: key leaves for the outer variable and one
    # ``groups`` leaf where the middle level's elements go.
    outer_template: OutputTemplate
    inner: GroupingQuery  # the middle/inner 2-level grouping segment


def recognize_any(expr: Expr) -> GroupingQuery | NestedGroupingQuery:
    """Classify an AST by the recognizer its clause shape selects — the
    3-level one when the RETURN embeds a FLWR over ``distinct-values``,
    the 2-level one otherwise — so a refusal names the reason that
    applies to the query as written."""
    if (
        isinstance(expr, FLWR)
        and len(expr.clauses) == 1
        and isinstance(expr.ret, ElementConstructor)
        and any(
            isinstance(node, EmbeddedExpr) and _is_distinct_flwr(node.expr)
            for node in walk(expr.ret)
        )
    ):
        return recognize_nested(expr)
    return recognize(expr)


def _is_distinct_flwr(expr: Expr) -> bool:
    return (
        isinstance(expr, FLWR)
        and bool(expr.clauses)
        and isinstance(expr.clauses[0], ForClause)
        and isinstance(expr.clauses[0].source, DistinctValues)
    )


def recognize(expr: Expr) -> GroupingQuery:
    """Classify an AST as a grouping query or raise TranslationError."""
    if not isinstance(expr, FLWR):
        raise TranslationError("only FLWR expressions are translated")
    if not expr.clauses or not isinstance(expr.clauses[0], ForClause):
        raise TranslationError("expected an outer FOR clause")
    outer = expr.clauses[0]
    doc, group_tag = _parse_distinct_over_document(outer.source)
    if expr.where is not None:
        # An outer filter is outside the Sec. 4.1 family; refusing here
        # (instead of silently dropping the predicate) routes the query
        # to the direct interpreter, which evaluates it correctly.
        raise TranslationError("outer WHERE is not part of the grouping family")

    if len(expr.clauses) == 1:
        return _recognize_nested(expr, outer.var, doc, group_tag)
    if len(expr.clauses) == 2 and isinstance(expr.clauses[1], LetClause):
        return _recognize_unnested(expr, outer.var, doc, group_tag)
    raise TranslationError("unsupported clause structure for grouping translation")


def recognize_nested(expr: Expr) -> NestedGroupingQuery:
    """Classify an AST as a *3-level* nested grouping query.

    The shape (the paper's third Sec. 1 query — E4's family)::

        FOR $i IN distinct-values(document(..)//G1)
        RETURN <outer> {$i} {
          FOR $a IN distinct-values(document(..)//G2)
          WHERE $i = $a/link
          RETURN <middle> {$a} { ...2-level inner FLWR over $a... } </middle>
        } </outer>

    Both constructors are output templates: the outer one may place
    ``{$i}`` and the one middle FLWR anywhere among text, attributes
    and wrapper elements; the middle one is the 2-level family's.
    Raises :class:`TranslationError` outside the family.
    """
    if not isinstance(expr, FLWR):
        raise TranslationError("only FLWR expressions are translated")
    if len(expr.clauses) != 1 or not isinstance(expr.clauses[0], ForClause):
        raise TranslationError("nested grouping needs a single outer FOR clause")
    outer = expr.clauses[0]
    doc, outer_group_tag = _parse_distinct_over_document(outer.source)
    if expr.where is not None:
        raise TranslationError("outer WHERE is not part of the nested grouping family")
    if expr.sortby:
        raise TranslationError("SORTBY on the outer FLWR is not translatable")

    middles: list[FLWR] = []

    def leaf_for(embedded: Expr) -> TemplateLeaf:
        if isinstance(embedded, VarRef) and embedded.name == outer.var:
            return TemplateLeaf("key")
        if not isinstance(embedded, FLWR):
            raise TranslationError(
                "outer RETURN items must be the outer variable or the middle FLWR"
            )
        middles.append(embedded)
        return TemplateLeaf("groups")

    outer_template = OutputTemplate.from_constructor(
        _return_constructor(expr.ret), leaf_for
    )
    if len(middles) != 1:
        raise TranslationError("nested grouping needs exactly one middle FLWR")
    middle = middles[0]
    if len(middle.clauses) != 1 or not isinstance(middle.clauses[0], ForClause):
        raise TranslationError("middle FLWR must have a single FOR clause")
    middle_for = middle.clauses[0]
    middle_doc, middle_group_tag = _parse_distinct_over_document(middle_for.source)
    if middle_doc != doc:
        raise TranslationError("middle FOR must query the same document")
    link_path, middle_filters = _where_parts(middle.where, outer.var, middle_for.var)
    if middle_filters:
        # Middle-level value filters are outside the collapse family;
        # the direct interpreter evaluates them correctly.
        raise TranslationError("middle WHERE filters are not translatable")
    # The middle FLWR's RETURN is exactly the 2-level nested grouping
    # shape with the middle variable as its "outer" variable.
    inner = _recognize_nested(middle, middle_for.var, doc, middle_group_tag)
    return NestedGroupingQuery(
        doc=doc,
        outer_group_tag=outer_group_tag,
        link_path=link_path,
        outer_template=outer_template,
        inner=inner,
    )


def _parse_distinct_over_document(source: Expr) -> tuple[str, str]:
    if not isinstance(source, DistinctValues):
        raise TranslationError("outer FOR must iterate distinct-values(...)")
    path = source.argument
    if (
        not isinstance(path, PathExpr)
        or not isinstance(path.base, DocumentCall)
        or len(path.steps) != 1
        or path.steps[0].axis != "//"
        or path.steps[0].predicate is not None
    ):
        raise TranslationError(
            "outer FOR must iterate distinct-values(document(..)//tag)"
        )
    return path.base.name, path.steps[0].name


def _unwrap_aggregate(expr: Expr) -> tuple[str, Expr]:
    """``(leaf kind, argument)`` of an embedded expression."""
    if isinstance(expr, CountCall):
        return "count", expr.argument
    if isinstance(expr, AggregateCall):
        return expr.function, expr.argument  # sum | min | max | avg
    return "members", expr


def _checked_template(
    constructor: ElementConstructor, leaf_for: Callable[[Expr], TemplateLeaf]
) -> OutputTemplate:
    """A 2-level template, with the whole-constructor conditions."""
    template = OutputTemplate.from_constructor(constructor, leaf_for)
    if not template.member_leaves():
        raise TranslationError(
            "RETURN has no member list or aggregate over the grouped elements"
        )
    return template


def _recognize_nested(expr: FLWR, outer_var: str, doc: str, group_tag: str) -> GroupingQuery:
    if expr.sortby:
        raise TranslationError("SORTBY on the outer FLWR is not translatable")
    # The join-plan pattern each embedded FLWR ranges over: (inner tag,
    # condition path, filters).  One GROUPBY serves one pattern.
    patterns: list[tuple] = []

    def leaf_for(embedded: Expr) -> TemplateLeaf:
        if isinstance(embedded, VarRef) and embedded.name == outer_var:
            return TemplateLeaf("key")
        kind, inner = _unwrap_aggregate(embedded)
        if not isinstance(inner, FLWR):
            raise TranslationError(
                "RETURN items must be the outer variable or a nested FLWR "
                "(optionally under count/sum/min/max/avg)"
            )
        if len(inner.clauses) != 1 or not isinstance(inner.clauses[0], ForClause):
            raise TranslationError("nested FLWR must have a single FOR clause")
        inner_for = inner.clauses[0]
        inner_tag = _document_descendant_tag(inner_for.source, doc)
        condition_path, filters = _where_parts(inner.where, outer_var, inner_for.var)
        pattern = (inner_tag, condition_path, filters)
        if patterns and pattern != patterns[0]:
            raise TranslationError(
                "RETURN items range over different join-plan patterns "
                "(inner element, join condition and filters must agree)"
            )
        patterns.append(pattern)
        path = _relative_path(inner.ret, inner_for.var)
        return TemplateLeaf(kind, path, _ordering_from_sortby(inner, kind))

    template = _checked_template(_return_constructor(expr.ret), leaf_for)
    inner_tag, condition_path, filters = patterns[0]
    return GroupingQuery(
        doc=doc,
        group_tag=group_tag,
        inner_tag=inner_tag,
        condition_path=condition_path,
        template=template,
        nested_form=True,
        filters=filters,
    )


def _ordering_from_sortby(inner: FLWR, kind: str) -> Ordering:
    """The inner SORTBY keys, which sort the returned items themselves."""
    if not inner.sortby:
        return ()
    if kind != "members":
        raise TranslationError("SORTBY is meaningless under an aggregate")
    return tuple((key.path, key.direction) for key in inner.sortby)


def _recognize_unnested(expr: FLWR, outer_var: str, doc: str, group_tag: str) -> GroupingQuery:
    let = expr.clauses[1]
    assert isinstance(let, LetClause)
    source = let.source
    if not isinstance(source, PathExpr) or not isinstance(source.base, DocumentCall):
        raise TranslationError("LET must bind a document path")
    if source.base.name != doc:
        raise TranslationError("LET must query the same document as the outer FOR")
    steps = source.steps
    if not steps or steps[0].axis != "//" or steps[0].predicate is None:
        raise TranslationError(
            "LET path must look like document(..)//tag[path = $var]/..."
        )
    inner_tag = steps[0].name
    predicate = steps[0].predicate
    if predicate.op != "=" or not isinstance(predicate.right, VarRef):
        raise TranslationError("LET predicate must compare a path to the outer var")
    if predicate.right.name != outer_var:
        raise TranslationError("LET predicate must reference the outer variable")
    condition_path = predicate.path
    output_path = tuple(step.name for step in steps[1:])
    for step in steps[1:]:
        if step.axis != "/" or step.predicate is not None:
            raise TranslationError("LET output path must use simple child steps")

    def leaf_for(embedded: Expr) -> TemplateLeaf:
        if isinstance(embedded, VarRef) and embedded.name == outer_var:
            return TemplateLeaf("key")
        kind, argument = _unwrap_aggregate(embedded)
        if not isinstance(argument, VarRef) or argument.name != let.var:
            raise TranslationError(
                "RETURN items must be the outer variable or the LET variable "
                "(optionally under count/sum/min/max/avg)"
            )
        return TemplateLeaf(kind, output_path)

    template = _checked_template(_return_constructor(expr.ret), leaf_for)
    if expr.sortby:
        raise TranslationError("SORTBY on the outer FLWR is not translatable")
    return GroupingQuery(
        doc=doc,
        group_tag=group_tag,
        inner_tag=inner_tag,
        condition_path=condition_path,
        template=template,
        nested_form=False,
    )


def _return_constructor(ret: Expr) -> ElementConstructor:
    if not isinstance(ret, ElementConstructor):
        raise TranslationError("RETURN must construct an element")
    return ret


def _document_descendant_tag(source: Expr, doc: str) -> str:
    if (
        not isinstance(source, PathExpr)
        or not isinstance(source.base, DocumentCall)
        or source.base.name != doc
        or len(source.steps) != 1
        or source.steps[0].axis != "//"
        or source.steps[0].predicate is not None
    ):
        raise TranslationError("inner FOR must iterate document(..)//tag")
    return source.steps[0].name


def _where_parts(
    where: Expr | None, outer_var: str, inner_var: str
) -> tuple[tuple[str, ...], tuple[tuple[tuple[str, ...], str, str], ...]]:
    """Split the inner WHERE into the join condition and value filters.

    Exactly one conjunct must equate the outer variable with a path from
    the inner variable (the join condition); every other conjunct must
    compare an inner-variable path with a string literal and becomes a
    selection filter.
    """
    from .ast import AndExpr, Comparison, StringLiteral

    if isinstance(where, Comparison):
        conjuncts: list[Comparison] = [where]
    elif isinstance(where, AndExpr):
        conjuncts = []
        for part in where.parts:
            if not isinstance(part, Comparison):
                raise TranslationError("inner WHERE conjuncts must be comparisons")
            conjuncts.append(part)
    else:
        raise TranslationError("inner WHERE must be a comparison (or AND of them)")

    condition_path: tuple[str, ...] | None = None
    filters: list[tuple[tuple[str, ...], str, str]] = []
    for comparison in conjuncts:
        left, right = comparison.left, comparison.right
        if comparison.op == "=" and (
            (isinstance(left, VarRef) and left.name == outer_var)
            or (isinstance(right, VarRef) and right.name == outer_var)
        ):
            if condition_path is not None:
                raise TranslationError("inner WHERE references the outer variable twice")
            path_side = right if isinstance(left, VarRef) and left.name == outer_var else left
            if (
                not isinstance(path_side, PathExpr)
                or not isinstance(path_side.base, VarRef)
                or path_side.base.name != inner_var
            ):
                raise TranslationError("inner WHERE must navigate from the inner variable")
            condition_path = tuple(_simple_child_path(path_side.steps))
            continue
        # A value filter: $b/path op "literal" (either orientation).
        if isinstance(right, StringLiteral):
            path_expr, literal, op = left, right.value, comparison.op
        elif isinstance(left, StringLiteral):
            path_expr, literal = right, left.value
            op = _flip_op(comparison.op)
        else:
            raise TranslationError("inner WHERE filters must compare against a literal")
        if (
            not isinstance(path_expr, PathExpr)
            or not isinstance(path_expr.base, VarRef)
            or path_expr.base.name != inner_var
        ):
            raise TranslationError("inner WHERE filters must navigate the inner variable")
        filters.append((tuple(_simple_child_path(path_expr.steps)), op, literal))

    if condition_path is None:
        raise TranslationError("inner WHERE must compare against the outer variable")
    return condition_path, tuple(filters)


def _flip_op(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)


def _relative_path(ret: Expr, inner_var: str) -> tuple[str, ...]:
    if (
        not isinstance(ret, PathExpr)
        or not isinstance(ret.base, VarRef)
        or ret.base.name != inner_var
    ):
        raise TranslationError("inner RETURN must navigate from the inner variable")
    return tuple(_simple_child_path(ret.steps))


def _simple_child_path(steps: tuple[Step, ...]) -> list[str]:
    names = []
    for step in steps:
        if step.axis != "/":
            raise TranslationError("relative paths must use simple child steps")
        if step.predicate is not None:
            raise TranslationError("relative paths must not carry predicates")
        names.append(step.name)
    if not names:
        raise TranslationError("relative path must have at least one step")
    return names


# ----------------------------------------------------------------------
# Pattern construction (Fig. 4)
# ----------------------------------------------------------------------
ROOT_LABEL = "$1"
OUTER_GROUP_LABEL = "$2"
RIGHT_ROOT_LABEL = "$4"
INNER_LABEL = "$5"
JOIN_VALUE_LABEL = "$6"


def outer_pattern(root_tag: str, group_tag: str) -> PatternTree:
    """Fig. 4.a: ``$1[doc_root] --ad--> $2[group_tag]``."""
    root = PatternNode(ROOT_LABEL, TagEquals(root_tag))
    root.add(OUTER_GROUP_LABEL, TagEquals(group_tag), Axis.AD)
    return PatternTree(root)


def join_right_pattern(
    root_tag: str,
    inner_tag: str,
    condition_path: tuple[str, ...],
    filters: tuple[tuple[tuple[str, ...], str, str], ...] = (),
) -> PatternTree:
    """The right ("inner") side of Fig. 4.b.

    ``$4[doc_root] --ad--> $5[inner_tag] --pc--> ... --pc--> $6[value]``
    with intermediate path elements labelled ``$5a``, ``$5b``, ...
    Inner-WHERE filters add further pc chains under the inner element
    whose leaf predicates carry the value conditions.
    """
    root = PatternNode(RIGHT_ROOT_LABEL, TagEquals(root_tag))
    inner = root.add(INNER_LABEL, TagEquals(inner_tag), Axis.AD)
    current = inner
    for index, name in enumerate(condition_path):
        is_last = index == len(condition_path) - 1
        label = JOIN_VALUE_LABEL if is_last else f"{INNER_LABEL}{chr(ord('a') + index)}"
        current = current.add(label, TagEquals(name), Axis.PC)
    attach_filter_chains(inner, filters)
    return PatternTree(root)


def attach_filter_chains(
    inner: PatternNode, filters: tuple[tuple[tuple[str, ...], str, str], ...]
) -> None:
    """Add one pc chain per filter under ``inner``; the leaf predicate
    conjoins the tag test with the value condition."""
    for filter_index, (path, op, literal) in enumerate(filters):
        current = inner
        for step_index, name in enumerate(path):
            is_last = step_index == len(path) - 1
            label = (
                f"$f{filter_index}"
                if is_last
                else f"$f{filter_index}{chr(ord('a') + step_index)}"
            )
            if is_last:
                value_predicate = (
                    ContentEquals(literal) if op == "=" else ContentCompare(op, literal)
                )
                predicate = conjoin(TagEquals(name), value_predicate)
            else:
                predicate = TagEquals(name)
            current = current.add(label, predicate, Axis.PC)


def naive_plan(query: GroupingQuery, root_tag: str) -> PlanNode:
    """Build the naive (join-based) logical plan of Sec. 4.1.

    ``root_tag`` is the tag of the stored document's root element
    (catalog information; ``doc_root`` in the paper's figures).
    """
    p_outer = outer_pattern(root_tag, query.group_tag)
    database = scan(query.doc)

    # Step 1: outer selection, projection, duplicate elimination.  The
    # projection reuses the selection's pattern with ad edges turned pc
    # (footnote 7 of the paper).
    selected = select(database, p_outer, {OUTER_GROUP_LABEL})
    p_outer_pc = pcify(p_outer)
    projected = project(
        selected, p_outer_pc, [ROOT_LABEL, OUTER_GROUP_LABEL + "*"]
    )
    distinct = dupelim(projected, p_outer_pc, OUTER_GROUP_LABEL)

    # Step 2a: the join-plan pattern tree (left outer join with the DB).
    p_left = outer_pattern(root_tag, query.group_tag)
    p_right = join_right_pattern(
        root_tag, query.inner_tag, query.condition_path, query.filters
    )
    joined = left_outer_join(
        distinct,
        database,
        p_left,
        p_right,
        conditions=[(OUTER_GROUP_LABEL, JOIN_VALUE_LABEL)],
        # Both the article and the grouping element keep their entire
        # subtrees: ``{$a}`` returns the author node with everything
        # below it (institutions etc.), matching Fig. 5.d's ``$4*``.
        sl={INNER_LABEL, OUTER_GROUP_LABEL},
    )
    # "Following this join operation there will be a projection with
    # projection list $5* and then a duplicate elimination based on
    # articles" — realized as an identity-keyed duplicate elimination
    # over the joined pair trees: repeated (author, article) pairs merge,
    # but two distinct lookalike articles never do.
    deduped = dupelim(joined, by_nids=True)

    # Step 2b + stitching: RETURN-argument processing per outer binding.
    spec = StitchSpec(
        template=query.template,
        outer_label=OUTER_GROUP_LABEL,
        inner_label=INNER_LABEL,
    )
    return stitch(deduped, spec)


def translate(expr: Expr, root_tag: str) -> tuple[GroupingQuery, PlanNode]:
    """Recognize and naively translate; returns the normal form and plan."""
    query = recognize(expr)
    return query, naive_plan(query, root_tag)
