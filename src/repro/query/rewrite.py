"""The grouping rewrite (Sec. 4.1): detect a join-shaped grouping plan
and replace it with a single-block GROUPBY plan.

**Phase 1 — detection.**  The plan must contain

1. a left outer join applied to the outcome of a previous selection
   (over the database) and the database itself, and
2. a left ("outer") join-plan pattern that is a *tree subset* of the
   right ("inner") pattern — checked with
   :meth:`~repro.pattern.pattern.PatternTree.is_tree_subset_of`, which
   implements the transitive-closure edge test with ``pc ⊆ ad`` marks.

**Phase 2 — rewrite** (the six steps of Sec. 4.1):

1. an initial pattern tree from the right subtree of the join plan
   (Fig. 5.a) drives a selection + projection producing the collection
   of inner (article) trees, entire subtrees kept (Fig. 9);
2. the GROUPBY input pattern tree (Fig. 5.b) is the subtree of the
   inner pattern rooted at the grouped element; the grouping basis is
   the join value ($2.content).  The ordering list stays empty: an inner
   SORTBY sorts the items the final projection emits (one member may
   emit several), so it rides on its RETURN template leaf;
3. GROUPBY is applied, producing the intermediate group trees (Fig. 10);
4. a final projection extracts the output nodes (Fig. 5.d) — fused here
   with the construction of the RETURN element;
5. the rename to the RETURN tag is part of that same construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import RewriteError
from ..pattern.pattern import Axis, PatternNode, PatternTree, pcify
from ..pattern.predicates import TagEquals
from .plan import (
    NestedGroupSpec,
    PlanNode,
    StitchSpec,
    dupelim,
    groupby,
    nested_groups,
    project,
    project_groups,
    scan,
    select,
)
from .translate import (
    INNER_LABEL,
    JOIN_VALUE_LABEL,
    OUTER_GROUP_LABEL,
    ROOT_LABEL,
    GroupingQuery,
    NestedGroupingQuery,
    attach_filter_chains,
    naive_plan,
    outer_pattern,
    recognize_any,
)


@dataclass(frozen=True)
class DetectedGrouping:
    """Everything Phase 1 learned about the joined grouping plan."""

    doc: str
    root_tag: str
    inner_tag: str
    condition_path: tuple[str, ...]
    stitch_spec: StitchSpec
    subset_mapping: dict[str, str]
    # Filter chains (inner-WHERE value conditions): the chain-head
    # pattern nodes hanging off the inner element, carried over to the
    # Phase-2 selection pattern.
    filter_chains: tuple[PatternNode, ...] = ()


def detect(plan: PlanNode) -> DetectedGrouping:
    """Phase 1.  Raises :class:`RewriteError` when the plan is not a
    grouping plan."""
    if plan.op != "stitch":
        raise RewriteError("plan root is not a stitch (RETURN processing)")
    stitch_spec: StitchSpec = plan.params["spec"]

    joins = plan.find("left_outer_join")
    if len(joins) != 1:
        raise RewriteError("expected exactly one left outer join in the plan")
    join = joins[0]

    # Condition 1: the join's right input is the database, and its left
    # input derives from a selection over the same database.
    right_input = join.inputs[1]
    if right_input.op != "scan":
        raise RewriteError("join right input is not the database")
    doc = right_input.params["doc"]
    left_scans = join.inputs[0].find("scan")
    left_selects = join.inputs[0].find("select")
    if not left_selects or not any(node.params["doc"] == doc for node in left_scans):
        raise RewriteError("join left input is not a selection over the database")

    # Condition 2: the outer pattern is a tree subset of the inner one.
    left_pattern: PatternTree = join.params["left_pattern"]
    right_pattern: PatternTree = join.params["right_pattern"]
    mapping = left_pattern.is_tree_subset_of(right_pattern)
    if mapping is None:
        raise RewriteError("outer pattern is not a tree subset of the inner pattern")

    root_tag = _required_tag(right_pattern.root)
    inner_node = right_pattern.node(INNER_LABEL)
    inner_tag = _required_tag(inner_node)
    condition_path = _chain_tags(inner_node)
    filter_chains = tuple(
        child for child in inner_node.children if child.label.startswith("$f")
    )
    return DetectedGrouping(
        doc=doc,
        root_tag=root_tag,
        inner_tag=inner_tag,
        condition_path=condition_path,
        stitch_spec=stitch_spec,
        subset_mapping=mapping,
        filter_chains=filter_chains,
    )


def _required_tag(node: PatternNode) -> str:
    tag = node.predicate.tag_constraint()
    if tag is None:
        raise RewriteError(f"pattern node {node.label} has no tag constraint")
    return tag


def _chain_tags(inner_node: PatternNode) -> tuple[str, ...]:
    """Tags along the pc chain from the inner element to the join value.

    The inner element may carry several chains (filters use ``$f...``
    labels); the condition chain is the one ending at the join-value
    label."""
    tags: list[str] = []
    current = inner_node
    while current.children:
        next_nodes = [
            child
            for child in current.children
            if child.label == JOIN_VALUE_LABEL or child.label.startswith(INNER_LABEL)
        ]
        if not next_nodes:
            break
        if len(next_nodes) != 1:
            raise RewriteError("ambiguous join-value chain in the inner pattern")
        current = next_nodes[0]
        tags.append(_required_tag(current))
    if not tags or current.label != JOIN_VALUE_LABEL:
        raise RewriteError("inner pattern has no join-value chain")
    return tuple(tags)


# ----------------------------------------------------------------------
# Phase 2
# ----------------------------------------------------------------------
SELECT_ROOT = "$1"
SELECT_INNER = "$2"
GROUP_ROOT = "$1"
GROUP_VALUE = "$2"


def initial_pattern(
    root_tag: str,
    inner_tag: str,
    filter_chains: tuple[PatternNode, ...] = (),
) -> PatternTree:
    """Fig. 5.a: ``$1[doc_root] --pc--> $2[article]``.

    The paper's footnote: when a projection follows a selection with the
    same pattern, ad edges become pc; the figure draws pc directly.  We
    keep ad so grouped elements need not be root children — behaviour is
    identical on the paper's data where articles sit under the root.

    Inner-WHERE value filters migrate here: their chains hang off the
    inner element, so the selection already excludes non-qualifying
    members.
    """
    root = PatternNode(SELECT_ROOT, TagEquals(root_tag))
    inner = root.add(SELECT_INNER, TagEquals(inner_tag), Axis.AD)
    for chain in filter_chains:
        inner.add_child(_copy_chain(chain), chain.axis or Axis.PC)
    return PatternTree(root)


def _copy_chain(node: PatternNode) -> PatternNode:
    clone = PatternNode(node.label, node.predicate)
    for child in node.children:
        clone.add_child(_copy_chain(child), child.axis or Axis.PC)
    return clone


def groupby_pattern(
    inner_tag: str,
    condition_path: tuple[str, ...],
) -> PatternTree:
    """Fig. 5.b: the grouped element with the pc chain to the join value.

    SORTBY values are *not* pattern chains: a required chain would
    exclude members lacking the sort path (e.g. an article with no
    ``year`` under ``SORTBY($b/year)``) and silently drop their groups.
    The sorted template leaf resolves them by navigation from each
    emitted item — missing paths sort as the empty string, matching the
    direct interpreter.
    """
    root = PatternNode(GROUP_ROOT, TagEquals(inner_tag))
    current = root
    for index, name in enumerate(condition_path):
        is_last = index == len(condition_path) - 1
        label = GROUP_VALUE if is_last else f"$1{chr(ord('a') + index)}"
        current = current.add(label, TagEquals(name), Axis.PC)
    return PatternTree(root)


def grouping_segment(
    doc: str,
    root_tag: str,
    inner_tag: str,
    condition_path: tuple[str, ...],
    filter_chains: tuple[PatternNode, ...],
) -> PlanNode:
    """Phase-2 steps 1–3: select + project the inner elements, then
    GROUPBY on the join value.  Shared by the 2-level rewrite and the
    3-level collapse."""
    database = scan(doc)
    p_initial = initial_pattern(root_tag, inner_tag, filter_chains)
    selected = select(database, p_initial, {SELECT_INNER})
    # Footnote 7: the projection over the selection's output uses the
    # pc-ified pattern.
    projected = project(selected, pcify(p_initial), [SELECT_INNER + "*"])

    p_group = groupby_pattern(inner_tag, condition_path)
    # The basis is starred: the final projection (Fig. 5.d) lists the
    # grouping element as ``$4*`` — its whole subtree appears in the
    # output, exactly what ``{$a}`` returns.
    return groupby(projected, p_group, basis=[GROUP_VALUE + "*"])


def rewrite(plan: PlanNode) -> PlanNode:
    """Phase 1 + Phase 2: return the GROUPBY plan for a grouping plan."""
    detected = detect(plan)
    template = detected.stitch_spec.template

    grouped = grouping_segment(
        detected.doc,
        detected.root_tag,
        detected.inner_tag,
        detected.condition_path,
        detected.filter_chains,
    )
    # Steps 4–5: one GROUPBY feeds every leaf of the RETURN template.
    result = project_groups(grouped, template)
    if detected.filter_chains:
        # With inner-WHERE filters a grouping value can lose *all* its
        # members; the outer FOR still produces it (the left outer join
        # pads in the naive plan).  Keep the naive plan's outer distinct
        # subplan as a second input: the final projection emits an empty
        # group per orphaned value.
        outer_subplan = plan.find("left_outer_join")[0].inputs[0]
        result.inputs.append(outer_subplan)
    return result


# ----------------------------------------------------------------------
# Join-graph isolation: the 3-level collapse
# ----------------------------------------------------------------------
def distinct_segment(doc: str, root_tag: str, group_tag: str) -> PlanNode:
    """Distinct values of a grouping element: select + project +
    duplicate elimination — the naive plan's step 1, reused as an
    isolated join-graph block."""
    pattern = outer_pattern(root_tag, group_tag)
    selected = select(scan(doc), pattern, {OUTER_GROUP_LABEL})
    pattern_pc = pcify(pattern)
    projected = project(selected, pattern_pc, [ROOT_LABEL, OUTER_GROUP_LABEL + "*"])
    return dupelim(projected, pattern_pc, OUTER_GROUP_LABEL)


def collapse_nested(query: NestedGroupingQuery, root_tag: str) -> PlanNode:
    """Collapse a 3-level nested FLWR into one single-block grouping
    plan (join-graph isolation, after Brantner et al.'s unnesting).

    The three correlated FLWR blocks become three *independent* blocks
    over the database — outer distinct values, middle distinct values,
    and the grouped inner collection — glued by ``nested_groups``, which
    re-correlates them with value lookups instead of per-binding
    re-evaluation.  Nested-loop cost collapses from
    ``|G1| x |G2| x |inner|`` to one pass over each block.
    """
    inner = query.inner
    outer = distinct_segment(query.doc, root_tag, query.outer_group_tag)
    middle = distinct_segment(query.doc, root_tag, inner.group_tag)
    grouped = grouping_segment(
        query.doc,
        root_tag,
        inner.inner_tag,
        inner.condition_path,
        _filter_chains_for(inner),
    )
    spec = NestedGroupSpec(
        outer=query.outer_template,
        middle=inner.template,
        link_path=query.link_path,
    )
    return nested_groups(outer, middle, grouped, spec)


def _filter_chains_for(query: GroupingQuery) -> tuple[PatternNode, ...]:
    """Build the ``$f...`` filter chains for a GroupingQuery's inner
    WHERE filters (the 2-level path gets them from the naive pattern;
    the collapse builds them directly)."""
    if not query.filters:
        return ()
    holder = PatternNode("$tmp", TagEquals(query.inner_tag))
    attach_filter_chains(holder, query.filters)
    return tuple(holder.children)


def candidate_plans(expr, root_tag: str) -> tuple[PlanNode | None, PlanNode]:
    """The naive join plan and the GROUPBY plan for a query AST.

    A 3-level nested FLWR has no single naive join plan — join-graph
    isolation collapses the nesting directly into a grouping plan — so
    its first element is ``None``.  Raises
    :class:`~repro.errors.TranslationError`, with the reason of the
    recognizer the query's clause shape selects, outside the family.
    """
    query = recognize_any(expr)
    if isinstance(query, NestedGroupingQuery):
        return None, collapse_nested(query, root_tag)
    naive = naive_plan(query, root_tag)
    return naive, rewrite(naive)
