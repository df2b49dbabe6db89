"""Logical plan execution with the in-memory TAX operators.

This executor interprets a :class:`~repro.query.plan.PlanNode` tree with
the reference operators of :mod:`repro.core` over fully materialized
collections.  It is the semantics oracle: the physical executor must
produce structurally identical results, and the integration tests check
that on every supported query.

Construction conventions (``stitch`` / ``project_groups``) rely on the
witness-tree shapes produced by the naive plan's join and the groupby
operator respectively; see the inline notes.
"""

from __future__ import annotations

from ..core.base import atomic_value_of
from ..core.construct import members_of
from ..core.duplicates import DuplicateElimination
from ..core.groupby import GroupBy
from ..core.join import Join, JoinKind
from ..core.projection import Projection
from ..core.rename import RenameRoot
from ..core.selection import Selection
from ..errors import TranslationError
from ..indexing.manager import IndexManager
from ..storage.store import NodeStore
from ..xmlmodel.node import XMLNode
from ..xmlmodel.tree import Collection, DataTree
from .plan import NestedGroupSpec, PlanNode, StitchSpec
from .template import (
    OutputTemplate,
    TemplateLeaf,
    aggregate_text,
    fill_template,
    sort_items,
)


class LogicalExecutor:
    """Run logical plans over in-memory collections."""

    def __init__(self, store: NodeStore, indexes: IndexManager | None = None):
        self.store = store
        self._documents: dict[str, Collection] = {}
        self.profiler = None

    def enable_profiling(self):
        """Wrap every operator in a timed span; returns the profiler.

        The logical executor materializes full trees, so its spans are
        dominated by ``nodes_materialized`` and value lookups — the
        contrast with the physical executor's identifier-only spans is
        the point of profiling it at all.
        """
        from ..observability import Profiler, snapshot_counters

        self.profiler = Profiler(lambda: snapshot_counters(self.store))
        return self.profiler

    # ------------------------------------------------------------------
    def execute(self, plan: PlanNode) -> Collection:
        handler = getattr(self, f"_exec_{plan.op}", None)
        if handler is None:
            raise TranslationError(f"logical executor: unsupported op {plan.op!r}")
        if self.profiler is None:
            return handler(plan)
        detail = plan.describe()[len(plan.op) :].strip()
        with self.profiler.operator(plan.op, detail) as span:
            result = handler(plan)
            span.output_rows = len(result)
        return result

    # ------------------------------------------------------------------
    # Leaf
    # ------------------------------------------------------------------
    def _exec_scan(self, plan: PlanNode) -> Collection:
        doc = plan.params["doc"]
        cached = self._documents.get(doc)
        if cached is None:
            info = self.store.document(doc)
            root = self.store.materialize(info.root_nid, with_content=True)
            cached = Collection([DataTree(root, doc_id=info.doc_id)], name=doc)
            self._documents[doc] = cached
        return cached

    # ------------------------------------------------------------------
    # Straight TAX operators
    # ------------------------------------------------------------------
    def _exec_select(self, plan: PlanNode) -> Collection:
        operator = Selection(plan.params["pattern"], plan.params["sl"])
        return operator.apply(self.execute(plan.child))

    def _exec_project(self, plan: PlanNode) -> Collection:
        operator = Projection(plan.params["pattern"], plan.params["pl"])
        return operator.apply(self.execute(plan.child))

    def _exec_dupelim(self, plan: PlanNode) -> Collection:
        operator = DuplicateElimination(
            plan.params["pattern"],
            plan.params["label"],
            by_nids=plan.params.get("by_nids", False),
        )
        return operator.apply(self.execute(plan.child))

    def _exec_left_outer_join(self, plan: PlanNode) -> Collection:
        operator = Join(
            plan.params["left_pattern"],
            plan.params["right_pattern"],
            plan.params["conditions"],
            JoinKind.LEFT_OUTER,
            plan.params["sl"],
        )
        left = self.execute(plan.inputs[0])
        right = self.execute(plan.inputs[1])
        return operator.apply(left, right)

    def _exec_groupby(self, plan: PlanNode) -> Collection:
        # SORTBY is applied where the members are projected
        # (``_build_return_element``): a sorted member list sorts the
        # items it emits.
        operator = GroupBy(plan.params["pattern"], plan.params["basis"])
        return operator.apply(self.execute(plan.child))

    def _exec_rename_root(self, plan: PlanNode) -> Collection:
        return RenameRoot(plan.params["tag"]).apply(self.execute(plan.child))

    def _exec_aggregate(self, plan: PlanNode) -> Collection:
        from ..core.aggregation import Aggregation

        operator = Aggregation(
            plan.params["pattern"],
            plan.params["function"],
            plan.params["source_label"],
            plan.params["new_tag"],
            plan.params["update"],
        )
        return operator.apply(self.execute(plan.child))

    # ------------------------------------------------------------------
    # Construction steps
    # ------------------------------------------------------------------
    def _exec_stitch(self, plan: PlanNode) -> Collection:
        """RETURN processing over joined pair trees.

        Input trees are ``tax_prod_root`` pairs: the first child is the
        left witness (document-root copy over the grouping element's
        subtree), the second — when the pair is not outer-padded — the
        right witness (document-root copy over the grouped element's
        subtree).
        """
        spec: StitchSpec = plan.params["spec"]
        joined = self.execute(plan.child)

        order: list[str] = []
        groups: dict[str, list[XMLNode | None]] = {}
        group_nodes: dict[str, XMLNode] = {}
        for tree in joined:
            children = tree.root.children
            if not children:
                raise TranslationError("stitch: malformed join output")
            left_witness = children[0]
            group_node = _single_child(left_witness, "stitch: left witness")
            value = atomic_value_of(group_node)
            if value not in groups:
                groups[value] = []
                order.append(value)
                group_nodes[value] = group_node
            if len(children) > 1:
                right_witness = children[1]
                member = _single_child(right_witness, "stitch: right witness")
                groups[value].append(member)

        output = Collection(name="stitch")
        for value in order:
            members = [m for m in groups[value] if m is not None]
            output.append(
                DataTree(
                    _build_return_element(spec.template, group_nodes[value], members)
                )
            )
        return output

    def _exec_project_groups(self, plan: PlanNode) -> Collection:
        """The final projection of the rewritten plan (Fig. 5.d), fused
        with RETURN-element construction.

        Input trees are ``tax_group_root`` trees: first child the
        grouping basis, second the group subroot with the member source
        trees.
        """
        template: OutputTemplate = plan.params["template"]
        grouped = self.execute(plan.inputs[0])
        if len(plan.inputs) == 2:
            return self._project_groups_padded(template, grouped, plan.inputs[1])
        output = Collection(name="project-groups")
        for tree in grouped:
            children = tree.root.children
            if len(children) != 2:
                raise TranslationError("project_groups: malformed group tree")
            basis = children[0]
            if not basis.children:
                raise TranslationError("project_groups: empty grouping basis")
            output.append(
                DataTree(
                    _build_return_element(
                        template, basis.children[0], _distinct_members(tree)
                    )
                )
            )
        return output

    def _exec_nested_groups(self, plan: PlanNode) -> Collection:
        """Join-graph isolation over materialized collections: the three
        isolated blocks re-correlated by value lookups."""
        spec: NestedGroupSpec = plan.params["spec"]
        outer = self.execute(plan.inputs[0])
        middle = self.execute(plan.inputs[1])
        grouped = self.execute(plan.inputs[2])

        members_by_value: dict[str, list[XMLNode]] = {}
        for tree in grouped:
            basis = tree.root.children[0]
            members_by_value[atomic_value_of(basis.children[0])] = _distinct_members(tree)

        # The middle representatives with their link values, populated
        # once each (the representative is the first occurrence of the
        # distinct value — the node the middle FOR binds).
        middle_entries: list[tuple[XMLNode, str, set[str]]] = []
        for tree in middle:
            node = _single_child(tree.root, "nested_groups middle")
            link_values = {
                atomic_value_of(target) for target in _navigate(node, spec.link_path)
            }
            middle_entries.append((node, atomic_value_of(node), link_values))

        def resolve_outer(leaf: TemplateLeaf, outer_node: XMLNode):
            if leaf.kind == "key":
                return [outer_node.deep_copy()]
            outer_value = atomic_value_of(outer_node)
            return [
                _build_return_element(
                    spec.middle, middle_node, members_by_value.get(middle_value, [])
                )
                for middle_node, middle_value, link_values in middle_entries
                if outer_value in link_values
            ]

        output = Collection(name="nested-groups")
        for tree in outer:
            outer_node = _single_child(tree.root, "nested_groups outer")
            output.append(
                DataTree(fill_template(spec.outer, resolve_outer, outer_node).build())
            )
        return output

    def _project_groups_padded(
        self, template: OutputTemplate, grouped: Collection, outer_plan: PlanNode
    ) -> Collection:
        """Emit one element per *outer* distinct value: the group output
        when a group exists, an empty group otherwise (filters can
        orphan values; the outer FOR still yields them)."""
        by_value: dict[str, list[XMLNode]] = {}
        for tree in grouped:
            basis = tree.root.children[0]
            by_value[atomic_value_of(basis.children[0])] = _distinct_members(tree)

        output = Collection(name="project-groups")
        for outer_tree in self.execute(outer_plan):
            outer_node = _single_child(outer_tree.root, "project_groups padding")
            value = atomic_value_of(outer_node)
            # The rep is always the outer distinct occurrence — the
            # group exemplar ranges only over the filtered witnesses.
            built = _build_return_element(template, outer_node, by_value.get(value, []))
            output.append(DataTree(built))
        return output


# ----------------------------------------------------------------------
# Shared construction helpers
# ----------------------------------------------------------------------
def _single_child(node: XMLNode, context: str) -> XMLNode:
    if len(node.children) != 1:
        raise TranslationError(f"{context}: expected exactly one child")
    return node.children[0]


def _distinct_members(group_tree: DataTree) -> list[XMLNode]:
    """A group's member source trees with duplicates dropped — the
    migrated "duplicate elimination based on articles" of the naive
    plan."""
    return [member.root for member in members_of(group_tree)]


def _build_return_element(
    template: OutputTemplate, group_node: XMLNode, members: list[XMLNode]
) -> XMLNode:
    """The RETURN element of one group: the template filled with the
    group node, member-path nodes and aggregates.

    The shape matches the direct interpreter's constructor output, so
    every engine produces structurally identical results.  ``count``
    counts the output-path nodes reached across members (an article
    without a title contributes nothing — XQuery ``count($t)``
    semantics); the numeric aggregates apply to those nodes' values.
    ``members`` arrive in document order; a sorted member list sorts
    the items it emits.
    """
    return fill_template(template, _resolve_leaf, (group_node, members)).build()


def _resolve_leaf(leaf: TemplateLeaf, group: tuple[XMLNode, list[XMLNode]]):
    """One leaf of one group's RETURN element, over built trees."""
    group_node, members = group
    if leaf.kind == "key":
        return [group_node.deep_copy()]
    reached = [target for member in members for target in _navigate(member, leaf.path)]
    if leaf.kind == "members":
        return [
            target.deep_copy() for target in sort_items(reached, leaf.ordering, _value_at)
        ]
    if leaf.kind == "count":
        return aggregate_text("count", reached)
    return aggregate_text(leaf.kind, [atomic_value_of(node) for node in reached])


def _navigate(node: XMLNode, path: tuple[str, ...]) -> list[XMLNode]:
    frontier = [node]
    for name in path:
        frontier = [child for parent in frontier for child in parent.findall(name)]
    return frontier


def _value_at(node: XMLNode, path: tuple[str, ...]) -> str:
    """A SORTBY key: the first node ``path`` reaches, atomized."""
    nodes = [node] if path == (".",) else _navigate(node, path)
    return atomic_value_of(nodes[0]) if nodes else ""
