"""Physical plan execution against the node store (Sec. 5 of the paper).

Where the logical executor materializes full trees, this executor keeps
everything as node identifiers until output:

* **selection** — pattern matching via index candidate streams +
  structural joins; witnesses are tuples of node labels, no data pages
  touched (Sec. 5.2);
* **projection** — deferred: the projection list travels with the
  witness set and only drives what gets materialized at the end;
* **duplicate elimination / grouping** — values are populated *only*
  for the grouping (and sorting) basis; "the sorting is performed with
  minimum information — only a witness tree identifier in addition to
  the actual sort key" (Sec. 5.3);
* **left outer join** — the naive plan's nested-loops value join; its
  cost is the paper's baseline cost;
* **construction** — the final step populates exactly the values the
  output needs (titles, or nothing at all for COUNT).  The GROUPBY
  plan reaches the output path of every member in one label-only
  descent and populates the whole result in one page-ordered fetch;
  the naive plan navigates and materializes tuple at a time.

The grouping step supports three strategies for ablation A2:

* ``sort`` — the paper's implementation (identifier sort on basis keys);
* ``hash`` — hash grouping on basis keys (also identifier-only);
* ``replicate`` — the strawman of Sec. 5.3: replicate and materialize
  each source tree once per witness *before* grouping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..cancellation import checkpoint
from ..core.base import atomic_value_of
from ..errors import TranslationError
from ..indexing.labels import NodeLabel
from ..indexing.manager import IndexManager
from ..pattern.matcher import StoreMatcher
from ..pattern.pattern import PatternTree
from ..pattern.witness import StoreMatch
from ..storage.store import NodeStore
from ..xmlmodel.node import XMLNode
from ..xmlmodel.tree import Collection, DataTree
from .physical_join_support import descend_path
from .plan import NestedGroupSpec, PlanNode, StitchSpec
from .template import (
    Ordering,
    OutputShell,
    OutputTemplate,
    TemplateLeaf,
    aggregate_text,
    fill_template,
    sort_items,
)


@dataclass
class DatabaseRef:
    """Marker value produced by ``scan``: the stored document itself."""

    doc: str


@dataclass
class WitnessSet:
    """Identifier-only result of a physical selection (+ projection)."""

    pattern: PatternTree
    matches: list[StoreMatch]
    selection_list: frozenset[str] = frozenset()
    projection_list: tuple[str, ...] = ()


@dataclass
class JoinedSet:
    """Result of the naive plan's left outer join.

    ``pairs`` holds ``(left_match, right_match_or_None)`` in left-major
    order; padded entries carry ``None`` on the right.
    """

    left_pattern: PatternTree
    right_pattern: PatternTree
    left_label: str
    right_label: str
    pairs: list[tuple[StoreMatch, StoreMatch | None]] = field(default_factory=list)


@dataclass
class GroupedSet:
    """Identifier-only groups: basis value -> member witnesses."""

    pattern: PatternTree
    basis_label: str
    groups: list[tuple[str, StoreMatch, list[StoreMatch]]] = field(default_factory=list)
    # (value, exemplar witness for the basis node, ordered members)


class PhysicalExecutor:
    """Run logical plans with store-backed physical operators."""

    def __init__(
        self,
        store: NodeStore,
        indexes: IndexManager,
        grouping_strategy: str = "sort",
        use_indexes: bool = True,
        join_strategy: str = "nested-loop",
        columnar: bool = True,
    ):
        """``join_strategy`` picks the naive plan's join implementation:

        * ``nested-loop`` — the paper's words: "a nested loops evaluation
          plan obtained through a direct implementation of the ...
          XQuery expression as written"; the inner value is re-fetched
          through the store on every probe (quadratic);
        * ``value-hash`` — the amortized reading of Sec. 6's description
          ("eliminate duplicates ... and perform the requisite join"):
          one value lookup per pair, then a hash join.

        The paper's measured ratios sit between these two baselines; the
        benchmarks report both.
        """
        if grouping_strategy not in ("sort", "hash", "replicate", "value-index"):
            raise TranslationError(f"unknown grouping strategy {grouping_strategy!r}")
        if join_strategy not in ("nested-loop", "value-hash"):
            raise TranslationError(f"unknown join strategy {join_strategy!r}")
        self.store = store
        self.indexes = indexes
        self.grouping_strategy = grouping_strategy
        self.join_strategy = join_strategy
        self.matcher = StoreMatcher(store, indexes, use_indexes=use_indexes)
        if columnar and use_indexes:
            # The columnar strategy: staircase merges over the node
            # table for this store generation (built lazily, cached on
            # the index manager).  ``use_indexes=False`` keeps the A1
            # full-scan ablation an honest object walk.
            self.matcher.columnar = indexes.ensure_columnar()
        self.profiler = None

    def enable_profiling(self):
        """Wrap every operator in a timed span; returns the profiler."""
        from ..observability import Profiler, snapshot_counters

        self.profiler = Profiler(
            lambda: snapshot_counters(self.store, self.indexes, self.matcher)
        )
        return self.profiler

    # ------------------------------------------------------------------
    def execute(self, plan: PlanNode) -> Collection:
        result = self._run(plan)
        if not isinstance(result, Collection):
            raise TranslationError(
                f"plan root {plan.op!r} does not produce a collection"
            )
        return result

    def _run(self, plan: PlanNode):
        handler = getattr(self, f"_exec_{plan.op}", None)
        if handler is None:
            raise TranslationError(f"physical executor: unsupported op {plan.op!r}")
        if self.profiler is None:
            return handler(plan)
        from ..observability import result_cardinality

        detail = plan.describe()[len(plan.op) :].strip()
        with self.profiler.operator(plan.op, detail) as span:
            result = handler(plan)
            span.output_rows = result_cardinality(result)
        return result

    # ------------------------------------------------------------------
    # Scan / select / project
    # ------------------------------------------------------------------
    def _exec_scan(self, plan: PlanNode) -> DatabaseRef:
        return DatabaseRef(plan.params["doc"])

    def _exec_select(self, plan: PlanNode) -> WitnessSet:
        source = self._run(plan.child)
        if not isinstance(source, DatabaseRef):
            raise TranslationError("physical select expects the database as input")
        pattern: PatternTree = plan.params["pattern"]
        matches = self._scoped_match(pattern, source.doc)
        return WitnessSet(pattern, matches, plan.params["sl"])

    def _scoped_match(self, pattern: PatternTree, doc: str) -> list[StoreMatch]:
        """Match a pattern *within one document*: the store can hold
        several documents, and a scan names exactly one.  Root bindings
        are restricted to the document's label region (labels are
        globally disjoint per document) — two bisects on the columnar
        path, a stream filter on the object walk."""
        info = self.store.document(doc)
        start, end, _level = self.store.label(info.root_nid)
        return self.matcher.match(pattern, doc_bounds=(start, end))

    def _exec_project(self, plan: PlanNode) -> WitnessSet:
        source = self._run(plan.child)
        if not isinstance(source, WitnessSet):
            raise TranslationError("physical project expects a witness set")
        # Identifier-only: record the projection list; materialization is
        # deferred to the construction step (late population, Sec. 5.3).
        return WitnessSet(
            source.pattern,
            source.matches,
            source.selection_list,
            tuple(plan.params["pl"]),
        )

    # ------------------------------------------------------------------
    # Duplicate elimination
    # ------------------------------------------------------------------
    def _exec_dupelim(self, plan: PlanNode):
        source = self._run(plan.child)
        label = plan.params["label"]
        if isinstance(source, WitnessSet):
            if label is None:
                raise TranslationError("physical dupelim on witnesses needs a label")
            return self._dupelim_witnesses(source, label)
        if isinstance(source, JoinedSet):
            return self._dupelim_joined(source)
        raise TranslationError("physical dupelim: unsupported input")

    def _dupelim_witnesses(self, source: WitnessSet, label: str) -> WitnessSet:
        seen: set[str] = set()
        kept: list[StoreMatch] = []
        for match in source.matches:
            value = self._populate(match, label)
            if value in seen:
                continue
            seen.add(value)
            kept.append(match)
        return WitnessSet(source.pattern, kept, source.selection_list, source.projection_list)

    def _dupelim_joined(self, source: JoinedSet) -> JoinedSet:
        seen: set[tuple] = set()
        kept: list[tuple[StoreMatch, StoreMatch | None]] = []
        for left, right in source.pairs:
            left_value = left.values.get(source.left_label)
            right_nid = right.nid(source.right_label) if right is not None else None
            key = (left_value, right_nid)
            if key in seen:
                continue
            seen.add(key)
            kept.append((left, right))
        return JoinedSet(
            source.left_pattern,
            source.right_pattern,
            source.left_label,
            source.right_label,
            kept,
        )

    # ------------------------------------------------------------------
    # The naive join (nested loops over populated values)
    # ------------------------------------------------------------------
    def _exec_left_outer_join(self, plan: PlanNode) -> JoinedSet:
        left_source = self._run(plan.inputs[0])
        right_source = self._run(plan.inputs[1])
        if not isinstance(left_source, WitnessSet) or not isinstance(right_source, DatabaseRef):
            raise TranslationError("physical join expects witnesses JOIN database")
        conditions = plan.params["conditions"]
        if len(conditions) != 1:
            raise TranslationError("physical join supports one equality condition")
        left_label, right_label = conditions[0]
        right_pattern: PatternTree = plan.params["right_pattern"]

        # Identify the grouped-element label: the SL-adorned node that
        # belongs to the right ("inner") pattern.
        sl = plan.params["sl"]
        adorned_right = sorted(
            label for label in sl if right_pattern.has_node(label)
        )
        inner_label = (
            adorned_right[0] if adorned_right else right_pattern.nodes()[-1].label
        )

        right_matches = self._scoped_match(right_pattern, right_source.doc)
        joined = JoinedSet(
            plan.params["left_pattern"], right_pattern, left_label, inner_label
        )
        if self.join_strategy == "nested-loop":
            # The paper's words for the baseline: "a nested loops
            # evaluation plan obtained through a direct implementation of
            # the corresponding XQuery expression as written".  The inner
            # value is fetched through the store on every probe — no
            # operator-level value cache; only the buffer pool caches
            # pages, as in a real tuple-at-a-time evaluator.
            for left_match in left_source.matches:
                checkpoint()
                left_value = self._populate(left_match, left_label)
                padded = True
                for right_match in right_matches:
                    right_value = self.store.content(right_match.nid(right_label)) or ""
                    if right_value == left_value:
                        right_match.values[right_label] = right_value
                        padded = False
                        joined.pairs.append((left_match, right_match))
                if padded:
                    joined.pairs.append((left_match, None))
            return joined

        # value-hash: the amortized reading of the paper's "direct"
        # description — one value lookup per article/author pair, then
        # "perform the requisite join" as a hash join.
        by_value: dict[str, list[StoreMatch]] = {}
        for right_match in right_matches:
            value = self._populate(right_match, right_label)
            by_value.setdefault(value, []).append(right_match)
        for left_match in left_source.matches:
            checkpoint()
            left_value = self._populate(left_match, left_label)
            partners = by_value.get(left_value, ())
            if not partners:
                joined.pairs.append((left_match, None))
                continue
            for right_match in partners:
                joined.pairs.append((left_match, right_match))
        return joined

    # ------------------------------------------------------------------
    # Grouping (Sec. 5.3)
    # ------------------------------------------------------------------
    def _exec_groupby(self, plan: PlanNode) -> GroupedSet:
        source = self._run(plan.child)
        if not isinstance(source, WitnessSet):
            raise TranslationError("physical groupby expects a witness set")
        pattern: PatternTree = plan.params["pattern"]
        basis = plan.params["basis"]
        if len(basis) != 1 or "." in basis[0]:
            raise TranslationError("physical groupby supports a single $i basis item")
        # A star only affects output materialization (the basis node's
        # whole subtree is emitted); grouping itself keys on the value.
        basis_label = basis[0].rstrip("*")

        # The pattern root ranges over the witnesses of the previous
        # selection: feed their labels as root candidates.
        source_label = self._witness_root_label(source)
        root_candidates = sorted(
            {match.bindings[source_label] for match in source.matches},
            key=lambda label: label.start,
        )
        witnesses = self.matcher.match(pattern, root_candidates=root_candidates)

        if self.grouping_strategy == "replicate":
            return self._group_by_replication(pattern, basis_label, witnesses)
        if self.grouping_strategy == "value-index":
            return self._group_by_value_index(pattern, basis_label, witnesses)

        # Populate only the grouping-basis values.
        keyed: list[tuple[str, int, StoreMatch]] = []
        for index, match in enumerate(witnesses):
            checkpoint()
            value = self._populate(match, basis_label)
            keyed.append((value, index, match))

        if self.grouping_strategy == "sort":
            keyed.sort(key=lambda item: (item[0], item[1]))
            groups: dict[str, list[tuple[int, StoreMatch]]] = {}
            for value, index, match in keyed:
                groups.setdefault(value, []).append((index, match))
        else:  # hash
            groups = {}
            for value, index, match in keyed:
                groups.setdefault(value, []).append((index, match))

        # Emit groups in first-appearance (document) order so all engines
        # agree on output order.  Within a group, duplicate witnesses of
        # the same source tree are dropped — the migrated form of the
        # naive plan's "duplicate elimination based on articles": two
        # same-valued bindings inside one source tree (e.g. two authors
        # from one institution) must not duplicate the member.
        ordered_values = sorted(groups, key=lambda value: groups[value][0][0])
        result = GroupedSet(pattern, basis_label)
        root_label = pattern.root.label
        for value in ordered_values:
            members: list[StoreMatch] = []
            seen_sources: set[int] = set()
            for _, match in sorted(groups[value], key=lambda p: p[0]):
                source_nid = match.nid(root_label)
                if source_nid in seen_sources:
                    continue
                seen_sources.add(source_nid)
                members.append(match)
            # The exemplar (the ``{$g}`` rep) is the first witness in
            # document order.
            result.groups.append((value, members[0], members))
        return result

    def _member_labels(
        self, matches: Iterable[StoreMatch], root_label: str
    ) -> list[NodeLabel]:
        """The distinct member-root labels of ``matches``, start-sorted."""
        return sorted(
            {match.bindings[root_label] for match in matches},
            key=lambda label: label.start,
        )

    def _descend(
        self, member_labels: list[NodeLabel], path: tuple[str, ...]
    ) -> dict[int, list[NodeLabel]]:
        """Map each member nid to the labels ``path`` reaches below it,
        in document order — one structural join per path step for all
        members together (labels only, no record or data access)."""
        return descend_path(
            self.indexes, member_labels, path, columnar=self.matcher.columnar
        )

    def _group_by_value_index(
        self,
        pattern: PatternTree,
        basis_label: str,
        witnesses: list[StoreMatch],
    ) -> GroupedSet:
        """Footnote-8 strategy: drive grouping from the value index.

        The index hands back each distinct value with *the identifiers of
        the value nodes* — "whereas we would typically be interested in
        grouping some other (related) node" — so every posting pays a
        parent-chain navigation from the value node up to the grouped
        element.  The ablation (A2) measures exactly that overhead
        against identifier-sort grouping.
        """
        basis_tag = pattern.node(basis_label).predicate.tag_constraint()
        root_tag = pattern.root.predicate.tag_constraint()
        if basis_tag is None or root_tag is None:
            raise TranslationError(
                "value-index grouping requires tag constraints on the basis "
                "and root pattern nodes"
            )
        by_basis_nid: dict[int, list[tuple[int, StoreMatch]]] = {}
        for index, match in enumerate(witnesses):
            by_basis_nid.setdefault(match.nid(basis_label), []).append((index, match))

        root_label = pattern.root.label
        staged: list[tuple[int, str, list[StoreMatch]]] = []
        for value, postings in self.indexes.distinct_values(basis_tag):
            collected: list[tuple[int, StoreMatch]] = []
            for label in postings:
                # Navigate up to the grouped element — the index only
                # knows the value node (record lookups per step).
                self._ancestor_with_tag(label.nid, root_tag)
                collected.extend(by_basis_nid.get(label.nid, ()))
            if not collected:
                continue
            collected.sort(key=lambda pair: pair[0])
            members: list[StoreMatch] = []
            seen_sources: set[int] = set()
            for _, match in collected:
                match.values[basis_label] = value  # the index key is the value
                source_nid = match.nid(root_label)
                if source_nid in seen_sources:
                    continue
                seen_sources.add(source_nid)
                members.append(match)
            staged.append((collected[0][0], value, members[0], members))

        # First-appearance order, like every other strategy.
        staged.sort(key=lambda entry: entry[0])
        result = GroupedSet(pattern, basis_label)
        for _first, value, exemplar, members in staged:
            result.groups.append((value, exemplar, members))
        return result

    def _ancestor_with_tag(self, nid: int, tag_name: str) -> int | None:
        """Walk parent pointers until a node with ``tag_name`` is found."""
        current = self.store.parent(nid)
        while current is not None:
            if self.store.tag(current) == tag_name:
                return current
            current = self.store.parent(current)
        return None

    def _group_by_replication(
        self, pattern: PatternTree, basis_label: str, witnesses: list[StoreMatch]
    ) -> GroupedSet:
        """Ablation A2 strawman: materialize one full source-tree replica
        per witness *before* grouping (the cost Sec. 5.3 avoids)."""
        replicas: list[tuple[str, int, StoreMatch, XMLNode]] = []
        for index, match in enumerate(witnesses):
            value = self._populate(match, basis_label)
            source_nid = match.nid(pattern.root.label)
            replica = self.store.materialize(source_nid, with_content=True)
            replicas.append((value, index, match, replica))
        replicas.sort(key=lambda item: (item[0], item[1]))
        groups: dict[str, list[tuple[int, StoreMatch]]] = {}
        for value, index, match, _replica in replicas:
            groups.setdefault(value, []).append((index, match))
        ordered_values = sorted(groups, key=lambda value: groups[value][0][0])
        result = GroupedSet(pattern, basis_label)
        root_label = pattern.root.label
        for value in ordered_values:
            members: list[StoreMatch] = []
            seen_sources: set[int] = set()
            for _, match in sorted(groups[value], key=lambda p: p[0]):
                source_nid = match.nid(root_label)
                if source_nid in seen_sources:
                    continue
                seen_sources.add(source_nid)
                members.append(match)
            result.groups.append((value, members[0], members))
        return result

    def _witness_root_label(self, source: WitnessSet) -> str:
        """The label whose bindings carry the witness "payload" nodes —
        the starred projection entry, falling back to the SL adornment."""
        for item in source.projection_list:
            if item.endswith("*"):
                return item[:-1]
        if source.selection_list:
            return next(iter(source.selection_list))
        return source.pattern.root.label

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _exec_stitch(self, plan: PlanNode) -> Collection:
        source = self._run(plan.child)
        if not isinstance(source, JoinedSet):
            raise TranslationError("physical stitch expects joined pairs")
        spec: StitchSpec = plan.params["spec"]

        order: list[str] = []
        groups: dict[str, list[StoreMatch]] = {}
        exemplars: dict[str, StoreMatch] = {}
        for left, right in source.pairs:
            value = left.values[source.left_label]
            if value not in groups:
                groups[value] = []
                order.append(value)
                exemplars[value] = left
            if right is not None:
                groups[value].append(right)

        def resolve(leaf: TemplateLeaf, group: tuple[StoreMatch, list[StoreMatch]]):
            # The baseline's way: every leaf navigates and materializes
            # tuple at a time.
            exemplar, members = group
            if leaf.kind == "key":
                return [self._materialize_binding(exemplar, source.left_label)]
            reached = [
                target
                for match in members
                for target in self._navigate_nids(
                    match.nid(source.right_label), leaf.path
                )
            ]
            if leaf.kind == "members":
                return [
                    self.store.materialize(target, with_content=True)
                    for target in self._sorted(reached, leaf.ordering)
                ]
            return self._aggregate_text(leaf.kind, reached)

        output = Collection(name="stitch")
        for value in order:
            shell = fill_template(
                spec.template, resolve, (exemplars[value], groups[value])
            )
            output.append(DataTree(shell.build()))
        return output

    def _navigate_nids(self, nid: int, path: tuple[str, ...]) -> list[int]:
        frontier = [nid]
        for name in path:
            frontier = [
                child
                for current in frontier
                for child in self.store.children(current)
                if self.store.tag(child) == name
            ]
        return frontier

    def _aggregate_text(self, function: str, reached: list[int]) -> str | None:
        """COUNT/SUM/MIN/MAX/AVG over the reached output-path nodes;
        only the numeric aggregates fetch values."""
        if function == "count":
            return str(len(reached))
        return aggregate_text(
            function, [self.store.content(nid) or "" for nid in reached]
        )

    def _sorted(self, nids: list[int], ordering: Ordering) -> list[int]:
        """A member list's SORTBY over the nodes it emits: each key is
        the first node the key path reaches below the item, atomized
        as the direct interpreter atomizes it."""
        if not ordering:
            return nids

        def value_at(nid: int, path: tuple[str, ...]) -> str:
            if path != (".",):
                reached = self._navigate_nids(nid, path)
                if not reached:
                    return ""
                nid = reached[0]
            content = self.store.content(nid)
            if content is None:
                return atomic_value_of(self.store.materialize(nid, with_content=True))
            return content

        return sort_items(nids, ordering, value_at)

    def _exec_project_groups(self, plan: PlanNode) -> Collection:
        source = self._run(plan.inputs[0])
        if not isinstance(source, GroupedSet):
            raise TranslationError("physical project_groups expects groups")
        template: OutputTemplate = plan.params["template"]

        # One (group node nid, members) entry per output element.
        if len(plan.inputs) == 1:
            emitted = [
                (exemplar.nid(source.basis_label), members)
                for _value, exemplar, members in source.groups
            ]
        else:
            # Padding input: the outer distinct values (filters can
            # orphan a grouping value; it still appears, empty) — one
            # element per outer distinct value, in the outer (document)
            # order.
            outer = self._run(plan.inputs[1])
            if not isinstance(outer, WitnessSet):
                raise TranslationError("project_groups padding expects witnesses")
            outer_label = self._projected_group_label(outer)
            members_by_value = {
                value: members for value, _exemplar, members in source.groups
            }
            # The ``{$g}`` rep is always the outer distinct occurrence
            # (first in document order over the *unfiltered* data): the
            # group exemplar ranges only over the filtered witnesses and
            # can be a different node with a different subtree.
            emitted = [
                (
                    match.nid(outer_label),
                    members_by_value.get(self._populate(match, outer_label), []),
                )
                for match in outer.matches
            ]

        resolve = self._group_resolver(source, template)
        shells = [fill_template(template, resolve, group) for group in emitted]
        return self._construct(shells, "project-groups")

    def _exec_nested_groups(self, plan: PlanNode) -> Collection:
        """Join-graph isolation output: re-correlate the three isolated
        blocks (outer distinct, middle distinct, inner groups) with value
        lookups — one pass each, no per-binding re-evaluation."""
        outer = self._run(plan.inputs[0])
        middle = self._run(plan.inputs[1])
        grouped = self._run(plan.inputs[2])
        if not isinstance(outer, WitnessSet) or not isinstance(middle, WitnessSet):
            raise TranslationError("nested_groups expects distinct witness sets")
        if not isinstance(grouped, GroupedSet):
            raise TranslationError("nested_groups expects a grouped inner input")
        spec: NestedGroupSpec = plan.params["spec"]
        outer_label = self._projected_group_label(outer)
        middle_label = self._projected_group_label(middle)
        groups_by_value = {
            value: members for value, _exemplar, members in grouped.groups
        }
        resolve_middle = self._group_resolver(grouped, spec.middle)

        # Populate each middle representative's link values once — the
        # representative is the *first occurrence* of the distinct value,
        # exactly the node the middle FOR binds.  Its element is built
        # once and shared by every outer value it links to.
        middle_entries: list[tuple[OutputShell, set[str]]] = []
        for match in middle.matches:
            checkpoint()
            link_values = {
                self.store.content(nid) or ""
                for nid in self._navigate_nids(match.nid(middle_label), spec.link_path)
            }
            members = groups_by_value.get(self._populate(match, middle_label), [])
            shell = fill_template(
                spec.middle, resolve_middle, (match.nid(middle_label), members)
            )
            middle_entries.append((shell, link_values))

        def resolve_outer(leaf: TemplateLeaf, group: tuple[int, str]):
            outer_nid, outer_value = group
            if leaf.kind == "key":
                return [outer_nid]
            return [
                shell
                for shell, link_values in middle_entries
                if outer_value in link_values
            ]

        shells: list[OutputShell] = []
        for outer_match in outer.matches:
            checkpoint()
            group = (
                outer_match.nid(outer_label),
                self._populate(outer_match, outer_label),
            )
            shells.append(fill_template(spec.outer, resolve_outer, group))
        return self._construct(shells, "nested-groups")

    def _group_resolver(
        self, grouped: GroupedSet, template: OutputTemplate
    ) -> Callable[[TemplateLeaf, tuple[int, list[StoreMatch]]], "list[int] | str | None"]:
        """The leaf resolver for every ``(group node nid, members)`` of
        a result: the grouping node for a key leaf and, per member leaf,
        the reached nodes themselves or their aggregate.

        Every member path of ``template`` is resolved up front for all
        members of all groups — one descent per distinct path, however
        many leaves share it (members and each member's targets in
        document order; a sorted list then sorts what it emits).
        Identifier-only: COUNT
        then never touches a page ("we can perform the count without
        physically instantiating the book elements"), the numeric
        aggregates fetch only the reached nodes' values, and values
        mode fetches exactly the nodes it emits."""
        root_label = grouped.pattern.root.label
        member_labels = self._member_labels(
            (match for _, _, members in grouped.groups for match in members),
            root_label,
        )
        reached = {
            path: self._descend(member_labels, path) for path in template.paths()
        }

        def resolve(leaf: TemplateLeaf, group: tuple[int, list[StoreMatch]]):
            group_nid, members = group
            if leaf.kind == "key":
                return [group_nid]
            by_member = reached[leaf.path]
            nids = [
                label.nid
                for match in members
                for label in by_member[match.nid(root_label)]
            ]
            if leaf.kind == "members":
                return self._sorted(nids, leaf.ordering)
            return self._aggregate_text(leaf.kind, nids)

        return resolve

    def _construct(self, shells: list[OutputShell], name: str) -> Collection:
        """Late value population (Sec. 5.3): one page-ordered fetch for
        every stored node the whole result emits, then assembly."""
        nodes = iter(
            self.store.materialize_many(
                [nid for shell in shells for nid in shell.nids()]
            )
        )
        output = Collection(name=name)
        for shell in shells:
            output.append(DataTree(shell.build(nodes)))
        return output

    def _projected_group_label(self, witnesses: WitnessSet) -> str:
        """The starred non-root projection label of a distinct segment —
        the grouping element whose bindings carry the distinct values."""
        candidates = sorted(
            label
            for label in (
                item[:-1] if item.endswith("*") else item
                for item in witnesses.projection_list
            )
            if witnesses.pattern.has_node(label)
            and label != witnesses.pattern.root.label
        )
        if candidates:
            return candidates[0]
        return witnesses.pattern.nodes()[-1].label

    # ------------------------------------------------------------------
    # Value population and materialization
    # ------------------------------------------------------------------
    def _populate(self, match: StoreMatch, label: str) -> str:
        """Populate one binding's value (cached per witness)."""
        cached = match.values.get(label)
        if cached is not None:
            return cached
        value = self.store.content(match.nid(label)) or ""
        match.values[label] = value
        return value

    def _materialize_binding(self, match: StoreMatch, label: str) -> XMLNode:
        """Materialize a bound node *with its subtree* — ``{$a}`` returns
        the full element (Fig. 5.d stars the grouping element)."""
        return self.store.materialize(match.nid(label), with_content=True)
