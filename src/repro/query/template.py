"""The RETURN constructor as an output template.

Sec. 4.1–4.2 detect grouping from the *join-plan pattern tree*; the
RETURN clause only decides which projections and aggregates hang off
each group.  An :class:`OutputTemplate` is that decision: the
constructor's element structure with every embedded expression reduced
to a :class:`TemplateLeaf` over the one join-plan pattern — the group
key ``{$g}``, a member list (the nodes a path reaches below each
member), or an aggregate of such a list.  Every plan (the naive
``stitch``, ``project_groups``, ``nested_groups``) and the cluster's
merge plan carry one template, and every executor instantiates it through
:func:`fill_template`, which mirrors ``Interpreter._construct``: node
values become children in item order, string values join into the
element's content with single spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Union

from ..core.aggregation import AggregateFunction
from ..core.base import numeric_or_text
from ..xmlmodel.node import XMLNode
from .ast import ElementConstructor, Expr, TextItem

#: SORTBY keys: ``(path from the returned item, direction)`` pairs,
#: leftmost primary; the path ``(".",)`` is the item itself.
Ordering = tuple[tuple[tuple[str, ...], str], ...]


@dataclass(frozen=True)
class TemplateLeaf:
    """One embedded expression of a grouping RETURN.

    ``kind``:

    * ``key`` — the group variable itself (``{$g}``): the grouping
      element with its whole subtree (Fig. 5.d stars it);
    * ``members`` — per member of the group, the nodes ``path`` reaches
      below it, in document order, then sorted by ``ordering`` (SORTBY);
    * ``count`` / ``sum`` / ``min`` / ``max`` / ``avg`` — that function
      over the nodes ``path`` reaches across the group's members;
    * ``groups`` — (outer level of a 3-level nest only) the middle
      level's group elements.

    In a cluster merge plan (:mod:`repro.cluster.merge`) the same kinds
    are merge operators over shard rows and ``path`` names the shard-row
    wrappers a leaf reads.
    """

    kind: str
    path: tuple[str, ...] = ()
    ordering: Ordering = ()

    def render(self) -> str:
        if self.kind == "key":
            return "{$g}"
        if self.kind == "groups":
            return "{groups}"
        path = "/".join(self.path) or "."
        if self.kind == "members":
            return "{" + path + (" sorted" if self.ordering else "") + "}"
        return "{" + f"{self.kind}({path})" + "}"


TemplateItem = Union[str, TemplateLeaf, "OutputTemplate"]


@dataclass(frozen=True)
class OutputTemplate:
    """An element constructor: tag, attributes, and items — literal
    text (``str``), nested elements, and leaves."""

    tag: str
    attributes: tuple[tuple[str, str], ...] = ()
    items: tuple[TemplateItem, ...] = ()

    @classmethod
    def from_constructor(
        cls, constructor: ElementConstructor, leaf_for: Callable[[Expr], TemplateLeaf]
    ) -> "OutputTemplate":
        """The constructor as an output template: text, attributes and
        nested elements are construction and carry over as written;
        ``leaf_for`` classifies each embedded expression, in document
        order (and refuses what its caller cannot compute).  Whitespace
        between items is not content: the parser never emits it."""
        items: list = []
        for item in constructor.items:
            if isinstance(item, TextItem):
                items.append(item.text)
            elif isinstance(item, ElementConstructor):
                items.append(cls.from_constructor(item, leaf_for))
            else:
                items.append(leaf_for(item.expr))
        return cls(constructor.tag, constructor.attributes, tuple(items))

    def leaves(self) -> Iterator[TemplateLeaf]:
        """Every leaf, in document order of the constructor."""
        for item in self.items:
            if isinstance(item, TemplateLeaf):
                yield item
            elif isinstance(item, OutputTemplate):
                yield from item.leaves()

    def member_leaves(self) -> list[TemplateLeaf]:
        """The leaves that range over the group's members."""
        return [leaf for leaf in self.leaves() if leaf.kind not in ("key", "groups")]

    def paths(self) -> list[tuple[str, ...]]:
        """The distinct member paths, in first-use order — one path
        descent each, however many leaves share it."""
        return list(dict.fromkeys(leaf.path for leaf in self.member_leaves()))

    def render(self) -> str:
        attrs = "".join(f' {name}="{value}"' for name, value in self.attributes)
        inner = " ".join(
            item if isinstance(item, str) else item.render() for item in self.items
        )
        return f"<{self.tag}{attrs}>{inner}</{self.tag}>"


@dataclass
class OutputShell:
    """An instantiated template that may still hold identifiers: stored
    nodes as nids, already-built nodes as :class:`XMLNode`, nested
    elements as shells.  Construction fills every nid of a result from
    one batched fetch."""

    tag: str
    items: list["int | XMLNode | OutputShell"]
    text: str | None = None
    attributes: tuple[tuple[str, str], ...] = ()

    def nids(self) -> Iterator[int]:
        """The stored nodes this shell needs, in output order."""
        for item in self.items:
            if isinstance(item, int):
                yield item
            elif isinstance(item, OutputShell):
                yield from item.nids()

    def build(self, nodes: Iterator[XMLNode] = iter(())) -> XMLNode:
        """The element, drawing its stored nodes from ``nodes`` (which
        must follow :meth:`nids` order)."""
        root = XMLNode(
            self.tag, attributes=dict(self.attributes) if self.attributes else None
        )
        for item in self.items:
            if isinstance(item, int):
                item = next(nodes)
            elif isinstance(item, OutputShell):
                item = item.build(nodes)
            root.append_child(item)
        root.content = self.text
        return root


def fill_template(
    template: OutputTemplate,
    resolve: Callable[[TemplateLeaf, object], "list | str | None"],
    group: object,
) -> OutputShell:
    """Instantiate ``template`` for one group.

    ``resolve(leaf, group)`` returns the leaf's node items (nids, nodes
    or shells) as a list, or its string value (``None`` for the empty
    sequence, e.g. ``min`` of nothing); ``group`` is whatever the
    caller's ``resolve`` needs to know about the group, passed through
    untouched (one ``resolve`` serves every group of a result)."""
    items: list = []
    texts: list[str] = []
    for item in template.items:
        if isinstance(item, TemplateLeaf):
            value = resolve(item, group)
            if isinstance(value, str):
                texts.append(value)
            elif value is not None:
                items.extend(value)
        elif isinstance(item, str):
            texts.append(item)
        else:
            items.append(fill_template(item, resolve, group))
    return OutputShell(
        template.tag, items, " ".join(texts) if texts else None, template.attributes
    )


def sort_items(
    items: list, ordering: Ordering, value_at: Callable[[object, tuple[str, ...]], str]
) -> list:
    """SORTBY as the 2001 XQuery draft defines it: a stable sort of the
    returned sequence itself, rightmost key first so the leftmost is
    primary.  ``value_at(item, path)`` is an item's sort value at a key
    path (``(".",)``: the item's own).  Every evaluator sorts through
    here, so a member contributing several items sorts each on its own
    value."""
    ordered = list(items)
    for path, direction in reversed(ordering):
        ordered.sort(
            key=lambda item: numeric_or_text(value_at(item, path)),
            reverse=direction == "DESCENDING",
        )
    return ordered


def aggregate_text(function: str, values: list[str]) -> str | None:
    """``function`` over the reached nodes' values, rendered as the
    interpreter renders it; ``None`` is the empty sequence.  ``count``
    only takes the length, so it may be handed the nodes themselves."""
    return AggregateFunction(function.upper()).compute(values) or None
