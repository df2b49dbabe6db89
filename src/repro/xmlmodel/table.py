"""Results as relations: one immutable flat encoding of a collection.

A finished result crosses the service's result cache, the wire and the
cluster coordinator.  A tree of :class:`~repro.xmlmodel.node.XMLNode`
is the wrong carrier for all three: mutable (a cache must copy it per
hit), parent-linked (copies are garbage-collector work), and it must be
serialized to travel and parsed to come back.  :class:`ResultTable` is
the flat node/edge model instead — preorder rows ``(level, tag, text,
attrs)``, tuples all the way down — cut from a collection once.  It
hands out fresh trees on demand, memoizes its serialization (the rows
never change), and travels as a flat JSON array that the receiver turns
back into nodes without an XML parser.
"""

from __future__ import annotations

import json

from ..errors import ProtocolError
from .node import XMLNode
from .serialize import escape_text, open_tag
from .tree import Collection, DataTree


class ResultTable:
    """An ordered collection of trees as preorder ``(level, tag, text,
    attrs)`` rows.  A row at level 0 starts a new tree; ``attrs`` is a
    tuple of ``(name, value)`` pairs in attribute order."""

    __slots__ = ("rows", "_trees", "_xml", "_xml_json")

    def __init__(self, rows: tuple[tuple, ...]):
        self.rows = rows
        self._trees = sum(1 for row in rows if row[0] == 0)
        self._xml: str | None = None
        self._xml_json: str | None = None

    def __len__(self) -> int:
        """Trees, like ``len(collection)``; ``len(table.rows)`` is nodes."""
        return self._trees

    # ------------------------------------------------------------------
    # Trees in, trees out
    # ------------------------------------------------------------------
    @classmethod
    def from_collection(cls, collection: Collection) -> "ResultTable":
        rows = []
        for tree in collection:
            stack = [(tree.root, 0)]
            while stack:
                node, level = stack.pop()
                rows.append(
                    (level, node.tag, node.content, tuple(node.attributes.items()))
                )
                if node.children:
                    level += 1
                    stack.extend([(kid, level) for kid in reversed(node.children)])
        return cls(tuple(rows))

    def to_collection(self) -> Collection:
        """Fresh trees, owned by the caller (``nid`` and provenance are
        not part of a result's value and do not survive the table)."""
        trees = []
        path: list[XMLNode] = []  # path[i]: the open element at level i
        for level, tag, text, attrs in self.rows:
            node = XMLNode(tag, text, dict(attrs) if attrs else None)
            if level:
                parent = path[level - 1]
                node.parent = parent
                parent.children.append(node)
            else:
                trees.append(DataTree(node))
            path[level:] = [node]
        return Collection(trees)

    # ------------------------------------------------------------------
    # Serialized once
    # ------------------------------------------------------------------
    def to_xml(self) -> str:
        """Compact XML, character-identical to
        ``serialize_collection(self.to_collection(), indent=None)``."""
        if self._xml is None:
            rows = self.rows
            out: list[str] = []
            open_tags: list[str] = []
            for index, (level, tag, text, attrs) in enumerate(rows):
                while len(open_tags) > level:
                    out.append(f"</{open_tags.pop()}>")
                if index and not level:
                    out.append("\n")
                head = open_tag(tag, attrs)
                if index + 1 < len(rows) and rows[index + 1][0] > level:
                    out.append(f"<{head}>")
                    if text is not None:
                        out.append(escape_text(text))
                    open_tags.append(tag)
                elif text is None:
                    out.append(f"<{head}/>")
                else:
                    out.append(f"<{head}>{escape_text(text)}</{tag}>")
            while open_tags:
                out.append(f"</{open_tags.pop()}>")
            self._xml = "".join(out)
        return self._xml

    def to_xml_json(self) -> str:
        """:meth:`to_xml` as a JSON string literal (ASCII), ready to be
        spliced into a reply line."""
        if self._xml_json is None:
            self._xml_json = json.dumps(self.to_xml())
        return self._xml_json

    # ------------------------------------------------------------------
    # The wire frame
    # ------------------------------------------------------------------
    def to_wire(self) -> list:
        """The rows as one flat JSON-able array ``[level, tag, text,
        attrs, level, tag, ...]``; ``attrs`` is an object or null."""
        frame: list = []
        for level, tag, text, attrs in self.rows:
            frame += (level, tag, text, dict(attrs) if attrs else None)
        return frame

    @classmethod
    def from_wire(cls, frame) -> "ResultTable":
        """Decode (and validate — it came off a socket) a wire frame."""
        if not isinstance(frame, list) or len(frame) % 4:
            raise ProtocolError(
                "a result table frame is a flat array of "
                "(level, tag, text, attrs) rows"
            )
        rows = []
        deepest = 0  # a row may open at most one level below its predecessor
        cells = iter(frame)
        for level, tag, text, attrs in zip(cells, cells, cells, cells):
            if not (
                type(level) is int
                and 0 <= level <= deepest
                and type(tag) is str
                and (text is None or type(text) is str)
                and (
                    attrs is None
                    or type(attrs) is dict
                    and all(type(value) is str for value in attrs.values())
                )
            ):
                raise ProtocolError(
                    f"malformed result table row {len(rows)}: "
                    f"{[level, tag, text, attrs]!r}"[:200]
                )
            rows.append((level, tag, text, tuple(attrs.items()) if attrs else ()))
            deepest = level + 1
        return cls(tuple(rows))
