"""Serialization of :class:`~repro.xmlmodel.node.XMLNode` trees to XML text.

The serializer is the inverse of :mod:`repro.xmlmodel.parse` for the
library's content model: ``serialize(parse_document(s))`` re-parses to a
structurally equal tree (a property the test suite checks with
hypothesis-generated trees).
"""

from __future__ import annotations

from .node import XMLNode

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    out = value
    for raw, entity in _TEXT_ESCAPES.items():
        out = out.replace(raw, entity)
    return out


def escape_attribute(value: str) -> str:
    """Escape an attribute value for a double-quoted attribute."""
    out = value
    for raw, entity in _ATTR_ESCAPES.items():
        out = out.replace(raw, entity)
    return out


def open_tag(tag: str, attributes) -> str:
    """``tag name="value" ...`` for ``(name, value)`` pairs — what goes
    between ``<`` and ``>`` (or ``/>``)."""
    parts = [tag]
    parts.extend(f'{name}="{escape_attribute(value)}"' for name, value in attributes)
    return " ".join(parts)


def serialize(node: XMLNode, indent: str | None = "  ") -> str:
    """Render the subtree rooted at ``node`` as XML text.

    With ``indent=None`` the output is compact (single line); otherwise
    child elements are placed on their own indented lines.  Nodes that
    carry both text content and children emit the text first, matching
    the parser's concatenation rule.
    """
    pieces: list[str] = []
    _serialize_into(node, pieces, 0, indent)
    return "".join(pieces)


def _serialize_into(node: XMLNode, out: list[str], level: int, indent: str | None) -> None:
    pad = indent * level if indent else ""
    newline = "\n" if indent else ""
    head = open_tag(node.tag, node.attributes.items())

    if not node.children and node.content is None:
        out.append(f"{pad}<{head}/>{newline}")
        return

    if not node.children:
        text = escape_text(node.content or "")
        out.append(f"{pad}<{head}>{text}</{node.tag}>{newline}")
        return

    out.append(f"{pad}<{head}>{newline}")
    if node.content is not None:
        inner_pad = indent * (level + 1) if indent else ""
        out.append(f"{inner_pad}{escape_text(node.content)}{newline}")
    for child in node.children:
        _serialize_into(child, out, level + 1, indent)
    out.append(f"{pad}</{node.tag}>{newline}")


def serialize_collection(collection, indent: str | None = "  ") -> str:
    """Render every tree of a collection in order, one document fragment
    per tree.  Compact fragments are separated by a newline; indented
    ones already end with one."""
    joiner = "" if indent else "\n"
    return joiner.join(serialize(tree.root, indent=indent) for tree in collection)


def write_file(node: XMLNode, path: str, indent: str | None = "  ") -> None:
    """Serialize ``node`` to ``path`` with an XML declaration."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        handle.write(serialize(node, indent=indent))
        if indent is None:
            handle.write("\n")
