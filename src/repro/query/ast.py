"""AST for the XQuery subset of the paper.

The subset covers every query the paper uses: FLWR expressions with FOR
(over ``distinct-values(...)`` or plain paths), LET, WHERE with
conjunctive comparisons, RETURN with element constructors and embedded
expressions, path expressions with ``/``, ``//`` and one-step value
predicates (``article[author = $a]/title``), and the builtins
``document()``, ``distinct-values()``, ``count()``.

Nodes are plain dataclasses; :func:`render` prints an AST back as query
text (used by error messages and the explain output).  :func:`walk` is
the one traversal every inspection builds on (:func:`documents`, the
cluster merge's classification, the translator's shape tests), and
:func:`rename_documents` the one rewrite (replica routing).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Union

Expr = Union[
    "FLWR",
    "PathExpr",
    "VarRef",
    "DocumentCall",
    "DistinctValues",
    "CountCall",
    "ElementConstructor",
    "StringLiteral",
    "NumberLiteral",
    "Comparison",
    "AndExpr",
]


@dataclass(frozen=True)
class StringLiteral:
    value: str


@dataclass(frozen=True)
class NumberLiteral:
    text: str


@dataclass(frozen=True)
class VarRef:
    name: str  # without the leading $


@dataclass(frozen=True)
class DocumentCall:
    """``document("bib.xml")``"""

    name: str


@dataclass(frozen=True)
class DistinctValues:
    """``distinct-values(expr)``"""

    argument: Expr


@dataclass(frozen=True)
class CountCall:
    """``count(expr)``"""

    argument: Expr


@dataclass(frozen=True)
class AggregateCall:
    """``sum(expr)`` / ``min(expr)`` / ``max(expr)`` / ``avg(expr)``."""

    function: str  # "sum" | "min" | "max" | "avg"
    argument: Expr


@dataclass(frozen=True)
class StepPredicate:
    """A ``[path op expr]`` qualifier on a path step.

    ``path`` is the relative path inside the brackets (e.g. ``author``
    or ``author/institution``); ``op`` is a comparison operator and
    ``right`` the compared expression (a variable or literal).
    """

    path: tuple[str, ...]
    op: str
    right: Expr


@dataclass(frozen=True)
class Step:
    """One path step.

    ``axis`` is ``/`` (child), ``//`` (descendant), or ``@`` (attribute,
    written ``/@name`` — yields the attribute's string value and must be
    the final step).
    """

    axis: str  # "/", "//", or "@"
    name: str  # element name test, "*", or the attribute name
    predicate: StepPredicate | None = None


@dataclass(frozen=True)
class PathExpr:
    """``base step step ...`` — e.g. ``document("b")//article/title``."""

    base: Expr
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class Comparison:
    left: Expr
    op: str  # = != < <= > >=
    right: Expr


@dataclass(frozen=True)
class AndExpr:
    parts: tuple[Expr, ...]


@dataclass(frozen=True)
class ForClause:
    var: str
    source: Expr


@dataclass(frozen=True)
class LetClause:
    var: str
    source: Expr


@dataclass(frozen=True)
class SortKey:
    """One SORTBY component: a relative path (``(".",)`` means the item
    itself) and a direction."""

    path: tuple[str, ...]
    direction: str = "ASCENDING"


@dataclass(frozen=True)
class FLWR:
    clauses: tuple[Union[ForClause, LetClause], ...]
    where: Expr | None
    ret: Expr
    sortby: tuple[SortKey, ...] = ()


@dataclass(frozen=True)
class TextItem:
    """Literal text inside an element constructor."""

    text: str


@dataclass(frozen=True)
class EmbeddedExpr:
    """``{ expr }`` inside an element constructor."""

    expr: Expr


@dataclass(frozen=True)
class ElementConstructor:
    tag: str
    attributes: tuple[tuple[str, str], ...] = field(default=())
    items: tuple[Union[TextItem, EmbeddedExpr, "ElementConstructor"], ...] = field(default=())


# ----------------------------------------------------------------------
# Traversal
# ----------------------------------------------------------------------
#: Every AST node class -> the names of its fields.
_FIELDS = {
    cls: tuple(f.name for f in fields(cls))
    for cls in (
        StringLiteral, NumberLiteral, VarRef, DocumentCall, DistinctValues,
        CountCall, AggregateCall, StepPredicate, Step, PathExpr, Comparison,
        AndExpr, ForClause, LetClause, SortKey, FLWR, TextItem, EmbeddedExpr,
        ElementConstructor,
    )
}


def _children(node: object) -> list:
    """The AST nodes directly below ``node``, in field order."""
    children = []
    for name in _FIELDS.get(type(node), ()):
        value = getattr(node, name)
        if type(value) is tuple:
            children.extend(item for item in value if type(item) in _FIELDS)
        elif type(value) in _FIELDS:
            children.append(value)
    return children


def walk(node: object) -> Iterator[object]:
    """Every AST node of ``node``'s subtree (itself first), each exactly
    once, in preorder."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(_children(current)))


def documents(expr: object) -> set[str]:
    """The names of the documents ``expr`` reads."""
    return {node.name for node in walk(expr) if type(node) is DocumentCall}


def rename_documents(node: object, mapping: dict[str, str]) -> object:
    """``node`` with every ``document(old)`` renamed per ``mapping``;
    untouched subtrees are shared, not copied."""
    if type(node) is DocumentCall:
        name = mapping.get(node.name, node.name)
        return node if name == node.name else DocumentCall(name)
    changes = {}
    for name in _FIELDS.get(type(node), ()):
        value = getattr(node, name)
        if type(value) is tuple:
            renamed = tuple(rename_documents(item, mapping) for item in value)
            if any(new is not old for new, old in zip(renamed, value)):
                changes[name] = renamed
        else:
            renamed = rename_documents(value, mapping)
            if renamed is not value:
                changes[name] = renamed
    return replace(node, **changes) if changes else node


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render(node: object) -> str:
    """Pretty-print an AST node as (roughly) the original query text."""
    if isinstance(node, StringLiteral):
        return f'"{node.value}"'
    if isinstance(node, NumberLiteral):
        return node.text
    if isinstance(node, VarRef):
        return f"${node.name}"
    if isinstance(node, DocumentCall):
        return f'document("{node.name}")'
    if isinstance(node, DistinctValues):
        return f"distinct-values({render(node.argument)})"
    if isinstance(node, CountCall):
        return f"count({render(node.argument)})"
    if isinstance(node, AggregateCall):
        return f"{node.function}({render(node.argument)})"
    if isinstance(node, PathExpr):
        steps = "".join(_render_step(step) for step in node.steps)
        return f"{render(node.base)}{steps}"
    if isinstance(node, Comparison):
        return f"{render(node.left)} {node.op} {render(node.right)}"
    if isinstance(node, AndExpr):
        return " AND ".join(render(part) for part in node.parts)
    if isinstance(node, ForClause):
        return f"FOR ${node.var} IN {render(node.source)}"
    if isinstance(node, LetClause):
        return f"LET ${node.var} := {render(node.source)}"
    if isinstance(node, FLWR):
        lines = [render(clause) for clause in node.clauses]
        if node.where is not None:
            lines.append(f"WHERE {render(node.where)}")
        lines.append(f"RETURN {render(node.ret)}")
        if node.sortby:
            keys = ", ".join(
                f"{'/'.join(key.path)} {key.direction}" for key in node.sortby
            )
            lines.append(f"SORTBY ({keys})")
        return "\n".join(lines)
    if isinstance(node, TextItem):
        return node.text
    if isinstance(node, EmbeddedExpr):
        return "{" + render(node.expr) + "}"
    if isinstance(node, ElementConstructor):
        attrs = "".join(f' {name}="{value}"' for name, value in node.attributes)
        inner = " ".join(render(item) for item in node.items)
        return f"<{node.tag}{attrs}>{inner}</{node.tag}>"
    raise TypeError(f"cannot render {node!r}")


def _render_step(step: Step) -> str:
    if step.axis == "@":
        return f"/@{step.name}"
    text = f"{step.axis}{step.name}"
    if step.predicate is not None:
        path = "/".join(step.predicate.path)
        text += f"[{path} {step.predicate.op} {render(step.predicate.right)}]"
    return text
