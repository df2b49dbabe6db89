"""Logical query plans over the TAX algebra.

A plan is a tree of :class:`PlanNode` — operator name plus parameters
plus input plans.  The naive parse (Sec. 4.1) produces join-based plans;
the rewrite (:mod:`repro.query.rewrite`) transforms them into
GROUPBY-based plans.  Two executors run plans: the logical executor
(:mod:`repro.query.logical_exec`) interprets them with the in-memory
TAX operators, and the physical executor (:mod:`repro.query.physical`)
runs them against the store with identifier-only processing.

Operator vocabulary
-------------------

========================  ====================================================
op                        params
========================  ====================================================
``scan``                  ``doc`` — the stored document (collection of one tree)
``select``                ``pattern``, ``sl`` (adornment labels)
``project``               ``pattern``, ``pl`` (projection list, ``$i``/``$i*``)
``dupelim``               ``pattern``, ``label`` (content key) or neither
``left_outer_join``       ``left_pattern``, ``right_pattern``, ``conditions``,
                          ``sl`` — Fig. 4.b's join-plan pattern, split by side
``groupby``               ``pattern``, ``basis``
``aggregate``             ``pattern``, ``function``, ``source_label``,
                          ``new_tag``, ``update``
``project_groups``        ``template`` (:class:`~repro.query.template.OutputTemplate`)
                          — the final projection of Fig. 5.d, fused with
                          construction: one element per group
``nested_groups``         ``spec`` (:class:`NestedGroupSpec`) — join-graph
                          isolation of a 3-level nested FLWR: inputs are the
                          outer distinct values, the middle distinct values,
                          and the grouped inner collection
``stitch``                ``spec`` (:class:`StitchSpec`) — the RETURN-clause
                          stitching (full-outer-join + rename of Sec. 4.1)
``rename_root``           ``tag``
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..errors import TranslationError
from .template import OutputTemplate


@dataclass
class PlanNode:
    """One operator application in a logical plan."""

    op: str
    params: dict[str, Any] = field(default_factory=dict)
    inputs: list["PlanNode"] = field(default_factory=list)

    # -- navigation ------------------------------------------------------
    @property
    def child(self) -> "PlanNode":
        if len(self.inputs) != 1:
            raise TranslationError(f"{self.op} does not have exactly one input")
        return self.inputs[0]

    def walk(self) -> Iterator["PlanNode"]:
        """Preorder traversal of the plan tree."""
        yield self
        for node in self.inputs:
            yield from node.walk()

    def find(self, op: str) -> list["PlanNode"]:
        return [node for node in self.walk() if node.op == op]

    def transform(self, fn: Callable[["PlanNode"], "PlanNode | None"]) -> "PlanNode":
        """Bottom-up rewrite: ``fn`` may return a replacement node."""
        new_inputs = [node.transform(fn) for node in self.inputs]
        candidate = PlanNode(self.op, dict(self.params), new_inputs)
        replacement = fn(candidate)
        return replacement if replacement is not None else candidate

    # -- display ---------------------------------------------------------
    def to_dict(self) -> dict:
        """Stable structural rendering: operator, one-line detail, and
        inputs.  Parameters holding pattern objects are summarized into
        ``detail`` rather than exposed raw, so the dict is plain data."""
        detail = self.describe()[len(self.op) :].strip()
        return {
            "op": self.op,
            "detail": detail,
            "inputs": [node.to_dict() for node in self.inputs],
        }

    def describe(self) -> str:
        summary = _SUMMARIZERS.get(self.op)
        if summary is not None:
            return f"{self.op} {summary(self.params)}"
        return self.op

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        lines.extend(node.explain(indent + 1) for node in self.inputs)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PlanNode {self.op} inputs={len(self.inputs)}>"


@dataclass(frozen=True)
class StitchSpec:
    """How to assemble RETURN output per outer binding (naive plan).

    ``outer_label``/``inner_label`` name the join pattern's bound
    variables whose contents correlate left and right sides; the
    ``template`` is instantiated once per outer binding over that
    binding's joined trees.
    """

    template: OutputTemplate
    outer_label: str
    inner_label: str


@dataclass(frozen=True)
class NestedGroupSpec:
    """Assembly of a collapsed 3-level nested FLWR (join-graph isolation).

    One ``outer`` element per outer distinct value; its ``groups`` leaf
    holds one ``middle`` element per middle distinct value whose
    ``link_path`` values (navigated from the middle representative)
    contain the outer value; the ``middle`` template is instantiated
    over the inner group's members exactly as ``project_groups`` does.
    """

    outer: OutputTemplate
    middle: OutputTemplate
    link_path: tuple[str, ...]


# ----------------------------------------------------------------------
# Constructors (thin, validated)
# ----------------------------------------------------------------------
def scan(doc: str) -> PlanNode:
    return PlanNode("scan", {"doc": doc})


def select(child: PlanNode, pattern, sl: set[str] | frozenset[str] = frozenset()) -> PlanNode:
    return PlanNode("select", {"pattern": pattern, "sl": frozenset(sl)}, [child])


def project(child: PlanNode, pattern, pl: list[str]) -> PlanNode:
    return PlanNode("project", {"pattern": pattern, "pl": list(pl)}, [child])


def dupelim(
    child: PlanNode, pattern=None, label: str | None = None, by_nids: bool = False
) -> PlanNode:
    return PlanNode(
        "dupelim", {"pattern": pattern, "label": label, "by_nids": by_nids}, [child]
    )


def left_outer_join(
    left: PlanNode,
    right: PlanNode,
    left_pattern,
    right_pattern,
    conditions: list[tuple[str, str]],
    sl: set[str] | frozenset[str] = frozenset(),
) -> PlanNode:
    return PlanNode(
        "left_outer_join",
        {
            "left_pattern": left_pattern,
            "right_pattern": right_pattern,
            "conditions": list(conditions),
            "sl": frozenset(sl),
        },
        [left, right],
    )


def groupby(child: PlanNode, pattern, basis: list[str]) -> PlanNode:
    return PlanNode("groupby", {"pattern": pattern, "basis": list(basis)}, [child])


def aggregate(
    child: PlanNode, pattern, function: str, source_label: str, new_tag: str, update
) -> PlanNode:
    return PlanNode(
        "aggregate",
        {
            "pattern": pattern,
            "function": function,
            "source_label": source_label,
            "new_tag": new_tag,
            "update": update,
        },
        [child],
    )


def project_groups(child: PlanNode, template: OutputTemplate) -> PlanNode:
    return PlanNode("project_groups", {"template": template}, [child])


def nested_groups(
    outer: PlanNode, middle: PlanNode, grouped: PlanNode, spec: NestedGroupSpec
) -> PlanNode:
    return PlanNode("nested_groups", {"spec": spec}, [outer, middle, grouped])


def stitch(child: PlanNode, spec: StitchSpec) -> PlanNode:
    return PlanNode("stitch", {"spec": spec}, [child])


def rename_root(child: PlanNode, tag: str) -> PlanNode:
    return PlanNode("rename_root", {"tag": tag}, [child])


# ----------------------------------------------------------------------
# Explain summaries
# ----------------------------------------------------------------------
def _fmt_pattern(pattern) -> str:
    return "/".join(pattern.labels()) if pattern is not None else "-"


_SUMMARIZERS: dict[str, Callable[[dict], str]] = {
    "scan": lambda p: p["doc"],
    "select": lambda p: f"P={_fmt_pattern(p['pattern'])} SL={sorted(p['sl'])}",
    "project": lambda p: f"P={_fmt_pattern(p['pattern'])} PL={p['pl']}",
    "dupelim": lambda p: f"on {p['label'] or 'whole tree'}",
    "left_outer_join": lambda p: (
        f"L={_fmt_pattern(p['left_pattern'])} R={_fmt_pattern(p['right_pattern'])} "
        f"on {p['conditions']}"
    ),
    "groupby": lambda p: f"basis={p['basis']}",
    "aggregate": lambda p: f"{p['new_tag']}={p['function']}({p['source_label']})",
    "project_groups": lambda p: f"-> {p['template'].render()}",
    "nested_groups": lambda p: (
        f"-> {p['spec'].outer.render()} groups={p['spec'].middle.render()} "
        f"link={'/'.join(p['spec'].link_path) or '-'}"
    ),
    "stitch": lambda p: (
        f"-> {p['spec'].template.render()} "
        f"by {p['spec'].outer_label}~{p['spec'].inner_label}"
    ),
    "rename_root": lambda p: f"-> <{p['tag']}>",
}
