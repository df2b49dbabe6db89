"""Seeded random generator of documents + queries in the TAX grouping
family — the differential harness's input (``test_differential.py``).

Every generated query is in one of the shapes the translator
recognizes, so the harness can demand agreement across *all* execution
engines (not just direct vs auto):

* ``grouping`` — the paper's 2-level family: values / aggregates,
  optional SORTBY, optional inner-WHERE value filters, 1- or 2-step
  join condition paths;
* ``nested`` — the 3-level E4 family (institution/author/article) that
  join-graph isolation collapses; the naive join engines legitimately
  reject it (no single join block), which the harness asserts.

Values-mode output paths are one or two steps, reach zero, one or
several nodes per member, and end on leaves or on elements with
children.

A fraction of the queries are *decorated*: their RETURN constructor
carries an attribute, a literal text item or a wrapper element around
the member list.  The grouping plans cannot construct those, so the
translator must refuse them — forced plan modes raise
``TranslationError`` and ``auto`` falls back to ``direct`` — instead of
answering with the decoration silently dropped.

Determinism: everything derives from one ``random.Random(seed)``; the
same seed always yields the same document and query sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

INSTITUTIONS = ("UM", "UBC", "MIT", "CMU")
AUTHORS = ("Jack", "Jill", "Ann", "Bob", "Eve", "Tom", "Ada", "Max")
YEARS = tuple(str(year) for year in range(1994, 2003))


@dataclass(frozen=True)
class GeneratedQuery:
    """One generated query and the family it belongs to."""

    text: str
    family: str  # "grouping" | "nested"
    mode: str  # values | count | sum | min | max | avg
    group_tag: str
    decorated: bool = False  # RETURN shape outside the translatable family


class QueryGenerator:
    """Document + query stream for one seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------
    def document(self) -> str:
        """A randomized bibliography: articles with optional titles,
        years, venues (name + volume), and authors (each author carrying
        an institution) — missing fields, duplicate values, and shared
        members included."""
        rng = self.rng
        parts = ["<doc_root>"]
        for index in range(rng.randint(6, 14)):
            parts.append("<article>")
            if rng.random() < 0.9:
                parts.append(f"<title>T{index}</title>")
            if rng.random() < 0.85:
                parts.append(f"<year>{rng.choice(YEARS)}</year>")
            if rng.random() < 0.7:
                parts.append(
                    f"<venue><name>V{rng.randint(1, 4)}</name>"
                    f"<volume>{rng.randint(1, 30)}</volume></venue>"
                )
            for author in rng.sample(AUTHORS, rng.randint(0, 3)):
                institution = rng.choice(INSTITUTIONS)
                parts.append(
                    f"<author>{author}<institution>{institution}</institution></author>"
                )
            parts.append("</article>")
        parts.append("</doc_root>")
        return "".join(parts)

    # ------------------------------------------------------------------
    def queries(self, count: int):
        """Yield ``count`` generated queries (deterministic per seed)."""
        for _ in range(count):
            if self.rng.random() < 0.2:
                yield self._nested_query()
            else:
                yield self._grouping_query()

    def _grouping_query(self) -> GeneratedQuery:
        rng = self.rng
        group_tag, condition = rng.choice(
            [
                ("author", "$b/author"),
                ("year", "$b/year"),
                ("title", "$b/title"),
                ("institution", "$b/author/institution"),
            ]
        )
        mode = rng.choice(["values", "values", "count", "sum", "min", "max", "avg"])
        if mode in ("sum", "min", "max", "avg"):
            output = rng.choice(["year", "venue/volume"])
        else:
            output = rng.choice(
                ["title", "year", "venue/name", "venue", "author/institution"]
            )
        where = f"WHERE $g = {condition}"
        if rng.random() < 0.35:
            op = rng.choice(["=", "<", ">", "<=", ">="])
            literal = rng.choice(YEARS)
            where += f' AND $b/year {op} "{literal}"'
        inner = (
            f'FOR $b IN document("bib.xml")//article\n'
            f"{where}\n"
            f"RETURN $b/{output}"
        )
        # SORTBY orders the returned items; the plans order members by
        # their first reached value — the same thing only where a member
        # contributes at most one item, so the multi-target path gets none.
        if mode == "values" and output != "author/institution" and rng.random() < 0.3:
            key = rng.choice(["name", "volume"]) if output == "venue" else "."
            direction = rng.choice(["ASCENDING", "DESCENDING"])
            inner += f" SORTBY({key} {direction})"
        body = f"{{{mode}({inner})}}" if mode != "values" else f"{{{inner}}}"
        constructor, decorated = self._constructor("grp", "{$g}", body)
        text = (
            f'FOR $g IN distinct-values(document("bib.xml")//{group_tag})\n'
            f"RETURN {constructor}"
        )
        return GeneratedQuery(
            text=text,
            family="grouping",
            mode=mode,
            group_tag=group_tag,
            decorated=decorated,
        )

    def _constructor(self, tag: str, key: str, body: str) -> tuple[str, bool]:
        """``<tag>{key}{body}</tag>``, decorated one time in five."""
        rng = self.rng
        if rng.random() >= 0.2:
            return f"<{tag}>{key}{body}</{tag}>", False
        decoration = rng.choice(["attribute", "text", "wrapper"])
        if decoration == "attribute":
            return f'<{tag} kind="x">{key}{body}</{tag}>', True
        if decoration == "text":
            return f"<{tag}>pubs of {key}{body}</{tag}>", True
        return f"<{tag}>{key}<list>{body}</list></{tag}>", True

    def _nested_query(self) -> GeneratedQuery:
        rng = self.rng
        mode = rng.choice(["values", "values", "count"])
        output = rng.choice(["title", "year"])
        inner = (
            f'FOR $b IN document("bib.xml")//article\n'
            f"WHERE $a = $b/author\n"
            f"RETURN $b/{output}"
        )
        body = f"{{count({inner})}}" if mode == "count" else f"{{{inner}}}"
        middle, decorated = self._constructor("authorpubs", "{$a}", body)
        text = (
            f'FOR $i IN distinct-values(document("bib.xml")//institution)\n'
            f"RETURN <instpubs>{{$i}}{{\n"
            f'FOR $a IN distinct-values(document("bib.xml")//author)\n'
            f"WHERE $i = $a/institution\n"
            f"RETURN {middle}\n"
            f"}}</instpubs>"
        )
        return GeneratedQuery(
            text=text,
            family="nested",
            mode=mode,
            group_tag="institution",
            decorated=decorated,
        )
