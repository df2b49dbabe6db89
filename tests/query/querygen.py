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

The RETURN constructor is an output template, so most queries carry
more than the bare ``<tag>{$g}{body}</tag>``: several member lists and
aggregates over the same join-plan pattern (``{$g} {count(…)}
{…/title}``, two lists over different paths, ``avg`` beside ``sum``),
the key anywhere, twice or not at all, and decoration — attributes,
literal text, wrapper elements (attributed themselves) around items.
Every plan must answer all of them exactly as ``direct`` does.

A small fraction stay *untranslatable*: one RETURN item ranges over a
different join-plan pattern (an extra filter), which no single GROUPBY
computes.  Forced plan modes must refuse those with
``TranslationError`` and ``auto`` must fall back to ``direct``.

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
    mode: str  # of the first RETURN item: values | count | sum | min | max | avg
    group_tag: str
    translatable: bool = True  # False: forced plans must refuse, auto = direct


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
        where = f"WHERE $g = {condition}"
        if rng.random() < 0.35:
            op = rng.choice(["=", "<", ">", "<=", ">="])
            literal = rng.choice(YEARS)
            where += f' AND $b/year {op} "{literal}"'
        constructor, mode, translatable = self._constructor("grp", "$g", where)
        text = (
            f'FOR $g IN distinct-values(document("bib.xml")//{group_tag})\n'
            f"RETURN {constructor}"
        )
        return GeneratedQuery(
            text=text,
            family="grouping",
            mode=mode,
            group_tag=group_tag,
            translatable=translatable,
        )

    def _item(self, where: str, sortable: bool, modes) -> tuple[str, str]:
        """One embedded RETURN item over the join-plan pattern ``where``
        selects: ``(text, mode)``."""
        rng = self.rng
        mode = rng.choice(modes)
        if mode in ("sum", "min", "max", "avg"):
            output = rng.choice(["year", "venue/volume"])
        else:
            output = rng.choice(
                ["title", "year", "venue/name", "venue", "author/institution"]
            )
        inner = (
            f'FOR $b IN document("bib.xml")//article\n'
            f"{where}\n"
            f"RETURN $b/{output}"
        )
        # SORTBY orders the returned items, so a member reaching several
        # (author/institution) contributes each at its own place.
        sorts = sortable and mode == "values" and rng.random() < 0.3
        if sorts:
            key = rng.choice(["name", "volume"]) if output == "venue" else "."
            direction = rng.choice(["ASCENDING", "DESCENDING"])
            inner += f" SORTBY({key} {direction})"
        body = f"{{{mode}({inner})}}" if mode != "values" else f"{{{inner}}}"
        return body, mode

    def _constructor(
        self,
        tag: str,
        key: str,
        where: str,
        modes=("values", "values", "count", "sum", "min", "max", "avg"),
    ) -> tuple[str, str, bool]:
        """A RETURN constructor over one join-plan pattern:
        ``(text, first item's mode, translatable)``.  Half are the bare
        ``<tag>{key}{body}</tag>``; the rest mix one to three items with
        the key (anywhere, twice, or absent), wrappers, attributes and
        literal text."""
        rng = self.rng
        if rng.random() < 0.5:
            body, mode = self._item(where, True, modes)
            return f"<{tag}>{{{key}}}{body}</{tag}>", mode, True
        items: list[str] = []
        first_mode = ""
        for index in range(rng.randint(1, 3)):
            body, mode = self._item(where, True, modes)
            first_mode = first_mode or mode
            wrap = rng.random()
            if wrap < 0.2:
                body = f"<w{index}>{body}</w{index}>"
            elif wrap < 0.3:
                body = f'<w{index} n="{index}">of {body}</w{index}>'
            items.append(body)
        translatable = True
        if rng.random() < 0.1:
            # One more list over a *different* join-plan pattern.
            body, _ = self._item(where + ' AND $b/year != "1990"', False, ["values"])
            items.append(body)
            translatable = False
        for _ in range(rng.choice([0, 1, 1, 1, 2])):
            items.insert(rng.randint(0, len(items)), f"{{{key}}}")
        if rng.random() < 0.3:
            items.insert(rng.randint(0, len(items)), rng.choice(["pubs of", "n ="]))
        attribute = ' kind="x"' if rng.random() < 0.3 else ""
        return f"<{tag}{attribute}>{' '.join(items)}</{tag}>", first_mode, translatable

    def _nested_query(self) -> GeneratedQuery:
        rng = self.rng
        middle, mode, translatable = self._constructor(
            "authorpubs", "$a", "WHERE $a = $b/author", modes=("values", "values", "count")
        )
        flwr = (
            f'{{\nFOR $a IN distinct-values(document("bib.xml")//author)\n'
            f"WHERE $i = $a/institution\n"
            f"RETURN {middle}\n}}"
        )
        decoration = rng.random()
        if decoration < 0.6:
            outer = f"<instpubs>{{$i}}{flwr}</instpubs>"
        elif decoration < 0.8:
            outer = f'<instpubs kind="x">at {{$i}}<who>{flwr}</who></instpubs>'
        else:
            outer = f"<instpubs>{flwr} {{$i}}</instpubs>"
        text = (
            f'FOR $i IN distinct-values(document("bib.xml")//institution)\n'
            f"RETURN {outer}"
        )
        return GeneratedQuery(
            text=text,
            family="nested",
            mode=mode,
            group_tag="institution",
            translatable=translatable,
        )
