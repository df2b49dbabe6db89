"""Identifier-only late materialization in the GROUPBY plan (Sec. 5.3):
values mode resolves the output path for all members in one label-only
descent and populates the whole result with one batched fetch.  The
answers must stay exactly the direct interpreter's; the record-lookup
counts say the store walk per member is gone."""

import pytest

from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1
from repro.pattern import matcher as matcher_module
from repro.query.database import Database
from repro.xmlmodel.diff import diff_collections

# Grouped elements (sec) nest inside one another; a member reaches zero,
# one or several path targets; targets are leaves (head) or elements
# with children (note); one member sits in several groups (two tags).
RECURSIVE = """
<doc_root>
  <sec><tag>x</tag><tag>y</tag><year>3</year>
    <head>A</head><head>A2</head>
    <note>n1<em>e1</em></note>
    <sec><tag>x</tag><year>1</year>
      <head>B</head>
      <sec><tag>y</tag><head>C</head><note>n2<em>e2</em><em>e3</em></note></sec>
    </sec>
    <sec><tag>z</tag><year>2</year></sec>
  </sec>
  <sec><tag>z</tag><tag>x</tag><year>2</year><head>D</head></sec>
  <sec><year>9</year><head>untagged</head></sec>
</doc_root>
"""


def grouping_query(
    output: str, sortby: str = "", where: str = "", aggregate: str = ""
) -> str:
    inner = (
        'FOR $b IN document("bib.xml")//sec\n'
        f"WHERE $g = $b/tag{where}\n"
        f"RETURN $b/{output}{sortby}"
    )
    body = f"{aggregate}({inner})" if aggregate else inner
    return (
        'FOR $g IN distinct-values(document("bib.xml")//tag)\n'
        f"RETURN <grp>{{$g}}{{{body}}}</grp>"
    )


QUERIES = {
    "leaf-targets": grouping_query("head"),
    "non-leaf-targets": grouping_query("note"),
    "two-step-path": grouping_query("note/em"),
    "sortby-missing-key": grouping_query("year", " SORTBY(. DESCENDING)"),
    "sortby-relative-key": grouping_query("note", " SORTBY(em ASCENDING)"),
    "padded-outer-distinct": grouping_query("head", where=' AND $b/year > "1"'),
    "count": grouping_query("head", aggregate="count"),
}


@pytest.fixture(params=["columnar", "object-walk", "pure-python-staircase"])
def recursive_db(request, monkeypatch):
    if request.param == "pure-python-staircase":
        monkeypatch.setattr(matcher_module, "_np", None)
    db = Database(columnar=request.param != "object-walk")
    db.load(text=RECURSIVE, name="bib.xml")
    return db


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_values_mode_identical_to_direct_on_recursive_document(recursive_db, name):
    query = QUERIES[name]
    reference = recursive_db.query(query, plan="direct").collection
    assert len(reference) == 3  # x, y, z
    for plan in ("groupby", "auto"):
        result = recursive_db.query(query, plan=plan)
        assert result.plan_mode == "groupby"
        assert diff_collections(result.collection, reference) is None, plan


def test_recursive_document_exercises_the_hard_cases(recursive_db):
    """Guard the fixture itself: nested members, a shared member, and
    zero / several targets really occur."""
    result = recursive_db.query(QUERIES["leaf-targets"], plan="groupby")
    heads = {
        tree.root.children[0].content: [n.content for n in tree.root.children[1:]]
        for tree in result.collection
    }
    assert heads == {"x": ["A", "A2", "B", "D"], "y": ["A", "A2", "C"], "z": ["D"]}


# The E4 shape over articles that nest: Ann's outer article contains
# her inner one, is shared with Bob, and has two titles; Bob's second
# article has none.
NESTED_DOC = """
<doc_root>
  <article>
    <author>Ann<institution>UM</institution></author>
    <author>Bob<institution>MIT</institution></author>
    <title>T1</title><title>T1b</title>
    <article><author>Ann<institution>UM</institution></author><title>T2</title></article>
  </article>
  <article><author>Bob<institution>MIT</institution></author></article>
  <article><author>Eve<institution>UM</institution></author><title>T4</title></article>
</doc_root>
"""

NESTED = """
FOR $i IN distinct-values(document("bib.xml")//institution)
RETURN <instpubs>{$i}{
FOR $a IN distinct-values(document("bib.xml")//author)
WHERE $i = $a/institution
RETURN <authorpubs>{$a}{FOR $b IN document("bib.xml")//article
WHERE $a = $b/author
RETURN $b/title}</authorpubs>
}</instpubs>
"""


@pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "object-walk"])
def test_nested_groups_identical_to_direct(columnar):
    db = Database(columnar=columnar)
    db.load(text=NESTED_DOC, name="bib.xml")
    counting = NESTED.replace("{FOR $b", "{count(FOR $b").replace(
        "$b/title}", "$b/title)}"
    )
    for query in (NESTED, counting):
        reference = db.query(query, plan="direct").collection
        result = db.query(query, plan="auto")
        assert result.plan_mode == "groupby"
        assert diff_collections(result.collection, reference) is None
    titles = [
        [n.content for n in group.children[1:]]
        for group in db.query(NESTED, plan="groupby").collection[0].root.children[1:]
    ]
    assert titles == [["T1", "T1b", "T2"], ["T4"]]  # UM: Ann, Eve


@pytest.fixture(scope="module")
def dblp_db():
    db = Database()
    db.load(
        tree=generate_dblp(DBLPConfig(n_articles=800, n_authors=160, seed=7)),
        name="bib.xml",
    )
    return db


def test_groupby_fetches_about_one_record_per_emitted_node(dblp_db):
    stats = dblp_db.query(QUERY_1, plan="groupby").statistics
    assert stats["nodes_materialized"] == 1786
    # Basis population (one per witness) + one decode per distinct
    # emitted node; the per-member store walk took 16.8 per node.
    assert stats["record_lookups"] <= 2 * stats["nodes_materialized"]


def test_naive_plan_keeps_the_papers_baseline_cost(dblp_db):
    """The naive plan *is* the tuple-at-a-time baseline: its lookup
    count is pinned to what it was before the GROUPBY plan changed."""
    stats = dblp_db.query(QUERY_1, plan="naive").statistics
    assert stats["record_lookups"] == 278400
    assert stats["nodes_materialized"] == 1786
