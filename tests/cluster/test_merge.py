"""The distributed merge: classification, rewrite round-tripping,
slice-major reconstruction, and typed refusal of unmergeable shapes."""

import pytest

from repro.cluster.merge import apply_sortby, compile_merge, merge_rows
from repro.datagen.sample import (
    QUERY_1,
    QUERY_2,
    QUERY_COUNT,
    figure6_database,
)
from repro.errors import ClusterMergeError
from repro.query.ast import render, rename_documents
from repro.query.database import Database
from repro.query.parser import parse_query
from repro.xmlmodel.diff import assert_collections_equal
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.tree import Collection, DataTree


def _slices(root: XMLNode, count: int) -> list[XMLNode]:
    kids = root.children
    base, extra = divmod(len(kids), count)
    pieces, cursor = [], 0
    for index in range(count):
        take = base + (1 if index < extra else 0)
        piece = XMLNode(root.tag)
        for kid in kids[cursor : cursor + take]:
            piece.append_child(kid.deep_copy())
        cursor += take
        pieces.append(piece)
    return pieces


def _run_sliced(query: str, count: int, root: XMLNode | None = None) -> Collection:
    """Execute ``query`` the coordinator's way, in-process: rewrite,
    run per slice, merge, re-sort."""
    plan = compile_merge(parse_query(query))
    slice_rows = []
    for piece in _slices(root if root is not None else figure6_database(), count):
        db = Database()
        db.load(tree=piece, name="bib.xml")
        slice_rows.append(
            [tree.root for tree in db.query(plan.shard_query).collection]
        )
    merged = apply_sortby(merge_rows(plan, slice_rows), plan.sortby)
    return Collection([DataTree(row) for row in merged])


def _single(query: str, root: XMLNode | None = None) -> Collection:
    db = Database()
    db.load(tree=root if root is not None else figure6_database(), name="bib.xml")
    return db.query(query).collection


@pytest.mark.parametrize("query", [QUERY_1, QUERY_2, QUERY_COUNT])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_sliced_grouping_identical_to_single_node(query, count):
    assert_collections_equal(_single(query), _run_sliced(query, count))


def test_group_plan_classification():
    plan = compile_merge(parse_query(QUERY_1))
    assert plan.kind == "group"
    assert [leaf.kind for leaf in plan.template.leaves()] == ["key", "members"]
    assert plan.template.tag == "authorpubs"
    plan2 = compile_merge(parse_query(QUERY_COUNT))
    assert [leaf.kind for leaf in plan2.template.leaves()] == ["key", "count"]


def test_group_variable_ships_once():
    # ``{$a}`` is rebuilt from the hidden <zk>; only expressions that
    # merely *depend* on the group variable travel in their own wrapper.
    plan = compile_merge(parse_query(QUERY_1))
    assert plan.shard_query.count("{$a}") == 1
    assert "<z0>" not in plan.shard_query
    twice = """
    FOR $a IN distinct-values(document("bib.xml")//author)
    LET $t := document("bib.xml")//article[author = $a]/title
    RETURN <r>{$a} {count($t)} {$a/institution} {$a}</r>
    """
    plan = compile_merge(parse_query(twice))
    assert [leaf.kind for leaf in plan.template.leaves()] == ["key", "count", "key", "key"]
    assert [leaf.path for leaf in plan.template.leaves()] == [
        ("zk",), ("z1",), ("z2",), ("zk",)
    ]
    assert plan.shard_query.count("{$a}") == 1
    for count in (1, 2, 3):
        merged = _run_sliced(twice, count)
        assert_collections_equal(_single(twice), merged)
        # The shipped key serves two items: each gets its own node.
        for row in merged.roots():
            assert len({id(child) for child in row.children}) == len(row.children)


def test_member_list_sortby_reapplied_to_the_concatenation():
    query = QUERY_1.replace("RETURN $b/title", "RETURN $b/title SORTBY(. DESCENDING)")
    plan = compile_merge(parse_query(query))
    assert "SORTBY" not in plan.shard_query
    assert list(plan.template.leaves())[1].ordering and "SORTBY" in plan.describe()
    for count in (1, 2, 3):
        assert_collections_equal(_single(query), _run_sliced(query, count))
    # Constructed items sort on their whole string value ("byT1"), not
    # on their own text ("by") as stored nodes would.
    built = QUERY_1.replace(
        "RETURN $b/title", "RETURN <x>by {$b/title}</x> SORTBY(. DESCENDING)"
    )
    assert compile_merge(parse_query(built)).built
    for count in (2, 3):
        assert_collections_equal(_single(built), _run_sliced(built, count))
    atomic = QUERY_1.replace("RETURN $b/title", "RETURN $b/@id SORTBY(.)")
    with pytest.raises(ClusterMergeError):
        compile_merge(parse_query(atomic))


def test_shard_query_reparses():
    # The rewrite is shipped as text: it must survive render -> parse.
    plan = compile_merge(parse_query(QUERY_1))
    reparsed = parse_query(plan.shard_query)
    assert compile_merge(parse_query(QUERY_1)).shard_query == plan.shard_query
    assert reparsed is not None


def test_aggregates_merge_exactly():
    query = """
    FOR $a IN distinct-values(document("bib.xml")//author)
    LET $y := document("bib.xml")//article[author = $a]/year
    RETURN <r>{$a} {count($y)} {sum($y)} {min($y)} {max($y)} {avg($y)}</r>
    """
    for count in (1, 2, 3):
        assert_collections_equal(_single(query), _run_sliced(query, count))


def test_sortby_reapplied_after_merge():
    query = """
    FOR $a IN distinct-values(document("bib.xml")//author)
    LET $t := document("bib.xml")//article[author = $a]/title
    RETURN <r>{$a} {count($t)}</r> SORTBY (.)
    """
    plan = compile_merge(parse_query(query))
    assert plan.sortby  # stripped from the shard query, kept in the plan
    assert "SORTBY" not in plan.shard_query
    for count in (1, 2, 3):
        assert_collections_equal(_single(query), _run_sliced(query, count))


def test_groups_union_by_the_value_distinct_values_compares():
    # distinct-values compares a stored node's own content: Ann/UM and
    # Ann/MIT are one group on one node, so their slices' rows must
    # union — and a list of mixed-content nodes sorts on the same value
    # ("V1" < "V10", where the subtree strings give "V19" > "V101").
    from repro.xmlmodel.parse import parse_document

    def root():
        return parse_document(
            "<doc_root>"
            "<article><year>2000</year><venue>V1<vol>9</vol></venue>"
            "<author>Ann<institution>UM</institution></author></article>"
            "<article><year>2000</year><venue>V10<vol>1</vol></venue>"
            "<author>Bob</author></article>"
            "<article><year>2000</year><venue>V1<vol>0</vol></venue>"
            "<author>Ann<institution>MIT</institution></author></article>"
            "<article><year>2000</year><venue>V10<vol>2</vol></venue>"
            "<author>Bob</author></article>"
            "</doc_root>"
        )

    by_author = QUERY_1.replace("$b/title", "$b/venue")
    by_year = """
    FOR $y IN distinct-values(document("bib.xml")//year)
    RETURN <r>{$y}{FOR $b IN document("bib.xml")//article
    WHERE $y = $b/year RETURN $b/venue SORTBY(.)}</r>
    """
    for query in (by_author, by_year):
        want = _single(query, root())
        assert len(want) == (2 if query is by_author else 1)
        for count in (2, 4):
            assert_collections_equal(want, _run_sliced(query, count, root()))


def test_concat_and_scalar_count_shapes():
    concat = 'FOR $b IN document("bib.xml")//article RETURN $b/title'
    assert compile_merge(parse_query(concat)).kind == "concat"
    path = 'document("bib.xml")//article/title'
    assert compile_merge(parse_query(path)).kind == "concat"
    scalar = 'count(document("bib.xml")//author)'
    assert compile_merge(parse_query(scalar)).kind == "scalar-count"
    for query in (concat, path, scalar):
        for count in (1, 2, 3):
            assert_collections_equal(_single(query), _run_sliced(query, count))


@pytest.mark.parametrize(
    "query",
    [
        # distinct-values inside a RETURN item: cross-slice dedup.
        """FOR $a IN distinct-values(document("b")//author)
           RETURN <r>{distinct-values(document("b")//year)}</r>""",
        # count over distinct-values at top level.
        'count(distinct-values(document("b")//author))',
        # LET the WHERE filters on (HAVING-shaped).
        """FOR $a IN distinct-values(document("b")//author)
           LET $t := document("b")//article[author = $a]/title
           WHERE $t = "x"
           RETURN <r>{$a}</r>""",
        # Uncorrelated document re-read inside a LET.
        """FOR $a IN distinct-values(document("b")//author)
           LET $all := document("b")//article/title
           RETURN <r>{$a} {$all}</r>""",
        # Second FOR over the document: cross product across slices.
        """FOR $a IN document("b")//article
           FOR $c IN document("b")//article
           RETURN <r>{$a/title}</r>""",
    ],
)
def test_unmergeable_shapes_raise_typed(query):
    with pytest.raises(ClusterMergeError):
        compile_merge(parse_query(query))


def test_multi_document_queries_refused():
    query = """FOR $a IN distinct-values(document("b")//author)
               LET $t := document("c")//article[author = $a]/title
               RETURN <r>{$a}</r>"""
    with pytest.raises(ClusterMergeError):
        compile_merge(parse_query(query))


def test_rename_document_rewrites_every_call():
    expr = parse_query(QUERY_1)
    renamed = render(rename_documents(expr, {"bib.xml": "bib.xml~replica0"}))
    assert 'document("bib.xml~replica0")' in renamed
    assert 'document("bib.xml")' not in renamed
    # Rename is also a no-op for unrelated names: the same AST comes back.
    assert rename_documents(expr, {"other": "x"}) is expr


def test_partial_merge_drops_missing_slices_only():
    # Merging a subset of slices yields exactly the groups visible in
    # the surviving slices — the degraded-mode contract.
    plan = compile_merge(parse_query(QUERY_1))
    slice_rows = []
    for piece in _slices(figure6_database(), 3):
        db = Database()
        db.load(tree=piece, name="bib.xml")
        slice_rows.append(
            [tree.root for tree in db.query(plan.shard_query).collection]
        )
    full = merge_rows(plan, slice_rows)
    degraded = merge_rows(plan, slice_rows[:2])
    assert len(degraded) <= len(full)
    assert all(row.tag == "authorpubs" for row in degraded)
    full_keys = [row.content for row in full]
    degraded_keys = [row.content for row in degraded]
    # Surviving groups keep their global first-appearance order.
    assert degraded_keys == [key for key in full_keys if key in degraded_keys]
