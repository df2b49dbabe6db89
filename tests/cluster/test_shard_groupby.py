"""The shard form of a grouping query is a grouping query: every shard
answers its ``<zrow>`` partials with the GROUPBY plan, a member list's
own SORTBY survives partitioning, and cold scatter-gather does work
linear in the slice."""

from __future__ import annotations

import pytest

from repro.cluster import LocalCluster, LocalClusterConfig
from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1, QUERY_2, QUERY_COUNT
from repro.query.database import Database
from repro.service.service import ServiceConfig
from repro.xmlmodel.diff import assert_collections_equal

QUERY_AVG = """
FOR $a IN distinct-values(document("bib.xml")//author)
LET $y := document("bib.xml")//article[author = $a]/year
RETURN <r kind="x">{$a} {count($y)} {avg($y)} {max($y)}</r>
"""


def _cold_cluster(shards: int) -> LocalCluster:
    return LocalCluster(
        LocalClusterConfig(shards=shards, service=ServiceConfig(result_cache_entries=0))
    )


@pytest.fixture(scope="module")
def small():
    corpus = generate_dblp(DBLPConfig(n_articles=60, n_authors=8, seed=7))
    db = Database()
    db.load(tree=corpus.deep_copy(), name="bib.xml")
    with _cold_cluster(2) as cluster:
        cluster.load(tree=corpus.deep_copy(), name="bib.xml")
        yield db, cluster


def test_sorted_member_list_is_identical_on_a_partitioned_document(small):
    # Each shard used to sort its own slice and the coordinator
    # concatenated slice-major: the first title differed from ``direct``.
    # An article returns every author it has, each sorted on its own.
    db, cluster = small
    for returned in (
        "$b/title SORTBY(. ASCENDING)",
        "$b/title SORTBY(. DESCENDING)",
        "$b/author SORTBY(. DESCENDING)",
    ):
        query = QUERY_1.replace("RETURN $b/title", f"RETURN {returned}")
        want = db.query(query, plan="direct").collection
        got = cluster.query(query)
        assert not got.partial
        assert_collections_equal(want, got.collection)


@pytest.mark.parametrize("query", [QUERY_1, QUERY_2, QUERY_COUNT, QUERY_AVG])
def test_shards_explain_their_query_as_groupby(small, query):
    db, cluster = small
    payload = cluster.explain(query).to_dict()
    assert "<zrow>" in payload["cluster"]["shard_query"]
    assert "plan" not in payload  # the shard query is not a direct fallback
    nodes = [payload["plans"]["groupby"]]
    ops = set()
    while nodes:
        node = nodes.pop()
        ops.add(node["op"])
        nodes.extend(node["inputs"])
    assert "groupby" in ops
    assert_collections_equal(
        db.query(query, plan="direct").collection, cluster.query(query).collection
    )


def test_cold_scatter_gather_is_linear_in_the_slice():
    """Counter-only: at 800 articles the two shards together decode at
    most twice the records the single-node GROUPBY plan does (it was
    ~60x while the shard query ran under the nested-loop interpreter)."""
    corpus = generate_dblp(DBLPConfig(n_articles=800, n_authors=160, seed=7))
    db = Database()
    db.load(tree=corpus.deep_copy(), name="bib.xml")
    single = db.query(QUERY_1, plan="groupby")
    with _cold_cluster(2) as cluster:
        cluster.load(tree=corpus.deep_copy(), name="bib.xml")
        before = cluster.stats()["record_lookups"]
        got = cluster.query(QUERY_1)
        lookups = cluster.stats()["record_lookups"] - before
    assert_collections_equal(single.collection, got.collection)
    assert 0 < lookups <= 2 * single.statistics["record_lookups"]
