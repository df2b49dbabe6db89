"""Coordinator correctness on healthy clusters: structural identity
with the single-node answer across topologies and plan modes, typed
catalog errors, EXPLAIN/HEALTH/STATS fan-out."""

from __future__ import annotations

import pytest

from repro.cluster import LocalCluster, LocalClusterConfig
from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1, QUERY_2, QUERY_COUNT
from repro.errors import (
    ClusterError,
    ClusterMergeError,
    RemoteError,
    ShardUnavailableError,
    TranslationError,
)
from repro.query.database import PLAN_MODES, Database
from repro.xmlmodel import ResultTable, XMLNode
from repro.xmlmodel.diff import assert_collections_equal

CORPUS_CONFIG = DBLPConfig(n_articles=48, n_authors=16, seed=5)
TOPOLOGIES = (1, 2, 4)


@pytest.fixture(scope="module")
def corpus():
    return generate_dblp(CORPUS_CONFIG)


@pytest.fixture(scope="module")
def single_node(corpus):
    db = Database()
    db.load(tree=corpus.deep_copy(), name="bib.xml")
    return db


@pytest.fixture(scope="module", params=TOPOLOGIES)
def topology(request, corpus):
    with LocalCluster(LocalClusterConfig(shards=request.param)) as cluster:
        cluster.load(tree=corpus.deep_copy(), name="bib.xml")
        yield request.param, cluster


QUERY_AVG = """
FOR $a IN distinct-values(document("bib.xml")//author)
LET $y := document("bib.xml")//article[author = $a]/year
RETURN <r kind="x">{$a} {count($y)} {avg($y)} {max($y)}</r>
"""
QUERY_WRAPPED = """
FOR $a IN distinct-values(document("bib.xml")//author)
LET $t := document("bib.xml")//article[author = $a]/title
RETURN <r>{$a} <n>{count($t)}</n></r>
"""
QUERY_CONCAT = 'FOR $b IN document("bib.xml")//article RETURN $b/title'
QUERY_SCALAR_COUNT = 'count(document("bib.xml")//author)'


@pytest.mark.parametrize(
    "query",
    [
        QUERY_1,
        QUERY_2,
        QUERY_COUNT,
        QUERY_AVG,
        QUERY_WRAPPED,
        QUERY_CONCAT,
        QUERY_SCALAR_COUNT,
    ],
)
def test_identity_across_topologies(topology, single_node, query):
    # Twice: the shards answer the first from their engines and the
    # second from their result caches — the same table frame either way.
    shards, cluster = topology
    want = single_node.query(query)
    for _ in range(2):
        got = cluster.query(query)
        assert not got.partial
        assert_collections_equal(want.collection, got.collection)
        assert got.to_xml(indent=None) == want.to_xml(indent=None)


@pytest.mark.parametrize("mode", PLAN_MODES)
def test_identity_across_plan_modes(topology, single_node, mode):
    shards, cluster = topology
    want = single_node.query(QUERY_1, plan=mode).collection
    got = cluster.query(QUERY_1, plan=mode)
    assert_collections_equal(want, got.collection)


def test_forced_plan_modes_mean_what_they_mean_on_one_node(topology, single_node):
    # ``{$a/institution}`` keeps the query (and so its shard form)
    # outside the grouping family: ``auto`` answers it with ``direct``
    # everywhere, a forced grouping mode is refused everywhere — typed,
    # and without benching the shards that said so.
    shards, cluster = topology
    query = """
    FOR $a IN distinct-values(document("bib.xml")//author)
    LET $t := document("bib.xml")//article[author = $a]/title
    RETURN <r>{$a/institution} {count($t)}</r>
    """
    assert_collections_equal(
        single_node.query(query).collection, cluster.query(query).collection
    )
    with pytest.raises(TranslationError):
        single_node.query(query, plan="groupby")
    with pytest.raises(RemoteError) as excinfo:
        cluster.query(query, plan="groupby")
    assert excinfo.value.kind == "TranslationError"
    assert cluster.coordinator.quarantined_shards() == frozenset()


def test_concat_scalar_and_sortby_through_coordinator(topology, single_node):
    shards, cluster = topology
    queries = (
        'FOR $b IN document("bib.xml")//article RETURN $b/title',
        'count(document("bib.xml")//author)',
        """FOR $a IN distinct-values(document("bib.xml")//author)
           LET $t := document("bib.xml")//article[author = $a]/title
           RETURN <r>{$a} {count($t)}</r> SORTBY (.)""",
    )
    for query in queries:
        want = single_node.query(query).collection
        assert_collections_equal(want, cluster.query(query).collection)


def test_shard_rows_cross_the_wire_verbatim():
    # Rows travel as a table frame, not as XML text inside JSON, so what
    # an XML parser would normalize or choke on arrives as it was stored:
    # markup characters, non-ASCII, attributes, childless empty elements.
    root = XMLNode("bib")
    for index, (name, title) in enumerate(
        [("A & B", 'x < y > "z"'), ("Émile 語", "q"), ("A & B", "tab\there")]
    ):
        article = root.add("article", None, id=f'a"{index}', lang="fr&en")
        article.add("author", name)
        article.add("title", title, kind="<t>")
        article.add("note")
    queries = (
        QUERY_1,
        'FOR $b IN document("bib.xml")//article RETURN $b',
    )
    single = Database()
    single.load(tree=root.deep_copy(), name="bib.xml")
    for slices in (1, 2):
        with LocalCluster(LocalClusterConfig(shards=2)) as cluster:
            cluster.load(tree=root.deep_copy(), name="bib.xml", slices=slices)
            for query in queries:
                want = single.query(query)
                got = cluster.query(query)
                assert_collections_equal(want.collection, got.collection)
                assert got.to_xml(indent=None) == want.to_xml(indent=None)


def test_a_frame_that_does_not_decode_fails_the_shard_call(topology, monkeypatch):
    # Half a table is a failed call (failover, then a typed error), never
    # something to merge.
    shards, cluster = topology
    before = cluster.coordinator.counter_snapshot()
    whole = ResultTable.to_wire
    monkeypatch.setattr(ResultTable, "to_wire", lambda table: whole(table)[:-2])
    with pytest.raises(ShardUnavailableError):
        cluster.query(QUERY_CONCAT)
    monkeypatch.undo()
    delta = cluster.coordinator.counter_snapshot() - before
    assert delta["cluster_shard_call_failures"] == shards
    assert delta["cluster_merges"] == 0
    cluster.query(QUERY_CONCAT)  # one bad reply benches nobody
    assert cluster.coordinator.quarantined_shards() == frozenset()


def test_load_report_covers_every_slice(topology, corpus):
    shards, cluster = topology
    report = cluster.load(tree=corpus.deep_copy(), name="second.xml")
    assert report.document == "second.xml"
    assert len(report.slices) == shards
    assert report.partitioned == (shards > 1)
    # Every root child landed somewhere: node totals cover the corpus.
    assert report.nodes == corpus.subtree_size() + (shards - 1)


def test_unknown_document_is_a_typed_catalog_error(topology):
    shards, cluster = topology
    with pytest.raises(ClusterError):
        cluster.query(
            'FOR $a IN distinct-values(document("ghost.xml")//author) '
            "RETURN <r>{$a}</r>"
        )


def test_unmergeable_query_runs_on_whole_document_placement(corpus, single_node):
    # HAVING-shaped WHERE cannot merge across slices -> typed error on
    # a partitioned document, but a whole (slices=1) placement routes
    # to one shard and needs no merge at all.
    having = """
    FOR $a IN distinct-values(document("whole.xml")//author)
    LET $t := document("whole.xml")//article[author = $a]/title
    WHERE count($t) > 1
    RETURN <r>{$a}</r>
    """
    with LocalCluster(LocalClusterConfig(shards=2)) as cluster:
        cluster.load(tree=corpus.deep_copy(), name="bib.xml")
        with pytest.raises(ClusterMergeError):
            cluster.query(having.replace("whole.xml", "bib.xml"))
        cluster.load(tree=corpus.deep_copy(), name="whole.xml", slices=1)
        got = cluster.query(having)
        reference = Database()
        reference.load(tree=corpus.deep_copy(), name="whole.xml")
        assert_collections_equal(reference.query(having).collection, got.collection)


def test_explain_has_cluster_section_and_local_plan(topology):
    shards, cluster = topology
    explanation = cluster.explain(QUERY_1)
    text = explanation.render()
    assert "=== cluster plan ===" in text
    assert f"{shards} slice(s)" in text
    assert "merge:" in text
    payload = explanation.to_dict()
    assert payload["cluster"]["document"] == "bib.xml"
    assert len(payload["cluster"]["slices"]) == shards
    if shards > 1:
        assert "group" in payload["cluster"]["merge"]
        assert "SORTBY" not in payload["cluster"]["shard_query"]


def test_health_rollup_ok_and_stats_merge(topology):
    shards, cluster = topology
    health = cluster.health()
    assert health.ok
    assert set(health.shards) == set(range(shards))
    assert all(report is not None for report in health.shards.values())
    snapshot = cluster.stats()
    assert snapshot["cluster_fanouts"] >= 1
    assert snapshot["cluster_loads"] >= 1
    # Shard-side counters fold in under their own prefixes.
    assert any(key.startswith("server_") for key in snapshot)
