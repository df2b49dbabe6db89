"""LRU cache semantics, and result-cache correctness on real workloads.

The correctness bar for the result cache: a warm hit must be
*structurally identical* (via :mod:`repro.xmlmodel.diff`) to a cold
run, and any data mutation between the runs must force a miss.
"""

from __future__ import annotations

import pytest

from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1, QUERY_2
from repro.query.database import Database
from repro.service import LRUCache, QueryService, ServiceClient, ServiceConfig
from repro.service.server import serve
from repro.xmlmodel.diff import assert_collections_equal


# ----------------------------------------------------------------------
# LRUCache unit behaviour
# ----------------------------------------------------------------------
def test_lru_hit_miss_counters():
    cache = LRUCache(4)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.counters.hits == 1
    assert cache.counters.misses == 1
    assert cache.counters.hit_ratio() == 0.5


def test_lru_eviction_order_and_refresh():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh a; b is now least recently used
    cache.put("c", 3)
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    assert cache.counters.evictions == 1


def test_lru_peek_is_silent():
    cache = LRUCache(2)
    cache.put("a", 1)
    assert cache.peek("a") == 1
    assert cache.peek("zzz") is None
    assert cache.counters.requests == 0


def test_lru_invalidate_predicate():
    cache = LRUCache(8)
    for gen in (1, 1, 2):
        cache.put(("q", gen), gen)
    dropped = cache.invalidate(lambda key: key[1] != 2)
    assert dropped == 1  # ("q", 1) was overwritten; one stale entry left
    assert cache.keys() == [("q", 2)]


def test_disabled_cache_never_stores():
    cache = LRUCache(0)
    cache.put("a", 1)
    assert not cache.enabled
    assert cache.get("a") is None
    assert len(cache) == 0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        LRUCache(-1)


# ----------------------------------------------------------------------
# Result-cache correctness over the paper's workloads
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def loaded_db() -> Database:
    db = Database()
    db.load(tree=generate_dblp(DBLPConfig(n_articles=80, n_authors=25, seed=5)), name="bib.xml")
    return db


@pytest.mark.parametrize("query", [QUERY_1, QUERY_2], ids=["e1", "e2"])
@pytest.mark.parametrize("plan", ["auto", "direct", "naive"])
def test_warm_hit_matches_cold_run(loaded_db, query, plan):
    with QueryService(loaded_db, ServiceConfig(workers=2)) as service:
        cold = service.query(query, plan=plan)
        warm = service.query(query, plan=plan)
        assert not cold.cached
        assert warm.cached
        assert_collections_equal(cold.collection, warm.collection)


def test_load_between_runs_forces_miss():
    db = Database()
    db.load(tree=generate_dblp(DBLPConfig(n_articles=30, n_authors=10, seed=5)), name="bib.xml")
    with QueryService(db, ServiceConfig(workers=2)) as service:
        first = service.query(QUERY_1)
        service.load_tree(
            generate_dblp(DBLPConfig(n_articles=5, n_authors=3, seed=11)), "extra.xml"
        )
        second = service.query(QUERY_1)
        assert not second.cached
        assert second.generation > first.generation
        # And the fresh result is itself cached under the new generation.
        third = service.query(QUERY_1)
        assert third.cached
        assert_collections_equal(second.collection, third.collection)


def _vandalize(collection):
    for tree in collection:
        tree.root.tag = "vandalized"
        tree.root.attributes["poisoned"] = "yes"
        tree.root.children.clear()


def test_cached_copies_are_isolated(loaded_db):
    """No caller can poison later hits by mutating its result trees —
    not the caller whose miss filled the cache, not a caller of a hit —
    whether the next hit is read in-process or over the wire."""
    expected = loaded_db.query(QUERY_1)
    with QueryService(loaded_db, ServiceConfig(workers=1)) as service:
        filling = service.query(QUERY_1)
        assert not filling.cached
        _vandalize(filling.collection)
        warm1 = service.query(QUERY_1)
        assert warm1.cached
        assert_collections_equal(expected.collection, warm1.collection)
        _vandalize(warm1.collection)
        warm2 = service.query(QUERY_1)
        assert warm2.cached
        assert_collections_equal(expected.collection, warm2.collection)

        server = serve(service, port=0)
        server.serve_background()
        try:
            with ServiceClient(*server.endpoint) as client:
                reply = client.query(QUERY_1)
        finally:
            server.shutdown()
            server.server_close()
        assert reply["cached"]
        assert reply["xml"] == expected.to_xml(indent=None)


def test_plan_cache_distinguishes_requested_modes(loaded_db):
    with QueryService(loaded_db, ServiceConfig(workers=1)) as service:
        auto = service.query(QUERY_1, plan="auto")
        naive = service.query(QUERY_1, plan="naive")
        assert not naive.plan_cached  # different requested mode, new entry
        assert_collections_equal(auto.collection, naive.collection)
        assert service.query(QUERY_1, plan="naive").plan_cached


def test_fingerprint_unifies_formatting_variants(loaded_db):
    with QueryService(loaded_db, ServiceConfig(workers=1)) as service:
        cold = service.query(QUERY_1)
        squeezed = " ".join(QUERY_1.split())
        warm = service.query(squeezed)
        assert warm.cached
        assert warm.fingerprint == cold.fingerprint


# ----------------------------------------------------------------------
# Data-generation keying
# ----------------------------------------------------------------------
def test_plan_cache_replans_after_load():
    """A plan prepared against one data generation never serves a query
    after the data changed: load → query → load more → the same text
    re-plans, and the fresh entry carries the new generation."""
    from repro.service.fingerprint import fingerprint_text

    db = Database()
    db.load(tree=generate_dblp(DBLPConfig(n_articles=30, n_authors=10, seed=5)), name="bib.xml")
    with QueryService(db, ServiceConfig(workers=1)) as service:
        generation = db.data_generation
        service.query(QUERY_1)
        assert service.query(QUERY_1).plan_cached
        key = (fingerprint_text(QUERY_1), "auto")
        assert service.plan_cache.peek(key).generation == generation

        service.load_tree(
            generate_dblp(DBLPConfig(n_articles=5, n_authors=3, seed=11)), "extra.xml"
        )
        assert db.data_generation > generation
        after = service.query(QUERY_1)
        assert not after.plan_cached  # re-planned against the new data
        assert not after.cached
        assert after.generation == db.data_generation
        assert service.plan_cache.peek(key).generation == db.data_generation
