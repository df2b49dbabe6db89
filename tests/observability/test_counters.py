"""Counter snapshots: immutability, delta arithmetic, layer coverage."""

import pytest

from repro.datagen.sample import QUERY_1
from repro.observability import CounterSnapshot, snapshot_counters


class TestCounterSnapshot:
    def test_mapping_protocol(self):
        snap = CounterSnapshot({"hits": 3, "misses": 1})
        assert snap["hits"] == 3
        assert snap.get("absent") == 0
        assert set(snap) == {"hits", "misses"}
        assert len(snap) == 2
        assert dict(snap) == {"hits": 3, "misses": 1}

    def test_immutable(self):
        snap = CounterSnapshot({"hits": 3})
        with pytest.raises(TypeError):
            snap["hits"] = 4
        with pytest.raises(TypeError):
            snap.hits = 4

    def test_subtraction_is_per_key_over_union(self):
        after = CounterSnapshot({"hits": 10, "misses": 2, "new": 5})
        before = CounterSnapshot({"hits": 7, "misses": 2, "gone": 1})
        delta = after - before
        assert delta == {"hits": 3, "misses": 0, "new": 5, "gone": -1}

    def test_addition(self):
        total = CounterSnapshot({"a": 1}) + CounterSnapshot({"a": 2, "b": 3})
        assert total == {"a": 3, "b": 3}

    def test_equality_against_plain_mapping(self):
        assert CounterSnapshot({"a": 1}) == {"a": 1}
        assert CounterSnapshot({"a": 1}) != {"a": 2}

    def test_as_dict_returns_independent_copy(self):
        snap = CounterSnapshot({"a": 1})
        copy = snap.as_dict()
        copy["a"] = 99
        assert snap["a"] == 1

    def test_nonzero_drops_idle_counters(self):
        snap = CounterSnapshot({"a": 1, "b": 0, "c": -1})
        assert snap.nonzero() == {"a": 1, "c": -1}


class TestSnapshotCounters:
    def test_covers_every_layer(self, store):
        snap = snapshot_counters(store)
        for key in (
            "record_lookups",
            "value_lookups",
            "nodes_materialized",
            "hits",
            "misses",
            "evictions",
            "physical_reads",
            "physical_writes",
            "join_runs",
            "pages_touched",
        ):
            assert key in snap, key

    def test_pages_touched_is_hits_plus_misses(self, store):
        snap = snapshot_counters(store)
        assert snap["pages_touched"] == snap["hits"] + snap["misses"]

    def test_index_counters_included_when_given(self, db):
        snap = snapshot_counters(db.store, db.indexes)
        assert "tag_index_lookups" in snap
        assert "value_index_lookups" in snap
        assert "index_postings_served" in snap

    def test_delta_captures_query_work(self, db):
        before = snapshot_counters(db.store, db.indexes)
        db.query(QUERY_1, plan="groupby", reset_statistics=False)
        delta = snapshot_counters(db.store, db.indexes) - before
        assert delta["record_lookups"] > 0
        assert delta["pages_touched"] > 0


class TestStatsSnapshots:
    """Satellite: stats() returns immutable snapshots; reset is explicit."""

    def test_store_stats_is_snapshot(self, db):
        db.query(QUERY_1, plan="groupby")
        snap = db.store.stats()
        assert isinstance(snap, CounterSnapshot)
        with pytest.raises(TypeError):
            snap["record_lookups"] = 0

    def test_stats_do_not_reset_implicitly(self, db):
        db.query(QUERY_1, plan="groupby", reset_statistics=False)
        first = db.store.stats()
        second = db.store.stats()
        assert first == second

    def test_reset_stats_zeroes_all_layers(self, db):
        db.query(QUERY_1, plan="groupby", reset_statistics=False)
        assert db.store.stats().nonzero()
        db.store.reset_stats()
        snap = db.store.stats()
        assert snap.nonzero() == {}

    def test_pool_and_disk_stats_snapshots(self, store):
        pool_snap = store.pool.stats()
        disk_snap = store.disk.stats()
        assert isinstance(pool_snap, CounterSnapshot)
        assert isinstance(disk_snap, CounterSnapshot)
        assert "hits" in pool_snap
        assert "physical_reads" in disk_snap

    def test_snapshot_survives_further_work(self, db):
        db.store.reset_stats()
        db.query(QUERY_1, plan="groupby", reset_statistics=False)
        frozen = db.store.stats()
        lookups = frozen["record_lookups"]
        db.query(QUERY_1, plan="groupby", reset_statistics=False)
        assert frozen["record_lookups"] == lookups
