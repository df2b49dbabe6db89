"""Index persistence tests: round-trip, staleness, corruption fallback."""

import os

import pytest

from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1, figure6_database
from repro.indexing.manager import IndexManager
from repro.indexing.persist import INDEX_FILE, load_indexes, save_indexes
from repro.query.database import Database
from repro.storage.store import NodeStore


@pytest.fixture
def disk_store(tmp_path):
    directory = os.path.join(tmp_path, "db")
    store = NodeStore(directory)
    store.load_tree(figure6_database(), "bib.xml")
    yield store, directory
    store.close()


class TestRoundTrip:
    def test_save_then_load(self, disk_store):
        store, directory = disk_store
        manager = IndexManager(store)
        manager.build()
        manager.save(directory)

        fresh = IndexManager(store)
        assert fresh.try_load(directory)
        assert fresh.labels_for_tag("author") == manager.labels_for_tag("author")
        assert fresh.labels_for_tag_value("author", "Jack") == manager.labels_for_tag_value(
            "author", "Jack"
        )
        assert [v for v, _ in fresh.distinct_values("author")] == [
            v for v, _ in manager.distinct_values("author")
        ]

    def test_loaded_indexes_pass_invariants(self, disk_store):
        store, directory = disk_store
        manager = IndexManager(store)
        manager.build()
        manager.save(directory)
        fresh = IndexManager(store)
        fresh.try_load(directory)
        fresh.check_invariants()

    def test_large_postings_chunked(self, tmp_path):
        """More postings than one chunk: everything survives the trip."""
        directory = os.path.join(tmp_path, "big")
        store = NodeStore(directory)
        store.load_tree(
            generate_dblp(DBLPConfig(n_articles=300, n_authors=40, seed=2)), "bib.xml"
        )
        manager = IndexManager(store)
        manager.build()
        manager.save(directory)
        fresh = IndexManager(store)
        assert fresh.try_load(directory)
        assert fresh.labels_for_tag("article") == manager.labels_for_tag("article")
        assert fresh.tag_index.total_postings() == manager.tag_index.total_postings()
        assert fresh.value_index.n_entries() == manager.value_index.n_entries()
        store.close()


class TestFallbacks:
    def test_missing_file(self, disk_store):
        store, directory = disk_store
        manager = IndexManager(store)
        assert not manager.try_load(directory)

    def test_stale_fingerprint_rejected(self, disk_store):
        store, directory = disk_store
        manager = IndexManager(store)
        manager.build()
        manager.save(directory)
        # Another document changes the fingerprint.
        store.load_text("<doc_root><author>Zara</author></doc_root>", "b.xml")
        fresh = IndexManager(store)
        assert not fresh.try_load(directory)

    def test_corrupt_file_rejected(self, disk_store):
        store, directory = disk_store
        manager = IndexManager(store)
        manager.build()
        manager.save(directory)
        path = os.path.join(directory, INDEX_FILE)
        with open(path, "r+b") as handle:
            handle.seek(50)
            handle.write(b"\xff\xff\xff")
        fresh = IndexManager(store)
        assert not fresh.try_load(directory)

    def test_truncated_file_rejected(self, disk_store):
        store, directory = disk_store
        manager = IndexManager(store)
        manager.build()
        manager.save(directory)
        path = os.path.join(directory, INDEX_FILE)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 100)
        fresh = IndexManager(store)
        assert not fresh.try_load(directory)

    def test_save_is_atomic(self, disk_store):
        store, directory = disk_store
        manager = IndexManager(store)
        manager.build()
        manager.save(directory)
        assert not os.path.exists(os.path.join(directory, INDEX_FILE) + ".tmp")


class TestDatabaseIntegration:
    def test_reopen_uses_persisted_indexes(self, tmp_path):
        directory = os.path.join(tmp_path, "db")
        with Database(directory=directory) as db:
            db.load(tree=figure6_database(), name="bib.xml")
            expected = db.query(QUERY_1).collection
        assert os.path.exists(os.path.join(directory, INDEX_FILE))
        with Database(directory=directory) as db:
            # No rebuild scan: indexes were loaded from the page file.
            assert db.indexes._built
            assert db.query(QUERY_1).collection.structurally_equal(expected)

    def test_reopen_with_deleted_index_file_rebuilds(self, tmp_path):
        directory = os.path.join(tmp_path, "db")
        with Database(directory=directory) as db:
            db.load(tree=figure6_database(), name="bib.xml")
            expected = db.query(QUERY_1).collection
        os.remove(os.path.join(directory, INDEX_FILE))
        with Database(directory=directory) as db:
            assert db.query(QUERY_1).collection.structurally_equal(expected)

    def test_module_level_functions(self, disk_store):
        store, directory = disk_store
        manager = IndexManager(store)
        manager.build()
        save_indexes(manager, directory)
        fresh = IndexManager(store)
        assert load_indexes(fresh, directory)


class TestLegacySnapshot:
    """Snapshots written while a cost model still planned queries carry
    kind-0x04 statistics records.  The reader skips them: the indexes
    in the same file are intact, so a rebuild would be wasted work."""

    @staticmethod
    def _append_legacy_stats_record(directory: str) -> None:
        import struct

        from repro.storage.disk import DiskManager
        from repro.storage.page import Page

        # The old layout: ``kind u8 | n u16`` then n rows of
        # ``tag_sym u32 | count u32 | distinct u32 | min_level u16 |
        # max_level u16 | subtree_total u64``.
        rows = [(1, 7, 3, 1, 2, 21), (2, 4, 4, 2, 2, 4)]
        record = struct.pack(">BH", 0x04, len(rows)) + b"".join(
            struct.pack(">IIIHHQ", *row) for row in rows
        )
        disk = DiskManager(os.path.join(directory, INDEX_FILE))
        try:
            page = Page(disk.allocate_page())
            page.insert_record(record)
            disk.write_page(page)
        finally:
            disk.close()

    def test_legacy_stats_record_is_skipped_not_rebuilt(self, tmp_path, monkeypatch):
        directory = os.path.join(tmp_path, "db")
        with Database(directory=directory) as db:
            db.load(tree=figure6_database(), name="bib.xml")
            expected = db.query(QUERY_1).collection
        self._append_legacy_stats_record(directory)

        store = NodeStore(directory)
        try:
            assert IndexManager(store).try_load(directory)
        finally:
            store.close()

        def no_rebuild(self):
            raise AssertionError("a legacy snapshot must not force an index rebuild")

        monkeypatch.setattr(IndexManager, "build", no_rebuild)
        with Database(directory=directory) as db:
            assert db.indexes._built
            assert db.query(QUERY_1).collection.structurally_equal(expected)
