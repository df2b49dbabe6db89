"""Buffer-pool tests: LRU behaviour, pinning, statistics."""

import pytest

from repro.errors import BufferPoolError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.page import Page


def make_pool(capacity: int = 3, n_pages: int = 6) -> BufferPool:
    disk = DiskManager(None)
    for _ in range(n_pages):
        page = Page(disk.allocate_page())
        page.insert_record(str(page.page_id).encode())
        disk.write_page(page)
    return BufferPool(disk, capacity=capacity)


class TestHitsAndMisses:
    def test_miss_then_hit(self):
        pool = make_pool()
        pool.get_page(0)
        pool.get_page(0)
        assert pool.counters.misses == 1
        assert pool.counters.hits == 1
        assert pool.counters.hit_ratio() == 0.5

    def test_content_correct_through_pool(self):
        pool = make_pool()
        assert pool.get_page(2).read_record(0) == b"2"

    def test_capacity_respected(self):
        pool = make_pool(capacity=3)
        for page_id in range(6):
            pool.get_page(page_id)
        assert len(pool) == 3
        assert pool.counters.evictions == 3

    def test_lru_eviction_order(self):
        pool = make_pool(capacity=2)
        pool.get_page(0)
        pool.get_page(1)
        pool.get_page(0)  # 0 is now most recent
        pool.get_page(2)  # evicts 1
        assert 0 in pool
        assert 1 not in pool
        assert 2 in pool

    def test_requests_property(self):
        pool = make_pool()
        pool.get_page(0)
        pool.get_page(1)
        pool.get_page(0)
        assert pool.counters.requests == 3


class TestPinning:
    def test_pinned_page_survives_pressure(self):
        pool = make_pool(capacity=2)
        pool.pin(0)
        pool.get_page(1)
        pool.get_page(2)
        pool.get_page(3)
        assert 0 in pool
        pool.unpin(0)

    def test_unpin_not_pinned_raises(self):
        pool = make_pool()
        pool.get_page(0)
        with pytest.raises(BufferPoolError):
            pool.unpin(0)

    def test_all_pinned_cannot_evict(self):
        pool = make_pool(capacity=2)
        pool.pin(0)
        pool.pin(1)
        with pytest.raises(BufferPoolError):
            pool.get_page(2)

    def test_pinned_count(self):
        pool = make_pool()
        pool.pin(0)
        pool.pin(0)
        assert pool.pinned_count() == 1
        pool.unpin(0)
        pool.unpin(0)
        assert pool.pinned_count() == 0

    def test_unpin_dirty_marks_page(self):
        pool = make_pool()
        page = pool.pin(0)
        page.insert_record(b"new")
        pool.unpin(0, dirty=True)
        pool.flush_all()
        fresh = pool.disk.read_page(0)
        assert fresh.read_record(1) == b"new"


class TestDirtyWriteback:
    def test_eviction_writes_back_dirty_page(self):
        pool = make_pool(capacity=1)
        page = pool.get_page(0)
        page.insert_record(b"dirty")
        page.dirty = True
        pool.get_page(1)  # evicts page 0
        assert pool.counters.dirty_writebacks == 1
        assert pool.disk.read_page(0).read_record(1) == b"dirty"

    def test_clean_eviction_skips_writeback(self):
        pool = make_pool(capacity=1)
        pool.get_page(0)
        pool.get_page(1)
        assert pool.counters.dirty_writebacks == 0


class TestLifecycle:
    def test_put_new_page(self):
        disk = DiskManager(None)
        pool = BufferPool(disk, capacity=4)
        page = Page(disk.allocate_page())
        pool.put_new_page(page)
        assert pool.counters.misses == 0
        assert page.page_id in pool

    def test_put_duplicate_rejected(self):
        disk = DiskManager(None)
        pool = BufferPool(disk, capacity=4)
        page = Page(disk.allocate_page())
        pool.put_new_page(page)
        with pytest.raises(BufferPoolError):
            pool.put_new_page(Page(page.page_id))

    def test_clear_flushes_and_empties(self):
        pool = make_pool()
        page = pool.get_page(0)
        page.insert_record(b"extra")
        page.dirty = True
        pool.clear()
        assert len(pool) == 0
        assert pool.disk.read_page(0).read_record(1) == b"extra"

    def test_clear_with_pins_rejected(self):
        pool = make_pool()
        pool.pin(0)
        with pytest.raises(BufferPoolError):
            pool.clear()

    def test_resize_down_evicts(self):
        pool = make_pool(capacity=4)
        for page_id in range(4):
            pool.get_page(page_id)
        pool.resize(2)
        assert len(pool) == 2

    def test_zero_capacity_rejected(self):
        disk = DiskManager(None)
        with pytest.raises(BufferPoolError):
            BufferPool(disk, capacity=0)


def test_starved_pool_rereads_pages(tmp_path):
    """A3: from a cold cache, a pool too small for the working set reads
    pages again (the paper fixed 32 MB of a 256 MB machine so the data
    would not fit); one large enough reads each page once."""
    from repro.datagen.dblp import DBLPConfig, generate_dblp
    from repro.datagen.sample import QUERY_1
    from repro.query.database import Database

    directory = str(tmp_path / "db")
    with Database(directory=directory) as db:
        db.load(tree=generate_dblp(DBLPConfig(n_articles=200, n_authors=40, seed=7)), name="bib.xml")
        n_pages = db.store.disk.n_pages
    reads = {}
    for frames in (2, 64):
        with Database(directory=directory, pool_frames=frames) as db:
            db.store.pool.clear()
            result = db.query(QUERY_1, plan="groupby")
            reads[frames] = (result.statistics["physical_reads"], len(result))
    assert reads[2][1] == reads[64][1]
    assert reads[64][0] <= n_pages < reads[2][0]
