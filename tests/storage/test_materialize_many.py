"""Batched late materialization (``NodeStore.materialize_many``): one
page-ordered fetch for a whole result, each distinct record decoded
once, fresh nodes per use."""

import pytest

from repro.cancellation import Deadline, deadline_scope
from repro.errors import QueryCancelledError, RecoveryError
from repro.storage.store import NodeStore
from repro.xmlmodel.diff import first_difference
from repro.xmlmodel.node import element


def library(n_books: int = 120):
    """Enough long-titled books to spread over several data pages."""
    root = element("library", None)
    for index in range(n_books):
        root.append_child(
            element(
                "book",
                None,
                element("title", f"Title {index} " + "x" * 150),
                element("meta", None, element("year", str(1990 + index % 20))),
            )
        )
    return root


@pytest.fixture
def paged_store(tmp_path):
    """A directory store behind a 4-frame pool, far smaller than the data."""
    with NodeStore(str(tmp_path / "db"), pool_frames=4) as store:
        store.load_tree(library(), "lib.xml")
        assert len(store.meta.page_ids) > 4
        store.pool.clear()
        store.reset_stats()
        yield store


def nids_by_tag(store, tag):
    sym = store.meta.symbols.lookup(tag)
    return [record.nid for record in store.scan() if record.tag_sym == sym]


def test_same_nodes_as_per_nid_materialize_through_a_small_pool(paged_store):
    store = paged_store
    titles = nids_by_tag(store, "title")
    books = nids_by_tag(store, "book")
    # Out of page order, with repeats, leaves and non-leaf targets mixed.
    wanted = titles[::-1][:40] + books[5:15] + titles[:10] + books[5:8]
    expected = [store.materialize(nid) for nid in wanted]
    got = store.materialize_many(wanted)
    assert len(got) == len(wanted)
    for node, reference in zip(got, expected):
        assert first_difference(node, reference) is None
        assert node.nid == reference.nid
    # Fresh nodes per use: a repeated nid never shares an object.
    assert len({id(node) for node in got}) == len(got)
    assert store.pool.pinned_count() == 0


def test_counters_distinct_decode_and_one_pin_per_page(paged_store):
    store = paged_store
    titles = nids_by_tag(store, "title")[:60]
    pages = {store.meta.locate(nid)[0] for nid in titles}
    store.reset_stats()
    nodes = store.materialize_many(titles + titles[:25])  # 25 shared titles
    stats = store.stats()
    assert len(nodes) == 85
    assert stats["nodes_materialized"] == 85  # per node built
    assert stats["record_lookups"] == 60  # per record decoded, once each
    assert stats["value_lookups"] == 60  # per decoded record with content
    assert stats["hits"] + stats["misses"] == len(pages)  # one pin per page


def test_materialize_counts_match_the_subtree(paged_store):
    store = paged_store
    book = nids_by_tag(store, "book")[0]
    store.reset_stats()
    node = store.materialize(book)
    stats = store.stats()
    assert [child.tag for child in node.children] == ["title", "meta"]
    assert stats["record_lookups"] == 4  # book, title, meta, year
    assert stats["nodes_materialized"] == 4
    assert stats["value_lookups"] == 2  # title and year carry content
    store.reset_stats()
    shell = store.materialize(book, with_content=False)
    assert shell.children[0].content is None
    assert store.stats()["value_lookups"] == 0


def test_batch_on_a_quarantined_page_raises_recovery_error(paged_store):
    store = paged_store
    titles = nids_by_tag(store, "title")
    bad_page = store.meta.locate(titles[-1])[0]
    store.meta.quarantined_pages.add(bad_page)
    with pytest.raises(RecoveryError, match=f"quarantined page {bad_page}"):
        store.materialize_many(titles)
    with pytest.raises(RecoveryError):
        store.materialize(store.document("lib.xml").root_nid)
    assert store.pool.pinned_count() == 0
    # Targets that avoid the quarantined page are still served.
    clean = [nid for nid in titles if store.meta.locate(nid)[0] != bad_page]
    assert len(store.materialize_many(clean)) == len(clean)


class _CountdownDeadline(Deadline):
    """Cancels itself at the N-th checkpoint, recording the pins held."""

    def __init__(self, checkpoints: int, pool):
        super().__init__(None)
        self.remaining_checkpoints = checkpoints
        self.pool = pool
        self.pins_when_fired = None

    def check(self) -> None:
        self.remaining_checkpoints -= 1
        if self.remaining_checkpoints < 0 and self.pins_when_fired is None:
            self.pins_when_fired = self.pool.pinned_count()
            self.cancel("test countdown")
        super().check()


@pytest.mark.parametrize("fetch", ["materialize_many", "materialize"])
def test_deadline_mid_batch_releases_every_pin(paged_store, fetch):
    store = paged_store
    titles = nids_by_tag(store, "title")
    deadline = _CountdownDeadline(30, store.pool)
    with pytest.raises(QueryCancelledError) as excinfo:
        with deadline_scope(deadline):
            if fetch == "materialize_many":
                store.materialize_many(titles)
            else:
                store.materialize(store.document("lib.xml").root_nid)
    # It fired inside a page's decode loop, under that page's pin ...
    assert deadline.pins_when_fired == 1
    # ... and nothing is left pinned, even with the traceback alive.
    assert excinfo.value is not None
    assert store.pool.pinned_count() == 0
