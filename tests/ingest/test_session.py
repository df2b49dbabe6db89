"""IngestSession: batch cutting at root-child boundaries, per-batch
progress and generation bumps, abort-keeps-committed-batches, and —
the load-bearing claim — incremental index maintenance producing
exactly the structures a from-scratch rebuild over the same store
produces."""

from __future__ import annotations

import pytest

from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.errors import XMLParseError
from repro.indexing.manager import IndexManager
from repro.ingest import DEFAULT_BATCH_NODES, IngestSession, chunks_of
from repro.storage.store import NodeStore
from repro.xmlmodel.serialize import serialize

CORPUS = generate_dblp(DBLPConfig(n_articles=50, n_authors=20, seed=11))
TEXT = serialize(CORPUS, indent="  ")


def _ingest(store, *, batch_size, indexes=None, chunk_chars=2048):
    session = IngestSession(
        store, "bib.xml", batch_size=batch_size, indexes=indexes
    )
    for chunk in chunks_of(TEXT, chunk_chars):
        session.feed(chunk)
    info = session.finish()
    return session, info


def test_batches_cover_the_document():
    store = NodeStore()
    session, info = _ingest(store, batch_size=80)
    assert session.batches_committed > 2
    assert info.n_nodes == CORPUS.subtree_size()
    assert session.nodes_streamed == info.n_nodes
    events = session.progress
    assert len(events) == session.batches_committed
    assert sum(e.nodes_in_batch for e in events) == info.n_nodes
    assert events[-1].nodes_total == info.n_nodes
    # One generation bump per batch: batch-granular cache invalidation.
    generations = [e.generation for e in events]
    assert generations == sorted(generations)
    assert len(set(generations)) == len(generations)


def test_materialized_tree_equals_source():
    store = NodeStore()
    _, info = _ingest(store, batch_size=64)
    assert store.materialize(info.root_nid).structurally_equal(CORPUS)
    assert store.verify().ok


def test_default_batch_size_is_bounded():
    store = NodeStore()
    session = IngestSession(store, "bib.xml")  # batch_size=None
    for chunk in chunks_of(TEXT, 4096):
        session.feed(chunk)
    info = session.finish()
    assert info.n_nodes == CORPUS.subtree_size()
    # The default still batches (bounded memory), it just cuts less often.
    assert all(
        e.nodes_in_batch <= DEFAULT_BATCH_NODES + CORPUS.subtree_size() // 2
        for e in session.progress
    )


def test_abort_keeps_committed_batches():
    store = NodeStore()
    session = IngestSession(store, "bib.xml", batch_size=60)
    half = TEXT[: len(TEXT) // 2]
    for chunk in chunks_of(half, 1024):
        session.feed(chunk)
    committed = session.batches_committed
    streamed = session.nodes_streamed
    assert committed >= 1
    session.abort()
    assert not session.active
    session.abort()  # idempotent
    info = store.document("bib.xml")
    assert info.n_nodes == streamed
    assert store.verify().ok
    # The partial document is readable and well-formed.
    assert store.materialize(info.root_nid).tag == CORPUS.tag


def test_empty_document_commits_one_empty_batch():
    store = NodeStore()
    session = IngestSession(store, "empty.xml", batch_size=10)
    session.feed("<root/>")
    info = session.finish()
    assert info.n_nodes == 1
    assert session.batches_committed == 1
    assert store.materialize(info.root_nid).tag == "root"


def test_malformed_stream_propagates_parse_error():
    store = NodeStore()
    session = IngestSession(store, "bad.xml", batch_size=10)
    with pytest.raises(XMLParseError):
        session.feed("<r><a></mismatched>")
    session.abort()


def test_ingest_counters():
    store = NodeStore()
    session, info = _ingest(store, batch_size=80)
    stats = store.stats()
    assert stats["ingest_batches_committed"] == session.batches_committed
    assert stats["ingest_nodes_streamed"] == info.n_nodes
    assert stats["ingests_started"] == 1
    assert stats["ingests_finished"] == 1
    assert stats["ingests_aborted"] == 0


# ----------------------------------------------------------------------
# Incremental index maintenance == rebuild
# ----------------------------------------------------------------------
def _assert_indexes_equal(maintained: IndexManager, store: NodeStore):
    """Compare the incrementally-maintained manager against a fresh
    rebuild over the *same* store (the only valid oracle: batch-wise
    labelling retires one root label per batch, so labels differ from
    a whole-document load of the same text)."""
    oracle = IndexManager(store)
    oracle.build()
    maintained.check_invariants()
    tags = sorted(store.meta.symbols.names())
    assert tags
    for tag in tags:
        assert maintained.labels_for_tag(tag) == oracle.labels_for_tag(tag)
        assert maintained.tag_cardinality(tag) == oracle.tag_cardinality(tag)
        assert maintained.distinct_values(tag) == oracle.distinct_values(tag)
    our_table = maintained.ensure_columnar()
    their_table = oracle.ensure_columnar()
    assert our_table.n_rows == their_table.n_rows
    assert our_table.generation == their_table.generation
    assert [
        our_table.label_of_row(row) for row in range(our_table.n_rows)
    ] == [their_table.label_of_row(row) for row in range(their_table.n_rows)]


@pytest.mark.parametrize("batch_size", [50, 120, 400])
def test_incremental_maintenance_equals_rebuild(batch_size):
    store = NodeStore()
    manager = IndexManager(store)
    manager.build()
    session = IngestSession(
        store, "bib.xml", batch_size=batch_size, indexes=manager
    )
    for chunk in chunks_of(TEXT, 2048):
        session.feed(chunk)
    session.finish()
    assert session.batches_committed >= 1
    _assert_indexes_equal(manager, store)
    counters = manager.work_counters()
    assert counters["index_incremental_updates"] > 0
    assert counters["index_rebuild_avoided"] > 0


def test_incremental_maintenance_across_documents():
    """A second streamed document extends the already-maintained
    indexes, not just the first."""
    store = NodeStore()
    manager = IndexManager(store)
    manager.build()
    for name in ("one.xml", "two.xml"):
        session = IngestSession(store, name, batch_size=90, indexes=manager)
        for chunk in chunks_of(TEXT, 2048):
            session.feed(chunk)
        session.finish()
    _assert_indexes_equal(manager, store)
