"""Ingest soak: a streaming load runs to completion while reader
threads continuously execute the paper's E1/E2 queries against an
already-loaded document, and every concurrent answer must be identical
to the quiescent answer.  A second leg crashes the store mid-ingest at
a seed-chosen crash point, recovers, and re-ingests.

``REPRO_FAULT_SEED`` (the CI soak matrix knob) varies the corpus, the
batch size, and the crash placement.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1, QUERY_2
from repro.indexing.manager import IndexManager
from repro.ingest import IngestSession, chunks_of
from repro.query.database import Database
from repro.service import QueryService, ServiceConfig
from repro.storage.faults import FaultPlan, SimulatedCrash
from repro.storage.journal import INGEST_CRASH_POINTS
from repro.storage.store import NodeStore
from repro.xmlmodel.diff import assert_collections_equal, diff_collections
from repro.xmlmodel.serialize import serialize

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

BASE = generate_dblp(DBLPConfig(n_articles=30, n_authors=12, seed=5))
INCOMING = generate_dblp(
    DBLPConfig(n_articles=80, n_authors=30, seed=13 + SEED)
)
INCOMING_TEXT = serialize(INCOMING, indent="  ")
BATCH = 96 + 17 * (SEED % 5)
INCOMING_QUERY = (
    'FOR $a IN document("incoming.xml")//article, $y IN $a/year '
    'WHERE $y = "2000" RETURN $a'
)
READERS = 4


def test_readers_see_stable_answers_during_ingest():
    db = Database()
    db.load(tree=BASE, name="bib.xml")
    service = QueryService(db, ServiceConfig(workers=READERS))
    try:
        quiescent = {
            query: service.query(query).collection
            for query in (QUERY_1, QUERY_2)
        }
        stop = threading.Event()
        failures: list[str] = []
        reads = [0] * READERS

        def reader(worker: int) -> None:
            queries = (QUERY_1, QUERY_2)
            while not stop.is_set():
                query = queries[reads[worker] % 2]
                got = service.query(query).collection
                report = diff_collections(quiescent[query], got)
                if report is not None:
                    failures.append(str(report))
                    return
                reads[worker] += 1

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(READERS)
        ]
        def interleaved_chunks():
            # Hand over the next chunk only once every reader has
            # answered again: reads then overlap the commits however
            # quickly either side runs (an 80-article ingest can
            # otherwise finish inside a few GIL time slices).
            for chunk in chunks_of(INCOMING_TEXT, 2048):
                target = [count + 1 for count in reads]
                give_up = time.monotonic() + 10.0
                while (
                    any(count < want for count, want in zip(reads, target))
                    and not failures
                    and time.monotonic() < give_up
                ):
                    time.sleep(0.001)
                yield chunk

        for thread in threads:
            thread.start()
        try:
            report = service.load_stream(
                interleaved_chunks(), "incoming.xml", batch_size=BATCH
            )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        assert not failures, failures[0]
        assert report.batches > 3
        assert sum(reads) > READERS  # readers really ran mid-ingest
        # The streamed document answers identically to a whole load.
        reference = Database()
        reference.load(tree=INCOMING, name="incoming.xml")
        assert_collections_equal(
            reference.query(INCOMING_QUERY).collection,
            db.query(INCOMING_QUERY).collection,
        )
        assert db.verify().ok
    finally:
        service.close()
        db.close()


def test_crash_recover_reingest_cycle(tmp_path):
    point = INGEST_CRASH_POINTS[SEED % len(INGEST_CRASH_POINTS)]
    crash_batch = 2 + SEED % 3
    directory = os.path.join(tmp_path, "db")
    store = NodeStore(directory)
    session = IngestSession(store, "incoming.xml", batch_size=BATCH)

    def arm(event):
        if event.batch == crash_batch - 1:
            store.fault_plan = FaultPlan(seed=SEED, crash_at=point)

    session.on_batch = arm
    with pytest.raises(SimulatedCrash):
        for chunk in chunks_of(INCOMING_TEXT, 2048):
            session.feed(chunk)
        session.finish()

    with NodeStore(directory) as recovered:
        assert recovered.verify().ok
        retry = IngestSession(recovered, "retry.xml", batch_size=BATCH)
        for chunk in chunks_of(INCOMING_TEXT, 2048):
            retry.feed(chunk)
        info = retry.finish()
        assert info.n_nodes == INCOMING.subtree_size()
        assert recovered.materialize(info.root_nid).structurally_equal(
            INCOMING
        )
        manager = IndexManager(recovered)
        manager.build()
        manager.check_invariants()
        assert recovered.verify().ok
