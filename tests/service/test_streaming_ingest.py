"""Streaming ingest at the service and wire layers.

Covers the chunked ``LOAD`` protocol (per-batch progress events,
``degraded:ingesting`` health, reads running between batch commits),
abort semantics on client disconnect, batch-granular result-cache
invalidation, contention-aware ingest pacing, and — through the chaos
proxy — mid-stream truncation leaving the store at a committed batch
boundary with no partial batch visible.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1
from repro.query.database import Database
from repro.service import ChaosProxy, NetFaultPlan, QueryService, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.rwlock import ReadWriteLock
from repro.service.server import ServerConfig, serve
from repro.storage.store import NodeStore
from repro.ingest import IngestSession, chunks_of
from repro.xmlmodel.diff import assert_collections_equal
from repro.xmlmodel.serialize import serialize

BASE = generate_dblp(DBLPConfig(n_articles=30, n_authors=10, seed=5))
INCOMING = generate_dblp(DBLPConfig(n_articles=60, n_authors=24, seed=11))
INCOMING_TEXT = serialize(INCOMING, indent="  ")
INCOMING_QUERY = (
    'FOR $a IN document("incoming.xml")//article, $y IN $a/year '
    'WHERE $y = "2000" RETURN $a'
)


@pytest.fixture()
def backend():
    """White-box stack: the db and service stay reachable so tests can
    assert on store state the wire protocol doesn't expose."""
    db = Database()
    db.load(tree=BASE, name="bib.xml")
    service = QueryService(db, ServiceConfig(workers=2))
    # Short timeouts so a handler stuck on a reset-killed connection —
    # blocked in a send, or polling for a line whose tail the chaos
    # proxy swallowed — notices within the test's patience, not the
    # production defaults.
    server = serve(
        service,
        port=0,
        config=ServerConfig(
            poll_interval=0.02, write_timeout=1.0, idle_timeout=2.0
        ),
    )
    server.serve_background()
    try:
        yield db, service, server
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        db.close()


def _wait_not_ingesting(service, timeout=10.0):
    deadline = time.monotonic() + timeout
    while service.ingesting and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not service.ingesting


# ----------------------------------------------------------------------
# ServiceClient.load_stream end to end
# ----------------------------------------------------------------------
def test_load_stream_end_to_end(backend):
    db, service, server = backend
    client = ServiceClient(*server.endpoint)
    events = []
    reply = client.load_stream(
        INCOMING_TEXT,
        "incoming.xml",
        batch_size=120,
        chunk_chars=2048,
        on_progress=events.append,
    )
    assert reply["batches"] > 1
    assert reply["nodes"] == reply["nodes_streamed"]
    assert len(events) == reply["batches"]
    assert [e["batch"] for e in events] == list(range(1, reply["batches"] + 1))
    assert events[-1]["nodes_total"] == reply["nodes"]
    # The streamed document answers queries identically to a whole load.
    reference = Database()
    reference.load(tree=INCOMING, name="incoming.xml")
    assert_collections_equal(
        reference.query(INCOMING_QUERY).collection,
        db.query(INCOMING_QUERY).collection,
    )
    health = client.health()
    assert health.status == "ok" and not health.ingesting
    assert db.verify().ok


def test_stats_expose_ingest_counters(backend):
    db, service, server = backend
    client = ServiceClient(*server.endpoint)
    reply = client.load_stream(INCOMING_TEXT, "incoming.xml", batch_size=120)
    stats = client.stats()
    assert stats["ingest_batches_committed"] == reply["batches"]
    assert stats["ingest_nodes_streamed"] == reply["nodes"]
    assert stats["index_incremental_updates"] > 0


# ----------------------------------------------------------------------
# Mid-stream health + reads between batches (raw wire protocol)
# ----------------------------------------------------------------------
def _raw_line_conn(endpoint, timeout=30.0):
    sock = socket.create_connection(endpoint, timeout=timeout)
    return sock, sock.makefile("rw", encoding="utf-8", newline="\n")


def _send_line(file, line):
    file.write(line + "\n")
    file.flush()
    reply = file.readline().strip()
    assert reply.startswith("OK "), reply
    return json.loads(reply[3:])


def _stream_payload(chunk, *, final, batch_size=60, name="partial.xml"):
    return "LOAD " + json.dumps(
        {
            "name": name,
            "chunk": chunk,
            "stream": True,
            "batch_size": batch_size,
            "final": final,
        }
    )


def test_health_degrades_while_ingesting(backend):
    db, service, server = backend
    sock, file = _raw_line_conn(server.endpoint)
    try:
        mid = _send_line(
            file, _stream_payload(INCOMING_TEXT[:8000], final=False)
        )
        assert mid["streaming"] and mid["batches"] >= 1
        client = ServiceClient(*server.endpoint)
        health = client.health()
        assert health.status == "degraded:ingesting"
        assert health.ingesting
        assert health.ready  # reads still served between batches
        # A reader really does get through mid-ingest.
        assert client.query(QUERY_1)["rows"] > 0
        # Finishing the stream clears the condition.
        _send_line(file, _stream_payload(INCOMING_TEXT[8000:], final=False))
        final = _send_line(file, _stream_payload("", final=True))
        assert final["nodes"] == final["nodes_streamed"]
        health = client.health()
        assert health.status == "ok" and not health.ingesting
    finally:
        sock.close()


def test_disconnect_aborts_and_keeps_committed_batches(backend):
    db, service, server = backend
    sock, file = _raw_line_conn(server.endpoint)
    mid = _send_line(file, _stream_payload(INCOMING_TEXT[:8000], final=False))
    assert mid["batches"] >= 1
    committed_nodes = mid["nodes_streamed"]
    # Hard disconnect mid-stream (makefile holds a dup'd fd — both
    # must go for the server to see EOF).
    file.close()
    sock.close()
    _wait_not_ingesting(service)
    assert db.verify().ok
    info = db.store.document("partial.xml")
    assert info.n_nodes == committed_nodes  # exactly the committed batches
    assert db.store.materialize(info.root_nid).tag == INCOMING.tag
    assert db.store.stats()["ingests_aborted"] == 1
    client = ServiceClient(*server.endpoint)
    assert client.health().status == "ok"


# ----------------------------------------------------------------------
# Batch-granular cache invalidation
# ----------------------------------------------------------------------
def test_result_cache_invalidates_per_batch(backend):
    db, service, server = backend
    service.query(QUERY_1)
    service.query(QUERY_1)
    hits_before = service.result_cache.counters.hits
    assert hits_before >= 1  # warm
    report = service.load_stream(INCOMING_TEXT, "incoming.xml", batch_size=120)
    assert report.batches > 1
    misses_before = service.result_cache.counters.misses
    service.query(QUERY_1)  # generation moved: stale entry unreachable
    assert service.result_cache.counters.misses == misses_before + 1


# ----------------------------------------------------------------------
# Contention-aware pacing
# ----------------------------------------------------------------------
def test_rwlock_counts_admitted_reads():
    lock = ReadWriteLock()
    assert lock.reads_admitted == 0
    with lock.read_locked():
        with lock.read_locked():
            pass
    assert lock.reads_admitted == 2
    with lock.write_locked():
        pass
    assert lock.reads_admitted == 2  # writes don't count


def _patched_sleeps(monkeypatch):
    import repro.service.service as service_module

    sleeps = []
    monkeypatch.setattr(service_module.time, "sleep", sleeps.append)
    return sleeps


def test_pacing_skipped_when_idle(backend, monkeypatch):
    db, service, server = backend
    sleeps = _patched_sleeps(monkeypatch)
    report = service.load_stream(INCOMING_TEXT, "incoming.xml", batch_size=120)
    assert report.batches > 1
    assert sleeps == []  # no reader contended: full-speed ingest


def test_pacing_pauses_under_reader_contention(backend, monkeypatch):
    db, service, server = backend
    sleeps = _patched_sleeps(monkeypatch)
    ingest = service.begin_ingest("incoming.xml", batch_size=60)
    try:
        service.query(QUERY_1)  # a read admitted since the ingest began
        for chunk in chunks_of(INCOMING_TEXT, 4096):
            ingest.feed(chunk)
        ingest.finish()
    except BaseException:
        ingest.abort()
        raise
    assert sleeps and all(pause > 0 for pause in sleeps)


def test_pacing_disabled_by_config():
    db = Database()
    db.load(tree=BASE, name="bib.xml")
    service = QueryService(db, ServiceConfig(workers=2, ingest_pacing=0.0))
    try:
        service.query(QUERY_1)
        report = service.load_stream(
            INCOMING_TEXT, "incoming.xml", batch_size=120
        )
        assert report.batches > 1
    finally:
        service.close()
        db.close()


# ----------------------------------------------------------------------
# Chaos: mid-stream truncation (satellite: chunked LOAD under
# REPRO_NET_FAULT_PLAN-style faults)
# ----------------------------------------------------------------------
def _batch_boundaries(batch_size):
    """Node totals at every *non-final* batch commit for INCOMING_TEXT:
    the only states a truncated stream may leave behind (the final
    batch commits exclusively on an explicit ``final`` dispatch)."""
    store = NodeStore()
    session = IngestSession(store, "oracle.xml", batch_size=batch_size)
    for chunk in chunks_of(INCOMING_TEXT, 4096):
        session.feed(chunk)
    session.finish()
    return {event.nodes_total for event in session.progress[:-1]}


# Probed outcomes per seed with truncate_rate=0.4, max_faults=1 and
# 1500-char chunks: 5 = truncation after a client-acknowledged commit;
# 6 = reply truncated, server a batch ahead of the client; 9 = first
# chunk torn, nothing ever committed.
@pytest.mark.parametrize("seed", [5, 6, 9])
def test_truncated_stream_leaves_committed_batch_boundary(backend, seed):
    db, service, server = backend
    plan = NetFaultPlan(seed=seed, truncate_rate=0.4, max_faults=1)
    proxy = ChaosProxy(server.endpoint, plan).start()
    last_ok = None
    try:
        # A swallowed reply tail never arrives: give up on it just after
        # the server's own 2 s idle timeout, not after a production-sized
        # client read timeout.
        sock, file = _raw_line_conn(proxy.endpoint, timeout=3.0)
        try:
            chunks = [
                INCOMING_TEXT[i : i + 1500]
                for i in range(0, len(INCOMING_TEXT), 1500)
            ]
            for piece in chunks:
                try:
                    file.write(
                        _stream_payload(piece, final=False, name="trunc.xml")
                        + "\n"
                    )
                    file.flush()
                    reply = file.readline()
                except OSError:
                    break
                if not reply:
                    break  # pipe killed mid-line
                assert reply.startswith("OK "), reply
                last_ok = json.loads(reply[3:])
            else:
                pytest.fail("the truncation fault never fired")
        finally:
            try:
                file.close()
            except OSError:
                pass
            sock.close()
        assert proxy.fault_counters.snapshot()["net_truncations"] == 1
    finally:
        proxy.close()
    _wait_not_ingesting(service)
    assert db.verify().ok
    names = {info.name for info in db.store.documents()}
    if last_ok is None or last_ok["batches"] == 0:
        # Torn before the first commit: no partial batch visible, and
        # possibly no document at all.
        if "trunc.xml" not in names:
            return
    info = db.store.document("trunc.xml")
    # The store sits exactly at a committed batch boundary — never a
    # partially-applied batch, even when the reply (not the request)
    # was the truncated chunk and the server ran ahead of the client.
    assert info.n_nodes in _batch_boundaries(60)
    if last_ok is not None:
        assert info.n_nodes >= last_ok["nodes_streamed"]
    tree = db.store.materialize(info.root_nid)
    assert tree.tag == INCOMING.tag
    for got, want in zip(tree.children, INCOMING.children):
        assert got.structurally_equal(want)
    client = ServiceClient(*server.endpoint)
    assert client.health().status == "ok"
