"""End-to-end tests of the line-oriented TCP protocol.

The ``client``/``endpoint``/``running_server`` fixtures live in
``conftest.py`` (they optionally route through a ChaosProxy when
``REPRO_NET_FAULT_PLAN`` is set).  Server *resilience* behavior —
timeouts, shedding, drain, HEALTH under damage — is covered in
``test_resilience.py``; this file is the protocol happy path.
"""

from __future__ import annotations

import json

import pytest

from repro.datagen.sample import QUERY_1, QUERY_2, QUERY_COUNT
from repro.xmlmodel import ResultTable

from .conftest import LineClient


def test_ping(client):
    assert client.ok("PING") == {"pong": True}


def test_query_round_trip(client):
    payload = client.ok("QUERY " + json.dumps({"q": QUERY_1}))
    assert payload["rows"] > 0
    assert payload["plan_mode"] == "groupby"
    assert payload["cached"] is False
    assert "<authorpubs>" in payload["xml"]
    warm = client.ok("QUERY " + json.dumps({"q": QUERY_1}))
    assert warm["cached"] is True
    assert warm["fingerprint"] == payload["fingerprint"]


@pytest.mark.parametrize("query", [QUERY_1, QUERY_2, QUERY_COUNT], ids=["e1", "e2", "count"])
def test_wire_xml_of_miss_and_hit_is_the_embedded_xml(running_server, client, query):
    embedded = running_server.service.db.query(query).to_xml(indent=None)
    miss = client.ok("QUERY " + json.dumps({"q": query}))
    hit = client.ok("QUERY " + json.dumps({"q": query}))
    assert (miss["cached"], hit["cached"]) == (False, True)
    assert miss["xml"] == hit["xml"] == embedded
    assert miss["rows"] == hit["rows"] == embedded.count("\n") + 1


def test_wire_hits_build_no_nodes(running_server, client):
    """A hit over the wire is answered from the cached table's memoized
    serialization; only an in-process caller asking for trees gets
    nodes built, and only then."""
    request = "QUERY " + json.dumps({"q": QUERY_1})
    client.ok(request)  # fills the cache
    before = client.ok("STATS")
    for _ in range(5):
        assert client.ok(request)["cached"] is True
    after = client.ok("STATS")
    assert after["result_cache_hits"] - before["result_cache_hits"] == 5
    assert (
        after["result_cache_serialized_hits"] - before["result_cache_serialized_hits"]
        == 5
    )
    assert after["result_cache_nodes_built"] == 0

    service = running_server.service
    hit = service.query(QUERY_1)
    assert hit.cached and len(hit) > 0 and hit.plan_mode == "groupby"
    assert service.stats()["result_cache_nodes_built"] == 0
    nodes = hit.collection.total_nodes()
    assert hit.collection is hit.collection  # built once per hand-out
    assert service.stats()["result_cache_nodes_built"] == nodes


def test_query_result_formats(client):
    spec = {"q": QUERY_1}
    as_xml = client.ok("QUERY " + json.dumps(spec))  # no "format" key: XML
    assert "xml" in as_xml and "table" not in as_xml
    assert client.ok("QUERY " + json.dumps({**spec, "format": "xml"}))["xml"] == as_xml["xml"]
    as_table = client.ok("QUERY " + json.dumps({**spec, "format": "table"}))
    assert "xml" not in as_table
    assert as_table["rows"] == as_xml["rows"]
    assert ResultTable.from_wire(as_table["table"]).to_xml() == as_xml["xml"]
    error = client.err("QUERY " + json.dumps({**spec, "format": "yaml"}))
    assert error["kind"] == "ProtocolError" and "yaml" in error["message"]
    assert client.ok("PING") == {"pong": True}  # the connection survived


def test_query_with_plan_and_timeout(client):
    payload = client.ok("QUERY " + json.dumps({"q": QUERY_1, "plan": "direct"}))
    assert payload["plan_mode"] == "direct"
    error = client.err("QUERY " + json.dumps({"q": QUERY_1, "timeout": 0.0}))
    assert error["kind"] == "QueryTimeoutError"


def test_explain(client):
    payload = client.ok("EXPLAIN " + json.dumps({"q": QUERY_1}))
    assert "GROUPBY" in payload["text"] or "groupby" in payload["text"]
    assert "plans" in payload


def test_explain_ignores_an_older_clients_verbose_field(client):
    plain = client.ok("EXPLAIN " + json.dumps({"q": QUERY_1}))
    older = client.ok("EXPLAIN " + json.dumps({"q": QUERY_1, "verbose": True}))
    assert older == plain


def test_stats_and_session(client):
    client.ok("QUERY " + json.dumps({"q": QUERY_1}))
    stats = client.ok("STATS")
    assert stats["queries_completed"] >= 1
    assert "result_cache_hits" in stats
    # The network edge's counters ride along, server_*-prefixed.
    assert stats["server_connections_accepted"] >= 1
    assert stats["server_requests_received"] >= 1
    session = client.ok("SESSION")
    assert session["queries"] == 1
    assert session["aborted"] == 0
    assert session["name"].startswith("tcp:")


def test_health_healthy(client):
    health = client.ok("HEALTH")
    assert health["status"] == "ok"
    assert health["live"] is True
    assert health["ready"] is True
    assert health["draining"] is False
    assert health["degraded_store"] is False
    assert health["quarantined_pages"] == 0
    assert health["queue_depth"] >= 0
    assert health["active_connections"] >= 1
    assert health["workers"] == 2


def test_errors_keep_connection_alive(client):
    assert client.err("BOGUS")["kind"] == "ProtocolError"
    assert client.err("QUERY not-json")["kind"] == "ProtocolError"
    assert client.err("QUERY {}")["kind"] == "ProtocolError"
    assert client.err("QUERY []")["kind"] == "ProtocolError"
    assert client.err("")["kind"] == "ProtocolError"
    bad_query = client.err("QUERY " + json.dumps({"q": "THIS IS NOT XQUERY ("}))
    assert "message" in bad_query
    assert client.ok("PING") == {"pong": True}  # still usable


def test_quit_closes_cleanly(client):
    assert client.send("QUIT") == "BYE"
    assert client.file.readline() == ""  # server closed the stream


def test_each_connection_gets_own_session(endpoint):
    a, b = LineClient(endpoint), LineClient(endpoint)
    try:
        a.ok("QUERY " + json.dumps({"q": QUERY_1}))
        assert a.ok("SESSION")["queries"] == 1
        assert b.ok("SESSION")["queries"] == 0
        assert a.ok("SESSION")["session_id"] != b.ok("SESSION")["session_id"]
    finally:
        a.close()
        b.close()


def test_load_wire_command_chunked(client):
    doc = "<bib>" + "".join(
        f"<article><title>t{i}</title></article>" for i in range(4)
    ) + "</bib>"
    # Stream in three chunks; only the final one materializes the doc.
    third = len(doc) // 3
    part = client.ok("LOAD " + json.dumps(
        {"name": "wire.xml", "chunk": doc[:third], "final": False}
    ))
    assert part == {"received": third}
    part = client.ok("LOAD " + json.dumps(
        {"name": "wire.xml", "chunk": doc[third : 2 * third], "final": False}
    ))
    assert part == {"received": 2 * third}
    done = client.ok("LOAD " + json.dumps(
        {"name": "wire.xml", "chunk": doc[2 * third :], "final": True}
    ))
    assert done["document"] == "wire.xml"
    assert done["nodes"] > 0
    count = client.ok("QUERY " + json.dumps(
        {"q": 'count(document("wire.xml")//article)'}
    ))
    assert "<value>4</value>" in count["xml"]


def test_load_rejects_non_string_chunk(client):
    error = client.err("LOAD " + json.dumps(
        {"name": "bad.xml", "chunk": 7, "final": True}
    ))
    assert error["kind"] == "ProtocolError"
    assert client.ok("PING") == {"pong": True}  # connection survives


def test_client_vanishing_mid_reply_marks_session_aborted(running_server):
    # The cluster coordinator abandons shard calls past their deadline;
    # the shard must mark the SESSION aborted (not just the server-wide
    # counter) and still run close_session.  The RST must land while
    # the query executes, so retry the race a few times.
    import socket as socket_module
    import struct
    import time

    service = running_server.service
    raw = LineClient(running_server.endpoint)
    assert raw.ok("PING") == {"pong": True}
    session = next(s for s in service.sessions.active() if s.aborted == 0)
    # Pipeline a burst of UNIQUE grouping queries (a different result
    # tag each: a different fingerprint, so every one executes — cache
    # hits would be over before the reset) without reading a single
    # reply: the server is necessarily mid-burst when the reset lands,
    # so the race needs no retry loop.
    burst = "".join(
        "QUERY "
        + json.dumps({"q": QUERY_1.replace("authorpubs", f"authorpubs{i}")})
        + "\n"
        for i in range(300)
    )
    raw.file.write(burst)
    raw.file.flush()
    time.sleep(0.1)  # let the server start chewing through the burst
    # SO_LINGER(on, 0): close() sends RST, so the server's reply write
    # fails instead of landing in a dead socket buffer.  The makefile
    # handle holds its own reference to the fd — both must close for
    # the RST to actually fire.
    raw.sock.setsockopt(
        socket_module.SOL_SOCKET,
        socket_module.SO_LINGER,
        struct.pack("ii", 1, 0),
    )
    raw.file.close()
    raw.sock.close()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and not session.closed:
        time.sleep(0.02)
    assert session.aborted == 1
    assert session.closed  # close_session ran despite the abort
    stats = running_server.stats()
    assert stats["server_connections_aborted"] >= 1
    assert stats["server_handler_crashes"] == 0


def test_shutdown_wakes_the_accept_loop_at_once(running_server):
    """shutdown() does not wait out serve_forever's poll interval."""
    import time

    from repro.service.server import serve

    server = serve(running_server.service, port=0)
    thread = server.serve_background()
    time.sleep(0.05)  # the loop is parked in select()
    started = time.perf_counter()
    server.shutdown()
    elapsed = time.perf_counter() - started
    server.server_close()
    thread.join(1.0)
    assert not thread.is_alive()
    assert elapsed < 0.05, elapsed
