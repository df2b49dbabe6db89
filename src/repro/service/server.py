"""A hardened, line-oriented TCP front end for the query service.

One request per line, one response per line — trivially scriptable
with ``nc`` and trivially testable with a raw socket.  Each connection
gets its own :class:`~repro.service.session.Session`; the protocol is
documented in ``docs/service.md``.

Requests (UTF-8, newline-terminated)::

    PING
    HEALTH
    QUERY {"q": "FOR $b IN ...", "plan": "groupby", "timeout": 2.5, "format": "xml"}
    EXPLAIN {"q": "..."}
    LOAD {"name": "bib.xml", "chunk": "<bib>...", "final": true}
    STATS
    SESSION
    QUIT

Responses::

    OK {...json payload...}
    ERR {"kind": "QueryTimeoutError", "message": "..."}
    BYE

Application errors never tear down the connection; *stream* errors do.
The two cases that close after an ``ERR``:

* an **oversized request line** — the rest of the line is still in
  flight, so the next ``readline`` would parse garbage; the only safe
  answer is ``ERR`` then close;
* an **idle timeout** — a connection that sends no complete request
  within ``idle_timeout`` seconds is disconnected (the same clock
  bounds a slow-loris client trickling one byte at a time, because it
  resets per completed *line*, not per byte).

The server mirrors the deterministic fault discipline of
``repro.storage.faults`` at the network edge:

* **write deadlines** — a response send that blocks longer than
  ``write_timeout`` aborts the connection instead of pinning the
  handler thread on a dead or stalled client;
* a **connection cap** — above ``max_connections`` a new connection is
  answered with one ``ERR ServerOverloadedError`` line and closed
  (shedding), so overload degrades crisply instead of oversubscribing;
* **graceful drain** — :meth:`ServiceServer.drain` stops accepting,
  says ``BYE`` to idle connections, lets in-flight requests finish
  within a grace budget, then cancels and force-closes what remains;
* a **HEALTH command** reporting readiness/liveness: drain state,
  queue depth, connection count, and whether the store is degraded
  (quarantined pages).

The server is a ``ThreadingTCPServer``: each connection runs in its
own thread and submits through the shared service, so admission
control and the worker pool govern total concurrency, not the socket
count.
"""

from __future__ import annotations

import json
import selectors
import socket
import socketserver
import sys
import threading
import time
from dataclasses import dataclass

from ..errors import (
    ProtocolError,
    ReproError,
    ServerDrainingError,
    ServerOverloadedError,
    ServiceError,
)
from ..observability import CounterSnapshot
from .service import QueryService, ServiceResult

#: Refuse absurd request lines before json-decoding them (1 MiB).
MAX_LINE_BYTES = 1 << 20


@dataclass(frozen=True)
class ServerConfig:
    """Resilience knobs for the TCP front end.

    ``idle_timeout`` is per *completed request line*: a client may
    think between requests for that long, but may not trickle a single
    request forever (slow-loris).  ``write_timeout`` bounds each
    response send.  ``poll_interval`` is how quickly blocked reads
    notice a drain — purely an internal responsiveness knob.
    """

    idle_timeout: float = 30.0
    write_timeout: float = 10.0
    max_connections: int = 64
    drain_grace: float = 5.0
    poll_interval: float = 0.1

    def __post_init__(self):
        if self.idle_timeout <= 0 or self.write_timeout <= 0:
            raise ServiceError("server timeouts must be positive")
        if self.max_connections < 1:
            raise ServiceError("server needs at least one connection slot")
        if self.poll_interval <= 0:
            raise ServiceError("poll interval must be positive")


class ServerStatistics:
    """Forward-only counters for the network edge (same discipline as
    the service counters: snapshot and subtract for deltas)."""

    __slots__ = (
        "connections_accepted",
        "connections_shed",
        "connections_aborted",
        "idle_disconnects",
        "oversized_requests",
        "write_timeouts",
        "requests_received",
        "drains_started",
        "drain_forced_closes",
        "handler_crashes",
        "_lock",
    )

    def __init__(self):
        for name in self.__slots__[:-1]:
            setattr(self, name, 0)
        self._lock = threading.Lock()

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                f"server_{name}": getattr(self, name)
                for name in self.__slots__[:-1]
            }


@dataclass(frozen=True)
class DrainReport:
    """What a graceful drain accomplished."""

    clean: bool  # every connection finished within the grace budget
    forced_closes: int  # connections cancelled and closed at the budget
    grace_seconds: float
    elapsed_seconds: float

    def render(self) -> str:
        verdict = "clean" if self.clean else f"forced {self.forced_closes}"
        return (
            f"drain: {verdict} in {self.elapsed_seconds:.2f}s "
            f"(grace {self.grace_seconds:g}s)"
        )


#: What a ``QUERY`` reply may carry the result as (the ``format`` key).
RESULT_FORMATS = ("xml", "table")


def encode_result(outcome: ServiceResult, format: str = "xml") -> str:
    """The JSON payload, as text, for a completed query.

    The result is spliced in from the result table beside the
    per-request fields: ``xml`` is the table's memoized, already
    JSON-escaped serialization, so a cache hit is answered without
    building, copying or walking a tree; ``format="table"`` ships the
    table's wire frame under ``table`` instead (the coordinator's
    choice — it wants rows, not markup).
    """
    table = outcome.result_table()
    if format == "table":
        body = '"table": ' + json.dumps(table.to_wire(), separators=(",", ":"))
    else:
        body = '"xml": ' + table.to_xml_json()
    trip = json.dumps(
        {
            "plan_mode": outcome.plan_mode,
            "cached": outcome.cached,
            "plan_cached": outcome.plan_cached,
            "fingerprint": outcome.fingerprint,
            "generation": outcome.generation,
            "queue_wait_seconds": outcome.queue_wait_seconds,
            "elapsed_seconds": outcome.elapsed_seconds,
        }
    )
    return f'{{"rows": {len(table)}, {body}, {trip[1:]}'


class _ClientGone(Exception):
    """Internal: the client vanished (or stalled) mid-response."""


class _OversizedLine(Exception):
    """Internal: a request line exceeded :data:`MAX_LINE_BYTES`."""


#: Distinct from ``None`` (no complete line yet) and ``b""`` (an empty
#: request line, which is a protocol error but keeps the connection).
_EOF = object()


class _LineReader:
    """Incremental newline-framed reads over a raw socket.

    ``poll`` blocks at most ``interval`` seconds and returns one of:
    a complete line (without the newline), ``None`` (nothing complete
    yet — the caller re-checks idle/drain state and polls again), or
    :data:`_EOF` (connection over).  Buffering is explicit, so a
    timeout mid-line never corrupts the stream the way a buffered
    ``makefile`` reader would.
    """

    __slots__ = ("sock", "max_line", "buffer")

    def __init__(self, sock: socket.socket, max_line: int):
        self.sock = sock
        self.max_line = max_line
        self.buffer = bytearray()

    def poll(self, interval: float):
        line = self._pop_line()
        if line is not None:
            return line
        self.sock.settimeout(interval)
        try:
            chunk = self.sock.recv(65536)
        except TimeoutError:
            return None
        except OSError:
            return _EOF  # reset / closed under us: same as a hang-up
        if not chunk:
            return _EOF  # orderly EOF (a partial line is discarded)
        self.buffer += chunk
        return self._pop_line()

    def _pop_line(self):
        cut = self.buffer.find(b"\n")
        if cut < 0:
            if len(self.buffer) > self.max_line:
                raise _OversizedLine(
                    f"request line exceeds {self.max_line} bytes"
                )
            return None
        if cut > self.max_line:
            raise _OversizedLine(f"request line exceeds {self.max_line} bytes")
        line = bytes(self.buffer[:cut])
        del self.buffer[: cut + 1]
        return line


class _Handler(socketserver.BaseRequestHandler):
    """One client connection: a session plus a request loop."""

    server: "ServiceServer"

    def setup(self) -> None:  # noqa: D102 - socketserver contract
        self._busy = False
        self._active_ticket = None
        # Partial LOAD bodies, keyed by document name.  Request lines
        # are capped at MAX_LINE_BYTES, so large documents arrive as a
        # sequence of LOAD chunks ending with "final": true.
        self._load_buffers: dict[str, list[str]] = {}
        # Streaming ingests ("stream": true LOADs), keyed by document
        # name.  Unlike buffered LOADs these commit batches as chunks
        # arrive; a disconnect mid-stream aborts the ingest but keeps
        # every committed batch.
        self._ingests: dict[str, object] = {}
        try:
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass

    def handle(self) -> None:  # noqa: D102 - socketserver contract
        server = self.server
        config = server.config
        stats = server.server_stats
        if not server._register(self):
            stats.add("connections_shed")
            if server.draining:
                shed: ReproError = ServerDrainingError(
                    "server is draining; no new connections"
                )
            else:
                shed = ServerOverloadedError(
                    f"connection cap ({config.max_connections}) reached; "
                    "shedding this connection"
                )
            self._best_effort_send(_err(shed))
            return
        try:
            self._serve_connection()
        finally:
            server._deregister(self)

    def _serve_connection(self) -> None:
        server = self.server
        config = server.config
        stats = server.server_stats
        service = server.service
        session = service.open_session(name=f"tcp:{self.client_address[0]}")
        reader = _LineReader(self.request, MAX_LINE_BYTES)
        idle_since = time.monotonic()
        try:
            while True:
                if server.draining:
                    self._best_effort_send("BYE")
                    return
                try:
                    raw = reader.poll(config.poll_interval)
                except _OversizedLine as error:
                    # The rest of the oversized line is still in the
                    # socket; answering and carrying on would desync
                    # the stream — answer ERR, then close.
                    stats.add("oversized_requests")
                    self._best_effort_send(_err(ProtocolError(str(error))))
                    return
                if raw is _EOF:
                    return  # client hung up
                if raw is None:
                    if time.monotonic() - idle_since >= config.idle_timeout:
                        stats.add("idle_disconnects")
                        self._best_effort_send(
                            _err(
                                ProtocolError(
                                    "no complete request within "
                                    f"{config.idle_timeout:g}s; closing"
                                )
                            )
                        )
                        return
                    continue
                idle_since = time.monotonic()
                stats.add("requests_received")
                try:
                    self._busy = True
                    try:
                        reply = self._dispatch(raw, session)
                    finally:
                        self._busy = False
                except ReproError as error:
                    reply = _err(error)
                except json.JSONDecodeError as error:
                    reply = _err(ProtocolError(f"bad JSON argument: {error}"))
                try:
                    if reply is None:
                        self._send("BYE")
                        return
                    self._send(reply)
                except _ClientGone:
                    # The client disconnected mid-response.  Swallowing
                    # the send error (instead of letting the handler
                    # thread die with a traceback) keeps the session
                    # accounting below intact.
                    stats.add("connections_aborted")
                    session.aborted += 1
                    return
        finally:
            # A connection that vanished mid-stream leaves the store at
            # the last committed batch: abort (never finish) whatever
            # ingests it still had open.
            for ingest in list(self._ingests.values()):
                try:
                    ingest.abort()
                except ReproError:  # pragma: no cover - best effort
                    pass
            self._ingests.clear()
            try:
                service.close_session(session.session_id)
            except ReproError:
                pass  # already closed (service shutdown)

    def _dispatch(self, raw: bytes, session) -> str | None:
        line = raw.decode("utf-8", errors="replace").strip()
        if not line:
            raise ProtocolError("empty request line")
        command, _, argument = line.partition(" ")
        command = command.upper()
        server = self.server
        service = server.service
        if command == "PING":
            return "OK " + json.dumps({"pong": True})
        if command == "QUIT":
            return None
        if command == "HEALTH":
            return "OK " + json.dumps(server.health())
        if command == "STATS":
            from ..observability import snapshot_counters

            # Storage/index counters first (ingest progress, incremental
            # index maintenance, buffer pool); the service and server
            # layers' keys are prefixed, so they never collide.
            data = snapshot_counters(service.db.store, service.db.indexes).as_dict()
            data.update(service.stats().as_dict())
            data.update(server.stats().as_dict())
            return "OK " + json.dumps(data)
        if command == "SESSION":
            return "OK " + json.dumps(session.snapshot())
        if command == "QUERY":
            spec = _spec(argument)
            format = spec.get("format", "xml")
            if format not in RESULT_FORMATS:
                raise ProtocolError(
                    f"unknown result format {format!r}; "
                    f"expected one of {list(RESULT_FORMATS)}"
                )
            ticket = service.submit(
                _required(spec, "q"),
                plan=spec.get("plan"),
                timeout=spec.get("timeout"),
                session=session,
            )
            # Exposed so a drain past its grace budget can cancel the
            # in-flight query instead of stranding this thread.
            self._active_ticket = ticket
            try:
                outcome = ticket.result()
            finally:
                self._active_ticket = None
            if outcome.cached and format == "xml":
                service.counters.add("cache_serialized_hits")
            return "OK " + encode_result(outcome, format)
        if command == "EXPLAIN":
            spec = _spec(argument)
            # Fields beyond "q" (an older client's "verbose") are ignored.
            explanation = service.db.explain(_required(spec, "q"))
            return "OK " + json.dumps(
                {"text": explanation.render(), "plans": explanation.to_dict()}
            )
        if command == "LOAD":
            spec = _spec(argument)
            name = _required(spec, "name")
            chunk = spec.get("chunk", "")
            if not isinstance(chunk, str):
                raise ProtocolError("LOAD chunk must be a string")
            if bool(spec.get("stream", False)):
                return self._load_streaming(spec, name, chunk)
            parts = self._load_buffers.setdefault(name, [])
            parts.append(chunk)
            if not bool(spec.get("final", True)):
                return "OK " + json.dumps(
                    {"received": sum(len(part) for part in parts)}
                )
            text = "".join(self._load_buffers.pop(name))
            report = service.load_text(text, name)
            return "OK " + json.dumps(
                {
                    "document": report.document,
                    "nodes": report.nodes,
                    "generation": report.generation,
                    "columnar": report.columnar,
                }
            )
        raise ProtocolError(f"unknown command {command!r}")

    def _load_streaming(self, spec: dict, name: str, chunk: str) -> str:
        """A ``"stream": true`` LOAD chunk: feed the connection's ingest
        session, committing batches as they fill.

        Non-final chunks answer with progress (batches committed so far
        and this chunk's commit events); the final chunk answers with
        the full load report.  Any error aborts the ingest — committed
        batches stay, the in-flight batch is never visible.
        """
        service = self.server.service
        ingest = self._ingests.get(name)
        if ingest is None:
            batch_size = spec.get("batch_size")
            if batch_size is not None and not isinstance(batch_size, int):
                raise ProtocolError("LOAD batch_size must be an integer")
            ingest = service.begin_ingest(name, batch_size=batch_size)
            self._ingests[name] = ingest
        batches_before = ingest.batches_committed
        try:
            events = ingest.feed(chunk)
            if not bool(spec.get("final", True)):
                return "OK " + json.dumps(
                    {
                        "streaming": True,
                        "batches": ingest.batches_committed,
                        "nodes_streamed": ingest.nodes_streamed,
                        "events": [_progress_payload(event) for event in events],
                    }
                )
            report = ingest.finish()
        except ReproError:
            ingest.abort()
            self._ingests.pop(name, None)
            raise
        self._ingests.pop(name, None)
        # The final reply's events cover this call's feed *and* the
        # final partial batch finish() committed.
        final_events = [
            event for event in report.progress if event.batch > batches_before
        ]
        return "OK " + json.dumps(
            {
                "document": report.document,
                "nodes": report.nodes,
                "generation": report.generation,
                "columnar": report.columnar,
                "batches": report.batches,
                "nodes_streamed": report.nodes_streamed,
                "events": [_progress_payload(event) for event in final_events],
            }
        )

    def _send(self, reply: str) -> None:
        payload = reply.encode("utf-8") + b"\n"
        self.request.settimeout(self.server.config.write_timeout)
        try:
            self.request.sendall(payload)
        except OSError as error:
            if isinstance(error, TimeoutError):
                self.server.server_stats.add("write_timeouts")
            raise _ClientGone from error

    def _best_effort_send(self, reply: str) -> None:
        try:
            self._send(reply)
        except _ClientGone:
            pass

    def force_abort(self, reason: str) -> None:
        """Called by a drain whose grace budget expired: cancel the
        in-flight query (the worker unwinds at its next checkpoint)
        and close the socket so a blocked read/write returns."""
        ticket = self._active_ticket
        if ticket is not None:
            ticket.cancel(reason)
        try:
            self.request.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.request.close()
        except OSError:
            pass


def _progress_payload(event) -> dict:
    """A :class:`~repro.ingest.session.BatchProgress` as wire JSON."""
    return {
        "batch": event.batch,
        "nodes_in_batch": event.nodes_in_batch,
        "nodes_total": event.nodes_total,
        "generation": event.generation,
    }


def _spec(argument: str) -> dict:
    if not argument:
        raise ProtocolError("command needs a JSON argument")
    spec = json.loads(argument)
    if not isinstance(spec, dict):
        raise ProtocolError("JSON argument must be an object")
    return spec


def _required(spec: dict, key: str) -> str:
    value = spec.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"missing required string field {key!r}")
    return value


def _err(error: Exception) -> str:
    return "ERR " + json.dumps(
        {"kind": type(error).__name__, "message": str(error)}
    )


class ServiceServer(socketserver.ThreadingTCPServer):
    """The TCP server bound to one :class:`QueryService`.

    ``port=0`` binds an ephemeral port (tests); ``server_address``
    reports the real one after construction.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        config: ServerConfig | None = None,
    ):
        self.service = service
        self.config = config or ServerConfig()
        self.server_stats = ServerStatistics()
        self._handlers: set[_Handler] = set()
        self._registry_lock = threading.Lock()
        self._draining = False
        self._serving = threading.Event()
        self._stop = threading.Event()
        self._stopped = threading.Event()
        super().__init__((host, port), _Handler)
        # shutdown() writes a byte here so the accept loop wakes at once
        # instead of at the end of its poll interval.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)

    # ------------------------------------------------------------------
    # Connection registry
    # ------------------------------------------------------------------
    def _register(self, handler: _Handler) -> bool:
        with self._registry_lock:
            if self._draining:
                return False
            if len(self._handlers) >= self.config.max_connections:
                return False
            self._handlers.add(handler)
        self.server_stats.add("connections_accepted")
        return True

    def _deregister(self, handler: _Handler) -> None:
        with self._registry_lock:
            self._handlers.discard(handler)

    def active_connections(self) -> int:
        with self._registry_lock:
            return len(self._handlers)

    # ------------------------------------------------------------------
    # Health and observability
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def health(self) -> dict:
        """Readiness/liveness for the ``HEALTH`` command (and load
        balancers): drain state, queue depth, connection pressure, and
        storage degradation (quarantined pages survive restarts, so a
        degraded store stays visible here until repaired)."""
        service = self.service
        store = service.db.store
        quarantined = len(getattr(store.meta, "quarantined_pages", ()) or ())
        degraded = quarantined > 0
        draining = self._draining
        ingesting = service.ingesting
        if draining:
            status = "draining"
        elif degraded:
            status = "degraded"
        elif ingesting:
            # Still ready (reads run between batches), but degraded:
            # write gate contention and per-batch cache invalidation
            # mean reduced throughput until the ingest finishes.
            status = "degraded:ingesting"
        else:
            status = "ok"
        return {
            "status": status,
            "live": True,
            "ready": not draining and not service.closed,
            "draining": draining,
            "ingesting": ingesting,
            "degraded_store": degraded,
            "quarantined_pages": quarantined,
            "queue_depth": service.queue_size(),
            "queue_capacity": service.config.queue_depth,
            "workers": service.config.workers,
            "active_connections": self.active_connections(),
            "max_connections": self.config.max_connections,
            "generation": store.generation,
        }

    def stats(self) -> CounterSnapshot:
        """The network edge's counters (``server_*``-prefixed, so they
        merge into the service snapshot without collisions)."""
        data = self.server_stats.snapshot()
        data["server_active_connections"] = self.active_connections()
        data["server_draining"] = int(self._draining)
        return CounterSnapshot(data)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> tuple[str, int]:
        return self.server_address[:2]

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Accept connections until :meth:`shutdown`, which wakes the
        loop through a socket pair instead of waiting out
        ``poll_interval``."""
        self._stopped.clear()
        self._serving.set()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_recv, selectors.EVENT_READ)
                while not self._stop.is_set():
                    ready = selector.select(poll_interval)
                    if self._stop.is_set():
                        break
                    for key, _events in ready:
                        if key.fileobj is self:
                            self._handle_request_noblock()
                        else:
                            self._wake_recv.recv(64)  # a stale wake-up
                    self.service_actions()
        finally:
            self._stop.clear()
            self._serving.clear()
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned.
        Call it from another thread (as ``socketserver`` requires)."""
        self._stop.set()
        if self._serving.is_set():  # a loop that starts later sees _stop
            self._wake_send.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_recv.close()
        self._wake_send.close()

    def serve_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests, embedding). ``shutdown()``
        stops it."""
        thread = threading.Thread(
            target=self.serve_forever, name="timber-service-server", daemon=True
        )
        thread.start()
        return thread

    def drain(self, grace: float | None = None) -> DrainReport:
        """Graceful shutdown of the network edge.

        Tells idle connections ``BYE`` (their read loops notice within
        ``poll_interval``), waits up to ``grace`` seconds for in-flight
        requests to finish, then cancels and force-closes whatever
        remains.  While the drain runs the accept loop stays up so new
        connections get a crisp ``ERR ServerDrainingError`` instead of
        hanging in the kernel backlog; it is shut down as the drain's
        last act.  Returns a :class:`DrainReport`; ``clean`` means
        nothing was forced.  The service itself is *not* closed — the
        caller owns that.
        """
        grace = self.config.drain_grace if grace is None else grace
        started = time.monotonic()
        self._draining = True
        self.server_stats.add("drains_started")
        deadline = started + grace
        while time.monotonic() < deadline:
            if self.active_connections() == 0:
                break
            time.sleep(min(0.01, self.config.poll_interval))
        with self._registry_lock:
            leftovers = list(self._handlers)
        for handler in leftovers:
            handler.force_abort("server drain grace expired")
            self.server_stats.add("drain_forced_closes")
        # Give forced handlers a bounded moment to unwind, so callers
        # can trust active_connections() after a drain.
        settle = time.monotonic() + 10 * self.config.poll_interval
        while leftovers and time.monotonic() < settle:
            if self.active_connections() == 0:
                break
            time.sleep(min(0.01, self.config.poll_interval))
        if self._serving.is_set():
            self.shutdown()  # stop the accept loop
        return DrainReport(
            clean=not leftovers,
            forced_closes=len(leftovers),
            grace_seconds=grace,
            elapsed_seconds=time.monotonic() - started,
        )

    def handle_error(self, request, client_address) -> None:  # noqa: D102
        # A handler died on something we did not anticipate.  Count it
        # (the soak asserts this stays zero) and keep the server up.
        self.server_stats.add("handler_crashes")
        kind = sys.exc_info()[0]
        name = kind.__name__ if kind else "unknown"
        print(
            f"timber-service: handler for {client_address} crashed: {name}",
            file=sys.stderr,
        )


def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    config: ServerConfig | None = None,
) -> ServiceServer:
    """Bind a :class:`ServiceServer`; the caller decides foreground
    (``serve_forever``) or background (``serve_background``)."""
    return ServiceServer(service, host, port, config)
