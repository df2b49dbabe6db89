"""A resilient client for the line-oriented query service.

Every caller so far has hand-rolled a socket against
:mod:`repro.service.server`; :class:`ServiceClient` is the library
version, built for networks that misbehave:

* **reconnection** — a dropped connection is re-established on the
  next call; the client never caches a dead socket;
* **retries with exponential backoff + full jitter** — transient
  failures (refused connections, resets, truncated replies, and
  retryable ``ERR`` kinds like admission rejections) are retried up to
  a budget, sleeping ``uniform(0, min(cap, base * 2**attempt))``
  between attempts so a thundering herd decorrelates;
* **idempotency discipline** — only commands that are safe to execute
  twice (``QUERY``/``EXPLAIN``/``STATS``/``PING``/``HEALTH``) are
  replayed after an *ambiguous* failure (request written, outcome
  unknown).  Anything else surfaces
  :class:`~repro.errors.AmbiguousResultError` instead of replaying;
* a **circuit breaker** — consecutive failures open the circuit and
  calls fail fast with :class:`~repro.errors.CircuitOpenError`; after
  ``reset_timeout`` one probe goes through (half-open) and a success
  re-closes the breaker.

All failures surface as :class:`~repro.errors.ClientError` subclasses
— raw socket exceptions never escape — and every retry, reconnect,
and breaker transition is counted in a
:class:`~repro.observability.CounterSnapshot`-compatible form
(:meth:`ServiceClient.counter_snapshot`).

The jitter source is a seeded ``random.Random``, mirroring the
deterministic fault-plan discipline of :mod:`repro.storage.faults`:
a failing seed reproduces the same backoff schedule.
"""

from __future__ import annotations

import dataclasses
import json
import random
import socket
import threading
import time
from dataclasses import dataclass

from ..errors import (
    AmbiguousResultError,
    CircuitOpenError,
    ConnectionFailedError,
    ProtocolError,
    RemoteError,
    RetryBudgetExceededError,
    ServiceError,
)
from ..observability import CounterSnapshot

#: Commands safe to send twice: they read or are pure.  ``SESSION`` is
#: read-only but names *this connection's* session, so a replay on a
#: fresh connection would silently answer about a different session —
#: treated as non-idempotent.  ``QUIT`` is terminal.
IDEMPOTENT_COMMANDS = frozenset({"PING", "HEALTH", "QUERY", "EXPLAIN", "STATS"})

#: ``ERR`` kinds that signal a transient server-side condition worth
#: backing off and retrying (backpressure, overload, drain).
RETRYABLE_ERR_KINDS = frozenset(
    {"AdmissionError", "ServerOverloadedError", "ServerDrainingError"}
)

#: Seconds :meth:`ServiceClient.close` waits for the server's ``BYE``.
QUIT_REPLY_TIMEOUT = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule and retry budget.

    ``max_attempts`` counts the first try: 4 means one try plus three
    retries.  Delays follow AWS-style *full jitter*:
    ``uniform(0, min(max_delay, base_delay * 2**retry_index))``.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter_seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ServiceError("retry policy needs at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ServiceError("retry delays must be non-negative")


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker thresholds.

    ``failure_threshold`` consecutive transport failures open the
    circuit; after ``reset_timeout`` seconds one half-open probe is
    allowed through, and its outcome re-closes or re-opens the
    breaker.
    """

    failure_threshold: int = 5
    reset_timeout: float = 1.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ServiceError("breaker threshold must be >= 1")
        if self.reset_timeout < 0:
            raise ServiceError("breaker reset timeout must be non-negative")


class ClientStatistics:
    """Forward-only counters for one client (snapshot-and-subtract,
    like every other counter set in the repo)."""

    __slots__ = (
        "requests",
        "replies_ok",
        "replies_err",
        "connects",
        "reconnects",
        "connect_failures",
        "network_errors",
        "retries",
        "retries_exhausted",
        "ambiguous_failures",
        "server_goodbyes",
        "backoff_sleeps",
        "backoff_sleep_us",
        "breaker_opens",
        "breaker_half_opens",
        "breaker_closes",
        "breaker_rejections",
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
                f"client_{name}": getattr(self, name)
                for name in self.__slots__[:-1]
            }


# Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed → open → half-open transport-failure breaker.

    Only *transport* failures count (connect errors, resets, timeouts,
    truncated replies).  A server that answers — even with ``ERR`` —
    is alive, so application errors reset the failure streak.

    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        config: BreakerConfig | None = None,
        counters: ClientStatistics | None = None,
        clock=time.monotonic,
    ):
        self.config = config or BreakerConfig()
        self.counters = counters or ClientStatistics()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> None:
        """Gate a call: raises :class:`CircuitOpenError` while open;
        transitions open → half-open once the reset timeout elapses
        (admitting a single probe)."""
        with self._lock:
            if self._state == CLOSED:
                return
            if self._state == OPEN:
                elapsed = self._clock() - self._opened_at
                if elapsed < self.config.reset_timeout:
                    self.counters.add("breaker_rejections")
                    remaining = self.config.reset_timeout - elapsed
                    raise CircuitOpenError(
                        f"circuit open; retry in {remaining:.2f}s"
                    )
                self._state = HALF_OPEN
                self._probe_in_flight = False
                self.counters.add("breaker_half_opens")
            # HALF_OPEN: one probe at a time.
            if self._probe_in_flight:
                self.counters.add("breaker_rejections")
                raise CircuitOpenError("circuit half-open; probe in flight")
            self._probe_in_flight = True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state != CLOSED:
                self._state = CLOSED
                self.counters.add("breaker_closes")

    def record_failure(self) -> None:
        with self._lock:
            self._probe_in_flight = False
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or (
                self._state == CLOSED
                and self._consecutive_failures >= self.config.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self.counters.add("breaker_opens")


@dataclass(frozen=True)
class HealthReport:
    """Parsed ``HEALTH`` payload — one parser shared by every caller
    (CLI, cluster coordinator, tests) instead of each fishing keys out
    of the raw line.

    Unknown keys survive in ``raw`` so a newer server can report more
    than an older client knows to model.
    """

    status: str
    live: bool
    ready: bool
    draining: bool
    degraded_store: bool
    quarantined_pages: int
    queue_depth: int
    queue_capacity: int
    workers: int
    active_connections: int
    max_connections: int
    generation: int
    ingesting: bool = False
    raw: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def from_payload(cls, payload: dict) -> "HealthReport":
        return cls(
            status=str(payload.get("status", "unknown")),
            live=bool(payload.get("live", False)),
            ready=bool(payload.get("ready", False)),
            draining=bool(payload.get("draining", False)),
            degraded_store=bool(payload.get("degraded_store", False)),
            quarantined_pages=int(payload.get("quarantined_pages", 0)),
            queue_depth=int(payload.get("queue_depth", 0)),
            queue_capacity=int(payload.get("queue_capacity", 0)),
            workers=int(payload.get("workers", 0)),
            active_connections=int(payload.get("active_connections", 0)),
            max_connections=int(payload.get("max_connections", 0)),
            generation=int(payload.get("generation", 0)),
            ingesting=bool(payload.get("ingesting", False)),
            raw=dict(payload),
        )

    def as_dict(self) -> dict:
        return dict(self.raw)


class ServiceClient:
    """Reconnecting, retrying, breaker-guarded line-protocol client.

    Not thread-safe: one client per thread (clients are cheap; the
    breaker and counters are the expensive state and may be shared by
    constructing with the same objects).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry: RetryPolicy | None = None,
        breaker: BreakerConfig | CircuitBreaker | None = None,
        connect_timeout: float = 5.0,
        read_timeout: float = 30.0,
        sleep=time.sleep,
    ):
        self.host = host
        self.port = port
        self.retry = retry or RetryPolicy()
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.counters = ClientStatistics()
        if isinstance(breaker, CircuitBreaker):
            self.breaker = breaker
        else:
            self.breaker = CircuitBreaker(breaker, self.counters)
        self._rng = random.Random(self.retry.jitter_seed)
        self._sleep = sleep
        self._sock: socket.socket | None = None
        self._buffer = bytearray()
        self._ever_connected = False

    # ------------------------------------------------------------------
    # Command surface
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self.call("PING")

    def health(self) -> HealthReport:
        return HealthReport.from_payload(self.call("HEALTH"))

    def query(
        self,
        text: str,
        *,
        plan: str | None = None,
        timeout: float | None = None,
        format: str | None = None,
    ) -> dict:
        """``format="table"`` asks for the result as a
        :class:`~repro.xmlmodel.table.ResultTable` wire frame (reply key
        ``table``) instead of XML text (reply key ``xml``)."""
        spec: dict[str, object] = {"q": text}
        if plan is not None:
            spec["plan"] = plan
        if timeout is not None:
            spec["timeout"] = timeout
        if format is not None:
            spec["format"] = format
        return self.call("QUERY", spec)

    def explain(self, text: str) -> dict:
        return self.call("EXPLAIN", {"q": text})

    def load(self, text: str, name: str, *, chunk_chars: int = 1 << 18) -> dict:
        """Ship a document over the wire in ``LOAD`` chunks (the server
        caps request lines at 1 MiB, so large documents stream).

        Non-idempotent: a transport failure after any chunk was sent
        surfaces :class:`~repro.errors.AmbiguousResultError` instead of
        replaying — the caller decides whether to re-LOAD under a fresh
        name or probe the catalog.
        """
        if len(text) <= chunk_chars:
            return self.call(
                "LOAD", {"name": name, "chunk": text, "final": True},
                idempotent=False,
            )
        reply: dict = {}
        for start in range(0, len(text), chunk_chars):
            piece = text[start : start + chunk_chars]
            final = start + chunk_chars >= len(text)
            reply = self.call(
                "LOAD", {"name": name, "chunk": piece, "final": final},
                idempotent=False,
            )
        return reply

    def load_stream(
        self,
        source,
        name: str,
        *,
        batch_size: int | None = None,
        chunk_chars: int = 1 << 18,
        on_progress=None,
    ) -> dict:
        """Streaming ``LOAD``: the server commits journaled batches as
        chunks arrive instead of buffering the whole document.

        ``source`` is a string, a file-like object, or an iterable of
        text chunks.  ``on_progress`` (a ``dict -> None`` callable)
        receives each batch-commit event the server reports.  Like
        :meth:`load`, non-idempotent: a transport failure mid-stream
        surfaces :class:`~repro.errors.AmbiguousResultError`; the
        server keeps every batch it committed.
        """
        from ..ingest.session import chunks_of

        def announce(reply: dict) -> None:
            if on_progress is not None:
                for event in reply.get("events", ()):
                    on_progress(event)

        base: dict[str, object] = {"name": name, "stream": True}
        if batch_size is not None:
            base["batch_size"] = batch_size
        for piece in chunks_of(source, chunk_chars):
            reply = self.call(
                "LOAD", {**base, "chunk": piece, "final": False},
                idempotent=False,
            )
            announce(reply)
        reply = self.call(
            "LOAD", {**base, "chunk": "", "final": True}, idempotent=False
        )
        announce(reply)
        return reply

    def stats(self) -> CounterSnapshot:
        """Server-side counters merged with this client's own
        (``client_*``-prefixed) — one snapshot shows both ends."""
        data = dict(self.call("STATS"))
        data.update(self.counters.snapshot())
        return CounterSnapshot(data)

    def counter_snapshot(self) -> CounterSnapshot:
        """Just this client's counters, as an immutable snapshot."""
        return CounterSnapshot(self.counters.snapshot())

    def set_read_timeout(self, seconds: float) -> None:
        """Adjust the per-reply read timeout, applying it to the live
        socket too — the cluster coordinator shrinks this to a call's
        remaining deadline budget before each shard call."""
        self.read_timeout = seconds
        if self._sock is not None:
            self._sock.settimeout(seconds)

    def session(self) -> dict:
        """This connection's session snapshot.  Non-idempotent: a
        replay would land on a *new* connection (hence a new session)
        and silently answer about the wrong one."""
        return self.call("SESSION", idempotent=False)

    # ------------------------------------------------------------------
    # Core call loop
    # ------------------------------------------------------------------
    def call(
        self,
        command: str,
        spec: dict | None = None,
        *,
        idempotent: bool | None = None,
    ) -> dict:
        """One request/response round trip with the full resilience
        stack (reconnect, retry budget, breaker)."""
        command = command.upper()
        if idempotent is None:
            idempotent = command in IDEMPOTENT_COMMANDS
        attempts = self.retry.max_attempts if idempotent else 1
        line = command if spec is None else command + " " + json.dumps(spec)
        payload = line.encode("utf-8") + b"\n"
        self.counters.add("requests")
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                self.counters.add("retries")
                self._backoff(attempt)
            self.breaker.allow()
            sent = False
            try:
                self._ensure_connected()
                self._write(payload)
                sent = True
                reply = self._read_line()
            except ConnectionFailedError as error:
                self.breaker.record_failure()
                self.counters.add("network_errors")
                self._drop_connection()
                if sent and not idempotent:
                    self.counters.add("ambiguous_failures")
                    raise AmbiguousResultError(
                        f"{command} failed after the request was sent; "
                        "the server may have executed it — not replaying"
                    ) from error
                last_error = error
                continue
            self.breaker.record_success()
            try:
                return self._decode(command, reply)
            except _Goodbye as goodbye:
                # The server said BYE (drain): this connection is done;
                # idempotent work may retry against a fresh accept.
                self.counters.add("server_goodbyes")
                self._drop_connection()
                last_error = goodbye.error
                continue
            except _RetryableRemote as retryable:
                last_error = retryable.error
                continue
        self.counters.add("retries_exhausted")
        raise RetryBudgetExceededError(
            f"{command} failed after {attempts} attempt(s)"
        ) from last_error

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _ensure_connected(self) -> None:
        if self._sock is not None:
            return
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as error:
            self.counters.add("connect_failures")
            raise ConnectionFailedError(
                f"connect to {self.host}:{self.port} failed: {error}"
            ) from error
        sock.settimeout(self.read_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._sock = sock
        self._buffer.clear()
        if self._ever_connected:
            self.counters.add("reconnects")
        else:
            self._ever_connected = True
        self.counters.add("connects")

    def _write(self, payload: bytes) -> None:
        assert self._sock is not None
        try:
            self._sock.sendall(payload)
        except OSError as error:
            raise ConnectionFailedError(f"send failed: {error}") from error

    def _read_line(self) -> str:
        assert self._sock is not None
        while True:
            cut = self._buffer.find(b"\n")
            if cut >= 0:
                line = self._buffer[:cut].decode("utf-8", errors="replace")
                del self._buffer[: cut + 1]
                return line
            try:
                chunk = self._sock.recv(65536)
            except OSError as error:
                raise ConnectionFailedError(f"read failed: {error}") from error
            if not chunk:
                raise ConnectionFailedError(
                    "connection closed mid-reply"
                    if self._buffer
                    else "connection closed before reply"
                )
            self._buffer += chunk

    def _decode(self, command: str, reply: str) -> dict:
        if reply.startswith("OK"):
            self.counters.add("replies_ok")
            body = reply[2:].strip()
            return json.loads(body) if body else {}
        if reply == "BYE":
            raise _Goodbye(
                ConnectionFailedError("server said BYE (draining)")
            )
        if reply.startswith("ERR"):
            self.counters.add("replies_err")
            try:
                body = json.loads(reply[3:].strip())
            except json.JSONDecodeError:
                body = {}
            kind = str(body.get("kind", "unknown"))
            message = str(body.get("message", reply))
            error = RemoteError(kind, message)
            if kind in RETRYABLE_ERR_KINDS and command in IDEMPOTENT_COMMANDS:
                raise _RetryableRemote(error)
            raise error
        raise ProtocolError(f"unparseable reply line: {reply[:120]!r}")

    def _backoff(self, retry_index: int) -> None:
        cap = min(
            self.retry.max_delay,
            self.retry.base_delay * (2 ** (retry_index - 1)),
        )
        delay = self._rng.uniform(0.0, cap)
        if delay > 0:
            self.counters.add("backoff_sleeps")
            self.counters.add("backoff_sleep_us", int(delay * 1_000_000))
            self._sleep(delay)

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        self._buffer.clear()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._sock is not None

    def close(self) -> None:
        """Best-effort ``QUIT``, then drop the connection.  The goodbye
        is waited for at most :data:`QUIT_REPLY_TIMEOUT` seconds, never
        a full read timeout."""
        if self._sock is not None:
            try:
                self._sock.settimeout(min(self.read_timeout, QUIT_REPLY_TIMEOUT))
                self._write(b"QUIT\n")
                self._read_line()  # BYE
            except (ConnectionFailedError, OSError):
                pass
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Goodbye(Exception):
    """Internal: the server answered BYE."""

    def __init__(self, error: Exception):
        self.error = error


class _RetryableRemote(Exception):
    """Internal: an ``ERR`` kind that deserves backoff-and-retry."""

    def __init__(self, error: RemoteError):
        self.error = error
