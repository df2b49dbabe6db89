"""The concurrent query service: TIMBER as a *server*, not a library.

The paper describes TIMBER as a multi-component database server
(Fig. 12); :class:`QueryService` is that front door over the embedded
:class:`~repro.query.database.Database`:

* a **worker pool** executes queries concurrently over the (now
  thread-safe) shared read path;
* **admission control** bounds the waiting queue — when it is full,
  :meth:`submit` fails fast with
  :class:`~repro.errors.AdmissionError` instead of letting latency
  grow without bound (backpressure);
* **per-query deadlines** (measured from submission, so queue wait
  counts against the budget) cancel runaway queries at the next
  cooperative checkpoint, releasing buffer pins and the read gate on
  the way out;
* a **two-tier cache** — prepared plans keyed on the normalized AST
  fingerprint, results keyed on ``(fingerprint, mode, store
  generation)`` — is invalidated wholesale by the store's generation
  counter, which every mutation bumps;
* a **reader/writer gate** lets any number of queries share the store
  while loads, drops, compaction, and repair run exclusively.

Every cache hit/miss/eviction, admission rejection, timeout, and queue
wait flows into the same :class:`~repro.observability.CounterSnapshot`
machinery as the storage counters; profiled queries carry their
service-side counters in ``profile.totals``.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

from ..cancellation import Deadline, deadline_scope
from ..errors import (
    AdmissionError,
    QueryCancelledError,
    QueryTimeoutError,
    ServiceError,
)
from ..observability import CounterSnapshot
from ..query.database import Database, PlanMode, PreparedQuery, QueryResult
from ..query.plan import PlanNode
from ..xmlmodel.node import XMLNode
from ..xmlmodel.table import ResultTable
from .cache import LRUCache
from .fingerprint import fingerprint_expr
from .rwlock import ReadWriteLock
from .session import Session, SessionRegistry


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for a :class:`QueryService`.

    ``queue_depth`` bounds *waiting* requests only; up to ``workers``
    more are executing, so at most ``queue_depth + workers`` queries
    are in flight.  A cache with 0 entries is disabled.
    """

    workers: int = 4
    queue_depth: int = 32
    default_timeout: float | None = None
    plan_cache_entries: int = 128
    result_cache_entries: int = 256
    #: Streaming-ingest duty-cycle throttle.  When readers are
    #: contending for the gate, the ingest idles before each batch
    #: commit for ``pacing`` x the time it spent working since its
    #: last pause (parse + drain + gate hold), capping the ingest's
    #: foreground share at ``1 / (1 + pacing)`` — the GIL and the
    #: write gate are both duty-cycled.  On an idle service (no read
    #: admissions since the previous batch) the pause is skipped
    #: entirely, so an uncontended load runs at full speed.  0
    #: disables pacing (ingest commits back-to-back, readers starve).
    ingest_pacing: float = 6.0

    def __post_init__(self):
        if self.workers < 1:
            raise ServiceError("service needs at least one worker")
        if self.queue_depth < 1:
            # queue.Queue treats 0 as "unbounded", which would silently
            # disable admission control — refuse it instead.
            raise ServiceError("queue depth must be >= 1")


class ServiceStatistics:
    """Forward-only counters for the service layer (same discipline as
    the storage counters: snapshot and subtract for deltas)."""

    __slots__ = (
        "submitted",
        "rejected",
        "completed",
        "failed",
        "timeouts",
        "cancelled",
        "queue_waits",
        "queue_wait_us_total",
        "peak_queue_depth",
        "cache_nodes_built",
        "cache_serialized_hits",
        "_lock",
    )

    def __init__(self):
        for name in self.__slots__[:-1]:
            setattr(self, name, 0)
        self._lock = threading.Lock()

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def observe_queue_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self.peak_queue_depth:
                self.peak_queue_depth = depth

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "queries_submitted": self.submitted,
                "admission_rejections": self.rejected,
                "queries_completed": self.completed,
                "queries_failed": self.failed,
                "query_timeouts": self.timeouts,
                "queries_cancelled": self.cancelled,
                "queue_waits": self.queue_waits,
                "queue_wait_us_total": self.queue_wait_us_total,
                "peak_queue_depth": self.peak_queue_depth,
                "result_cache_nodes_built": self.cache_nodes_built,
                "result_cache_serialized_hits": self.cache_serialized_hits,
            }


class _CachedResult(NamedTuple):
    """What the result cache holds: rows and strings, never trees."""

    table: ResultTable
    plan_mode: str
    plan: PlanNode | None


@dataclass
class ServiceResult:
    """A query outcome plus its trip through the service.

    ``table`` is the result's flat encoding — what the result cache
    stores and the wire ships.  A cache hit carries *only* the table:
    ``result`` (and so ``collection``) builds trees from it the first
    time somebody asks, for that caller alone, so no caller can reach
    the cache through a tree; ``len()``, ``plan_mode`` and the wire
    encodings never build one.  ``table`` is ``None`` when the cache
    was bypassed, until :meth:`result_table` cuts it.
    """

    fingerprint: str
    generation: int
    plan_mode: str
    table: ResultTable | None = None
    cached: bool = False  # served from the result cache
    plan_cached: bool = False  # plan came from the plan cache
    queue_wait_seconds: float = 0.0
    session_id: int | None = None
    _result: QueryResult | None = None
    _build: Callable[[], QueryResult] | None = None  # hits: table -> trees

    @property
    def result(self) -> QueryResult:
        if self._result is None:
            assert self._build is not None
            self._result = self._build()
        return self._result

    @property
    def collection(self):
        return self.result.collection

    @property
    def profile(self):
        return None if self._result is None else self._result.profile

    @property
    def elapsed_seconds(self) -> float:
        """Engine time; a cache hit did no engine work."""
        return 0.0 if self._result is None else self._result.elapsed_seconds

    def result_table(self) -> ResultTable:
        if self.table is None:
            self.table = ResultTable.from_collection(self.result.collection)
        return self.table

    def __len__(self) -> int:
        if self.table is not None:
            return len(self.table)
        return len(self.result.collection)


_SHUTDOWN = object()


class QueryTicket:
    """Future-like handle for a submitted query.

    ``result()`` blocks until the query completes, re-raising whatever
    the execution raised.  ``cancel()`` flips the query's deadline to
    cancelled: a queued ticket dies on dequeue, a running one unwinds
    at its next checkpoint.
    """

    def __init__(self, deadline: Deadline, session: Session | None):
        self.deadline = deadline
        self.session = session
        self.enqueued_at = time.perf_counter()
        self._done = threading.Event()
        self._value: ServiceResult | None = None
        self._error: BaseException | None = None

    def cancel(self, reason: str | None = None) -> None:
        self.deadline.cancel(reason)

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> ServiceResult:
        if not self._done.wait(timeout):
            raise TimeoutError("query has not completed yet")
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    # Called by the worker.
    def _finish(self, value: ServiceResult | None, error: BaseException | None) -> None:
        self._value = value
        self._error = error
        self._done.set()


@dataclass
class _Request:
    """What travels through the admission queue."""

    ticket: QueryTicket
    text: str
    plan: str | None
    analyze: bool = False
    extra: dict = field(default_factory=dict)


class QueryService:
    """Concurrent front door over one :class:`Database`."""

    def __init__(self, db: Database, config: ServiceConfig | None = None, **overrides):
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.db = db
        self.config = config
        self.counters = ServiceStatistics()
        self.plan_cache = LRUCache(config.plan_cache_entries)
        self.result_cache = LRUCache(config.result_cache_entries)
        self.sessions = SessionRegistry()
        self._gate = ReadWriteLock()
        self._ingest_lock = threading.Lock()
        self._ingests: set["ServiceIngest"] = set()
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=config.queue_depth)
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"query-worker-{i}", daemon=True
            )
            for i in range(config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open_session(
        self,
        name: str = "",
        default_plan: str | None = None,
        default_timeout: float | None = None,
    ) -> Session:
        return self.sessions.open(name, default_plan, default_timeout)

    def close_session(self, session_id: int) -> Session:
        return self.sessions.close(session_id)

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def submit(
        self,
        text: str,
        *,
        plan: str | None = None,
        session: Session | None = None,
        timeout: float | None = None,
        analyze: bool = False,
    ) -> QueryTicket:
        """Admit a query for asynchronous execution.

        Raises :class:`~repro.errors.AdmissionError` immediately when
        the waiting queue is full — the caller sheds or retries; no
        partial work happened.  The deadline clock starts *now*: time
        spent waiting in the queue counts against the budget.
        """
        if self._closed:
            raise ServiceError("the query service is shut down")
        if session is not None:
            if plan is None:
                plan = session.default_plan
            if timeout is None:
                timeout = session.default_timeout
        if timeout is None:
            timeout = self.config.default_timeout
        ticket = QueryTicket(Deadline(timeout), session)
        request = _Request(ticket=ticket, text=text, plan=plan, analyze=analyze)
        self.counters.add("submitted")
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self.counters.add("rejected")
            if session is not None:
                session.rejected += 1
            raise AdmissionError(
                f"admission queue full ({self.config.queue_depth} waiting); "
                "retry later"
            ) from None
        self.counters.observe_queue_depth(self._queue.qsize())
        return ticket

    def query(
        self,
        text: str,
        *,
        plan: str | None = None,
        session: Session | None = None,
        timeout: float | None = None,
        analyze: bool = False,
        wait: float | None = None,
    ) -> ServiceResult:
        """Submit and wait — the synchronous convenience wrapper."""
        return self.submit(
            text, plan=plan, session=session, timeout=timeout, analyze=analyze
        ).result(wait)

    # ------------------------------------------------------------------
    # Data mutation (write-gated)
    # ------------------------------------------------------------------
    def load_text(self, text: str, name: str):
        with self._gate.write_locked():
            report = self.db.load(text=text, name=name)
            self._drop_stale_results()
            return report

    def load_tree(self, root: XMLNode, name: str):
        with self._gate.write_locked():
            report = self.db.load(tree=root, name=name)
            self._drop_stale_results()
            return report

    def load_file(self, path: str, name: str | None = None):
        with self._gate.write_locked():
            report = self.db.load(path=path, name=name)
            self._drop_stale_results()
            return report

    # ------------------------------------------------------------------
    # Streaming ingest (write gate taken per batch, not per load)
    # ------------------------------------------------------------------
    def begin_ingest(
        self,
        name: str,
        *,
        batch_size: int | None = None,
        on_batch=None,
    ) -> "ServiceIngest":
        """Start a streaming ingest of one document.

        Unlike :meth:`load_text` — which holds the write gate for the
        whole load — a streaming ingest takes the gate *per batch
        commit*: readers run between batches, their plan/result caches
        invalidating at batch granularity (each commit bumps the store
        generation).  While the ingest is active the server's HEALTH
        reports ``degraded:ingesting``.
        """
        if self._closed:
            raise ServiceError("the query service is shut down")
        ingest = ServiceIngest(self, name, batch_size=batch_size, on_batch=on_batch)
        with self._ingest_lock:
            self._ingests.add(ingest)
        return ingest

    def load_stream(
        self,
        chunks,
        name: str,
        *,
        batch_size: int | None = None,
        on_batch=None,
    ):
        """Streaming ingest of a whole chunk iterable (or file-like, or
        string).  A mid-stream failure aborts the ingest but keeps every
        committed batch — the document stays readable at the last batch
        boundary."""
        from ..ingest.session import chunks_of

        ingest = self.begin_ingest(name, batch_size=batch_size, on_batch=on_batch)
        try:
            for chunk in chunks_of(chunks):
                ingest.feed(chunk)
        except BaseException:
            ingest.abort()
            raise
        return ingest.finish()

    @property
    def ingesting(self) -> bool:
        """True while any streaming ingest is active (HEALTH signal)."""
        with self._ingest_lock:
            return bool(self._ingests)

    def _end_ingest(self, ingest: "ServiceIngest") -> None:
        with self._ingest_lock:
            self._ingests.discard(ingest)

    def drop_document(self, name: str) -> None:
        with self._gate.write_locked():
            self.db.drop_document(name)
            self._drop_stale_results()

    def compact(self) -> None:
        with self._gate.write_locked():
            self.db.compact()
            self._drop_stale_results()

    def repair(self):
        with self._gate.write_locked():
            report = self.db.repair()
            self._drop_stale_results()
            return report

    def _drop_stale_results(self) -> None:
        """Eagerly drop result entries for older generations.

        Correctness never needs this — stale keys are simply never
        looked up again — but dropping them keeps the LRU full of
        entries that can still hit.
        """
        generation = self.db.store.generation
        self.result_cache.invalidate(lambda key: key[2] != generation)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> CounterSnapshot:
        """One immutable snapshot across the service layer: admission,
        queue-wait, timeout, and both cache tiers' counters."""
        data: dict[str, int] = {}
        data.update(self.counters.snapshot())
        for prefix, cache in (
            ("plan_cache", self.plan_cache),
            ("result_cache", self.result_cache),
        ):
            for key, value in cache.counters.snapshot().items():
                data[f"{prefix}_{key}"] = value
        return CounterSnapshot(data)

    def cache_hit_rate(self) -> float:
        """The result cache's lifetime hit ratio."""
        return self.result_cache.counters.hit_ratio()

    def queue_size(self) -> int:
        """Requests currently *waiting* for a worker (approximate, as
        any queue depth under concurrency is) — the readiness signal
        the server's ``HEALTH`` command reports."""
        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop accepting work, drain the queue, and stop the workers."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self._queue.put(_SHUTDOWN)  # FIFO: queued requests drain first
        if wait:
            for worker in self._workers:
                worker.join()
        self.sessions.close_all()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            request: _Request = item  # type: ignore[assignment]
            ticket = request.ticket
            waited = time.perf_counter() - ticket.enqueued_at
            self.counters.add("queue_waits")
            self.counters.add("queue_wait_us_total", int(waited * 1_000_000))
            try:
                result = self._execute(request, waited)
            except BaseException as error:  # noqa: BLE001 - relayed to the caller
                self._count_failure(error, ticket.session)
                ticket._finish(None, error)
            else:
                self.counters.add("completed")
                if ticket.session is not None:
                    session = ticket.session
                    session.queries += 1
                    session.last_active = time.time()
                    if result.cached:
                        session.cache_hits += 1
                ticket._finish(result, None)

    def _count_failure(self, error: BaseException, session: Session | None) -> None:
        if isinstance(error, QueryTimeoutError):
            self.counters.add("timeouts")
            if session is not None:
                session.timeouts += 1
        elif isinstance(error, QueryCancelledError):
            self.counters.add("cancelled")
        else:
            self.counters.add("failed")

    def _execute(self, request: _Request, waited: float) -> ServiceResult:
        with deadline_scope(request.ticket.deadline) as deadline:
            deadline.check()  # a queued ticket may already be dead
            with self._gate.read_locked():
                return self._execute_locked(request, waited)

    def _execute_locked(self, request: _Request, waited: float) -> ServiceResult:
        service_before = self.stats()
        prepared, fingerprint, plan_hit = self._prepared(request.text, request.plan)
        generation = self.db.store.generation
        result_key = (fingerprint, prepared.resolved.value, generation)
        trip = dict(
            fingerprint=fingerprint,
            generation=generation,
            plan_cached=plan_hit,
            queue_wait_seconds=waited,
            session_id=_session_id(request.ticket.session),
        )
        cacheable = not request.analyze and self.result_cache.enabled
        if cacheable:
            hit = self.result_cache.get(result_key)
            if hit is not None:
                return ServiceResult(
                    plan_mode=hit.plan_mode,
                    table=hit.table,
                    cached=True,
                    _build=partial(self._from_cache, hit),
                    **trip,
                )
        # Shared counters must not be reset by concurrent queries —
        # deltas come from snapshots, never from zeroing.
        result = self.db.execute(
            prepared,
            analyze=request.analyze,
            reset_statistics=False,
        )
        table = None
        if cacheable:
            # The cache keeps the table; the trees stay with the caller
            # that paid for them, who may do to them what it likes.
            table = ResultTable.from_collection(result.collection)
            self.result_cache.put(
                result_key, _CachedResult(table, result.plan_mode, result.plan)
            )
        if result.profile is not None:
            delta = self.stats() - service_before
            delta = delta + CounterSnapshot(queue_wait_us=int(waited * 1_000_000))
            result.profile = replace(
                result.profile, totals=result.profile.totals + delta
            )
        return ServiceResult(
            plan_mode=result.plan_mode, table=table, _result=result, **trip
        )

    def _prepared(self, text: str, plan: str | None) -> tuple[PreparedQuery, str, bool]:
        """Plan-cache lookup: fingerprint the parsed query, reuse the
        prepared plan when it was built against the current data
        generation, rebuild (and replace) otherwise."""
        mode = Database._coerce_plan_mode(plan)
        expr = self.db.parse(text)
        fingerprint = fingerprint_expr(expr)
        key = (fingerprint, mode.value)
        entry = self.plan_cache.get(key)
        if entry is not None and entry.generation == self.db.store.generation:
            return entry, fingerprint, True
        prepared = self.db.prepare(text, plan=plan)
        self.plan_cache.put(key, prepared)
        return prepared, fingerprint, False

    def _from_cache(self, hit: _CachedResult) -> QueryResult:
        """Trees for one caller of a cache hit: a fresh
        :class:`QueryResult` whose statistics honestly say "no store
        work was done"."""
        self.counters.add("cache_nodes_built", len(hit.table.rows))
        return QueryResult(
            collection=hit.table.to_collection(),
            plan_mode=hit.plan_mode,
            elapsed_seconds=0.0,
            plan=hit.plan,
        )


class ServiceIngest:
    """One streaming ingest running through the service's gates.

    Wraps an :class:`~repro.ingest.session.IngestSession` so that every
    batch commit (a) holds the service write gate — readers share the
    store between batches, never during a commit — and (b) eagerly
    drops result-cache entries from older generations.  ``finish``
    persists the index snapshot (directory-backed stores) and returns
    the same :class:`~repro.query.database.LoadReport` a streaming
    ``Database.load`` would.  ``abort`` keeps every committed batch:
    the document stays readable at the last batch boundary.
    """

    def __init__(self, service: QueryService, name: str, *, batch_size=None, on_batch=None):
        self.service = service
        self.name = name
        self._worked_since = time.perf_counter()
        self._reads_seen = service._gate.reads_admitted
        db = service.db
        db.indexes.ensure_built()

        def hook(progress):
            service._drop_stale_results()
            if on_batch is not None:
                on_batch(progress)

        from ..ingest.session import IngestSession

        self._session = IngestSession(
            db.store,
            name,
            batch_size=batch_size,
            indexes=db.indexes,
            on_batch=hook,
            commit_gate=self._paced_gate,
        )

    @contextmanager
    def _paced_gate(self):
        """The write gate plus the duty-cycle throttle.

        Before each commit: if any reader was admitted since the last
        pause ended (the gate's monotonic admission count moved), idle
        for ``ingest_pacing`` x the time this ingest has been working
        since then — parse, drain, and gate hold alike, because under
        the GIL parsing steals reader throughput just as surely as
        holding the gate does.  The pause itself is gate-free, so the
        blocked readers drain the queue at full speed.  When the count
        did not move the service is idle and the pause is skipped."""
        gate = self.service._gate
        pacing = self.service.config.ingest_pacing
        if pacing > 0 and gate.reads_admitted != self._reads_seen:
            pause = (
                time.perf_counter() - self._worked_since
            ) * pacing
            if pause > 0:
                time.sleep(pause)
        self._reads_seen = gate.reads_admitted
        self._worked_since = time.perf_counter()
        with gate.write_locked():
            yield

    # ------------------------------------------------------------------
    @property
    def batches_committed(self) -> int:
        return self._session.batches_committed

    @property
    def nodes_streamed(self) -> int:
        return self._session.nodes_streamed

    @property
    def progress(self):
        return self._session.progress

    @property
    def active(self) -> bool:
        return self._session.active

    # ------------------------------------------------------------------
    def feed(self, chunk: str):
        """Parse one chunk, committing every batch it fills; returns the
        :class:`~repro.ingest.session.BatchProgress` records this call
        committed."""
        return self._session.feed(chunk)

    def finish(self):
        """Final partial batch, index-snapshot persistence, report."""
        from ..query.database import LoadReport

        db = self.service.db
        try:
            info = self._session.finish()
        except BaseException:
            self.abort()
            raise
        if db.store.directory is not None:
            db.indexes.save(db.store.directory)
        self.service._end_ingest(self)
        return LoadReport(
            document=info.name,
            nodes=info.n_nodes,
            generation=db.store.generation,
            columnar=db._columnar_state(),
            batches=self._session.batches_committed,
            nodes_streamed=self._session.nodes_streamed,
            progress=tuple(self._session.progress),
        )

    def abort(self) -> None:
        """Stop the stream, keeping committed batches.  Idempotent."""
        self._session.abort()
        self.service._end_ingest(self)


def _session_id(session: Session | None) -> int | None:
    return None if session is None else session.session_id
