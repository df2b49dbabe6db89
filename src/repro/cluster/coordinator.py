"""The scatter-gather cluster coordinator.

:class:`ClusterCoordinator` owns a :class:`~repro.cluster.shardmap.ShardMap`
and one :class:`~repro.cluster.client.ShardClient` pool per shard, and
distributes the paper's workload across N :class:`QueryService` shards
over the line protocol:

* **load** — the document is parsed locally, its root children split
  into contiguous slices (slice order == document order), and each
  slice shipped to its primary shard under the document's name and to
  replica shards under :func:`~repro.cluster.shardmap.replica_alias`.
  With ``batch_size=`` each slice travels over the chunked streaming
  ``LOAD`` mode instead of one buffered call, so every shard ingests
  its slice incrementally (journaled batches, online index
  maintenance, batch-granular generation bumps) and readers on that
  shard keep running between batches.
* **query** — :func:`~repro.cluster.merge.compile_merge` rewrites the
  query into a per-shard form; the coordinator fans the rewritten
  query out to every slice's holder concurrently under the caller's
  plan mode (a grouping query's shard form is a grouping query, so
  ``auto`` resolves to ``groupby`` shard-side and a forced mode means
  what it means on one node), merges the rows (group union / concat /
  scalar sum), and re-applies ``SORTBY``.  Whole (unpartitioned)
  documents route to their owner untouched.

Robustness (the point of this subsystem):

* **deadline budgets** — every fan-out runs under one clock; each
  shard call gets the *remaining* budget as its server-side timeout
  and socket read timeout, so a stalled shard cannot hold the
  coordinator past the caller's deadline.
* **hedged retry** — if a slice's first attempt is still silent after
  ``hedge_delay`` and the slice has replica holders, a second attempt
  races it against a replica (querying the replica's alias); first
  success wins.  A failed attempt immediately tries the next holder.
* **quarantine** — ``quarantine_threshold`` consecutive failures put a
  shard in quarantine: it is skipped during candidate selection until
  a lazy HEALTH probe (at most every ``probe_interval`` seconds)
  succeeds and re-admits it — the shard-level analogue of the
  client-level breaker's half-open probe.
* **typed degradation** — when some slices cannot be served at all the
  coordinator raises :class:`~repro.errors.PartialResultError` naming
  the missing shards, or (with ``allow_partial=True``) returns the
  merged survivors with ``missing_shards`` tagged on the result.  When
  *no* slice is served it raises
  :class:`~repro.errors.ShardUnavailableError`.

Everything observable lands in ``cluster_*`` counters.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from ..errors import (
    ClusterError,
    PartialResultError,
    RemoteError,
    ShardUnavailableError,
)
from ..query.ast import documents, render, rename_documents
from ..query.database import Explanation
from ..query.parser import parse_query
from ..service.client import (
    BreakerConfig,
    HealthReport,
    RetryPolicy,
)
from ..observability.counters import CounterSnapshot
from ..xmlmodel.node import XMLNode
from ..xmlmodel.parse import parse_document
from ..xmlmodel.serialize import serialize, serialize_collection
from ..xmlmodel.table import ResultTable
from ..xmlmodel.tree import Collection, DataTree
from .client import ShardClient
from .merge import MergePlan, apply_sortby, compile_merge, merge_rows
from .shardmap import DocumentPlacement, ShardMap, SlicePlacement, replica_alias

#: Server-side ``ERR`` kinds a *different* holder might still serve
#: (capacity/deadline conditions).  Any other RemoteError means the
#: shard is healthy and the request itself is bad — that propagates to
#: the caller instead of triggering failover or quarantine.
_FAILOVER_REMOTE_KINDS = frozenset(
    {
        "QueryTimeoutError",
        "QueryCancelledError",
        "AdmissionError",
        "ServerOverloadedError",
        "ServerDrainingError",
    }
)


def _is_failover(error: Exception) -> bool:
    if isinstance(error, RemoteError):
        return error.kind in _FAILOVER_REMOTE_KINDS
    return True  # transport-level ClientError / deadline exhaustion


# ----------------------------------------------------------------------
# Configuration and state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterConfig:
    """Coordinator knobs (all robustness-related).

    ``replication`` > 1 stores each slice on that many shards and is
    what makes hedged retries useful; ``hedge_delay`` is how long the
    first attempt may stay silent before a replica is raced against
    it; ``quarantine_threshold`` consecutive shard failures trigger
    quarantine, probed for re-admission at most every
    ``probe_interval`` seconds.
    """

    replication: int = 1
    query_timeout: float = 30.0
    hedge_delay: float = 0.25
    quarantine_threshold: int = 3
    probe_interval: float = 0.5
    probe_timeout: float = 1.0
    connect_timeout: float = 5.0
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(max_attempts=2))
    breaker: BreakerConfig | None = None


class ShardState:
    """Mutable health-tracking for one shard (coordinator-side)."""

    __slots__ = ("shard", "quarantined", "consecutive_failures", "last_probe")

    def __init__(self, shard: int):
        self.shard = shard
        self.quarantined = False
        self.consecutive_failures = 0
        self.last_probe = 0.0


class ClusterStatistics:
    """Forward-only ``cluster_*`` counters (same snapshot-and-subtract
    contract as every other counter set in the repo)."""

    __slots__ = (
        "fanouts",
        "shard_calls",
        "shard_call_failures",
        "hedges",
        "hedge_wins",
        "quarantines",
        "readmissions",
        "probes",
        "probe_failures",
        "partial_results",
        "merges",
        "merged_groups",
        "loads",
        "load_slices",
        "load_batches",
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
                f"cluster_{name}": getattr(self, name)
                for name in self.__slots__[:-1]
            }


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class ClusterResult:
    """A merged query result plus degradation metadata."""

    collection: Collection
    plan_kind: str  # "single" | "group" | "concat" | "scalar-count"
    elapsed_seconds: float
    missing_shards: frozenset[int] = frozenset()
    shards_used: frozenset[int] = frozenset()

    @property
    def partial(self) -> bool:
        return bool(self.missing_shards)

    def __len__(self) -> int:
        return len(self.collection)

    def to_xml(self, indent: str | None = "  ") -> str:
        return serialize_collection(self.collection, indent)


@dataclass(frozen=True)
class ClusterHealth:
    """The aggregated HEALTH rollup."""

    status: str  # "ok" | "degraded" | "draining"
    shards: dict[int, HealthReport | None]
    quarantined: frozenset[int]

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class SliceLoad:
    slice_index: int
    shard: int
    nodes: int
    replicas: tuple[int, ...] = ()
    batches: int = 1


@dataclass(frozen=True)
class ClusterLoadReport:
    document: str
    slices: tuple[SliceLoad, ...]

    @property
    def nodes(self) -> int:
        return sum(piece.nodes for piece in self.slices)

    @property
    def batches(self) -> int:
        return sum(piece.batches for piece in self.slices)

    @property
    def partitioned(self) -> bool:
        return len(self.slices) > 1


@dataclass
class _Attempt:
    shard: int
    hedged: bool


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class ClusterCoordinator:
    """Scatter-gather front end over N line-protocol shards."""

    def __init__(
        self,
        endpoints: list[tuple[str, int]],
        config: ClusterConfig | None = None,
        *,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        if not endpoints:
            raise ClusterError("a cluster needs at least one shard endpoint")
        self.config = config or ClusterConfig()
        self.shard_map = ShardMap(
            len(endpoints), replication=self.config.replication
        )
        self.counters = ClusterStatistics()
        self._clock = clock
        self._sleep = sleep
        self._clients = [
            ShardClient(
                index,
                host,
                port,
                retry=self.config.retry,
                breaker=self.config.breaker,
                connect_timeout=self.config.connect_timeout,
                read_timeout=self.config.query_timeout,
            )
            for index, (host, port) in enumerate(endpoints)
        ]
        self._states = [ShardState(index) for index in range(len(endpoints))]
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(
        self,
        *,
        text: str | None = None,
        tree: XMLNode | None = None,
        path: str | None = None,
        name: str,
        slices: int | None = None,
        batch_size: int | None = None,
    ) -> ClusterLoadReport:
        """Partition a document across the shards.

        Exactly one of ``text``/``tree``/``path``.  ``slices=None``
        partitions one slice per shard; ``slices=1`` keeps the
        document whole on its hash owner.  ``batch_size`` switches
        each slice to the chunked streaming ``LOAD`` mode: the shard
        cuts the slice into journaled ingest batches of roughly that
        many nodes and commits them one by one, so readers on the
        shard interleave with the load instead of waiting for it.
        """
        sources = [s for s in (text, tree, path) if s is not None]
        if len(sources) != 1:
            raise ClusterError("load() needs exactly one of text=, tree=, path=")
        if path is not None:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        root = parse_document(text) if text is not None else tree
        assert root is not None
        count = self.shard_map.shards if slices is None else slices
        if not 1 <= count <= self.shard_map.shards:
            raise ClusterError(
                f"slices must be between 1 and {self.shard_map.shards}"
            )
        placement = self.shard_map.place(name, slices=count)
        pieces = _split(root, count)
        loaded: list[SliceLoad] = []
        for piece_root, slot in zip(pieces, placement.slices):
            payload = serialize(piece_root, indent=None)
            reply = self._load_to(
                slot.primary, payload, name, batch_size=batch_size
            )
            for replica in slot.replicas:
                self._load_to(
                    replica,
                    payload,
                    replica_alias(name, slot.index),
                    batch_size=batch_size,
                )
            self.counters.add("load_slices")
            batches = int(reply.get("batches", 1) or 1)
            self.counters.add("load_batches", batches)
            loaded.append(
                SliceLoad(
                    slice_index=slot.index,
                    shard=slot.primary,
                    nodes=int(reply.get("nodes", 0)),
                    replicas=slot.replicas,
                    batches=batches,
                )
            )
        self.counters.add("loads")
        return ClusterLoadReport(document=name, slices=tuple(loaded))

    def _load_to(
        self,
        shard: int,
        payload: str,
        name: str,
        *,
        batch_size: int | None = None,
    ) -> dict:
        pool = self._clients[shard]
        client = pool.acquire()
        try:
            if batch_size is None:
                reply = client.load(payload, name)
            else:
                reply = client.load_stream(
                    payload, name, batch_size=batch_size
                )
        except Exception:
            pool.discard(client)
            self._record_failure(shard)
            raise
        pool.release(client)
        self._record_success(shard)
        return reply

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(
        self,
        text: str,
        *,
        plan: str | None = None,
        timeout: float | None = None,
        allow_partial: bool = False,
    ) -> ClusterResult:
        """Scatter, gather, merge — under one deadline budget."""
        started = self._clock()
        deadline = started + (
            timeout if timeout is not None else self.config.query_timeout
        )
        expr = parse_query(text)
        placement = self._placement_for(expr)
        self.counters.add("fanouts")
        if not placement.partitioned:
            rows, missing = self._run_single(
                placement, expr, text, plan, deadline, allow_partial
            )
            kind = "single"
            sortby = ()
        else:
            merge_plan = compile_merge(expr)
            rows, missing = self._run_partitioned(
                placement, merge_plan, plan, deadline, allow_partial
            )
            kind = merge_plan.kind
            sortby = merge_plan.sortby
            rows = apply_sortby(rows, sortby)
        self.counters.add("merges")
        self.counters.add("merged_groups", len(rows))
        used = placement.shards() - missing
        return ClusterResult(
            collection=Collection([DataTree(row) for row in rows]),
            plan_kind=kind,
            elapsed_seconds=self._clock() - started,
            missing_shards=frozenset(missing),
            shards_used=frozenset(used),
        )

    def _placement_for(self, expr) -> DocumentPlacement:
        names = documents(expr)
        if len(names) != 1:
            raise ClusterError(
                "cluster queries must target exactly one document "
                f"(found {sorted(names)})"
            )
        return self.shard_map.placement(names.pop())

    def _run_single(
        self, placement, expr, text, plan, deadline, allow_partial
    ) -> tuple[list[XMLNode], set[int]]:
        slot = placement.slices[0]
        rows = self._call_slice(
            slot, text, _replica_text(expr, placement.name, slot), plan, deadline
        )
        if rows is None:
            if allow_partial:
                self.counters.add("partial_results")
                return [], set(slot.holders)
            raise ShardUnavailableError(
                f"no holder of {placement.name!r} answered "
                f"(shards {sorted(slot.holders)})",
                missing_shards=frozenset(slot.holders),
            )
        return rows, set()

    def _run_partitioned(
        self, placement, merge_plan: MergePlan, plan, deadline, allow_partial
    ) -> tuple[list[XMLNode], set[int]]:
        slice_rows: list[list[XMLNode] | None] = [None] * len(placement.slices)
        fatal: list[Exception] = []
        threads = []
        for slot in placement.slices:
            replica_text = _replica_text(merge_plan.shard_expr, placement.name, slot)

            def run(slot=slot, replica_text=replica_text):
                try:
                    slice_rows[slot.index] = self._call_slice(
                        slot, merge_plan.shard_query, replica_text, plan, deadline
                    )
                except Exception as error:  # noqa: BLE001 - re-raised below
                    fatal.append(error)

            worker = threading.Thread(
                target=run, name=f"cluster-slice-{slot.index}", daemon=True
            )
            worker.start()
            threads.append(worker)
        for worker in threads:
            worker.join()
        if fatal:
            raise fatal[0]
        missing: set[int] = set()
        for slot, rows in zip(placement.slices, slice_rows):
            if rows is None:
                missing.add(slot.primary)
        if missing:
            names = sorted(missing)
            if all(rows is None for rows in slice_rows):
                raise ShardUnavailableError(
                    f"no shard answered for {placement.name!r} "
                    f"(missing {names})",
                    missing_shards=frozenset(missing),
                )
            if not allow_partial:
                raise PartialResultError(
                    f"slices on shards {names} are unavailable; pass "
                    "allow_partial=True to accept a degraded result",
                    missing_shards=frozenset(missing),
                )
            self.counters.add("partial_results")
        survivors = [rows for rows in slice_rows if rows is not None]
        return merge_rows(merge_plan, survivors), missing

    # ------------------------------------------------------------------
    # One slice: candidates, hedging, deadline
    # ------------------------------------------------------------------
    def _call_slice(
        self,
        slot: SlicePlacement,
        primary_text: str,
        replica_text,
        plan: str | None,
        deadline: float,
    ) -> list[XMLNode] | None:
        """The fan-out unit: try the slice's holders until one answers
        or the deadline passes.  Returns the slice's result rows, or
        ``None`` when the slice could not be served (the caller decides
        whether that is fatal).  ``replica_text()`` renders the query
        against a replica's alias; it runs only if a replica is called."""
        candidates = self._candidate_order(slot)
        if not candidates:
            return None
        results: queue.Queue = queue.Queue()
        in_flight = 0
        launched = 0

        def attempt(shard: int, text: str, hedged: bool) -> None:
            try:
                rows = self._shard_query(shard, text, plan, deadline)
            except Exception as error:  # noqa: BLE001 - collected, typed upstream
                if _is_failover(error):
                    self._record_failure(shard)
                    results.put((None, shard, hedged, error))
                else:
                    # The shard answered; the *request* is bad.  That is
                    # the caller's error, not the shard's.
                    self._record_success(shard)
                    results.put(("fatal", shard, hedged, error))
            else:
                self._record_success(shard)
                results.put((rows, shard, hedged, None))

        def launch(hedged: bool) -> None:
            nonlocal in_flight, launched
            shard = candidates[launched]
            text = primary_text if shard == slot.primary else replica_text()
            launched += 1
            in_flight += 1
            if hedged:
                self.counters.add("hedges")
            threading.Thread(
                target=attempt,
                args=(shard, text, hedged),
                name=f"cluster-call-{shard}",
                daemon=True,
            ).start()

        launch(hedged=False)
        hedge_at = self._clock() + self.config.hedge_delay
        while in_flight:
            remaining = deadline - self._clock()
            if remaining <= 0:
                return None
            wait = remaining
            if launched < len(candidates):
                wait = min(wait, max(hedge_at - self._clock(), 0.0))
            try:
                rows, shard, hedged, error = results.get(
                    timeout=max(wait, 0.005)
                )
            except queue.Empty:
                if launched < len(candidates) and self._clock() >= hedge_at:
                    launch(hedged=True)
                    hedge_at = self._clock() + self.config.hedge_delay
                continue
            in_flight -= 1
            if rows == "fatal":
                assert error is not None
                raise error
            if rows is not None:
                if hedged:
                    self.counters.add("hedge_wins")
                return rows
            if launched < len(candidates):
                launch(hedged=False)
        return None

    def _candidate_order(self, slot: SlicePlacement) -> list[int]:
        """Healthy holders first (primary, then replicas); quarantined
        holders only if a probe re-admits them, and always behind the
        healthy ones."""
        healthy, benched = [], []
        for shard in slot.holders:
            if self._is_quarantined(shard):
                benched.append(shard)
            else:
                healthy.append(shard)
        for shard in benched:
            if self._probe(shard):
                healthy.append(shard)
        return healthy

    def _shard_query(
        self, shard: int, text: str, plan: str | None, deadline: float
    ) -> list[XMLNode]:
        """One shard call.  The shard ships its rows as a result-table
        frame; a frame that does not decode fails the call like any
        other transport error (the next holder is tried), so half a
        table is never merged."""
        remaining = deadline - self._clock()
        if remaining <= 0:
            raise ClusterError(f"deadline exhausted before calling shard {shard}")
        pool = self._clients[shard]
        client = pool.acquire()
        self.counters.add("shard_calls")
        try:
            client.set_read_timeout(remaining + 1.0)
            reply = client.query(
                text, plan=plan, timeout=remaining, format="table"
            )
            rows = ResultTable.from_wire(reply.get("table")).to_collection().roots()
        except Exception:
            self.counters.add("shard_call_failures")
            pool.discard(client)
            raise
        pool.release(client)
        return rows

    # ------------------------------------------------------------------
    # Quarantine bookkeeping
    # ------------------------------------------------------------------
    def _is_quarantined(self, shard: int) -> bool:
        with self._state_lock:
            return self._states[shard].quarantined

    def _record_failure(self, shard: int) -> None:
        with self._state_lock:
            state = self._states[shard]
            state.consecutive_failures += 1
            if (
                not state.quarantined
                and state.consecutive_failures
                >= self.config.quarantine_threshold
            ):
                state.quarantined = True
                self.counters.add("quarantines")

    def _record_success(self, shard: int) -> None:
        with self._state_lock:
            state = self._states[shard]
            state.consecutive_failures = 0
            if state.quarantined:
                state.quarantined = False
                self.counters.add("readmissions")

    def _probe(self, shard: int) -> bool:
        """Half-open-style re-admission: one cheap HEALTH round trip,
        rate-limited to every ``probe_interval`` seconds."""
        now = self._clock()
        with self._state_lock:
            state = self._states[shard]
            if now - state.last_probe < self.config.probe_interval:
                return False
            state.last_probe = now
        self.counters.add("probes")
        pool = self._clients[shard]
        client = pool.acquire()
        try:
            client.set_read_timeout(self.config.probe_timeout)
            report = client.health()
        except Exception:  # noqa: BLE001 - probe outcome is the signal
            self.counters.add("probe_failures")
            pool.discard(client)
            return False
        pool.release(client)
        if report.status == "ok":
            self._record_success(shard)
            return True
        self.counters.add("probe_failures")
        return False

    # ------------------------------------------------------------------
    # EXPLAIN / HEALTH / STATS
    # ------------------------------------------------------------------
    def explain(self, text: str) -> Explanation:
        """The cluster plan stacked on a representative shard's local
        explanation of the query it would actually run."""
        expr = parse_query(text)
        placement = self._placement_for(expr)
        if placement.partitioned:
            merge_plan = compile_merge(expr)
            shard_expr, shard_text = merge_plan.shard_expr, merge_plan.shard_query
            merge_line = merge_plan.describe()
        else:
            shard_expr, shard_text = expr, text
            merge_line = "single shard: no merge required"
        lines = [f"document {placement.name!r}: {len(placement.slices)} slice(s)"]
        for slot in placement.slices:
            note = " [quarantined]" if self._is_quarantined(slot.primary) else ""
            extra = (
                f", replicas {list(slot.replicas)}" if slot.replicas else ""
            )
            lines.append(
                f"  slice {slot.index}: shard {slot.primary}{note}{extra}"
            )
        lines.append(f"merge: {merge_line}")
        local = self._explain_local(placement, shard_expr, shard_text)
        payload = {
            "cluster": {
                "document": placement.name,
                "slices": [
                    {
                        "slice": slot.index,
                        "primary": slot.primary,
                        "replicas": list(slot.replicas),
                        "quarantined": self._is_quarantined(slot.primary),
                    }
                    for slot in placement.slices
                ],
                "merge": merge_line,
                "shard_query": shard_text,
            }
        }
        return local.with_section("cluster plan", "\n".join(lines), **payload)

    def _explain_local(self, placement, shard_expr, shard_text) -> Explanation:
        """A representative shard's explanation of the query the shards
        would actually run."""
        last_error: Exception | None = None
        for slot in placement.slices:
            replica_text = _replica_text(shard_expr, placement.name, slot)
            for shard in self._candidate_order(slot):
                text = shard_text if shard == slot.primary else replica_text()
                try:
                    reply = self._clients[shard].call("EXPLAIN", {"q": text})
                except RemoteError as error:
                    # The shard answered: the text doesn't explain, and
                    # the outcome is the same everywhere.
                    self._record_success(shard)
                    return Explanation(f"(no shard plan: {error})", {})
                except Exception as error:  # noqa: BLE001
                    self._record_failure(shard)
                    last_error = error
                    continue
                self._record_success(shard)
                # The wire nests the shard's ``to_dict()`` under "plans".
                return Explanation(reply.get("text", ""), reply.get("plans", {}))
        raise ShardUnavailableError(
            f"no shard could explain against {placement.name!r}"
        ) from last_error

    def health(self) -> ClusterHealth:
        """Fan HEALTH out everywhere and roll the answers up:
        unreachable/quarantined/degraded anywhere → ``degraded``; else
        draining anywhere → ``draining``; else ``ok``."""
        reports: dict[int, HealthReport | None] = {}
        for shard, pool in enumerate(self._clients):
            client = pool.acquire()
            try:
                client.set_read_timeout(self.config.probe_timeout)
                reports[shard] = client.health()
            except Exception:  # noqa: BLE001 - unreachable == degraded
                pool.discard(client)
                reports[shard] = None
                self._record_failure(shard)
                continue
            pool.release(client)
            self._record_success(shard)
        with self._state_lock:
            quarantined = frozenset(
                s.shard for s in self._states if s.quarantined
            )
        degraded = quarantined or any(
            report is None or report.status.startswith("degraded")
            for report in reports.values()
        )
        draining = any(
            report is not None and report.draining
            for report in reports.values()
        )
        status = "degraded" if degraded else ("draining" if draining else "ok")
        return ClusterHealth(
            status=status, shards=reports, quarantined=quarantined
        )

    def stats(self) -> CounterSnapshot:
        """Cluster counters plus the element-wise sum of every
        reachable shard's counters."""
        merged: dict[str, int] = dict(self.counters.snapshot())
        for shard, pool in enumerate(self._clients):
            try:
                reply = pool.call("STATS")
            except Exception:  # noqa: BLE001 - stats are best-effort
                continue
            for key, value in reply.items():
                if isinstance(value, int):
                    merged[key] = merged.get(key, 0) + value
            for key, value in pool.counters.snapshot().items():
                merged[key] = merged.get(key, 0) + value
        return CounterSnapshot(merged)

    def counter_snapshot(self) -> CounterSnapshot:
        return CounterSnapshot(self.counters.snapshot())

    def quarantined_shards(self) -> frozenset[int]:
        with self._state_lock:
            return frozenset(s.shard for s in self._states if s.quarantined)

    def close(self) -> None:
        for pool in self._clients:
            pool.close()


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _replica_text(expr, document: str, slot: SlicePlacement):
    """A callable rendering ``expr`` against ``slot``'s replica alias of
    ``document`` — how a hedged or failover call targets a replica."""
    mapping = {document: replica_alias(document, slot.index)}
    return lambda: render(rename_documents(expr, mapping))


def _split(root: XMLNode, count: int) -> list[XMLNode]:
    """Contiguous slices of the root's children, each under a copy of
    the root element (slice order == document order)."""
    kids = root.children
    base, extra = divmod(len(kids), count)
    pieces = []
    cursor = 0
    for index in range(count):
        take = base + (1 if index < extra else 0)
        piece = XMLNode(
            root.tag,
            root.content,
            attributes=dict(root.attributes) if root.attributes else None,
        )
        for kid in kids[cursor : cursor + take]:
            piece.append_child(kid.deep_copy())
        cursor += take
        pieces.append(piece)
    return pieces
