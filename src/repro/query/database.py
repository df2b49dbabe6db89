"""The Database facade — TIMBER's architecture in one object (Fig. 12).

Wraps the storage manager, index manager, query parser/translator/
rewriter, and the three evaluators behind one API:

>>> db = Database()                         # in-memory; pass a path to persist
>>> report = db.load(text="<doc_root>...</doc_root>", name="bib.xml")
>>> result = db.query(QUERY_TEXT)           # auto: rewrite to GROUPBY if possible
>>> result.collection.sketch()

``load`` accepts exactly one source — ``text=``, ``tree=``, or
``path=`` — and returns a :class:`LoadReport` (document name, node
count, data generation, columnar-snapshot state).

``plan`` selects the engine (a :class:`PlanMode`, or its string value):

* ``auto`` — the paper's Sec. 4 rule: a query the recognizer accepts
  is rewritten to the GROUPBY physical plan (a 3-level nested FLWR
  collapses into one grouping plan); anything else runs on the direct
  interpreter;
* ``direct`` — the paper's baseline: direct execution as written;
* ``naive`` / ``naive-hash`` — the naive join plan, executed physically
  (nested loops, or an amortized hash value-join);
* ``groupby`` — the rewritten plan, executed physically;
* ``logical-naive`` / ``logical-groupby`` — the same two plans run
  with the in-memory reference operators (semantics oracle).

Observability entry points:

* ``db.explain(text)`` — the candidate plans *without* executing
  (:class:`Explanation`: a string, plus ``render()``/``to_dict()``);
* ``db.query(text, analyze=True)`` — execute and attach an
  :class:`~repro.observability.ExecutionProfile` (per-operator timed
  spans with counter deltas) to the result;
* ``with QueryTrace() as t: db.query(...)`` — hand every profiled
  execution to external collectors.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from enum import Enum

from ..cancellation import Deadline, deadline_scope
from ..errors import DatabaseError, TranslationError
from ..indexing.manager import IndexManager
from ..observability import (
    CounterSnapshot,
    ExecutionProfile,
    QueryTrace,
    TraceEvent,
    active_traces,
    snapshot_counters,
)
from ..storage.buffer import DEFAULT_POOL_FRAMES
from ..storage.store import NodeStore
from ..xmlmodel.node import XMLNode
from ..xmlmodel.tree import Collection
from .ast import Expr, documents
from .interpreter import Interpreter
from .logical_exec import LogicalExecutor
from .parser import parse_query
from .physical import PhysicalExecutor
from .plan import PlanNode
from .rewrite import candidate_plans


class PlanMode(str, Enum):
    """The execution engines the facade can dispatch to.

    Members compare equal to their string values, so every historical
    string form (``"groupby"``, ``"naive-hash"``, ...) keeps working.
    """

    AUTO = "auto"
    DIRECT = "direct"
    NAIVE = "naive"
    NAIVE_HASH = "naive-hash"
    GROUPBY = "groupby"
    LOGICAL_NAIVE = "logical-naive"
    LOGICAL_GROUPBY = "logical-groupby"


#: String values, kept for backward compatibility with pre-enum callers.
PLAN_MODES = tuple(mode.value for mode in PlanMode)

#: Environment values that disable the columnar hot path.
_COLUMNAR_OFF_VALUES = frozenset({"off", "0", "false", "no"})


def _columnar_default() -> bool:
    """Resolve the ``REPRO_COLUMNAR`` environment flag (default: on)."""
    return os.environ.get("REPRO_COLUMNAR", "").strip().lower() not in _COLUMNAR_OFF_VALUES


@dataclass(frozen=True)
class LoadReport:
    """What :meth:`Database.load` did.

    * ``document`` — the catalog name the document was stored under;
    * ``nodes`` — node count of the loaded document;
    * ``generation`` — the store's data generation after the load;
    * ``columnar`` — columnar-snapshot state after the load:
      ``"pending"`` (built lazily on first query), ``"ready"`` (already
      materialized, e.g. restored from disk), or ``"disabled"`` (the
      database runs without indexes or with columnar turned off).

    Streaming loads (``stream=``/``path=``, any ``batch_size``) also
    report the incremental shape:

    * ``batches`` — journaled batch commits the load took;
    * ``nodes_streamed`` — records committed by those batches;
    * ``progress`` — the per-batch
      :class:`~repro.ingest.session.BatchProgress` records, in commit
      order (empty for the legacy whole-document paths).
    """

    document: str
    nodes: int
    generation: int
    columnar: str
    batches: int = 1
    nodes_streamed: int = 0
    progress: tuple = ()


#: The buffer/disk counters surfaced as ``QueryResult.io_stats``.
_IO_KEYS = (
    "hits",
    "misses",
    "evictions",
    "dirty_writebacks",
    "physical_reads",
    "physical_writes",
)


@dataclass
class QueryResult:
    """Execution outcome: the result collection plus run metadata.

    * ``statistics`` — the store's merged counters after the run (a
      plain dict, as before);
    * ``plan`` — the executed :class:`PlanNode` tree (``None`` for the
      direct interpreter);
    * ``io_stats`` — the buffer-pool and disk subset of the counters,
      plus the derived ``pages_touched``;
    * ``profile`` — the per-operator
      :class:`~repro.observability.ExecutionProfile`, present when the
      query ran with ``analyze=True`` or under an active trace.
    """

    collection: Collection
    plan_mode: str
    elapsed_seconds: float
    statistics: dict[str, int] = field(default_factory=dict)
    plan: PlanNode | None = None
    profile: ExecutionProfile | None = None
    io_stats: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.collection)

    def to_xml(self, indent: str | None = "  ") -> str:
        """The result collection rendered as XML text, one document
        fragment per tree."""
        from ..xmlmodel.serialize import serialize_collection

        return serialize_collection(self.collection, indent)


@dataclass(frozen=True)
class PreparedQuery:
    """A parsed and planned query, ready to execute (and to cache).

    Produced by :meth:`Database.prepare`; executed by
    :meth:`Database.execute`.  The service layer's plan cache stores
    these: preparation (parse + translate + rewrite) is the part of a
    query whose cost is identical across repetitions, so a cache hit
    skips it entirely.

    ``generation`` records the store's data generation at preparation
    time; a prepared query is re-plannable when the store has changed
    (document set, nids) since.
    """

    text: str
    requested: "PlanMode"  # what the caller asked for (may be AUTO)
    resolved: "PlanMode"  # the concrete engine AUTO settled on
    expr: Expr
    plan: PlanNode | None  # None for the direct interpreter
    join_strategy: str = "nested-loop"
    generation: int = 0


class Explanation(str):
    """The stable rendering contract for ``db.explain()``.

    It *is* the human-readable text (a ``str`` subclass, so existing
    callers that print or substring-match keep working), and it carries
    the structured payload behind :meth:`to_dict`.  :meth:`render`
    returns the text explicitly, for symmetry with
    :class:`~repro.observability.ExecutionProfile`.
    """

    _payload: dict

    def __new__(cls, text: str, payload: dict) -> "Explanation":
        obj = super().__new__(cls, text)
        obj._payload = payload
        return obj

    def render(self) -> str:
        """The human-readable plan comparison."""
        return str(self)

    def to_dict(self) -> dict:
        """The structured plans behind the text."""
        return self._payload

    def with_section(self, title: str, text: str, **payload) -> "Explanation":
        """A new :class:`Explanation` with an extra titled section
        prepended (and its payload merged) — how the cluster
        coordinator stacks its ``=== cluster plan ===`` on top of a
        shard's local explanation."""
        combined = f"=== {title} ===\n{text.rstrip()}\n\n{str(self)}"
        return Explanation(combined, {**self._payload, **payload})


class Database:
    """A native XML database instance."""

    def __init__(
        self,
        directory: str | None = None,
        pool_frames: int = DEFAULT_POOL_FRAMES,
        grouping_strategy: str | None = None,
        use_indexes: bool = True,
        fault_plan: "FaultPlan | None" = None,
        degraded: bool = False,
        columnar: bool | None = None,
    ):
        """Open (or create) a database.

        ``fault_plan`` installs a fault-injection plan on the storage
        layer (tests, CI; see :mod:`repro.storage.faults`).
        ``degraded=True`` opens a damaged directory anyway: unreadable
        pages are quarantined, the documents on them dropped, and the
        indexes rebuilt over what survives — instead of the default
        fail-loudly behaviour.  ``columnar`` enables the columnar
        XPath-accelerator hot path (``None`` defers to the
        ``REPRO_COLUMNAR`` environment flag; default on).  It has no
        effect when ``use_indexes=False`` — the columnar table is
        derived from the tag index.  ``grouping_strategy`` picks the
        GROUPBY implementation (``"sort"``/``"hash"``/``"replicate"``/
        ``"value-index"``); the default is the paper's identifier sort.
        """
        self.store = NodeStore(
            directory, pool_frames=pool_frames, fault_plan=fault_plan, degraded=degraded
        )
        self.indexes = IndexManager(self.store)
        self.grouping_strategy = grouping_strategy or "sort"
        self.use_indexes = use_indexes
        self.columnar_enabled = _columnar_default() if columnar is None else bool(columnar)
        if self.store.documents():
            # Reopen path: persisted indexes when fresh, else rebuild.
            if directory is None or not self.indexes.try_load(directory):
                self.indexes.build()
                if directory is not None:
                    self.indexes.save(directory)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(
        self,
        *,
        text: str | None = None,
        tree: XMLNode | None = None,
        path: str | None = None,
        stream=None,
        name: str | None = None,
        batch_size: int | None = None,
        on_batch=None,
    ) -> LoadReport:
        """Store an XML document from exactly one source.

        Pass exactly one of ``text=`` (XML source string), ``tree=``
        (an in-memory :class:`~repro.xmlmodel.node.XMLNode`),
        ``path=`` (a file to parse), or ``stream=`` (a file-like
        object or iterable of text chunks).  ``name`` is the catalog
        name — required for ``text``/``tree``/``stream``, defaulted
        from the filename for ``path``.  Returns a :class:`LoadReport`.

        ``path=`` and ``stream=`` run the streaming ingest: the input
        is parsed incrementally (memory bounded by ``batch_size`` plus
        the largest single root child, never the document) and
        committed in journaled batches of roughly ``batch_size`` nodes
        (default :data:`~repro.ingest.session.DEFAULT_BATCH_NODES`),
        each batch folded into the live indexes incrementally and
        bumping the store generation.  ``on_batch`` (a
        ``BatchProgress -> None`` callable) observes each commit.
        ``text=`` joins the streaming path when ``batch_size`` is
        given; ``tree=`` is always a whole-document load.
        """
        sources = [s for s in (text, tree, path, stream) if s is not None]
        if len(sources) != 1:
            raise DatabaseError(
                "load() needs exactly one source: text=, tree=, path=, or stream="
            )
        if tree is not None or (text is not None and batch_size is None):
            if name is None:
                raise DatabaseError("load() requires name= for text/tree sources")
            if text is not None:
                info = self.store.load_text(text, name)
            else:
                info = self.store.load_tree(tree, name)
            self._reindex()
            return LoadReport(
                document=info.name,
                nodes=info.n_nodes,
                generation=self.store.generation,
                columnar=self._columnar_state(),
            )
        from ..ingest.session import chunks_of

        if path is not None:
            name = name or os.path.basename(path)
            try:
                handle = open(path, encoding="utf-8")
            except OSError as exc:
                raise DatabaseError(
                    f"cannot read document file {path!r}: {exc}"
                ) from exc
            try:
                return self._load_streaming(
                    chunks_of(handle),
                    name,
                    batch_size,
                    on_batch,
                    drop_partial=True,
                )
            finally:
                handle.close()
        if name is None:
            raise DatabaseError("load() requires name= for text/stream sources")
        if text is not None:
            return self._load_streaming(
                chunks_of(text), name, batch_size, on_batch, drop_partial=True
            )
        return self._load_streaming(
            chunks_of(stream), name, batch_size, on_batch, drop_partial=False
        )

    def _load_streaming(
        self,
        chunks,
        name: str,
        batch_size: int | None,
        on_batch,
        drop_partial: bool,
    ) -> LoadReport:
        """The streaming ingest path behind :meth:`load`.

        ``drop_partial=True`` restores the whole-document paths'
        atomicity: a mid-stream failure (parse error, I/O) drops the
        partially ingested document before re-raising.  ``stream=``
        sources keep their committed batches instead — the wire
        protocol's contract that a truncated upload leaves the store at
        the last batch boundary.
        """
        from ..ingest.session import IngestSession

        self.indexes.ensure_built()
        session = IngestSession(
            self.store,
            name,
            batch_size=batch_size,
            indexes=self.indexes,
            on_batch=on_batch,
        )
        try:
            for chunk in chunks:
                session.feed(chunk)
            info = session.finish()
        except BaseException:
            session.abort()
            if drop_partial and session.batches_committed:
                try:
                    self.drop_document(name)
                except DatabaseError:  # pragma: no cover - best effort
                    pass
            raise
        if self.store.directory is not None:
            self.indexes.save(self.store.directory)
        return LoadReport(
            document=info.name,
            nodes=info.n_nodes,
            generation=self.store.generation,
            columnar=self._columnar_state(),
            batches=session.batches_committed,
            nodes_streamed=session.nodes_streamed,
            progress=tuple(session.progress),
        )

    def _columnar_state(self) -> str:
        if not (self.use_indexes and self.columnar_enabled):
            return "disabled"
        return self.indexes.columnar_status()["state"]

    def drop_document(self, name: str) -> None:
        """Drop a document and rebuild the indexes over the rest."""
        self.store.drop_document(name)
        self._reindex()

    def compact(self) -> None:
        """Reclaim space left by dropped documents (store rebuild)."""
        self.store = self.store.compact()
        self.indexes = IndexManager(self.store)
        self._reindex()

    def _reindex(self) -> None:
        self.indexes.build()
        if self.store.directory is not None:
            self.indexes.save(self.store.directory)

    def documents(self) -> list[str]:
        return [info.name for info in self.store.documents()]

    @property
    def data_generation(self) -> int:
        """The store's monotonic data-generation counter.

        Bumped by every mutation (load, drop, compact, repair) —
        including across :meth:`compact`'s store replacement — so
        caches keyed on it are invalidated by any data change.
        """
        return self.store.generation

    def info(self) -> dict[str, object]:
        """Summary of the database: documents, sizes, index statistics."""
        self.indexes.ensure_built()
        symbols = self.store.meta.symbols
        tag_counts = {
            symbols.name(sym): self.indexes.tag_index.count(sym)
            for sym in self.indexes.tag_index.tags()
        }
        return {
            "documents": [
                {"name": info.name, "nodes": info.n_nodes}
                for info in self.store.documents()
            ],
            "total_nodes": self.store.n_nodes(),
            "pages": self.store.disk.n_pages,
            "buffer_frames": self.store.pool.capacity,
            "tags": tag_counts,
            "value_index_keys": self.indexes.value_index.n_keys(),
        }

    def root_tag(self, doc: str) -> str:
        """Catalog lookup: the tag of the document's root element."""
        info = self.store.document(doc)
        return self.store.tag(info.root_nid)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def verify(self):
        """Storage health check: page checksums, catalog consistency,
        and persisted-index freshness.  Returns a
        :class:`~repro.storage.store.VerifyReport`; read-only."""
        report = self.store.verify()
        if self.store.directory is not None:
            from ..indexing.persist import snapshot_is_fresh

            report.index_fresh = snapshot_is_fresh(self.store.meta, self.store.directory)
        return report

    def repair(self):
        """Quarantine unrecoverable pages, drop the documents on them,
        and rebuild the indexes over the surviving documents.  Returns
        the storage layer's :class:`~repro.storage.store.RepairReport`."""
        report = self.store.repair()
        self._reindex()
        return report

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def parse(self, text: str) -> Expr:
        return parse_query(text)

    def plans_for(self, text: str) -> tuple[PlanNode | None, PlanNode]:
        """The naive plan and its GROUPBY rewrite for a query text.

        For a 3-level nested FLWR there is no single naive join plan —
        join-graph isolation collapses the nesting directly into a
        grouping plan, so the first element is ``None``.
        """
        expr = self.parse(text)
        return candidate_plans(expr, self._root_tag_of(expr))

    def _match_strategy_status(self) -> dict[str, object]:
        """The structural-match strategy EXPLAIN reports — *without*
        building anything (EXPLAIN must not execute)."""
        if not self.use_indexes:
            return {"strategy": "object-walk", "reason": "use_indexes=False"}
        if not self.columnar_enabled:
            return {"strategy": "object-walk", "reason": "columnar disabled"}
        return {"strategy": "columnar", "snapshot": self.indexes.columnar_status()}

    @staticmethod
    def _render_match_strategy(status: dict[str, object]) -> str:
        if status["strategy"] == "columnar":
            snapshot = status["snapshot"]
            detail = f"snapshot {snapshot['state']}"
            if snapshot["rows"] is not None:
                detail += f", {snapshot['rows']} rows"
            detail += f", generation {snapshot['generation']}"
        else:
            detail = status["reason"]
        return (
            "\n=== match strategy ===\n"
            + f"structural match: {status['strategy']} ({detail})"
        )

    def explain(self, text: str) -> Explanation:
        """The candidate plans for a query, *without* executing it.

        Returns an :class:`Explanation`: usable as plain text, with
        ``to_dict()`` for programmatic consumers.  A query outside the
        translatable grouping family reports ``plan: direct`` with the
        translator's reason — what ``auto`` runs for it.
        """
        try:
            naive, grouped = self.plans_for(text)
        except TranslationError as exc:
            reason = str(exc)
            return Explanation(
                f"=== plan ===\nplan: direct (direct interpreter; {reason})",
                {"query": text, "plan": "direct", "reason": reason},
            )
        strategy = self._match_strategy_status()
        payload: dict = {
            "query": text,
            "plans": {
                "naive": naive.to_dict() if naive is not None else None,
                "groupby": grouped.to_dict(),
            },
            "match_strategy": strategy,
        }
        naive_text = (
            "(3-level nested FLWR: no single naive join plan; join-graph\n"
            " isolation collapses the nesting into the grouping plan below)"
            if naive is None
            else naive.explain()
        )
        text_out = (
            "=== naive (join) plan ===\n"
            + naive_text
            + "\n=== rewritten (GROUPBY) plan ===\n"
            + grouped.explain()
            + self._render_match_strategy(strategy)
        )
        return Explanation(text_out, payload)

    def prepare(self, text: str, *, plan: PlanMode | str | None = None) -> PreparedQuery:
        """Parse and plan ``text`` without executing it.

        ``AUTO`` is resolved here by the paper's rule, not by cost: the
        GROUPBY rewrite (the join-graph-isolation collapse for a 3-level
        nested FLWR) when the query is translatable, the direct
        interpreter otherwise.  The returned
        :class:`PreparedQuery` can be executed any number of times with
        :meth:`execute` — the service layer's plan cache is built on
        exactly this split.
        """
        mode = self._coerce_plan_mode(plan)
        expr = self.parse(text)
        join_strategy = "nested-loop"
        built: PlanNode | None = None
        if mode is PlanMode.AUTO:
            try:
                built = self._build_plan(expr, rewritten=True)
                resolved = PlanMode.GROUPBY
            except TranslationError:
                resolved = PlanMode.DIRECT
        elif mode is PlanMode.DIRECT:
            resolved = PlanMode.DIRECT
        else:
            rewritten = mode in (PlanMode.GROUPBY, PlanMode.LOGICAL_GROUPBY)
            built = self._build_plan(expr, rewritten=rewritten)
            resolved = mode
            if mode is PlanMode.NAIVE_HASH:
                join_strategy = "value-hash"
        return PreparedQuery(
            text=text,
            requested=mode,
            resolved=resolved,
            expr=expr,
            plan=built,
            join_strategy=join_strategy,
            generation=self.store.generation,
        )

    def execute(
        self,
        prepared: PreparedQuery,
        *,
        analyze: bool = False,
        trace: QueryTrace | None = None,
        reset_statistics: bool = True,
        timeout: float | None = None,
    ) -> QueryResult:
        """Execute a :class:`PreparedQuery` (see :meth:`query` for the
        option semantics; ``timeout`` installs a per-query deadline)."""
        self.indexes.ensure_built()
        if reset_statistics:
            self.store.reset_stats()

        collectors: list = list(active_traces())
        if trace is not None:
            collectors.append(trace)
        profiling = analyze or bool(collectors)

        if timeout is not None:
            with deadline_scope(Deadline(timeout)):
                result = self._execute_prepared(prepared, profiling)
        else:
            result = self._execute_prepared(prepared, profiling)

        if collectors and result.profile is not None:
            event = TraceEvent(
                query=prepared.text,
                plan_mode=result.plan_mode,
                elapsed_seconds=result.elapsed_seconds,
                profile=result.profile,
                counters=result.profile.totals,
            )
            for collector in collectors:
                if isinstance(collector, QueryTrace):
                    collector.record(event)
                else:
                    collector(event)
        return result

    def query(
        self,
        text: str,
        *,
        plan: PlanMode | str | None = None,
        analyze: bool = False,
        trace: QueryTrace | None = None,
        reset_statistics: bool = True,
        timeout: float | None = None,
    ) -> QueryResult:
        """Parse, plan, and execute ``text``.

        Options are keyword-only:

        * ``plan`` — a :class:`PlanMode` (or its string value);
        * ``analyze`` — attach an
          :class:`~repro.observability.ExecutionProfile` to the result
          (EXPLAIN ANALYZE: the executed plan annotated with actual
          per-operator times, cardinalities, and counter deltas);
        * ``trace`` — a :class:`~repro.observability.QueryTrace` (or
          any ``event -> None`` callable) that receives this
          execution's :class:`~repro.observability.TraceEvent` in
          addition to the globally active traces;
        * ``reset_statistics`` — zero the store counters first (the
          default), so ``result.statistics`` is this query's own work;
        * ``timeout`` — a per-query deadline in seconds: execution is
          cancelled at the next cooperative checkpoint past it, raising
          :class:`~repro.errors.QueryTimeoutError` with all resources
          (buffer pins included) released.

        The pre-redesign positional forms (``query(text, "naive")``)
        were removed in the columnar API unification — options are
        keyword-only and passing them positionally raises
        :class:`TypeError`.
        """
        prepared = self.prepare(text, plan=plan)
        return self.execute(
            prepared,
            analyze=analyze,
            trace=trace,
            reset_statistics=reset_statistics,
            timeout=timeout,
        )

    def _execute_prepared(self, prepared: PreparedQuery, profiling: bool) -> QueryResult:
        mode = prepared.resolved
        if mode is PlanMode.DIRECT:
            return self._run_direct(prepared.text, prepared.expr, profiling=profiling)
        if mode in (PlanMode.LOGICAL_NAIVE, PlanMode.LOGICAL_GROUPBY):
            return self._run_logical(
                prepared.text,
                prepared.expr,
                rewritten=mode is PlanMode.LOGICAL_GROUPBY,
                mode_name=mode.value,
                profiling=profiling,
                plan=prepared.plan,
            )
        try:
            return self._run_physical(
                prepared.text,
                prepared.expr,
                rewritten=mode is PlanMode.GROUPBY,
                mode_name=mode.value,
                join_strategy=prepared.join_strategy,
                profiling=profiling,
                plan=prepared.plan,
            )
        except TranslationError:
            # AUTO's runtime fallback: a plan that translated but hits an
            # unsupported shape during execution still degrades to the
            # direct interpreter, exactly as before the prepare/execute
            # split.
            if prepared.requested is PlanMode.AUTO:
                return self._run_direct(prepared.text, prepared.expr, profiling=profiling)
            raise

    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_plan_mode(plan: PlanMode | str | None) -> PlanMode:
        if plan is None:
            return PlanMode.AUTO
        try:
            return PlanMode(plan)
        except ValueError:
            raise DatabaseError(
                f"unknown plan mode {plan!r}; pick one of {PLAN_MODES}"
            ) from None

    def _root_tag_of(self, expr: Expr) -> str:
        """The root tag of the one document ``expr`` reads."""
        names = documents(expr)
        if len(names) != 1:
            raise TranslationError(
                f"query must target exactly one document (found {sorted(names)})"
            )
        return self.root_tag(names.pop())

    def _io_stats(self, statistics: dict[str, int]) -> dict[str, int]:
        io = {key: statistics.get(key, 0) for key in _IO_KEYS}
        io["pages_touched"] = io["hits"] + io["misses"]
        return io

    def _finish(
        self,
        text: str,
        collection: Collection,
        mode_name: str,
        elapsed: float,
        plan: PlanNode | None,
        profiler,
        before: CounterSnapshot | None,
    ) -> QueryResult:
        statistics = self.store.stats().as_dict()
        profile: ExecutionProfile | None = None
        if profiler is not None and profiler.roots:
            totals = snapshot_counters(self.store, self.indexes) - before
            profile = ExecutionProfile(
                query=text,
                plan_mode=mode_name,
                elapsed_seconds=elapsed,
                root=profiler.root(),
                totals=totals,
            )
        return QueryResult(
            collection,
            mode_name,
            elapsed,
            statistics,
            plan,
            profile,
            self._io_stats(statistics),
        )

    def _run_direct(self, text: str, expr: Expr, profiling: bool = False) -> QueryResult:
        interpreter = Interpreter(self.store, self.indexes)
        profiler = interpreter.enable_profiling() if profiling else None
        before = snapshot_counters(self.store, self.indexes) if profiling else None
        started = time.perf_counter()
        collection = interpreter.run(expr)
        elapsed = time.perf_counter() - started
        return self._finish(text, collection, "direct", elapsed, None, profiler, before)

    def _build_plan(self, expr: Expr, rewritten: bool) -> PlanNode:
        naive, grouped = candidate_plans(expr, self._root_tag_of(expr))
        if rewritten:
            return grouped
        if naive is None:
            # Join-graph isolation: a 3-level nested FLWR collapses into
            # one grouping plan but has no naive join plan to run.
            raise TranslationError("a 3-level nested FLWR has no naive join plan")
        return naive

    def _run_physical(
        self,
        text: str,
        expr: Expr,
        rewritten: bool,
        mode_name: str,
        join_strategy: str = "nested-loop",
        profiling: bool = False,
        plan: PlanNode | None = None,
    ) -> QueryResult:
        # Snapshot before any plan building: profile totals then match
        # ``statistics`` under a fresh reset.  A prebuilt ``plan`` (the
        # prepare/execute split, the service's plan cache) skips the
        # build entirely.
        before = snapshot_counters(self.store, self.indexes) if profiling else None
        if plan is None:
            plan = self._build_plan(expr, rewritten)
        executor = PhysicalExecutor(
            self.store,
            self.indexes,
            grouping_strategy=self.grouping_strategy,
            use_indexes=self.use_indexes,
            join_strategy=join_strategy,
            columnar=self.columnar_enabled,
        )
        profiler = executor.enable_profiling() if profiling else None
        started = time.perf_counter()
        collection = executor.execute(plan)
        elapsed = time.perf_counter() - started
        return self._finish(text, collection, mode_name, elapsed, plan, profiler, before)

    def _run_logical(
        self,
        text: str,
        expr: Expr,
        rewritten: bool,
        mode_name: str,
        profiling: bool = False,
        plan: PlanNode | None = None,
    ) -> QueryResult:
        before = snapshot_counters(self.store, self.indexes) if profiling else None
        if plan is None:
            plan = self._build_plan(expr, rewritten)
        executor = LogicalExecutor(self.store, self.indexes)
        profiler = executor.enable_profiling() if profiling else None
        started = time.perf_counter()
        collection = executor.execute(plan)
        elapsed = time.perf_counter() - started
        return self._finish(text, collection, mode_name, elapsed, plan, profiler, before)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
