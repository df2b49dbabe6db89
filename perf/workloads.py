"""The five workloads.  Names are fixed; later issues cite them.

Each workload builds its system under test from inputs generated from
the seed, gates on an independent oracle before it is measured, and
exposes one closed-loop ``op``.  Why each exists is recorded in
``BENCHMARK.json`` and ``perf/README.md``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback

from repro.cluster import LocalCluster, LocalClusterConfig, compile_merge
from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1, QUERY_2, QUERY_COUNT
from repro.indexing.columnar import columnar_statistics
from repro.observability import snapshot_counters
from repro.pattern.structural_join import join_statistics
from repro.query.database import Database
from repro.query.parser import parse_query
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from repro.service.service import QueryService, ServiceConfig
from repro.xmlmodel.diff import assert_collections_equal
from repro.xmlmodel.serialize import serialize

from .harness import closed_loop
from .probes import embedded_op
from .trace import span

ORACLE_PLAN = "logical-groupby"


class OracleFailure(Exception):
    """The program's answer disagreed with the independent oracle."""


def corpus(seed: int, articles: int, authors: int):
    return generate_dblp(DBLPConfig(n_articles=articles, n_authors=authors, seed=seed))


class Workload:
    name = ""
    #: The query the direct layer probes run on this workload's data.
    probe_query = QUERY_1
    articles, authors = 800, 160

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.db: Database | None = None
        self.corpus = None
        self.expected: object = None
        #: Set by the harness for the traced pass (background threads read it).
        self.tracer = None
        #: Work done off the measured client (the ingest writer).
        self.background_attempted = 0
        self.background_failed = 0

    def load_corpus(self, db: Database) -> int:
        self.corpus = corpus(self.seed, self.articles, self.authors)
        return db.load(tree=self.corpus, name="bib.xml").nodes

    def setup(self) -> None:
        """Build the system under test and check it against the oracle."""
        raise NotImplementedError

    def start(self) -> None:
        """Begin background activity that runs beside the client."""

    def stop(self) -> None:
        """End background activity (before probes and post-run checks)."""

    def op(self, index: int, tracer) -> bool:
        raise NotImplementedError

    def counters(self) -> dict:
        raise NotImplementedError

    def window_metrics(self, window, before: dict, after: dict) -> dict[str, float]:
        """Workload-specific per-layer metrics of the untraced window."""
        return {}

    def probes(self, tracer) -> dict[str, float]:
        """Workload-specific direct probes (traced runs only)."""
        return {}

    def finish(self) -> dict[str, float]:
        """Post-run correctness checks; may return metrics they yield."""
        return {}

    def close(self) -> None:
        if self.db is not None:
            self.db.close()


# ----------------------------------------------------------------------
# e1_titles / e2_count: the paper's E1 and E2, embedded
# ----------------------------------------------------------------------
class EmbeddedWorkload(Workload):
    queries: tuple[str, ...] = ()

    def setup(self) -> None:
        self.db = Database()
        self.load_corpus(self.db)
        self.expected = {}
        for text in self.queries:
            result = self.db.query(text)
            oracle = self.db.query(text, plan=ORACLE_PLAN)
            assert_collections_equal(oracle.collection, result.collection)
            self.expected[text] = (len(result), len(result.to_xml()))

    def op(self, index: int, tracer) -> bool:
        text = self.queries[index % len(self.queries)]
        if tracer is None:
            # reset_statistics=False keeps the store counters forward-only,
            # so the window's counter deltas mean something.
            result = self.db.query(text, reset_statistics=False)
            xml = result.to_xml()
        else:
            result, xml = embedded_op(self.db, text, tracer)
        return (len(result), len(xml)) == self.expected[text]

    def counters(self) -> dict:
        return snapshot_counters(self.db.store, self.db.indexes).as_dict()


class E1Titles(EmbeddedWorkload):
    name = "e1_titles"
    queries = (QUERY_1, QUERY_2)


class E2Count(EmbeddedWorkload):
    name = "e2_count"
    queries = (QUERY_COUNT,)
    probe_query = QUERY_COUNT


# ----------------------------------------------------------------------
# wire_hot: result-cache hits over one TCP connection
# ----------------------------------------------------------------------
class WireHot(Workload):
    name = "wire_hot"
    PINGS = 50

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.service = self.server = self.client = None

    def setup(self) -> None:
        self.db = Database()
        self.load_corpus(self.db)
        self.service = QueryService(self.db, ServiceConfig(workers=2))
        self.server = ServiceServer(self.service, "127.0.0.1", 0)
        self.server.serve_background()
        self.client = ServiceClient(*self.server.endpoint)
        reply = self.client.query(QUERY_1)
        oracle = self.db.query(QUERY_1, plan=ORACLE_PLAN)
        if reply["xml"] != oracle.to_xml(indent=None):
            raise OracleFailure("wire_hot: wire XML differs from the embedded answer")
        self.expected = (len(oracle), len(reply["xml"]))

    def op(self, index: int, tracer) -> bool:
        with span(tracer, "wire.query", "wire"):
            reply = self.client.query(QUERY_1)
        return (reply["rows"], len(reply["xml"])) == self.expected

    def counters(self) -> dict:
        # STATS answers with the storage, service and server counters;
        # the client merges its own client_* counters in.
        return self.client.stats().as_dict()

    def window_metrics(self, window, before, after):
        return {
            "wire.client_retries": after["client_retries"] - before["client_retries"],
            "wire.reconnects": after["client_reconnects"] - before["client_reconnects"],
        }

    def probes(self, tracer):
        for index in range(self.PINGS):
            with tracer.span("wire.ping", "wire", request=f"ping-{index}"):
                self.client.ping()
        reply = self.client.query(QUERY_1)
        return {"wire.response_kb": len(json.dumps(reply).encode("utf-8")) / 1024.0}

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
        if self.service is not None:
            self.service.close()
        super().close()


# ----------------------------------------------------------------------
# cluster_scatter_cold: uncached two-shard scatter-gather
# ----------------------------------------------------------------------
class ClusterScatterCold(Workload):
    name = "cluster_scatter_cold"
    articles, authors = 100, 20
    ONE_SHARD_OPS = 5
    COMPILE_OPS = 20

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.cluster = None

    def launch(self, shards: int) -> LocalCluster:
        """A cluster holding the corpus, checked against the single node."""
        cluster = LocalCluster(
            LocalClusterConfig(shards=shards, service=ServiceConfig(result_cache_entries=0))
        )
        try:
            cluster.load(tree=self.corpus.deep_copy(), name="bib.xml")
            got = cluster.query(QUERY_1)
            assert_collections_equal(self.db.query(QUERY_1).collection, got.collection)
            if got.partial:
                raise OracleFailure(f"{shards}-shard cluster answered partially")
        except BaseException:
            cluster.close()
            raise
        return cluster

    def setup(self) -> None:
        self.db = Database()  # the single-node oracle
        self.load_corpus(self.db)
        self.cluster = self.launch(shards=2)
        oracle = self.db.query(QUERY_1)
        self.expected = (len(oracle), len(oracle.to_xml()))

    def op(self, index: int, tracer) -> bool:
        with span(tracer, "cluster.query", "cluster"):
            result = self.cluster.query(QUERY_1)
        with span(tracer, "xmlmodel.serialize", "xmlmodel"):
            xml = result.to_xml()
        return not result.partial and (len(result), len(xml)) == self.expected

    def counters(self) -> dict:
        data = self.cluster.stats().as_dict()
        # stats() sums every shard's STATS reply, and the in-process
        # shards all report the same module-global join and columnar
        # counters: read those once, directly.
        data.update(join_statistics().snapshot())
        data.update(columnar_statistics().snapshot())
        return data

    def window_metrics(self, window, before, after):
        def delta(key):
            return after.get(key, 0) - before.get(key, 0)

        return {
            "cluster.shard_calls_per_query": delta("cluster_shard_calls") / window.attempted,
            "cluster.record_lookups_per_shard_call": (
                delta("record_lookups") / delta("cluster_shard_calls")
            ),
            "cluster.hedges": delta("cluster_hedges"),
            "cluster.retries": delta("client_retries"),
        }

    def probes(self, tracer):
        one_shard = self.launch(shards=1)
        try:
            for index in range(self.ONE_SHARD_OPS):
                with tracer.span("cluster.one_shard_query", "cluster", request=f"one-shard-{index}"):
                    one_shard.query(QUERY_1)
        finally:
            one_shard.close()
        expr = parse_query(QUERY_1)
        for index in range(self.COMPILE_OPS):
            with tracer.span("cluster.compile_merge", "cluster", request=f"compile-{index}"):
                compile_merge(expr)
        return {}

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
        super().close()


# ----------------------------------------------------------------------
# ingest_beside_reads: a streaming writer beside a closed-loop reader
# ----------------------------------------------------------------------
class IngestBesideReads(Workload):
    name = "ingest_beside_reads"
    probe_query = QUERY_COUNT
    POOL_FRAMES = 32  # fewer than the preloaded document's data pages
    INCOMING_DOCS = 4
    INCOMING_ARTICLES, INCOMING_AUTHORS = 400, 80
    BATCH_NODES = 1024
    FEED_CHARS = 1 << 14
    QUIESCENT_SECONDS = 1.5
    SOLO_DOCS = 2

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.directories: list[str] = []
        self.service = None
        self.writer: threading.Thread | None = None
        self.stopping = threading.Event()
        self.batches: list[tuple[float, int]] = []  # (perf_counter, nodes) per commit
        self.acknowledged_bytes = 0
        self.window_qps = 0.0

    def open_store(self) -> tuple[Database, QueryService, int]:
        """A directory-backed database holding bib.xml, behind a service."""
        directory = tempfile.mkdtemp(prefix="ingest-", dir=self.scratch)
        self.directories.append(directory)
        db = Database(directory=directory, pool_frames=self.POOL_FRAMES)
        nodes = self.load_corpus(db)
        return db, QueryService(db, ServiceConfig(workers=2, result_cache_entries=0)), nodes

    def setup(self) -> None:
        self.incoming = [
            serialize(
                corpus(self.seed * 1000 + index, self.INCOMING_ARTICLES, self.INCOMING_AUTHORS),
                indent=None,
            )
            for index in range(self.INCOMING_DOCS)
        ]
        self.db, self.service, self.preloaded = self.open_store()
        oracle = self.db.query(QUERY_COUNT, plan=ORACLE_PLAN)
        assert_collections_equal(
            oracle.collection, self.service.query(QUERY_COUNT).collection
        )
        self.expected = (len(oracle), len(oracle.to_xml()))

    def ingest(self, service: QueryService, text: str, name: str, batches: list) -> None:
        """Stream one document in, a span per feed and per batch.  The
        tracer is read at every span: the traced pass begins and ends
        in the middle of a document."""
        mark = time.perf_counter_ns()

        def on_batch(progress) -> None:
            nonlocal mark
            now = time.perf_counter_ns()
            batches.append((now / 1e9, progress.nodes_in_batch))
            if self.tracer is not None:
                # One batch: parse + pacing pause + journaled commit.
                self.tracer.add("ingest.batch", "ingest", mark, now)
            mark = now

        session = service.begin_ingest(name, batch_size=self.BATCH_NODES, on_batch=on_batch)
        try:
            for at in range(0, len(text), self.FEED_CHARS):
                with span(self.tracer, "ingest.feed", "ingest", request=name):
                    session.feed(text[at:at + self.FEED_CHARS])
            with span(self.tracer, "ingest.finish", "ingest", request=name):
                session.finish()
        except BaseException:
            session.abort()
            raise

    def write(self) -> None:
        index = 0
        while not self.stopping.is_set():
            text = self.incoming[index % len(self.incoming)]
            self.background_attempted += 1
            try:
                self.ingest(self.service, text, f"incoming-{index}.xml", self.batches)
            except Exception:  # noqa: BLE001 - counted, reported, fatal to the writer
                self.background_failed += 1
                print(f"[{self.name}] ingest failed:\n{traceback.format_exc(limit=4)}",
                      file=sys.stderr)
                return
            self.acknowledged_bytes += len(text.encode("utf-8"))
            index += 1

    def start(self) -> None:
        self.writer = threading.Thread(target=self.write, name="perf-ingest-writer")
        self.writer.start()

    def stop(self) -> None:
        """The writer finishes the document it is on, then ends."""
        self.stopping.set()
        if self.writer is not None:
            self.writer.join(timeout=120)
            if self.writer.is_alive():
                raise RuntimeError("ingest writer did not stop")

    def op(self, index: int, tracer) -> bool:
        with span(tracer, "service.reader_query", "service"):
            outcome = self.service.query(QUERY_COUNT)
        with span(tracer, "xmlmodel.serialize", "xmlmodel"):
            xml = outcome.result.to_xml()
        return (len(outcome), len(xml)) == self.expected

    def counters(self) -> dict:
        data = snapshot_counters(self.db.store, self.db.indexes).as_dict()
        data.update(self.service.stats())
        return data

    def window_metrics(self, window, before, after):
        stamps = [(at, nodes) for at, nodes in self.batches if window.start <= at <= window.end]
        nodes = sum(nodes for _, nodes in stamps)
        gaps = [later[0] - earlier[0] for earlier, later in zip(stamps, stamps[1:])]
        self.window_qps = len(window.latencies) / window.elapsed
        return {
            "ingest_nodes_per_s": nodes / window.elapsed,
            "ingest.batch_commit_ms_p50": statistics.median(gaps) * 1000.0 if gaps else 0.0,
            "ingest.batches_committed": (
                after["ingest_batches_committed"] - before["ingest_batches_committed"]
            ),
            "storage.physical_writes_per_knode": (
                (after["physical_writes"] - before["physical_writes"]) / (nodes / 1000.0)
                if nodes else 0.0
            ),
        }

    def probes(self, tracer):
        """The two baselines the window is read against: the reader with
        no writer, and the writer with no reader (on a second store, so
        the measured one holds only what the window put there)."""
        quiescent = closed_loop(self.op, seconds=self.QUIESCENT_SECONDS)
        db, service, _ = self.open_store()
        batches: list[tuple[float, int]] = []
        started = time.perf_counter()
        try:
            for index in range(self.SOLO_DOCS):
                self.ingest(service, self.incoming[index], f"solo-{index}.xml", batches)
        finally:
            elapsed = time.perf_counter() - started
            service.close()
            db.close()
        return {
            "service.reader_qps_ratio": (
                self.window_qps / (len(quiescent.latencies) / quiescent.elapsed)
            ),
            "ingest.solo_nodes_per_s": sum(nodes for _, nodes in batches) / elapsed,
        }

    def finish(self):
        """Every acknowledged batch must survive a reopen."""
        self.service.close()
        self.db.close()
        acknowledged = sum(nodes for _, nodes in self.batches)
        directory = self.directories[0]
        with Database(directory=directory, pool_frames=self.POOL_FRAMES) as reopened:
            report = reopened.verify()
            nodes = reopened.store.n_nodes()
        if not report.ok:
            raise OracleFailure(f"verify() after ingest: {report.render()}")
        if nodes != self.preloaded + acknowledged:
            raise OracleFailure(
                f"reopened store holds {nodes} nodes, expected "
                f"{self.preloaded} preloaded + {acknowledged} acknowledged"
            )
        stored = sum(
            os.path.getsize(os.path.join(directory, name))
            for name in ("data.pages", "indexes.pages", "meta.json")
        )
        loaded = len(serialize(self.corpus, indent=None).encode("utf-8"))
        return {"stored_bytes_per_input_byte": stored / (loaded + self.acknowledged_bytes)}

    def close(self) -> None:
        try:
            self.stop()
        finally:
            if self.service is not None:
                self.service.close()
            super().close()
            for directory in self.directories:
                shutil.rmtree(directory, ignore_errors=True)


WORKLOADS = {
    cls.name: cls
    for cls in (E1Titles, E2Count, WireHot, IngestBesideReads, ClusterScatterCold)
}
