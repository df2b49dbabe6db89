"""Direct layer probes: time calls into one layer's public functions.

Every probe records its timings as spans (so the trace file and the
self-time table see them); per-call metrics that need a divisor are
returned directly.  The probes run after the measurement window, on
the workload's own database, so they see its data and its cache size.
"""

from __future__ import annotations

import statistics

from repro.indexing.manager import IndexManager
from repro.ingest.stream_parse import StreamParser
from repro.query.database import Database
from repro.query.parser import parse_query
from repro.service.service import QueryService, ServiceConfig
from repro.xmlmodel.parse import parse_document
from repro.xmlmodel.serialize import serialize

from .trace import Tracer

EMBEDDED_OPS = 8
ANALYZE_OPS = 5
SERVICE_OPS = 6
BUILD_OPS = 3
RECORD_SAMPLES = 2000
MATERIALIZE_SAMPLES = 500
STREAM_CHUNK_CHARS = 1 << 16


def embedded_op(db, text: str, tracer: Tracer):
    """One embedded query with a span per public stage."""
    with tracer.span("query.parse", "query"):
        parse_query(text)
    with tracer.span("query.prepare", "query"):
        prepared = db.prepare(text)
    with tracer.span("query.execute", "query"):
        result = db.execute(prepared, reset_statistics=False)
    with tracer.span("xmlmodel.serialize", "xmlmodel"):
        xml = result.to_xml()
    return result, xml


def common_probes(db, corpus, text: str, tracer: Tracer) -> dict[str, float]:
    """The probes every workload runs against its embedded database."""
    out: dict[str, float] = {}
    for index in range(EMBEDDED_OPS):
        with tracer.span("probe.embedded", "harness", request=f"embedded-{index}"):
            embedded_op(db, text, tracer)
    out.update(_analyze_probe(db, text))
    out.update(_storage_probe(db, tracer))
    out.update(_build_probe(corpus, tracer))
    _service_probe(db, text, tracer)
    return out


def _analyze_probe(db, text: str) -> dict[str, float]:
    """Operator split from the public EXPLAIN ANALYZE profile, and what
    asking for the profile costs."""
    prepared = db.prepare(text)
    plain, analyzed = [], []
    operators: dict[str, list[float]] = {"select": [], "groupby": [], "project_groups": []}
    for _ in range(ANALYZE_OPS):
        plain.append(db.execute(prepared, reset_statistics=False).elapsed_seconds)
        result = db.execute(prepared, analyze=True, reset_statistics=False)
        analyzed.append(result.elapsed_seconds)
        for op, series in operators.items():
            series.append(sum(node.self_seconds() for node in result.profile.find(op)))
    out = {
        f"query.op.{op}_ms": statistics.median(series) * 1000.0
        for op, series in operators.items()
    }
    out["observability.analyze_overhead_ratio"] = (
        statistics.median(analyzed) / statistics.median(plain)
    )
    return out


def _storage_probe(db, tracer: Tracer) -> dict[str, float]:
    store = db.store
    step = max(1, store.n_nodes() // RECORD_SAMPLES)
    nids = range(0, store.n_nodes(), step)
    with tracer.span("storage.record", "storage", request="storage") as records:
        for nid in nids:
            store.record(nid)
    titles = db.indexes.labels_for_tag("title")[:MATERIALIZE_SAMPLES]
    with tracer.span("storage.materialize", "storage", request="storage") as materialized:
        for label in titles:
            store.materialize(label.nid)
    return {
        "storage.record_us": records.ms * 1000.0 / len(nids),
        "storage.materialize_us_per_node": materialized.ms * 1000.0 / len(titles),
    }


def _build_probe(corpus, tracer: Tracer) -> dict[str, float]:
    """What set-up pays per document: XML parse, stream parse, index
    build and columnar build.  Runs on a scratch in-memory database so
    a directory-backed workload's index snapshot is left alone."""
    text = serialize(corpus, indent=None)
    parse_ms, stream_ms = [], []
    for index in range(BUILD_OPS):
        request = f"build-{index}"
        with tracer.span("xmlmodel.parse", "xmlmodel", request=request) as span:
            tree = parse_document(text)
        parse_ms.append(span.ms)
        parser = StreamParser()
        with tracer.span("ingest.stream_parse", "ingest", request=request) as span:
            for at in range(0, len(text), STREAM_CHUNK_CHARS):
                parser.feed(text[at:at + STREAM_CHUNK_CHARS])
            parser.close()
        stream_ms.append(span.ms)
        with Database() as scratch:
            knodes = scratch.load(tree=tree, name="bib.xml").nodes / 1000.0
            manager = IndexManager(scratch.store)
            with tracer.span("indexing.build", "indexing", request=request):
                manager.build()
            with tracer.span("indexing.columnar_build", "indexing", request=request):
                manager.ensure_columnar()
    return {
        "xmlmodel.parse_ms_per_knode": statistics.median(parse_ms) / knodes,
        "ingest.stream_parse_ms_per_knode": statistics.median(stream_ms) / knodes,
    }


def _service_probe(db, text: str, tracer: Tracer) -> None:
    """In-process QueryService round trips: uncached (cache disabled)
    and cached (default caches, after one filling query)."""
    with QueryService(db, ServiceConfig(workers=2, result_cache_entries=0)) as uncached:
        uncached.query(text)  # fills the plan cache
        for index in range(SERVICE_OPS):
            with tracer.span("service.query", "service", request=f"service-{index}"):
                uncached.query(text)
    with QueryService(db, ServiceConfig(workers=2)) as cached:
        cached.query(text)  # fills the result cache
        for index in range(SERVICE_OPS):
            with tracer.span("service.cache_hit", "service", request=f"cache-hit-{index}"):
                cached.query(text)
