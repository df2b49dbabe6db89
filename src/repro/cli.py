"""``timber-py`` — command-line front end to the reproduction.

Subcommands::

    timber-py generate --articles 800 --authors 160 out.xml
    timber-py load big.xml dbdir --batch-size 4096 --progress
    timber-py query db.xml --plan groupby --query-file q.xq --timeout 5
    timber-py explain db.xml --query-file q.xq
    timber-py serve db.xml --port 8491 --workers 8 --drain-seconds 5

Exit codes: 0 success, 1 failure (e.g. verify found damage), 2 query
deadline exceeded (``--timeout``), 3 a ``serve`` drain that had to
force-close in-flight work when its grace budget expired.

``serve`` runs in the foreground until SIGINT/SIGTERM, then drains
gracefully: it stops accepting, lets in-flight requests finish within
``--drain-seconds``, and closes lingering connections with ``BYE``.
"""

from __future__ import annotations

import argparse
import sys

from .datagen.dblp import DBLPConfig, generate_dblp
from .datagen.sample import QUERY_1
from .errors import QueryTimeoutError
from .query.database import PLAN_MODES, Database
from .xmlmodel.serialize import write_file


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--articles", type=int, default=800, help="number of articles")
    parser.add_argument("--authors", type=int, default=160, help="author pool size")
    parser.add_argument("--seed", type=int, default=7, help="generator seed")


def _config_from(args: argparse.Namespace) -> DBLPConfig:
    return DBLPConfig(n_articles=args.articles, n_authors=args.authors, seed=args.seed)


def _read_query(args: argparse.Namespace) -> str:
    if args.query_file:
        with open(args.query_file, encoding="utf-8") as handle:
            return handle.read()
    return QUERY_1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="timber-py",
        description="Reproduction of 'Grouping in XML' (EDBT 2002) — TIMBER/TAX grouping.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a synthetic DBLP document")
    _add_config_args(gen)
    gen.add_argument("output", help="output XML path")

    load = commands.add_parser(
        "load",
        help="stream an XML file into a database directory in journaled batches",
    )
    load.add_argument("input", help="XML file to ingest")
    load.add_argument("directory", help="database directory to create or extend")
    load.add_argument(
        "--name", help="document name in the catalog (default: input basename)"
    )
    load.add_argument(
        "--batch-size",
        type=int,
        metavar="NODES",
        help="approximate nodes per ingest batch (default 4096)",
    )
    load.add_argument(
        "--progress",
        action="store_true",
        help="print one line per committed batch",
    )

    query = commands.add_parser("query", help="run a query against an XML file")
    query.add_argument("database", help="XML file to load as bib.xml")
    query.add_argument("--plan", choices=PLAN_MODES, default="auto")
    query.add_argument("--query-file", help="file with the XQuery text (default: Query 1)")
    query.add_argument(
        "--analyze",
        action="store_true",
        help="print the executed plan with per-operator times and counters",
    )
    query.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="cancel the query after this many seconds (exit code 2)",
    )

    explain = commands.add_parser("explain", help="show naive + rewritten plans")
    explain.add_argument("database", help="XML file to load as bib.xml")
    explain.add_argument("--query-file", help="file with the XQuery text (default: Query 1)")

    info = commands.add_parser("info", help="database summary: documents, pages, tags")
    info.add_argument("database", help="XML file to load as bib.xml")

    verify = commands.add_parser(
        "verify", help="check a database directory: checksums, catalog, indexes"
    )
    verify.add_argument("directory", help="database directory (data.pages + meta.json)")

    repair = commands.add_parser(
        "repair",
        help="quarantine unreadable pages, drop the documents on them, rebuild indexes",
    )
    repair.add_argument("directory", help="database directory (data.pages + meta.json)")

    serve = commands.add_parser(
        "serve", help="run the concurrent query service over TCP"
    )
    serve.add_argument("database", help="XML file to load as bib.xml")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8491, help="0 picks a free port")
    serve.add_argument("--workers", type=int, default=4, help="query worker threads")
    serve.add_argument(
        "--queue-depth", type=int, default=32, help="admission queue bound"
    )
    serve.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="default per-query deadline (clients may override per query)",
    )
    serve.add_argument(
        "--plan-cache", type=int, default=128, help="plan cache entries (0 disables)"
    )
    serve.add_argument(
        "--result-cache",
        type=int,
        default=256,
        help="result cache entries (0 disables)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="disconnect a client that sends no complete request for this long",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=64,
        help="connection cap; above it new connections are shed with ERR",
    )
    serve.add_argument(
        "--drain-seconds",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="grace budget for in-flight requests on SIGINT/SIGTERM "
        "(exit 3 if work had to be force-closed)",
    )

    cluster = commands.add_parser(
        "cluster",
        help="demo the fault-tolerant sharded cluster (scatter-gather GROUPBY)",
    )
    _add_config_args(cluster)
    cluster.add_argument(
        "--shards", type=int, default=2, help="number of in-process shards"
    )
    cluster.add_argument(
        "--replication",
        type=int,
        default=1,
        help="copies of each slice (2+ enables hedged retries)",
    )
    cluster.add_argument(
        "--degrade",
        action="store_true",
        help="kill one shard mid-demo to show typed partial degradation",
    )
    cluster.add_argument(
        "--query-file", help="file with the XQuery text (default: Query 1)"
    )

    args = parser.parse_args(argv)

    if args.command == "verify":
        from .storage.store import NodeStore

        with NodeStore(args.directory) as store:
            report = store.verify()
            if store.directory is not None:
                from .indexing.persist import snapshot_is_fresh

                report.index_fresh = snapshot_is_fresh(store.meta, store.directory)
        print(report.render())
        return 0 if report.ok else 1

    if args.command == "repair":
        # Degraded open quarantines what verify would flag; the Database
        # layer then rebuilds + persists indexes over the survivors.
        db = Database(args.directory, degraded=True)
        try:
            report = db.store.verify()
            print(report.render())
            recovery = db.store.recovery
            print(
                f"quarantined {recovery.pages_quarantined} page(s), "
                f"dropped {recovery.documents_dropped} document(s); indexes rebuilt"
            )
        finally:
            db.close()
        return 0

    if args.command == "generate":
        tree = generate_dblp(_config_from(args))
        write_file(tree, args.output)
        print(f"wrote {tree.subtree_size()} nodes to {args.output}")
        return 0

    if args.command == "load":

        def _on_batch(event):
            print(
                f"batch {event.batch}: +{event.nodes_in_batch} nodes "
                f"({event.nodes_total} total, generation {event.generation})",
                file=sys.stderr,
            )

        db = Database(args.directory)
        try:
            report = db.load(
                path=args.input,
                name=args.name,
                batch_size=args.batch_size,
                on_batch=_on_batch if args.progress else None,
            )
            print(
                f"loaded {report.document}: {report.nodes} nodes in "
                f"{report.batches} batch(es), generation {report.generation}"
            )
        finally:
            db.close()
        return 0

    if args.command == "info":
        db = Database()
        db.load(path=args.database, name="bib.xml")
        summary = db.info()
        for document in summary["documents"]:
            print(f"document {document['name']}: {document['nodes']} nodes")
        print(f"total nodes: {summary['total_nodes']}")
        print(f"pages: {summary['pages']} (pool: {summary['buffer_frames']} frames)")
        print(f"value-index keys: {summary['value_index_keys']}")
        print("tags: " + ", ".join(f"{t}={n}" for t, n in sorted(summary["tags"].items())))
        return 0

    if args.command in ("query", "explain"):
        db = Database()
        db.load(path=args.database, name="bib.xml")
        text = _read_query(args)
        if args.command == "explain":
            print(db.explain(text).render())
            return 0
        try:
            result = db.query(
                text, plan=args.plan, analyze=args.analyze, timeout=args.timeout
            )
        except QueryTimeoutError as error:
            print(f"timber-py: query timed out: {error}", file=sys.stderr)
            return 2
        print(result.collection.sketch())
        if result.profile is not None:
            print(f"\n{result.profile.render()}", file=sys.stderr)
        print(
            f"\n[{result.plan_mode}] {len(result.collection)} results in "
            f"{result.elapsed_seconds:.4f}s; statistics: {result.statistics}",
            file=sys.stderr,
        )
        return 0

    if args.command == "serve":
        import signal
        import threading

        from .service import QueryService, ServiceConfig
        from .service.server import ServerConfig, serve as bind_server

        db = Database()
        db.load(path=args.database, name="bib.xml")
        service = QueryService(
            db,
            ServiceConfig(
                workers=args.workers,
                queue_depth=args.queue_depth,
                default_timeout=args.timeout,
                plan_cache_entries=args.plan_cache,
                result_cache_entries=args.result_cache,
            ),
        )
        server = bind_server(
            service,
            host=args.host,
            port=args.port,
            config=ServerConfig(
                idle_timeout=args.idle_timeout,
                max_connections=args.max_connections,
                drain_grace=args.drain_seconds,
            ),
        )
        host, port = server.endpoint
        print(
            f"timber-py service on {host}:{port} "
            f"({args.workers} workers, queue depth {args.queue_depth}, "
            f"max {args.max_connections} connections)",
            file=sys.stderr,
        )
        # Foreground mode: SIGINT/SIGTERM request a graceful drain
        # rather than killing mid-request.  The serve loop runs on a
        # helper thread so the main thread can wait for the signal and
        # then drive the drain.
        stop = threading.Event()

        def _request_drain(signum, frame):  # pragma: no cover - signal path
            stop.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(signum, _request_drain)
            except ValueError:
                pass  # not the main thread (embedded use); rely on stop.set()
        server.serve_background()
        try:
            stop.wait()
            print("timber-py service: draining...", file=sys.stderr)
            report = server.drain(args.drain_seconds)
            print(f"timber-py service: {report.render()}", file=sys.stderr)
        finally:
            server.server_close()
            service.close()
            db.close()
        return 0 if report.clean else 3

    return _run_cluster_demo(args)  # "cluster", the last subcommand


def _run_cluster_demo(args: argparse.Namespace) -> int:
    """``timber-py cluster``: bring up N in-process shards, partition a
    generated DBLP document across them, and show that the distributed
    GROUPBY answer is structurally identical to the single-node one —
    with an optional mid-demo shard kill to show typed degradation."""
    from .cluster import ClusterConfig, LocalCluster, LocalClusterConfig
    from .errors import PartialResultError
    from .xmlmodel.diff import diff_collections

    text = _read_query(args)
    tree = generate_dblp(_config_from(args))
    single = Database()
    single.load(tree=tree.deep_copy(), name="bib.xml")
    want = single.query(text).collection

    config = LocalClusterConfig(
        shards=args.shards,
        cluster=ClusterConfig(replication=args.replication),
        proxy_all=args.degrade,
    )
    with LocalCluster(config) as cluster:
        report = cluster.load(tree=tree, name="bib.xml")
        print(
            f"loaded {report.document}: {report.nodes} nodes in "
            f"{len(report.slices)} slice(s) across {args.shards} shard(s)"
        )
        result = cluster.query(text)
        verdict = diff_collections(want, result.collection)
        print(
            f"query: {len(result)} rows via {result.plan_kind} merge in "
            f"{result.elapsed_seconds:.4f}s; identical to single-node: "
            f"{'yes' if verdict is None else 'NO — ' + verdict}"
        )
        print()
        print(cluster.explain(text).render())
        health = cluster.health()
        print(f"health: {health.status}")
        if args.degrade:
            victim = cluster.shards[args.shards - 1]
            victim.proxy.close()
            print(f"\nkilled shard {victim.index}; retrying...")
            try:
                cluster.query(text)
            except PartialResultError as error:
                print(f"strict query -> {type(error).__name__}: {error}")
            partial = cluster.query(text, allow_partial=True)
            print(
                f"allow_partial=True -> {len(partial)} rows, missing "
                f"shards {sorted(partial.missing_shards)}"
            )
            print(f"health: {cluster.health().status}")
        snapshot = cluster.coordinator.counter_snapshot()
        active = {key: value for key, value in snapshot.items() if value}
        print(f"\ncluster counters: {active}")
        return 0 if verdict is None else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
