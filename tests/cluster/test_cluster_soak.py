"""The cluster soak: a concurrent scatter-gather workload with one
shard killed mid-storm, then healed.

Seed-driven (``REPRO_CLUSTER_SEED``, default 11) so CI can run a seed
matrix.  Acceptance, per the robustness issue: the storm may only
surface *typed* errors (:class:`~repro.errors.ClusterError` family or
:class:`~repro.errors.ClientError`), HEALTH must report ``degraded``
while the shard is dark and return to ``ok`` after heal +
re-admission, no shard's handler thread may crash, and no shard may
leak sessions or buffer pins.
"""

from __future__ import annotations

import os
import threading
import time

from repro.cluster import ClusterConfig, LocalCluster, LocalClusterConfig
from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1, QUERY_2
from repro.errors import ClientError, ClusterError
from repro.query.database import Database
from repro.service.chaos import NetFaultPlan
from repro.service.client import RetryPolicy
from repro.xmlmodel.diff import assert_collections_equal

SOAK_SEED = int(os.environ.get("REPRO_CLUSTER_SEED", "11"))
THREADS = 3
REQUESTS_PER_THREAD = 30
VICTIM = 1  # the shard the storm kills

#: Light ambient chaos on the victim before the kill: the storm is the
#: seeded part; the kill itself is deterministic (latched mid-run).
PRELUDE = NetFaultPlan(seed=SOAK_SEED, delay_rate=0.2, delay_seconds=0.002)


def _wait_until(predicate, timeout: float = 15.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


def _workload(cluster, index: int, outcomes: list, untyped: list, stop_kill):
    for step in range(REQUESTS_PER_THREAD):
        query = QUERY_1 if (index + step) % 2 == 0 else QUERY_2
        try:
            result = cluster.query(query, allow_partial=True)
        except (ClusterError, ClientError) as error:
            outcomes.append(error)  # typed: acceptable mid-storm
        except Exception as error:  # noqa: BLE001 - the soak's whole point
            untyped.append((index, step, error))
            return
        else:
            outcomes.append(result)
        if index == 0 and step == REQUESTS_PER_THREAD // 3:
            stop_kill()  # kill the victim a third of the way in


def test_cluster_soak_kill_one_shard_mid_storm():
    corpus = generate_dblp(DBLPConfig(n_articles=36, n_authors=12, seed=5))
    single = Database()
    single.load(tree=corpus.deep_copy(), name="bib.xml")
    want = single.query(QUERY_1).collection

    config = LocalClusterConfig(
        shards=3,
        cluster=ClusterConfig(
            query_timeout=10.0,
            quarantine_threshold=2,
            probe_interval=0.05,
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.01, max_delay=0.05,
                jitter_seed=SOAK_SEED,
            ),
            connect_timeout=1.0,
        ),
        chaos={VICTIM: PRELUDE},
        proxy_all=True,
    )
    with LocalCluster(config) as cluster:
        cluster.load(tree=corpus.deep_copy(), name="bib.xml")
        assert_collections_equal(want, cluster.query(QUERY_1).collection)

        victim = cluster.shards[VICTIM]
        killed = threading.Event()

        def kill_victim():
            if not killed.is_set():
                killed.set()
                victim.proxy.set_plan(NetFaultPlan(kill_after=0, seed=SOAK_SEED))

        outcomes: list = []
        untyped: list = []
        threads = [
            threading.Thread(
                target=_workload,
                args=(cluster, i, outcomes, untyped, kill_victim),
            )
            for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
        assert not any(t.is_alive() for t in threads), "workload thread hung"
        assert killed.is_set()

        # Typed errors only; the cluster kept answering around the hole.
        assert not untyped, f"untyped exceptions escaped: {untyped!r}"
        assert len(outcomes) == THREADS * REQUESTS_PER_THREAD
        results = [o for o in outcomes if not isinstance(o, Exception)]
        assert results, "the storm drowned every request"
        degraded = [r for r in results if r.partial]
        assert degraded, "the kill never degraded a single query"
        assert all(
            r.missing_shards == frozenset({VICTIM}) for r in degraded
        )

        _wait_until(lambda: cluster.health().status == "degraded")

        # Heal: the latch releases, the next probe re-admits, and the
        # merged answer is whole (and still identical) again.
        victim.proxy.heal()

        def recovered():
            try:
                return not cluster.query(QUERY_1).partial
            except (ClusterError, ClientError):
                return False

        _wait_until(recovered)
        assert_collections_equal(want, cluster.query(QUERY_1).collection)
        _wait_until(lambda: cluster.health().status == "ok")
        counters = cluster.coordinator.counter_snapshot()
        assert counters["cluster_quarantines"] >= 1
        assert counters["cluster_readmissions"] >= 1

        # Every pooled connection relays both ways after the heal: an
        # idle proxied pipe whose reply direction had died used to
        # swallow the PONG until the read timeout forced a reconnect.
        for pool in cluster.coordinator._clients:
            idle = [pool.acquire() for _ in range(pool.pooled)]
            for client in idle:
                started = time.monotonic()
                client.ping()
                assert time.monotonic() - started < 1.0, f"shard {pool.shard}"
                pool.release(client)

        # ---- per-shard post-storm invariants --------------------------
        started = time.monotonic()
        cluster.coordinator.close()
        assert time.monotonic() - started < 5.0, "closing the pools stalled"
        for stack in cluster.shards:
            assert stack.server.stats()["server_handler_crashes"] == 0, (
                f"shard {stack.index}: a handler thread died"
            )
            _wait_until(lambda s=stack: len(s.service.sessions) == 0)
            assert stack.db.store.pool.pinned_count() == 0
            assert stack.db.store.verify().ok
