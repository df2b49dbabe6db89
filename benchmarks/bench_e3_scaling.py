"""E3 — scaling sweep (extension; the paper reports one database size).

Benchmarks the GROUPBY plan and the hash-join direct baseline at three
database scales; the grouping advantage must persist (and the
nested-loop baseline's disadvantage grows quadratically — covered at
the default scale only, to keep runtimes sane).

The columnar sweep runs the match-stage comparison (columnar staircase
vs object walk) at every scale, recording both timings per scale; at
the largest scale the speedup must clear
:data:`COLUMNAR_SPEEDUP_FLOOR`, and the full E1 results of the two
strategies must be structurally identical (``xmlmodel.diff``).
"""

import pytest

from repro.bench.harness import build_database
from repro.bench.trajectory import record_run
from repro.datagen.dblp import DBLPConfig
from repro.datagen.sample import QUERY_1
from repro.pattern.matcher import StoreMatcher
from repro.xmlmodel.diff import diff_collections

from bench_a1_match_strategies import (
    COLUMNAR_SPEEDUP_FLOOR,
    binding_nids,
    expansion_pattern,
)
from conftest import BENCH_CONFIG, run_query, time_best

SCALES = (0.25, 0.5, 1.0)
LARGEST_SCALE = max(SCALES)


@pytest.fixture(scope="module")
def scaled_dbs():
    out = {}
    for scale in SCALES:
        config = BENCH_CONFIG.scaled(scale)
        out[scale] = build_database(config)[0]
    return out


@pytest.mark.parametrize("scale", SCALES)
def test_e3_groupby_scaling(benchmark, scaled_dbs, scale):
    db = scaled_dbs[scale]
    result = benchmark.pedantic(
        run_query, args=(db, QUERY_1, "groupby"), rounds=3, iterations=1
    )
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["value_lookups"] = result.statistics["value_lookups"]


@pytest.mark.parametrize("scale", SCALES)
def test_e3_direct_hash_scaling(benchmark, scaled_dbs, scale):
    db = scaled_dbs[scale]
    result = benchmark.pedantic(
        run_query, args=(db, QUERY_1, "naive-hash"), rounds=3, iterations=1
    )
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["value_lookups"] = result.statistics["value_lookups"]


# ----------------------------------------------------------------------
# Columnar hot path scaling
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scale", SCALES)
def test_e3_columnar_match_scaling(scaled_dbs, scale):
    """Match-stage columnar vs object walk, per scale; the largest
    scale must clear the ISSUE's speedup floor."""
    db = scaled_dbs[scale]
    table = db.indexes.ensure_columnar()
    columnar = StoreMatcher(db.store, db.indexes, columnar=table)
    object_walk = StoreMatcher(db.store, db.indexes)
    pattern = expansion_pattern()

    seconds_columnar, got = time_best(lambda: columnar.match(pattern), rounds=7)
    seconds_object, want = time_best(lambda: object_walk.match(pattern), rounds=7)
    assert binding_nids(got) == binding_nids(want)

    speedup = seconds_object / seconds_columnar
    record_run(
        "e3_match_stage_columnar",
        seconds_columnar,
        scale=scale,
        strategy="columnar",
        witnesses=len(got),
        speedup=round(speedup, 2),
    )
    record_run(
        "e3_match_stage_object_walk",
        seconds_object,
        scale=scale,
        strategy="object-walk",
        witnesses=len(want),
    )
    if scale == LARGEST_SCALE:
        assert speedup >= COLUMNAR_SPEEDUP_FLOOR, (
            f"columnar match stage only {speedup:.2f}x faster at scale {scale} "
            f"({seconds_columnar * 1000:.2f}ms vs {seconds_object * 1000:.2f}ms)"
        )


def test_e3_columnar_identity_at_largest_scale(scaled_dbs):
    """Full E1 results, columnar vs forced object walk, must be
    structurally identical at the largest scale."""
    fallback_db = build_database(
        BENCH_CONFIG.scaled(LARGEST_SCALE), columnar=False
    )[0]
    columnar = run_query(scaled_dbs[LARGEST_SCALE], QUERY_1, "groupby").collection
    fallback = run_query(fallback_db, QUERY_1, "groupby").collection
    assert diff_collections(columnar, fallback) is None
