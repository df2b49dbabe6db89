"""A2 — ablation: grouping implementations (Sec. 5.3).

* ``sort`` — the paper's: identifier-only witnesses, populate only the
  grouping-basis values, sort on them;
* ``hash`` — identifier-only hash grouping;
* ``replicate`` — the strawman the paper argues against: "replicate
  elements an appropriate number of times ... the difficulty with this
  approach is that large amounts of data may be replicated early";
* ``value-index`` — the footnote-8 alternative: distinct values come off
  the value index (no value lookups at all), but the index "only
  return[s] the identifier of the node with the value in question" so
  every posting pays a parent-chain navigation to the grouped node.

The COUNT query makes the difference stark: sort/hash never materialize
a source tree; replicate materializes one replica per witness.
"""

import pytest

from repro.bench.harness import build_database
from repro.datagen.sample import QUERY_COUNT

from conftest import BENCH_CONFIG, run_query

STRATEGIES = ("sort", "hash", "replicate", "value-index")


@pytest.fixture(scope="module")
def strategy_dbs():
    return {
        strategy: build_database(BENCH_CONFIG, grouping_strategy=strategy)[0]
        for strategy in STRATEGIES
    }


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a2_grouping_strategy(benchmark, strategy_dbs, strategy):
    db = strategy_dbs[strategy]
    result = benchmark.pedantic(
        run_query, args=(db, QUERY_COUNT, "groupby"), rounds=3, iterations=1
    )
    benchmark.extra_info["nodes_materialized"] = result.statistics["nodes_materialized"]
    benchmark.extra_info["record_lookups"] = result.statistics["record_lookups"]


def test_a2_replication_materializes_eagerly(strategy_dbs):
    lean_result = run_query(strategy_dbs["sort"], QUERY_COUNT, "groupby")
    lean = lean_result.statistics
    eager = run_query(strategy_dbs["replicate"], QUERY_COUNT, "groupby").statistics
    # Sort grouping materializes only the ``{$g}`` rep per emitted group
    # — never a member source tree; replication pays a full replica per
    # witness before grouping even starts.
    assert lean["nodes_materialized"] <= len(lean_result.collection)
    assert eager["nodes_materialized"] > lean["nodes_materialized"]
