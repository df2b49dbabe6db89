"""E4 — query variants beyond the paper's two measurements (extensions).

* the **institution** grouping of Sec. 1 (multi-step condition path
  ``article/author/institution``), and
* Query 1 with a user-requested **ordering list** (SORTBY — Fig. 3's
  descending-title groups at query level),

each under the amortized direct baseline and the GROUPBY plan.
"""

import pytest

from repro.bench.harness import build_database
from repro.datagen.dblp import DBLPConfig

from conftest import BENCH_CONFIG, run_query

INSTITUTION_QUERY = """
FOR $i IN distinct-values(document("bib.xml")//institution)
RETURN
<instpubs>
{$i}
{
FOR $b IN document("bib.xml")//article
WHERE $i = $b/author/institution
RETURN $b/title
}
</instpubs>
"""

SORTED_QUERY = """
FOR $a IN distinct-values(document("bib.xml")//author)
RETURN
<authorpubs>
{$a}
{
FOR $b IN document("bib.xml")//article
WHERE $a = $b/author
RETURN $b/title SORTBY(. DESCENDING)
}
</authorpubs>
"""


@pytest.fixture(scope="module")
def inst_db():
    config = DBLPConfig(
        n_articles=BENCH_CONFIG.n_articles,
        n_authors=BENCH_CONFIG.n_authors,
        seed=BENCH_CONFIG.seed,
        with_institutions=True,
    )
    db, _ = build_database(config)
    return db


def test_e4_institution_direct_hash(benchmark, inst_db):
    result = benchmark.pedantic(
        run_query, args=(inst_db, INSTITUTION_QUERY, "naive-hash"), rounds=3, iterations=1
    )
    benchmark.extra_info["value_lookups"] = result.statistics["value_lookups"]


def test_e4_institution_groupby(benchmark, inst_db):
    result = benchmark.pedantic(
        run_query, args=(inst_db, INSTITUTION_QUERY, "groupby"), rounds=3, iterations=1
    )
    benchmark.extra_info["value_lookups"] = result.statistics["value_lookups"]


def test_e4_sorted_direct_hash(benchmark, bench_db):
    db, _ = bench_db
    result = benchmark.pedantic(
        run_query, args=(db, SORTED_QUERY, "naive-hash"), rounds=3, iterations=1
    )
    benchmark.extra_info["value_lookups"] = result.statistics["value_lookups"]


def test_e4_sorted_groupby(benchmark, bench_db):
    db, _ = bench_db
    result = benchmark.pedantic(
        run_query, args=(db, SORTED_QUERY, "groupby"), rounds=3, iterations=1
    )
    benchmark.extra_info["value_lookups"] = result.statistics["value_lookups"]


def test_e4_results_agree(inst_db, bench_db):
    db, _ = bench_db
    for database, query in ((inst_db, INSTITUTION_QUERY), (db, SORTED_QUERY)):
        grouped = run_query(database, query, "groupby").collection
        direct = run_query(database, query, "naive-hash").collection
        assert grouped.structurally_equal(direct)


# ----------------------------------------------------------------------
# 3-level nesting: join-graph isolation collapse
# ----------------------------------------------------------------------
NESTED_3LEVEL_QUERY = """
FOR $i IN distinct-values(document("bib.xml")//institution)
RETURN
<instpubs>
{$i}
{
FOR $a IN distinct-values(document("bib.xml")//author)
WHERE $i = $a/institution
RETURN
<authorpubs>
{$a}
{
FOR $b IN document("bib.xml")//article
WHERE $a = $b/author
RETURN $b/title
}
</authorpubs>
}
</instpubs>
"""


def test_e4_nested_collapse_explain(inst_db):
    """EXPLAIN on the 3-level variant: no naive join plan exists, and
    join-graph isolation collapses the nesting into one grouping plan."""
    explanation = inst_db.explain(NESTED_3LEVEL_QUERY)
    assert "no single naive join plan" in explanation
    plans = explanation.to_dict()["plans"]
    assert plans["naive"] is None
    assert plans["groupby"]["op"] == "nested_groups"


def test_e4_nested_direct(benchmark, inst_db):
    result = benchmark.pedantic(
        run_query, args=(inst_db, NESTED_3LEVEL_QUERY, "direct"), rounds=3, iterations=1
    )
    benchmark.extra_info["results"] = len(result.collection)


def test_e4_nested_collapsed_auto(benchmark, inst_db):
    result = benchmark.pedantic(
        run_query, args=(inst_db, NESTED_3LEVEL_QUERY, "auto"), rounds=3, iterations=1
    )
    assert result.plan_mode == "groupby"  # collapsed, not direct fallback
    benchmark.extra_info["results"] = len(result.collection)


def test_e4_nested_results_agree(inst_db):
    collapsed = run_query(inst_db, NESTED_3LEVEL_QUERY, "auto").collection
    direct = run_query(inst_db, NESTED_3LEVEL_QUERY, "direct").collection
    assert collapsed.structurally_equal(direct)
