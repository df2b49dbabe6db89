"""The plan-agreement claim of E1 and the ablations A1 and A2.

Each runs the paper's queries on a small synthetic DBLP database
(60 articles, 25 authors, seed 7) through :class:`Database` and checks
the store's lookup counters, which repeat exactly, with no timing
floor:

* E1: the direct baselines and the GROUPBY plan return the same answer;
* A1 (Sec. 5.2): index-assisted matching returns what a full scan does
  and reads fewer records;
* A2 (Sec. 5.3): replicating each member per group reads more records
  than grouping identifiers by sort;
* footnote 8: grouping off the value index avoids value lookups but
  walks parent records for every posting.
"""

from __future__ import annotations

from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1, QUERY_COUNT
from repro.query.database import Database

TINY = DBLPConfig(n_articles=60, n_authors=25, seed=7)


def _database(**options) -> Database:
    db = Database(**options)
    db.load(tree=generate_dblp(TINY), name="bib.xml")
    return db


def _grouped_count(grouping_strategy: str):
    return _database(grouping_strategy=grouping_strategy).query(
        QUERY_COUNT, plan="groupby"
    )


def test_e1_plans_return_the_same_answer():
    db = _database()
    answers = {
        plan: db.query(QUERY_1, plan=plan).to_xml()
        for plan in ("naive", "naive-hash", "groupby")
    }
    assert answers["naive"]
    assert len(set(answers.values())) == 1


def test_index_matching_reads_fewer_records_than_full_scan():
    indexed = _database(use_indexes=True).query(QUERY_1, plan="groupby")
    scanned = _database(use_indexes=False).query(QUERY_1, plan="groupby")
    assert indexed.to_xml() == scanned.to_xml()
    assert indexed.statistics["record_lookups"] < scanned.statistics["record_lookups"]


def test_replication_reads_more_records_than_identifier_sort():
    runs = {
        strategy: _grouped_count(strategy)
        for strategy in ("sort", "hash", "replicate", "value-index")
    }
    assert len({run.to_xml() for run in runs.values()}) == 1
    assert (
        runs["sort"].statistics["record_lookups"]
        < runs["replicate"].statistics["record_lookups"]
    )


def test_value_index_trades_value_lookups_for_record_lookups():
    sort = _grouped_count("sort")
    value_index = _grouped_count("value-index")
    assert len(value_index) == len(sort)
    assert value_index.statistics["value_lookups"] < sort.statistics["value_lookups"]
    assert value_index.statistics["record_lookups"] > sort.statistics["record_lookups"]
