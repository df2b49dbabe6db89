"""Grouped numeric aggregates through the rewrite (extension of the
Sec. 4.3 story: "grouping ... followed by aggregation, as is frequently
the case")."""

import pytest

from repro.query.database import Database
from repro.xmlmodel.diff import assert_collections_equal

ENGINES = ("naive", "naive-hash", "groupby", "logical-naive", "logical-groupby")


@pytest.fixture
def years_db():
    db = Database()
    db.load(text=
        """
        <doc_root>
          <article><title>T1</title><year>1999</year><author>A</author></article>
          <article><title>T2</title><year>2001</year><author>A</author><author>B</author></article>
          <article><year>1995</year><author>B</author></article>
        </doc_root>
        """, name="bib.xml",
    )
    return db


def grouped_query(agg: str) -> str:
    return f"""
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <o>{{$a}}{{{agg}(
        FOR $b IN document("bib.xml")//article
        WHERE $a = $b/author
        RETURN $b/year)}}</o>
    """


def results_of(db, query, plan):
    collection = db.query(query, plan=plan).collection
    return {t.root.children[0].content: t.root.content for t in collection}


class TestAggregateModes:
    @pytest.mark.parametrize(
        "agg,expected",
        [
            ("count", {"A": "2", "B": "2"}),
            ("sum", {"A": "4000", "B": "3996"}),
            ("min", {"A": "1999", "B": "1995"}),
            ("max", {"A": "2001", "B": "2001"}),
            ("avg", {"A": "2000", "B": "1998"}),
        ],
    )
    def test_values_per_engine(self, years_db, agg, expected):
        query = grouped_query(agg)
        reference = years_db.query(query, plan="direct").collection
        assert results_of(years_db, query, "direct") == expected
        for engine in ENGINES:
            assert_collections_equal(
                years_db.query(query, plan=engine).collection, reference
            )

    def test_auto_mode_uses_groupby(self, years_db):
        result = years_db.query(grouped_query("max"), plan="auto")
        assert result.plan_mode == "groupby"

    def test_rewritten_plan_mode(self, years_db):
        _, grouped = years_db.plans_for(grouped_query("sum"))
        [leaf] = grouped.params["template"].member_leaves()
        assert (leaf.kind, leaf.path) == ("sum", ("year",))


class TestCountSemantics:
    def test_count_counts_path_targets_not_members(self, years_db):
        """Author B wrote two articles, but one lacks a title: count($t)
        over titles must be 1 (regression for the member-count bug)."""
        query = """
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <o>{$a} {count($t)}</o>
        """
        expected = {"A": "2", "B": "1"}
        assert results_of(years_db, query, "direct") == expected
        for engine in ENGINES:
            assert results_of(years_db, query, engine) == expected

    def test_count_stays_identifier_only(self, years_db):
        """The path-target count uses structural joins over labels: no
        member subtree is ever materialized; only the two (leaf) group
        nodes are built for output."""
        query = grouped_query("count")
        years_db.store.reset_stats()
        result = years_db.query(query, plan="groupby", reset_statistics=False)
        stats = years_db.store.stats()
        assert stats["nodes_materialized"] == len(result.collection)
        # Basis (3 author occurrences) + group-node contents only.
        assert stats["value_lookups"] <= 6

    def test_aggregate_fetches_only_reached_values(self, years_db):
        query = grouped_query("sum")
        years_db.store.reset_stats()
        result = years_db.query(query, plan="groupby", reset_statistics=False)
        stats = years_db.store.stats()
        # No member subtrees: just one leaf group node per group.
        assert stats["nodes_materialized"] == len(result.collection)


class TestEmptyAggregates:
    @pytest.fixture
    def sparse_db(self):
        db = Database()
        db.load(text=
            """
            <doc_root>
              <article><title>T1</title><author>A</author></article>
            </doc_root>
            """, name="bib.xml",
        )
        return db

    def test_sum_of_nothing_is_zero(self, sparse_db):
        query = grouped_query("sum")
        assert results_of(sparse_db, query, "direct") == {"A": "0"}
        for engine in ENGINES:
            assert results_of(sparse_db, query, engine) == {"A": "0"}

    def test_min_of_nothing_is_empty(self, sparse_db):
        query = grouped_query("min")
        assert results_of(sparse_db, query, "direct") == {"A": None}
        for engine in ENGINES:
            assert results_of(sparse_db, query, engine) == {"A": None}
