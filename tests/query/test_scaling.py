"""E3: the grouping advantage holds as the database grows.

The paper measures one database size.  Here Query 1 (titles by author)
and the count-by-author query run at 200, 400 and 800 articles under
the GROUPBY plan and the hash-join direct baseline.  The store's lookup
counters repeat exactly, so the claims are checked on them, with no
timing floor:

* each plan's record and value lookups per article stay flat (within
  5 % of the plan's mean across the scales): both plans scale linearly;
* at every scale GROUPBY does at least 10x fewer record lookups than
  the baseline (about 3 against 40 per article on Query 1);
* the count query widens that gap (Sec. 6: 1.8x on titles, over 6x on
  counts), and its paper ratio, 6.75x, falls between the two readings
  of the paper's "direct" plan in value lookups.
"""

from __future__ import annotations

import pytest

from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1, QUERY_COUNT
from repro.query.database import Database

ARTICLES = (200, 400, 800)
PLANS = ("groupby", "naive-hash")
COUNTERS = ("record_lookups", "value_lookups")


@pytest.fixture(scope="module")
def per_article():
    """``{(query id, plan, counter): [count per article at each scale]}``."""
    series: dict[tuple[str, str, str], list[float]] = {}
    for articles in ARTICLES:
        config = DBLPConfig(n_articles=800, n_authors=160, seed=7).scaled(articles / 800)
        db = Database()
        db.load(tree=generate_dblp(config), name="bib.xml")
        for query_id, query in (("e1", QUERY_1), ("e2", QUERY_COUNT)):
            for plan in PLANS:
                statistics = db.query(query, plan=plan).statistics
                for counter in COUNTERS:
                    series.setdefault((query_id, plan, counter), []).append(
                        statistics[counter] / articles
                    )
    return series


@pytest.mark.parametrize("counter", COUNTERS)
@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("query_id", ["e1", "e2"])
def test_lookups_per_article_stay_flat(per_article, query_id, plan, counter):
    values = per_article[(query_id, plan, counter)]
    mean = sum(values) / len(values)
    assert all(abs(value / mean - 1) <= 0.05 for value in values), values


@pytest.mark.parametrize("query_id", ["e1", "e2"])
def test_groupby_does_ten_times_fewer_record_lookups(per_article, query_id):
    grouped = per_article[(query_id, "groupby", "record_lookups")]
    baseline = per_article[(query_id, "naive-hash", "record_lookups")]
    for ours, theirs in zip(grouped, baseline):
        assert theirs >= 10 * ours, (ours, theirs)


def test_count_query_widens_the_gap(per_article):
    def gap(query_id, scale):
        baseline = per_article[(query_id, "naive-hash", "record_lookups")][scale]
        return baseline / per_article[(query_id, "groupby", "record_lookups")][scale]

    for scale in range(len(ARTICLES)):
        assert gap("e2", scale) > gap("e1", scale)


def test_papers_count_ratio_falls_between_the_baselines():
    db = Database()
    db.load(tree=generate_dblp(DBLPConfig(n_articles=200, n_authors=40, seed=7)), name="bib.xml")
    lookups = {
        plan: db.query(QUERY_COUNT, plan=plan).statistics["value_lookups"]
        for plan in ("naive", "naive-hash", "groupby")
    }
    paper = 155.564 / 23.033
    assert lookups["naive-hash"] / lookups["groupby"] < paper
    assert paper < lookups["naive"] / lookups["groupby"]
