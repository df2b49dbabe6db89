"""AUTO is the paper's Sec. 4 rule, not a cost model.

A query the recognizer accepts (Phase 1) is rewritten into GROUPBY
(Phase 2); a 3-level nested FLWR collapses into one grouping plan by
join-graph isolation; anything else runs on the direct interpreter,
and EXPLAIN says why.
"""

from __future__ import annotations

import pytest

from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1, QUERY_COUNT, figure6_database
from repro.query.database import Database, PlanMode
from repro.xmlmodel.diff import diff_collections
from repro.xmlmodel.serialize import serialize

E4_NESTED = """
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


def _fig6_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.load(tree=figure6_database(), name="bib.xml")
    return db


def _rendered(result) -> list[str]:
    return [serialize(t.root) for t in result.collection]


class TestPlanRule:
    @pytest.mark.parametrize("query", [QUERY_1, QUERY_COUNT], ids=["e1", "e2"])
    def test_auto_resolves_to_groupby(self, query):
        db = _fig6_db()
        prepared = db.prepare(query)
        assert prepared.resolved is PlanMode.GROUPBY
        assert prepared.join_strategy == "nested-loop"
        assert prepared.plan is not None and prepared.plan.find("groupby")
        assert _rendered(db.execute(prepared)) == _rendered(
            db.query(query, plan="direct")
        )

    def test_e4_collapses_to_single_block_grouping(self):
        db = _fig6_db()
        prepared = db.prepare(E4_NESTED)
        assert prepared.resolved is PlanMode.GROUPBY
        assert prepared.plan is not None and prepared.plan.find("nested_groups")
        auto = db.query(E4_NESTED)
        direct = db.query(E4_NESTED, plan="direct")
        assert auto.plan_mode == "groupby"
        assert _rendered(auto) == _rendered(direct)

    def test_e4_collapse_does_ten_times_fewer_record_lookups(self):
        """The collapsed plan reads the data once per block; the direct
        interpreter re-evaluates the inner FLWRs per outer binding.  At
        100 articles that is 827 record lookups against 42 279."""
        config = DBLPConfig(n_articles=100, n_authors=20, seed=7, with_institutions=True)
        db = Database()
        db.load(tree=generate_dblp(config), name="bib.xml")
        auto = db.query(E4_NESTED)
        direct = db.query(E4_NESTED, plan="direct")
        assert auto.plan_mode == "groupby"
        assert diff_collections(direct.collection, auto.collection) is None
        assert 10 * auto.statistics["record_lookups"] <= direct.statistics["record_lookups"]
        # EXPLAIN: no single naive join plan exists; the collapse is one
        # grouping plan.
        explanation = db.explain(E4_NESTED)
        assert "no single naive join plan" in explanation.render()
        plans = explanation.to_dict()["plans"]
        assert plans["naive"] is None
        assert plans["groupby"]["op"] == "nested_groups"

    def test_outside_grouping_family_resolves_to_direct(self):
        db = _fig6_db()
        text = 'FOR $t IN document("bib.xml")//title RETURN $t'
        prepared = db.prepare(text)
        assert prepared.resolved is PlanMode.DIRECT
        assert prepared.plan is None
        explanation = db.explain(text)
        assert "plan: direct" in explanation.render()
        payload = explanation.to_dict()
        assert payload["plan"] == "direct"
        assert payload["reason"] and payload["reason"] in explanation.render()

    def test_grouping_strategy_is_honoured(self):
        db = _fig6_db(grouping_strategy="hash")
        assert db.grouping_strategy == "hash"
        assert db.prepare(QUERY_1).resolved is PlanMode.GROUPBY
        assert _rendered(db.query(QUERY_1)) == _rendered(_fig6_db().query(QUERY_1))

    def test_explain_reports_groupby_for_the_cluster_shard_query(self):
        """The coordinator's ``<zrow>`` partial of QUERY_1 is a grouping
        template like any other, and answered by ``groupby``."""
        from repro.cluster.merge import compile_merge
        from repro.query.parser import parse_query

        db = _fig6_db()
        shard_query = compile_merge(parse_query(QUERY_1)).shard_query
        assert db.query(shard_query).plan_mode == "groupby"
        payload = db.explain(shard_query).to_dict()
        assert "plan" not in payload  # not the direct fallback
        assert "groupby" in _ops(payload["plans"]["groupby"])


def _ops(node: dict) -> set[str]:
    """Every operator name in a ``PlanNode.to_dict()`` tree."""
    ops = {node["op"]}
    for child in node["inputs"]:
        ops |= _ops(child)
    return ops
