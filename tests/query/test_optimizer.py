"""The cost-based optimizer: plan choice, EXPLAIN's cost model section,
estimate-vs-actual accuracy on E1–E4, and the feedback loop's re-cost.

The accuracy contract: per-operator cardinality estimates stay within
``DIVERGENCE_RATIO`` (4x) of the observed cardinalities on the paper's
workload queries — the same bound the feedback loop uses to flag a plan,
so a regression here is exactly what would start flapping plans in
production.
"""

from __future__ import annotations

import pytest

from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1, QUERY_COUNT, figure6_database
from repro.query.database import Database, PlanMode
from repro.query.optimizer import (
    DIVERGENCE_RATIO,
    OperatorForecast,
    optimizer_statistics,
)
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


def _dblp_db(**kwargs) -> Database:
    db = Database(**kwargs)
    config = DBLPConfig(n_articles=80, n_authors=12, seed=7, with_institutions=True)
    db.load(tree=generate_dblp(config), name="bib.xml")
    return db


def _inst_db(**kwargs) -> Database:
    """A small document carrying institutions, so E4's outer distinct is
    non-degenerate at fixture scale (fig6 has no institution elements)."""
    db = Database(**kwargs)
    db.load(
        text="""
        <doc_root>
          <article><title>T1</title>
            <author>Jack<institution>UM</institution></author>
            <author>Jill<institution>UBC</institution></author></article>
          <article><title>T2</title>
            <author>Jack<institution>UM</institution></author></article>
          <article><title>T3</title>
            <author>Ann<institution>UM</institution></author></article>
        </doc_root>
        """,
        name="bib.xml",
    )
    return db


def _rendered(result) -> list[str]:
    return [serialize(t.root) for t in result.collection]


class TestCostModelExplain:
    def test_e1_explain_shows_cost_model(self):
        db = _fig6_db()
        explanation = db.explain(QUERY_1)
        assert "=== cost model ===" in explanation
        cost = explanation.to_dict()["cost_model"]
        assert cost["enabled"] and cost["costed"]
        assert cost["chosen"]["name"] == "groupby"
        assert cost["stats_version"] == db.statistics_version
        # At least one rejected alternative with its cost.
        rejected = [
            c for c in cost["candidates"] if c["name"] != cost["chosen"]["name"]
        ]
        assert rejected and all(c["cost"] > 0 for c in rejected)
        assert "rejected:" in explanation

    def test_e4_explain_shows_collapse_choice(self):
        db = _fig6_db()
        explanation = db.explain(E4_NESTED)
        cost = explanation.to_dict()["cost_model"]
        assert cost["kind"] == "nested-grouping"
        assert cost["chosen"]["name"] == "isolated-groupby"
        names = {c["name"] for c in cost["candidates"]}
        assert "direct-nested-loop" in names  # the rejected alternative

    def test_operator_forecasts_present(self):
        db = _fig6_db()
        cost = db.explain(QUERY_1).to_dict()["cost_model"]
        assert cost["forecasts"]
        assert all(f["est_rows"] >= 0 for f in cost["forecasts"])

    def test_match_and_grouping_alternatives_costed(self):
        db = _fig6_db()
        cost = db.explain(QUERY_1).to_dict()["cost_model"]
        assert dict(cost["match_candidates"]).keys() == {"columnar", "object-walk"}
        grouping = dict(cost["grouping_candidates"])
        assert {"sort", "hash"} <= grouping.keys()

    def test_optimizer_off_reports_heuristic(self):
        db = _fig6_db(optimizer=False)
        explanation = db.explain(QUERY_1)
        cost = explanation.to_dict()["cost_model"]
        assert cost["enabled"] is False
        assert "optimizer off" in explanation

    def test_uncosted_outside_grouping_family(self):
        # Outside the grouping family EXPLAIN reports what AUTO does:
        # the direct interpreter, uncosted, with the translator's reason.
        db = _fig6_db()
        text = 'FOR $t IN document("bib.xml")//title RETURN $t'
        explanation = db.explain(text)
        assert "plan: direct" in explanation.render()
        payload = explanation.to_dict()
        assert payload["plan"] == "direct"
        assert payload["reason"] and payload["reason"] in explanation.render()
        prepared = db.prepare(text)
        assert prepared.resolved is PlanMode.DIRECT
        assert prepared.decision is None

    def test_explain_reports_groupby_for_the_cluster_shard_query(self):
        """The coordinator's ``<zrow>`` partial of QUERY_1 is a grouping
        template like any other: costed, and answered by ``groupby``."""
        from repro.cluster.merge import compile_merge
        from repro.query.parser import parse_query

        db = _fig6_db()
        shard_query = compile_merge(parse_query(QUERY_1)).shard_query
        assert db.query(shard_query).plan_mode == "groupby"
        for verbose in (False, True):
            payload = db.explain(shard_query, verbose=verbose).to_dict()
            assert payload["cost_model"]["chosen"]["name"] == "groupby"
            assert "plan" not in payload


class TestPlanChoice:
    def test_e1_auto_resolves_to_groupby(self):
        prepared = _fig6_db().prepare(QUERY_1)
        assert prepared.resolved is PlanMode.GROUPBY
        assert prepared.decision is not None
        assert prepared.decision.chosen.cost <= min(
            c.cost for c in prepared.decision.candidates
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

    def test_optimizer_matches_heuristic_results(self):
        for query in (QUERY_1, QUERY_COUNT, E4_NESTED):
            on = _fig6_db().query(query)
            off = _fig6_db(optimizer=False).query(query)
            assert _rendered(on) == _rendered(off), query

    def test_forced_grouping_strategy_never_overridden(self):
        db = _fig6_db(grouping_strategy="hash")
        prepared = db.prepare(QUERY_1)
        assert prepared.decision.grouping_strategy == "hash"
        # The candidates are still costed and surfaced for EXPLAIN.
        assert prepared.decision.grouping_candidates
        result = db.query(QUERY_1)
        assert _rendered(result) == _rendered(_fig6_db().query(QUERY_1))


class TestEstimateAccuracy:
    """E1–E4 estimates stay within the documented 4x divergence bound."""

    @pytest.mark.parametrize(
        "query", [QUERY_1, QUERY_COUNT, E4_NESTED], ids=["e1", "e2", "e4"]
    )
    @pytest.mark.parametrize("scale", ["small", "dblp"], ids=["small", "e3-scale"])
    def test_estimates_within_ratio(self, query, scale):
        if scale == "dblp":
            db = _dblp_db()
        elif query == E4_NESTED:
            db = _inst_db()  # fig6 has no institutions — E4 degenerates
        else:
            db = _fig6_db()
        prepared = db.prepare(query)
        db.execute(prepared)
        actuals = db.feedback_actuals(query)
        assert actuals, "execution recorded no per-operator cardinalities"
        checked = 0
        for forecast in prepared.decision.forecasts:
            actual = actuals.get((forecast.op, forecast.detail))
            if actual is None:
                continue
            checked += 1
            estimated = max(forecast.est_rows, 1.0)
            observed = max(float(actual), 1.0)
            ratio = max(estimated, observed) / min(estimated, observed)
            assert ratio <= DIVERGENCE_RATIO, (
                f"{forecast.op} {forecast.detail}: est {forecast.est_rows} "
                f"vs actual {actual} ({ratio:.1f}x)"
            )
        assert checked > 0
        # Within the bound, the feedback loop never flags the plan.
        assert db.consume_feedback_flag(query) is False


class TestFeedbackLoop:
    def test_misestimate_flags_and_recosts(self):
        db = _fig6_db()
        prepared = db.prepare(QUERY_1)
        assert prepared.decision.recosted is False
        db.execute(prepared)
        actuals = db.feedback_actuals(QUERY_1)

        # Deliberately mis-estimate: inflate every forecast 100x beyond
        # the observed cardinalities and feed it back through the loop.
        inflated = [
            OperatorForecast(
                op=f.op,
                detail=f.detail,
                est_rows=max(f.est_rows, 1.0) * 100.0,
                est_cost=f.est_cost,
            )
            for f in prepared.decision.forecasts
        ]
        flags = optimizer_statistics().feedback_flags
        assert db._feedback.observe(QUERY_1, inflated, actuals) is True
        assert optimizer_statistics().feedback_flags == flags + 1

        # The flag is consumable exactly once (the plan cache drops its
        # entry on it), and the corrections drive a re-cost.
        assert db.consume_feedback_flag(QUERY_1) is True
        assert db.consume_feedback_flag(QUERY_1) is False
        assert db.feedback_corrections(QUERY_1)
        recosts = optimizer_statistics().recosts
        recosted = db.prepare(QUERY_1)
        assert recosted.decision.recosted is True
        assert optimizer_statistics().recosts == recosts + 1
        # The re-costed plan still answers correctly.
        assert _rendered(db.execute(recosted)) == _rendered(
            db.query(QUERY_1, plan="direct")
        )

    def test_accurate_estimates_never_flag(self):
        db = _fig6_db()
        for _ in range(3):
            db.query(QUERY_1)
        assert db.consume_feedback_flag(QUERY_1) is False
        assert db.feedback_corrections(QUERY_1) is None


class TestCounters:
    def test_plans_costed_counter_increments(self):
        db = _fig6_db()
        before = optimizer_statistics().plans_costed
        db.prepare(QUERY_1)
        assert optimizer_statistics().plans_costed == before + 1

    def test_counters_surface_in_observability_snapshot(self):
        from repro.observability.counters import snapshot_counters

        db = _fig6_db()
        snapshot = snapshot_counters(db.store, db.indexes)
        assert {
            "optimizer_plans_costed",
            "optimizer_feedback_flags",
            "optimizer_recosts",
        } <= snapshot.keys()


class TestEnvToggle:
    def test_env_flag_disables_optimizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZER", "off")
        assert Database().optimizer_enabled is False
        monkeypatch.setenv("REPRO_OPTIMIZER", "on")
        assert Database().optimizer_enabled is True

    def test_stats_version_zero_without_indexes(self):
        db = Database(use_indexes=False)
        db.load(tree=figure6_database(), name="bib.xml")
        assert db.statistics_version == 0
        prepared = db.prepare(QUERY_1)
        assert prepared.decision is None  # heuristic path, uncosted
