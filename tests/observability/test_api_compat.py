"""The redesigned Database API: PlanMode, keyword options, Explanation."""

import pytest

from repro.datagen.sample import QUERY_1
from repro.errors import DatabaseError
from repro.query.database import PLAN_MODES, Database, Explanation, PlanMode


class TestPlanMode:
    def test_members_equal_their_string_values(self):
        assert PlanMode.GROUPBY == "groupby"
        assert PlanMode.NAIVE_HASH == "naive-hash"
        assert PlanMode("logical-naive") is PlanMode.LOGICAL_NAIVE

    def test_plan_modes_tuple_matches_enum(self):
        assert PLAN_MODES == tuple(mode.value for mode in PlanMode)
        assert "auto" in PLAN_MODES and "groupby" in PLAN_MODES

    def test_enum_and_string_run_identically(self, db):
        by_enum = db.query(QUERY_1, plan=PlanMode.GROUPBY)
        by_string = db.query(QUERY_1, plan="groupby")
        assert by_enum.plan_mode == by_string.plan_mode == "groupby"
        assert by_enum.collection.structurally_equal(by_string.collection)

    def test_unknown_mode_raises_database_error(self, db):
        with pytest.raises(DatabaseError):
            db.query(QUERY_1, plan="warp-speed")

    def test_default_is_auto(self, db):
        assert db.query(QUERY_1).plan_mode == "groupby"


class TestPositionalFormsRemoved:
    """The pre-redesign positional shims are gone: options are
    keyword-only, and positional forms raise ``TypeError`` outright."""

    def test_positional_plan_raises_type_error(self, db):
        with pytest.raises(TypeError):
            db.query(QUERY_1, "naive")

    def test_positional_reset_statistics_raises_type_error(self, db):
        with pytest.raises(TypeError):
            db.query(QUERY_1, "groupby", False)

    def test_keyword_form_does_not_warn(self, db, recwarn):
        db.query(QUERY_1, plan="groupby")
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


class TestExplanation:
    def test_explain_is_still_a_string(self, db):
        text = db.explain(QUERY_1)
        assert isinstance(text, str)
        assert "naive (join) plan" in text
        assert "GROUPBY" in text

    def test_render_matches_text(self, db):
        explanation = db.explain(QUERY_1)
        assert explanation.render() == str(explanation)

    def test_to_dict_exposes_both_plans(self, db):
        payload = db.explain(QUERY_1).to_dict()
        assert payload["query"] == QUERY_1
        naive = payload["plans"]["naive"]
        grouped = payload["plans"]["groupby"]
        ops = {node["op"] for node in _walk_dict(grouped)}
        assert "groupby" in ops
        assert {node["op"] for node in _walk_dict(naive)} >= {"scan", "select"}

    def test_explain_does_not_execute(self, db):
        db.store.reset_stats()
        db.explain(QUERY_1)
        assert db.store.stats().get("nodes_materialized") == 0

    def test_explanation_type(self, db):
        assert isinstance(db.explain(QUERY_1), Explanation)


class TestPositionalExplainRemoved:
    def test_positional_verbose_raises_type_error(self, db):
        with pytest.raises(TypeError):
            db.explain(QUERY_1, True)

    def test_keyword_form_does_not_warn(self, db, recwarn):
        db.explain(text=QUERY_1)
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


class TestPrepareExecute:
    """The prepare/execute split underpinning the service's plan cache."""

    def test_prepare_resolves_auto(self, db):
        prepared = db.prepare(QUERY_1)
        assert prepared.requested is PlanMode.AUTO
        assert prepared.resolved is PlanMode.GROUPBY
        assert prepared.plan is not None
        assert prepared.generation == db.data_generation

    def test_prepare_direct_has_no_plan(self, db):
        prepared = db.prepare(QUERY_1, plan="direct")
        assert prepared.resolved is PlanMode.DIRECT
        assert prepared.plan is None

    def test_execute_matches_query(self, db):
        prepared = db.prepare(QUERY_1)
        executed = db.execute(prepared)
        direct = db.query(QUERY_1)
        assert executed.plan_mode == direct.plan_mode
        assert executed.collection.structurally_equal(direct.collection)

    def test_prepared_query_is_reusable(self, db):
        prepared = db.prepare(QUERY_1, plan="naive")
        first = db.execute(prepared)
        second = db.execute(prepared)
        assert first.collection.structurally_equal(second.collection)

    def test_generation_tracks_mutations(self, db, fig6_tree):
        before = db.data_generation
        db.load(tree=fig6_tree, name="again.xml")
        assert db.data_generation == before + 1
        db.drop_document("again.xml")
        assert db.data_generation == before + 2


def _walk_dict(node):
    yield node
    for child in node["inputs"]:
        yield from _walk_dict(child)
