"""Grouping-rewrite tests: Phase 1 detection and Phase 2 plan shape."""

import pytest

from repro.datagen.sample import QUERY_1, QUERY_2, QUERY_COUNT
from repro.errors import RewriteError
from repro.pattern.pattern import Axis
from repro.query.parser import parse_query
from repro.query.plan import PlanNode, scan
from repro.query.rewrite import detect, groupby_pattern, initial_pattern, rewrite
from repro.query.translate import recognize, naive_plan


def plan_for(text: str) -> PlanNode:
    return naive_plan(recognize(parse_query(text)), "doc_root")


class TestDetection:
    def test_detect_query1(self):
        detected = detect(plan_for(QUERY_1))
        assert detected.doc == "bib.xml"
        assert detected.root_tag == "doc_root"
        assert detected.inner_tag == "article"
        assert detected.condition_path == ("author",)

    def test_subset_mapping_recorded(self):
        detected = detect(plan_for(QUERY_1))
        assert detected.subset_mapping == {"$1": "$4", "$2": "$6"}

    def test_detect_multi_step_path(self):
        text = """
        FOR $i IN distinct-values(document("bib.xml")//institution)
        RETURN <instpubs>{$i}{
            FOR $b IN document("bib.xml")//article
            WHERE $i = $b/author/institution RETURN $b/title}</instpubs>
        """
        detected = detect(plan_for(text))
        assert detected.condition_path == ("author", "institution")

    def test_non_stitch_root_rejected(self):
        with pytest.raises(RewriteError):
            detect(scan("bib.xml"))

    def test_missing_join_rejected(self):
        plan = plan_for(QUERY_1)
        # Replace the join subtree with a plain scan.
        stripped = PlanNode("stitch", dict(plan.params), [scan("bib.xml")])
        with pytest.raises(RewriteError):
            detect(stripped)

    def test_join_right_input_not_database_rejected(self):
        plan = plan_for(QUERY_1)
        join = plan.find("left_outer_join")[0]
        join.inputs[1] = PlanNode("select", {"pattern": None, "sl": frozenset()}, [scan("bib.xml")])
        with pytest.raises(RewriteError):
            detect(plan)

    def test_non_subset_patterns_rejected(self):
        """If the outer pattern requires something the inner lacks,
        Phase 1 must not fire."""
        plan = plan_for(QUERY_1)
        join = plan.find("left_outer_join")[0]
        from repro.query.translate import outer_pattern

        join.params["left_pattern"] = outer_pattern("doc_root", "editor")
        with pytest.raises(RewriteError):
            detect(plan)


class TestPhase2Patterns:
    def test_initial_pattern_fig5a(self):
        pattern = initial_pattern("doc_root", "article")
        assert pattern.labels() == ["$1", "$2"]
        assert pattern.node("$2").predicate.tag_constraint() == "article"

    def test_groupby_pattern_fig5b(self):
        pattern = groupby_pattern("article", ("author",))
        assert pattern.labels() == ["$1", "$2"]
        [(parent, child, axis)] = pattern.edges()
        assert axis is Axis.PC
        assert parent.predicate.tag_constraint() == "article"

    def test_groupby_pattern_chain(self):
        pattern = groupby_pattern("article", ("author", "institution"))
        assert pattern.labels() == ["$1", "$1a", "$2"]


class TestRewrittenPlan:
    def test_query1_rewrite_shape(self):
        rewritten = rewrite(plan_for(QUERY_1))
        ops = [node.op for node in rewritten.walk()]
        assert ops == ["project_groups", "groupby", "project", "select", "scan"]

    def test_no_join_in_rewritten_plan(self):
        rewritten = rewrite(plan_for(QUERY_1))
        assert rewritten.find("left_outer_join") == []

    def test_output_spec_values_mode(self):
        template = rewrite(plan_for(QUERY_1)).params["template"]
        assert template.tag == "authorpubs"
        assert [(leaf.kind, leaf.path) for leaf in template.leaves()] == [
            ("key", ()),
            ("members", ("title",)),
        ]

    def test_output_spec_count_mode(self):
        template = rewrite(plan_for(QUERY_COUNT)).params["template"]
        assert [leaf.kind for leaf in template.leaves()] == ["key", "count"]

    def test_groupby_params(self):
        rewritten = rewrite(plan_for(QUERY_1))
        groupby = rewritten.find("groupby")[0]
        # Starred basis: the grouping element's subtree appears in the
        # output (Fig. 5.d's $4*).
        assert groupby.params["basis"] == ["$2*"]

    def test_nested_and_unnested_rewrite_identically(self):
        """Sec. 4.2: "After the rewrite optimization, the GROUPBY
        obtained is identical in both cases."""
        a = rewrite(plan_for(QUERY_1))
        b = rewrite(plan_for(QUERY_2))
        assert a.explain() == b.explain()

    def test_rewrite_of_non_grouping_plan_rejected(self):
        with pytest.raises(RewriteError):
            rewrite(scan("bib.xml"))
