"""Plan-node utility tests: navigation, transformation, explain."""

import pytest

from repro.errors import TranslationError
from repro.query.plan import (
    PlanNode,
    StitchSpec,
    dupelim,
    groupby,
    project,
    project_groups,
    rename_root,
    scan,
    select,
    stitch,
)
from repro.query.rewrite import groupby_pattern, initial_pattern
from repro.query.template import OutputTemplate, TemplateLeaf

TITLES = OutputTemplate(
    "out", (), (TemplateLeaf("key"), TemplateLeaf("members", ("title",)))
)


def sample_plan() -> PlanNode:
    pattern = initial_pattern("doc_root", "article")
    gp = groupby_pattern("article", ("author",))
    base = project(select(scan("bib.xml"), pattern, {"$2"}), pattern, ["$2*"])
    grouped = groupby(base, gp, ["$2"])
    return project_groups(grouped, TITLES)


class TestNavigation:
    def test_walk_preorder(self):
        ops = [node.op for node in sample_plan().walk()]
        assert ops == ["project_groups", "groupby", "project", "select", "scan"]

    def test_find(self):
        plan = sample_plan()
        assert len(plan.find("scan")) == 1
        assert plan.find("left_outer_join") == []

    def test_child_accessor(self):
        plan = sample_plan()
        assert plan.child.op == "groupby"

    def test_child_on_leaf_rejected(self):
        with pytest.raises(TranslationError):
            scan("bib.xml").child

    def test_child_on_binary_rejected(self):
        node = PlanNode("pair", {}, [scan("a"), scan("b")])
        with pytest.raises(TranslationError):
            node.child


class TestTransform:
    def test_identity_transform_copies(self):
        plan = sample_plan()
        copy = plan.transform(lambda node: None)
        assert copy is not plan
        assert copy.explain() == plan.explain()

    def test_replace_scan(self):
        plan = sample_plan()

        def swap(node):
            if node.op == "scan":
                return scan("other.xml")
            return None

        swapped = plan.transform(swap)
        assert swapped.find("scan")[0].params["doc"] == "other.xml"
        assert plan.find("scan")[0].params["doc"] == "bib.xml"  # original intact


class TestExplain:
    def test_indentation_levels(self):
        lines = sample_plan().explain().splitlines()
        assert lines[0].startswith("project_groups")
        assert lines[-1].strip().startswith("scan")
        assert lines[-1].startswith("        ")  # depth 4

    def test_all_summarizers_render(self):
        pattern = initial_pattern("doc_root", "article")
        nodes = [
            scan("d"),
            select(scan("d"), pattern, {"$2"}),
            project(scan("d"), pattern, ["$2*"]),
            dupelim(scan("d"), pattern, "$2"),
            dupelim(scan("d")),
            groupby(scan("d"), groupby_pattern("article", ("author",)), ["$2"]),
            project_groups(scan("d"), TITLES),
            stitch(scan("d"), StitchSpec(TITLES, "$2", "$5")),
            rename_root(scan("d"), "t"),
        ]
        for node in nodes:
            text = node.describe()
            assert node.op.split("_")[0] in text or node.op in text

    def test_describe_unknown_op_safe(self):
        assert PlanNode("exotic").describe() == "exotic"
