"""Naive-parse translation tests (Sec. 4.1/4.2)."""

import pytest

from repro.datagen.sample import QUERY_1, QUERY_2, QUERY_COUNT
from repro.errors import TranslationError
from repro.pattern.pattern import Axis
from repro.query.parser import parse_query
from repro.query.translate import (
    GroupingQuery,
    join_right_pattern,
    naive_plan,
    outer_pattern,
    recognize,
    translate,
)


class TestRecognition:
    def test_query1_nested_form(self):
        query = recognize(parse_query(QUERY_1))
        assert query == GroupingQuery(
            doc="bib.xml",
            group_tag="author",
            inner_tag="article",
            condition_path=("author",),
            output_path=("title",),
            return_tag="authorpubs",
            mode="values",
            nested_form=True,
        )

    def test_query2_unnested_form(self):
        query = recognize(parse_query(QUERY_2))
        assert not query.nested_form
        assert query.mode == "values"
        assert query.condition_path == ("author",)
        assert query.output_path == ("title",)

    def test_count_query(self):
        query = recognize(parse_query(QUERY_COUNT))
        assert query.mode == "count"

    def test_nested_count_form(self):
        text = """
        FOR $a IN distinct-values(document("bib.xml")//author)
        RETURN <authorpubs>{$a}{count(
            FOR $b IN document("bib.xml")//article
            WHERE $a = $b/author RETURN $b/title)}</authorpubs>
        """
        query = recognize(parse_query(text))
        assert query.mode == "count"
        assert query.nested_form

    def test_institution_variant_multi_step_path(self):
        text = """
        FOR $i IN distinct-values(document("bib.xml")//institution)
        RETURN <instpubs>{$i}{
            FOR $b IN document("bib.xml")//article
            WHERE $i = $b/author/institution RETURN $b/title}</instpubs>
        """
        query = recognize(parse_query(text))
        assert query.group_tag == "institution"
        assert query.condition_path == ("author", "institution")

    def test_reversed_equality_recognized(self):
        text = """
        FOR $a IN distinct-values(document("bib.xml")//author)
        RETURN <o>{$a}{
            FOR $b IN document("bib.xml")//article
            WHERE $b/author = $a RETURN $b/title}</o>
        """
        assert recognize(parse_query(text)).condition_path == ("author",)

    def test_outer_where_rejected_not_dropped(self):
        """Regression: an outer WHERE must reject translation (and fall
        back to direct execution), never be silently discarded."""
        text = """
        FOR $a IN distinct-values(document("bib.xml")//author)
        WHERE $a = "Jack"
        RETURN <o>{$a}{FOR $b IN document("bib.xml")//article
        WHERE $a = $b/author RETURN $b/title}</o>
        """
        with pytest.raises(TranslationError):
            recognize(parse_query(text))

    def test_outer_where_auto_falls_back(self, db):
        text = """
        FOR $a IN distinct-values(document("bib.xml")//author)
        WHERE $a = "Jack"
        RETURN <o>{$a}{FOR $b IN document("bib.xml")//article
        WHERE $a = $b/author RETURN $b/title}</o>
        """
        result = db.query(text, plan="auto")
        assert result.plan_mode == "direct"
        assert len(result.collection) == 1

    @pytest.mark.parametrize(
        "text",
        [
            '"just a literal"',
            'FOR $a IN document("b")//author RETURN $a',  # no distinct-values
            # RETURN is not a constructor:
            'FOR $a IN distinct-values(document("b")//author) RETURN $a',
            # inner FOR over a different document:
            """FOR $a IN distinct-values(document("b")//author)
               RETURN <o>{$a}{FOR $x IN document("c")//article
               WHERE $a = $x/author RETURN $x/title}</o>""",
            # WHERE compares two paths, not the outer variable:
            """FOR $a IN distinct-values(document("b")//author)
               RETURN <o>{$a}{FOR $x IN document("b")//article
               WHERE $x/author = $x/editor RETURN $x/title}</o>""",
            # first argument is not the outer variable:
            """FOR $a IN distinct-values(document("b")//author)
               RETURN <o>{count($a)}{FOR $x IN document("b")//article
               WHERE $a = $x/author RETURN $x/title}</o>""",
        ],
    )
    def test_unsupported_shapes_rejected(self, text):
        with pytest.raises(TranslationError):
            recognize(parse_query(text))


INNER_TITLES = (
    '{FOR $b IN document("bib.xml")//article WHERE $a = $b/author RETURN $b/title}'
)
OUTER_FOR = 'FOR $a IN distinct-values(document("bib.xml")//author)\n'
DECORATED_RETURNS = {
    "attribute": OUTER_FOR + f'RETURN <r kind="x">{{$a}}{INNER_TITLES}</r>',
    "text": OUTER_FOR + f"RETURN <r>pubs of {{$a}}{INNER_TITLES}</r>",
    "wrapper": OUTER_FOR
    + 'LET $t := document("bib.xml")//article[author = $a]/title\n'
    + f"RETURN <r>{{$a}} <c>{{count($t)}}</c> {INNER_TITLES}</r>",
    "let-attribute": OUTER_FOR
    + 'LET $t := document("bib.xml")//article[author = $a]/title\n'
    + 'RETURN <r kind="x">{$a} {$t}</r>',
    "nested-middle-text": 'FOR $i IN distinct-values(document("bib.xml")//institution)\n'
    "RETURN <o>{$i}{"
    + OUTER_FOR
    + f"WHERE $i = $a/institution\nRETURN <r>by {{$a}}{INNER_TITLES}</r>"
    + "}</o>",
    "nested-outer-attribute": 'FOR $i IN distinct-values(document("bib.xml")//institution)\n'
    'RETURN <o kind="x">{$i}{'
    + OUTER_FOR
    + f"WHERE $i = $a/institution\nRETURN <r>{{$a}}{INNER_TITLES}</r>"
    + "}</o>",
}


class TestDecoratedReturnRefused:
    """The grouping plans build ``<tag>{outer}{inner}</tag>`` and nothing
    else: a RETURN constructor carrying an attribute, literal text or a
    nested element is refused, never translated with that part dropped."""

    @pytest.mark.parametrize("name", sorted(DECORATED_RETURNS))
    def test_translation_refused(self, name):
        from repro.query.translate import recognize_nested

        expr = parse_query(DECORATED_RETURNS[name])
        with pytest.raises(TranslationError):
            recognize(expr)
        with pytest.raises(TranslationError):
            recognize_nested(expr)

    @pytest.mark.parametrize("name", sorted(DECORATED_RETURNS))
    def test_auto_answers_like_direct(self, name):
        from repro.query.database import Database
        from repro.xmlmodel.diff import diff_collections

        db = Database()
        db.load(
            text="<doc_root>"
            "<article><title>T1</title><author>Ann<institution>UM</institution></author>"
            "<author>Bob<institution>MIT</institution></author></article>"
            "<article><title>T2</title><author>Ann<institution>UM</institution></author>"
            "</article></doc_root>",
            name="bib.xml",
        )
        text = DECORATED_RETURNS[name]
        result = db.query(text, plan="auto")
        assert result.plan_mode == "direct"
        reference = db.query(text, plan="direct").collection
        assert diff_collections(result.collection, reference) is None
        assert len(reference) > 0
        with pytest.raises(TranslationError):
            db.query(text, plan="groupby")

    def test_family_still_plans_as_groupby(self, db):
        """Inter-item whitespace is not content: the paper's queries
        (written across lines) keep their GROUPBY plans."""
        from tests.query.test_optimizer import E4_NESTED

        for text in (QUERY_1, QUERY_2, QUERY_COUNT, E4_NESTED):
            assert db.query(text, plan="auto").plan_mode == "groupby"


class TestPatterns:
    def test_outer_pattern_fig4a(self):
        pattern = outer_pattern("doc_root", "author")
        assert pattern.labels() == ["$1", "$2"]
        [(_, child, axis)] = pattern.edges()
        assert axis is Axis.AD
        assert child.predicate.tag_constraint() == "author"

    def test_join_right_pattern_fig4b(self):
        pattern = join_right_pattern("doc_root", "article", ("author",))
        assert pattern.labels() == ["$4", "$5", "$6"]
        edges = pattern.edges()
        assert [axis for _, _, axis in edges] == [Axis.AD, Axis.PC]

    def test_join_right_pattern_multi_step(self):
        pattern = join_right_pattern("doc_root", "article", ("author", "institution"))
        assert pattern.labels() == ["$4", "$5", "$5a", "$6"]
        assert pattern.node("$6").predicate.tag_constraint() == "institution"


class TestNaivePlanShape:
    def plan(self, text=QUERY_1):
        query = recognize(parse_query(text))
        return naive_plan(query, "doc_root")

    def test_root_is_stitch(self):
        assert self.plan().op == "stitch"

    def test_pipeline_ops_in_order(self):
        ops = [node.op for node in self.plan().walk()]
        assert ops == [
            "stitch",
            "dupelim",
            "left_outer_join",
            "dupelim",
            "project",
            "select",
            "scan",
            "scan",
        ]

    def test_join_inputs(self):
        plan = self.plan()
        join = plan.find("left_outer_join")[0]
        assert join.inputs[1].op == "scan"
        assert join.params["conditions"] == [("$2", "$6")]
        assert join.params["sl"] == frozenset({"$5", "$2"})

    def test_outer_dupelim_on_group_label(self):
        plan = self.plan()
        outer_dup = plan.find("dupelim")[1]
        assert outer_dup.params["label"] == "$2"

    def test_count_mode_stitch_args(self):
        plan = self.plan(QUERY_COUNT)
        spec = plan.params["spec"]
        kinds = [arg.kind for arg in spec.args]
        assert kinds == ["outer", "count"]

    def test_values_mode_stitch_args(self):
        spec = self.plan().params["spec"]
        kinds = [arg.kind for arg in spec.args]
        assert kinds == ["outer", "members"]
        assert spec.args[1].member_path == ("title",)

    def test_query1_and_query2_same_plan_shape(self):
        """Sec. 4.2: nested and unnested forms translate equivalently."""
        ops1 = [node.op for node in self.plan(QUERY_1).walk()]
        ops2 = [node.op for node in self.plan(QUERY_2).walk()]
        assert ops1 == ops2

    def test_translate_entry_point(self):
        query, plan = translate(parse_query(QUERY_1), "doc_root")
        assert query.group_tag == "author"
        assert plan.op == "stitch"

    def test_explain_renders(self):
        text = self.plan().explain()
        assert "left_outer_join" in text
        assert "scan bib.xml" in text
