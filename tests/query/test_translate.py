"""Naive-parse translation tests (Sec. 4.1/4.2)."""

import pytest

from repro.datagen.sample import QUERY_1, QUERY_2, QUERY_COUNT
from repro.errors import TranslationError
from repro.pattern.pattern import Axis
from repro.query.parser import parse_query
from repro.query.template import OutputTemplate, TemplateLeaf
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
            template=OutputTemplate(
                "authorpubs",
                (),
                (TemplateLeaf("key"), TemplateLeaf("members", ("title",))),
            ),
            nested_form=True,
        )

    def test_query2_unnested_form(self):
        query = recognize(parse_query(QUERY_2))
        assert not query.nested_form
        assert query.condition_path == ("author",)
        assert query.template.member_leaves() == [TemplateLeaf("members", ("title",))]

    def test_count_query(self):
        query = recognize(parse_query(QUERY_COUNT))
        assert query.template.member_leaves() == [TemplateLeaf("count", ("title",))]

    def test_nested_count_form(self):
        text = """
        FOR $a IN distinct-values(document("bib.xml")//author)
        RETURN <authorpubs>{$a}{count(
            FOR $b IN document("bib.xml")//article
            WHERE $a = $b/author RETURN $b/title)}</authorpubs>
        """
        query = recognize(parse_query(text))
        assert query.template.member_leaves() == [TemplateLeaf("count", ("title",))]
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
INNER_YEARS = INNER_TITLES.replace("RETURN $b/title", "RETURN $b/year")
# The same member list over a *different* join-plan pattern.
EDITED_TITLES = INNER_TITLES.replace("$b/author", "$b/editor")
OUTER_FOR = 'FOR $a IN distinct-values(document("bib.xml")//author)\n'
LET_TITLES = 'LET $t := document("bib.xml")//article[author = $a]/title\n'
INSTITUTION_FOR = 'FOR $i IN distinct-values(document("bib.xml")//institution)\n'


def _middle(constructor: str) -> str:
    return "{" + OUTER_FOR + f"WHERE $i = $a/institution\nRETURN {constructor}" + "}"


SMALL_DOCUMENT = (
    "<doc_root>"
    "<article><title>T1</title><year>1999</year>"
    "<author>Ann<institution>UM</institution></author>"
    "<author>Bob<institution>MIT</institution></author></article>"
    "<article><title>T2</title><year>2001</year>"
    "<author>Ann<institution>UM</institution></author>"
    "</article></doc_root>"
)


def _small_db():
    from repro.query.database import Database

    db = Database()
    db.load(text=SMALL_DOCUMENT, name="bib.xml")
    return db


# RETURN constructors the template carries as written: decoration is
# construction, not semantics.
TEMPLATE_RETURNS = {
    "attribute": OUTER_FOR + f'RETURN <r kind="x">{{$a}}{INNER_TITLES}</r>',
    "text": OUTER_FOR + f"RETURN <r>pubs of {{$a}}{INNER_TITLES}</r>",
    "wrapper": OUTER_FOR + f"RETURN <r>{{$a}}<list>{INNER_TITLES}</list></r>",
    "key-count-list": OUTER_FOR
    + f'RETURN <r kind="x">{{$a}} {{count({INNER_TITLES[1:-1]})}} <list>{INNER_TITLES}</list></r>',
    "two-lists": OUTER_FOR + f"RETURN <r>{INNER_YEARS}{{$a}}{INNER_TITLES}</r>",
    "avg-beside-sum": OUTER_FOR
    + f"RETURN <r>{{$a}} {{avg({INNER_YEARS[1:-1]})}} of {{sum({INNER_YEARS[1:-1]})}}</r>",
    "no-key": OUTER_FOR + f"RETURN <r>{{max({INNER_YEARS[1:-1]})}}</r>",
    "sorted-beside-unsorted": OUTER_FOR
    + "RETURN <r>{$a}"
    + INNER_TITLES.replace("}", " SORTBY(. DESCENDING)}")
    + INNER_YEARS
    + "</r>",
    "two-sorted-lists": OUTER_FOR
    + "RETURN <r>{$a}"
    + INNER_TITLES.replace("}", " SORTBY(. DESCENDING)}")
    + INNER_YEARS.replace("}", " SORTBY(.)}")
    + "</r>",
    "let-wrapper": OUTER_FOR
    + LET_TITLES
    + 'RETURN <r kind="x">{$a} <c>{count($t)}</c> <l>{$t}</l></r>',
    "nested-middle-text": INSTITUTION_FOR
    + "RETURN <o>{$i}"
    + _middle(f"<r>by {{$a}}{INNER_TITLES}</r>")
    + "</o>",
    "nested-outer-decorated": INSTITUTION_FOR
    + 'RETURN <o kind="x">at {$i}<who>'
    + _middle(f"<r>{{$a}}{INNER_TITLES}</r>")
    + "</who></o>",
}


class TestOutputTemplate:
    """The RETURN constructor is an output template: any mix of text,
    attributes, wrapper elements, the key, member lists and aggregates
    over one join-plan pattern reaches the GROUPBY plan."""

    @pytest.mark.parametrize("name", sorted(TEMPLATE_RETURNS))
    def test_every_plan_equals_direct(self, name):
        from repro.xmlmodel.diff import diff_collections

        db = _small_db()
        text = TEMPLATE_RETURNS[name]
        assert db.query(text, plan="auto").plan_mode == "groupby"
        reference = db.query(text, plan="direct").collection
        assert len(reference) > 0
        modes = ["auto", "groupby", "logical-groupby"]
        if not name.startswith("nested"):  # no single naive join block
            modes += ["naive", "naive-hash", "logical-naive"]
        for mode in modes:
            got = db.query(text, plan=mode).collection
            assert diff_collections(got, reference) is None, mode

    def test_template_mirrors_the_constructor(self):
        query = recognize(parse_query(TEMPLATE_RETURNS["key-count-list"]))
        assert query.template == OutputTemplate(
            "r",
            (("kind", "x"),),
            (
                TemplateLeaf("key"),
                TemplateLeaf("count", ("title",)),
                OutputTemplate("list", (), (TemplateLeaf("members", ("title",)),)),
            ),
        )
        assert (query.inner_tag, query.condition_path) == ("article", ("author",))

    def test_one_descent_per_distinct_path(self):
        """``avg`` beside ``sum`` over the same path shares one path
        descent; a second path adds exactly one more."""
        from repro.query.physical import PhysicalExecutor

        db = _small_db()
        descents = []
        original = PhysicalExecutor._descend

        def counting(self, members, path):
            descents.append(path)
            return original(self, members, path)

        PhysicalExecutor._descend = counting
        try:
            db.query(TEMPLATE_RETURNS["avg-beside-sum"], plan="groupby")
            assert descents == [("year",)]
            del descents[:]
            db.query(TEMPLATE_RETURNS["two-lists"], plan="groupby")
            assert descents == [("year",), ("title",)]
        finally:
            PhysicalExecutor._descend = original

    def test_sorted_list_keeps_its_own_ordering(self):
        """SORTBY sorts what its list emits, so it rides on that list's
        leaf; the GROUPBY and every other leaf keep document order."""
        _, grouped = _small_db().plans_for(TEMPLATE_RETURNS["sorted-beside-unsorted"])
        [groupby] = grouped.find("groupby")
        assert "ordering" not in groupby.params
        template = grouped.find("project_groups")[0].params["template"]
        assert [leaf.ordering for leaf in template.member_leaves()] == [
            (((".",), "DESCENDING"),),
            (),
        ]


# Decoration does not launder a body outside the family: each of these
# carries PR 17's decoration *and* an item no single GROUPBY computes.
DECORATED_RETURNS = {
    "attribute": (
        OUTER_FOR + f'RETURN <r kind="x">{{$a}}{INNER_TITLES}{EDITED_TITLES}</r>',
        "different join-plan patterns",
    ),
    "text": (
        OUTER_FOR
        + f"RETURN <r>pubs of {{$a}}{INNER_TITLES} in "
        + INNER_YEARS.replace(" RETURN", ' AND $b/year > "1990" RETURN')
        + "</r>",
        "different join-plan patterns",
    ),
    "wrapper": (
        OUTER_FOR
        + LET_TITLES
        + f"RETURN <r>{{$a}} <c>{{count($t)}}</c> {INNER_TITLES}</r>",
        "the LET variable",
    ),
    "let-attribute": (
        OUTER_FOR + LET_TITLES + 'RETURN <r kind="x">{$a} {$t} {count($a)}</r>',
        "the LET variable",
    ),
    "nested-middle-text": (
        INSTITUTION_FOR
        + "RETURN <o>{$i}"
        + _middle(f"<r>by {{$a}}{INNER_TITLES}{EDITED_TITLES}</r>")
        + "</o>",
        "different join-plan patterns",
    ),
    "nested-outer-attribute": (
        INSTITUTION_FOR
        + 'RETURN <o kind="x">{$i}'
        + 2 * _middle(f"<r>{{$a}}{INNER_TITLES}</r>")
        + "</o>",
        "exactly one middle FLWR",
    ),
}


class TestDecoratedReturnRefused:
    """A RETURN constructor whose embedded expressions do not all range
    over one join-plan pattern is refused — with the reason of the
    recognizer its clause shape selects — never translated with the
    odd item dropped, however the constructor is decorated."""

    @pytest.mark.parametrize("name", sorted(DECORATED_RETURNS))
    def test_translation_refused(self, name):
        from repro.query.translate import recognize_any, recognize_nested

        text, reason = DECORATED_RETURNS[name]
        expr = parse_query(text)
        with pytest.raises(TranslationError):
            recognize(expr)
        with pytest.raises(TranslationError):
            recognize_nested(expr)
        with pytest.raises(TranslationError, match=reason):
            recognize_any(expr)

    @pytest.mark.parametrize("name", sorted(DECORATED_RETURNS))
    def test_auto_answers_like_direct(self, name):
        from repro.xmlmodel.diff import diff_collections

        db = _small_db()
        text, reason = DECORATED_RETURNS[name]
        result = db.query(text, plan="auto")
        assert result.plan_mode == "direct"
        reference = db.query(text, plan="direct").collection
        assert diff_collections(result.collection, reference) is None
        assert len(reference) > 0
        with pytest.raises(TranslationError):
            db.query(text, plan="groupby")
        # EXPLAIN names the reason that applies to the query as written
        # (not the 3-level recognizer's complaint about a LET clause).
        payload = db.explain(text).to_dict()
        assert payload["plan"] == "direct"
        assert reason in payload["reason"]

    @pytest.mark.parametrize(
        "item, reason",
        [
            ("{$a/institution}", "outer variable or a nested FLWR"),
            ('{"literal"}', "outer variable or a nested FLWR"),
            (
                "{count(" + INNER_TITLES[1:-1] + " SORTBY(.))}",
                "SORTBY is meaningless under an aggregate",
            ),
        ],
    )
    def test_items_no_groupby_computes(self, item, reason):
        text = OUTER_FOR + f"RETURN <r>{{$a}}{INNER_TITLES}{item}</r>"
        with pytest.raises(TranslationError, match=reason):
            recognize(parse_query(text))

    def test_key_only_constructor_is_not_a_grouping(self):
        with pytest.raises(TranslationError, match="no member list or aggregate"):
            recognize(parse_query(OUTER_FOR + "RETURN <r>{$a}</r>"))

    def test_family_still_plans_as_groupby(self, db):
        """Inter-item whitespace is not content: the paper's queries
        (written across lines) keep their GROUPBY plans."""
        from tests.query.test_plan_rule import E4_NESTED

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
        leaves = list(plan.params["spec"].template.leaves())
        assert [leaf.kind for leaf in leaves] == ["key", "count"]

    def test_values_mode_stitch_args(self):
        leaves = list(self.plan().params["spec"].template.leaves())
        assert [leaf.kind for leaf in leaves] == ["key", "members"]
        assert leaves[1].path == ("title",)

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
