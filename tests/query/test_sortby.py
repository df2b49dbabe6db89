"""SORTBY support: the user-requested ordering list of Sec. 4.1 step 2
("only if sorting was requested by the user") and Fig. 3's ordering."""

import pytest

from repro.errors import TranslationError, XQuerySyntaxError
from repro.query.ast import SortKey
from repro.query.parser import parse_query
from repro.query.rewrite import rewrite
from repro.query.translate import naive_plan, recognize

SORTED_QUERY = """
FOR $a IN distinct-values(document("bib.xml")//author)
RETURN
<authorpubs>
{$a}
{
FOR $b IN document("bib.xml")//article
WHERE $a = $b/author
RETURN $b/title SORTBY(. DESCENDING)
}
</authorpubs>
"""


class TestParsing:
    def test_dot_key(self):
        expr = parse_query('FOR $x IN document("d")//a RETURN $x SORTBY(.)')
        assert expr.sortby == (SortKey((".",), "ASCENDING"),)

    def test_named_key_with_direction(self):
        expr = parse_query(
            'FOR $x IN document("d")//a RETURN $x SORTBY(title DESCENDING)'
        )
        assert expr.sortby == (SortKey(("title",), "DESCENDING"),)

    def test_path_key(self):
        expr = parse_query(
            'FOR $x IN document("d")//a RETURN $x SORTBY(author/institution)'
        )
        assert expr.sortby[0].path == ("author", "institution")

    def test_multiple_keys(self):
        expr = parse_query(
            'FOR $x IN document("d")//a RETURN $x SORTBY(year DESCENDING, title)'
        )
        assert len(expr.sortby) == 2
        assert expr.sortby[1].direction == "ASCENDING"

    def test_lowercase(self):
        expr = parse_query('for $x in document("d")//a return $x sortby(title)')
        assert expr.sortby

    def test_bad_direction_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_query('FOR $x IN document("d")//a RETURN $x SORTBY(title sideways)')


class TestInterpreter:
    def test_sorts_returned_titles(self, db):
        result = db.query(SORTED_QUERY, plan="direct").collection
        jack = result[0].root
        titles = [c.content for c in jack.children if c.tag == "title"]
        assert titles == ["XML and the Web", "Querying XML"]

    def test_ascending_default(self, db):
        query = SORTED_QUERY.replace("SORTBY(. DESCENDING)", "SORTBY(.)")
        result = db.query(query, plan="direct").collection
        jack = result[0].root
        titles = [c.content for c in jack.children if c.tag == "title"]
        assert titles == ["Querying XML", "XML and the Web"]

    def test_numeric_sort(self, db):
        query = (
            'FOR $y IN document("bib.xml")//year RETURN <y>{$y}</y> SORTBY(.)'
        )
        result = db.query(query, plan="direct").collection
        assert len(result) == 1  # only one year element in Fig. 6


class TestTranslation:
    def test_ordering_recorded(self):
        query = recognize(parse_query(SORTED_QUERY))
        [leaf] = query.template.member_leaves()
        assert leaf.path == ("title",)
        assert leaf.ordering == (((".",), "DESCENDING"),)

    def test_ordering_reaches_groupby_plan(self):
        plan = rewrite(naive_plan(recognize(parse_query(SORTED_QUERY)), "doc_root"))
        [leaf] = plan.params["template"].member_leaves()
        assert leaf.ordering == (((".",), "DESCENDING"),)
        # Keys are navigated from each emitted item — NOT required
        # pattern chains, which would exclude members lacking the sort
        # path and drop whole groups.
        pattern = plan.find("groupby")[0].params["pattern"]
        assert not pattern.has_node("$s0")

    def test_sortby_under_count_rejected(self):
        text = """
        FOR $a IN distinct-values(document("bib.xml")//author)
        RETURN <o>{$a}{count(
            FOR $b IN document("bib.xml")//article
            WHERE $a = $b/author RETURN $b/title SORTBY(.))}</o>
        """
        with pytest.raises(TranslationError):
            recognize(parse_query(text))

    def test_outer_sortby_rejected(self):
        text = """
        FOR $a IN distinct-values(document("bib.xml")//author)
        RETURN <o>{$a}{
            FOR $b IN document("bib.xml")//article
            WHERE $a = $b/author RETURN $b/title}</o>
        SORTBY(.)
        """
        with pytest.raises(TranslationError):
            recognize(parse_query(text))


class TestEngineAgreement:
    @pytest.mark.parametrize(
        "mode", ["naive", "naive-hash", "groupby", "logical-naive", "logical-groupby"]
    )
    def test_all_engines_match_direct(self, db, mode):
        reference = db.query(SORTED_QUERY, plan="direct").collection
        got = db.query(SORTED_QUERY, plan=mode).collection
        assert got.structurally_equal(reference)

    def test_randomized_workload(self):
        from repro.datagen.dblp import DBLPConfig, generate_dblp
        from repro.query.database import Database

        db = Database()
        db.load(tree=generate_dblp(DBLPConfig(n_articles=50, n_authors=12, seed=21)), name="bib.xml")
        reference = db.query(SORTED_QUERY, plan="direct").collection
        for mode in ("naive", "groupby", "logical-groupby"):
            assert db.query(SORTED_QUERY, plan=mode).collection.structurally_equal(
                reference
            ), mode

    @pytest.mark.parametrize(
        "returned",
        ["$b/author SORTBY(. DESCENDING)", "$b/author/institution SORTBY(.)"],
    )
    def test_multi_valued_output_path_sorts_items(self, returned):
        """SORTBY sorts the returned sequence: an article with several
        authors contributes each one at its own place, not all of them
        at its first author's place."""
        from repro.datagen.dblp import DBLPConfig, generate_dblp
        from repro.query.database import Database
        from repro.xmlmodel.diff import diff_collections

        config = DBLPConfig(n_articles=60, n_authors=15, seed=7, with_institutions=True)
        db = Database()
        db.load(tree=generate_dblp(config), name="bib.xml")
        query = SORTED_QUERY.replace("$b/title SORTBY(. DESCENDING)", returned)
        reference = db.query(query, plan="direct").collection
        for mode in ("auto", "groupby", "naive", "naive-hash", "logical-naive", "logical-groupby"):
            got = db.query(query, plan=mode).collection
            assert diff_collections(reference, got) is None, mode
