"""Two-level grouping (the third query of Sec. 1): institution on the
outside, author within, titles innermost."""

import pytest

from repro.core import GroupBy, grouping_value_of, members_of
from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.pattern import Axis, PatternNode, PatternTree, tag
from repro.query.database import Database
from repro.xmlmodel import Collection, DataTree, element

NESTED_QUERY = """
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


@pytest.fixture
def inst_db():
    db = Database()
    db.load(text=
        """
        <doc_root>
          <article><title>T1</title>
            <author>Jack<institution>UM</institution></author>
            <author>Jill<institution>UBC</institution></author></article>
          <article><title>T2</title>
            <author>Jack<institution>UM</institution></author></article>
          <article><title>T3</title>
            <author>Ann<institution>UM</institution></author></article>
        </doc_root>
        """, name="bib.xml",
    )
    return db


class TestEngineRoute:
    def test_structure(self, inst_db):
        result = inst_db.query(NESTED_QUERY, plan="auto")
        # Join-graph isolation collapses the 3-level nesting into one
        # single-block grouping plan; direct is the fallback only when
        # the collapse cannot apply.
        assert result.plan_mode == "groupby"
        got = {}
        for tree in result.collection:
            inst = tree.root.children[0].content
            got[inst] = {
                pubs.children[0].content: [
                    c.content for c in pubs.children[1:] if c.tag == "title"
                ]
                for pubs in tree.root.children[1:]
            }
        assert got == {
            "UM": {"Jack": ["T1", "T2"], "Ann": ["T3"]},
            "UBC": {"Jill": ["T1"]},
        }

    def test_outer_order_is_document_order(self, inst_db):
        result = inst_db.query(NESTED_QUERY, plan="direct")
        institutions = [t.root.children[0].content for t in result.collection]
        assert institutions == ["UM", "UBC"]


class TestAlgebraicRoute:
    """GROUPBY composed with itself through group-tree members."""

    def article_collection(self, inst_db) -> Collection:
        info = inst_db.store.document("bib.xml")
        root = inst_db.store.materialize(info.root_nid)
        return Collection([DataTree(c) for c in root.children])

    def institution_pattern(self) -> PatternTree:
        root = PatternNode("$1", tag("article"))
        author = root.add("$2", tag("author"), Axis.PC)
        author.add("$3", tag("institution"), Axis.PC)
        return PatternTree(root)

    def author_pattern(self) -> PatternTree:
        root = PatternNode("$1", tag("article"))
        root.add("$2", tag("author"), Axis.PC)
        return PatternTree(root)

    def test_two_level_composition(self, inst_db):
        articles = self.article_collection(inst_db)
        by_institution = GroupBy(self.institution_pattern(), ["$3"]).apply(articles)
        assert [grouping_value_of(g) for g in by_institution] == ["UM", "UBC"]

        um_members = members_of(by_institution[0])
        assert len(um_members) == 3  # T1, T2, T3 (deduped)

        by_author = GroupBy(self.author_pattern(), ["$2"]).apply(um_members)
        values = [grouping_value_of(g) for g in by_author]
        assert values == ["Jack", "Jill", "Ann"]  # Jill via T1's membership

    def test_members_of_dedup(self, inst_db):
        """An article with two same-institution authors is one member."""
        db = Database()
        db.load(text=
            """
            <doc_root>
              <article><title>T1</title>
                <author>A<institution>X</institution></author>
                <author>B<institution>X</institution></author></article>
            </doc_root>
            """, name="bib.xml",
        )
        articles = Collection(
            [DataTree(db.store.materialize(db.store.document("bib.xml").root_nid).children[0])]
        )
        groups = GroupBy(self.institution_pattern(), ["$3"]).apply(articles)
        assert len(members_of(groups[0], dedup=True)) == 1
        assert len(members_of(groups[0], dedup=False)) == 2


class TestHelpers:
    def test_members_of_rejects_non_group(self):
        with pytest.raises(ValueError):
            members_of(DataTree(element("x", None)))

    def test_grouping_value_of_rejects_non_group(self):
        with pytest.raises(ValueError):
            grouping_value_of(DataTree(element("x", None)))


class TestRandomizedConsistency:
    def test_example_routes_agree(self):
        """The runnable example's cross-check at a different seed."""
        import examples.nested_grouping as example

        config = DBLPConfig(n_articles=30, n_authors=8, seed=13, with_institutions=True)
        db = Database()
        db.load(tree=generate_dblp(config), name="bib.xml")
        engine = db.query(example.NESTED_QUERY, plan="direct").collection
        composed = example.algebraic_nested_grouping(db)
        assert example._summarize(t.root for t in engine) == example._summarize(composed)
