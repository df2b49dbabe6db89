"""The unified Database.load() API."""

from __future__ import annotations

import pytest

from repro.datagen.sample import QUERY_1, figure6_database
from repro.errors import DatabaseError
from repro.query.database import Database, LoadReport
from repro.xmlmodel.serialize import serialize


@pytest.fixture
def xml_text(fig6_tree):
    return serialize(fig6_tree, indent=None)


class TestLoadSources:
    def test_load_tree(self, fig6_tree):
        db = Database()
        report = db.load(tree=fig6_tree, name="bib.xml")
        assert isinstance(report, LoadReport)
        assert report.document == "bib.xml"
        assert report.nodes == db.store.n_nodes()
        assert db.documents() == ["bib.xml"]

    def test_load_text(self, xml_text):
        db = Database()
        report = db.load(text=xml_text, name="bib.xml")
        assert report.document == "bib.xml"
        assert len(db.query(QUERY_1)) == 3

    def test_load_path_defaults_name_from_filename(self, xml_text, tmp_path):
        path = tmp_path / "books.xml"
        path.write_text(xml_text, encoding="utf-8")
        db = Database()
        report = db.load(path=str(path))
        assert report.document == "books.xml"

    def test_load_path_with_explicit_name(self, xml_text, tmp_path):
        path = tmp_path / "books.xml"
        path.write_text(xml_text, encoding="utf-8")
        db = Database()
        assert db.load(path=str(path), name="bib.xml").document == "bib.xml"

    def test_generation_advances_per_load(self, fig6_tree):
        db = Database()
        first = db.load(tree=fig6_tree, name="a.xml")
        second = db.load(tree=figure6_database(), name="b.xml")
        assert second.generation == first.generation + 1
        assert second.generation == db.data_generation


class TestLoadValidation:
    def test_no_source_rejected(self):
        with pytest.raises(DatabaseError, match="exactly one source"):
            Database().load(name="bib.xml")

    def test_two_sources_rejected(self, fig6_tree, xml_text):
        with pytest.raises(DatabaseError, match="exactly one source"):
            Database().load(tree=fig6_tree, text=xml_text, name="bib.xml")

    def test_text_requires_name(self, xml_text):
        with pytest.raises(DatabaseError, match="name="):
            Database().load(text=xml_text)

    def test_tree_requires_name(self, fig6_tree):
        with pytest.raises(DatabaseError, match="name="):
            Database().load(tree=fig6_tree)

    def test_positional_source_rejected(self, fig6_tree):
        with pytest.raises(TypeError):
            Database().load(fig6_tree, "bib.xml")


class TestColumnarField:
    def test_pending_then_ready(self, fig6_tree):
        db = Database(columnar=True)  # pinned: env may force columnar off
        assert db.load(tree=fig6_tree, name="bib.xml").columnar == "pending"
        db.query(QUERY_1)
        assert db.load(tree=figure6_database(), name="b.xml").columnar == "pending"

    def test_disabled_without_indexes(self, fig6_tree):
        db = Database(use_indexes=False)
        assert db.load(tree=fig6_tree, name="bib.xml").columnar == "disabled"


class TestDeprecatedWrappers:
    """The historical ``load_text``/``load_tree``/``load_file`` shims are
    gone; ``load`` is the one entry point and never warns."""

    def test_load_itself_does_not_warn(self, fig6_tree, recwarn):
        Database().load(tree=fig6_tree, name="bib.xml")
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]
