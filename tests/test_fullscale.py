"""Full-scale smoke test (marked slow): a larger synthetic DBLP database
through loading, indexing, persistence, and both experiments.

Run explicitly with ``pytest -m slow tests/test_fullscale.py``; the
default suite includes it (it takes tens of seconds at most).
"""

import os

import pytest

from repro.datagen.dblp import DBLPConfig, generate_dblp_with_profile
from repro.datagen.sample import QUERY_1, QUERY_COUNT
from repro.query.database import Database
from repro.xmlmodel.diff import assert_collections_equal

SCALE = DBLPConfig(n_articles=3000, n_authors=800, seed=7)


@pytest.mark.slow
class TestFullScale:
    @pytest.fixture(scope="class")
    def big_db(self):
        tree, profile = generate_dblp_with_profile(SCALE)
        db = Database()
        db.load(tree=tree, name="bib.xml")
        return db, profile

    def test_load_and_index(self, big_db):
        db, profile = big_db
        assert profile.n_nodes > 20_000
        assert db.store.disk.n_pages > 50
        db.indexes.check_invariants()

    def test_e1_shape_holds(self, big_db):
        db, _ = big_db
        hash_run = db.query(QUERY_1, plan="naive-hash")
        group_run = db.query(QUERY_1, plan="groupby")
        assert len(group_run) == len(hash_run)
        assert (
            group_run.statistics["value_lookups"]
            < hash_run.statistics["value_lookups"]
        )

    def test_e2_shape_holds(self, big_db):
        db, _ = big_db
        hash_run = db.query(QUERY_COUNT, plan="naive-hash")
        group_run = db.query(QUERY_COUNT, plan="groupby")
        # Groupby pays per-pair basis lookups + per-group output nodes;
        # the direct baseline additionally dedups all author occurrences.
        assert group_run.statistics["value_lookups"] < (
            hash_run.statistics["value_lookups"]
        )
        # Only the (leaf) author group nodes are materialized.
        assert group_run.statistics["nodes_materialized"] == len(group_run)

    def test_engines_agree_at_scale(self, big_db):
        db, _ = big_db
        reference = db.query(QUERY_COUNT, plan="naive-hash").collection
        grouped = db.query(QUERY_COUNT, plan="groupby").collection
        assert_collections_equal(grouped, reference)

    def test_persistence_roundtrip_at_scale(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("fullscale") / "db")
        from repro.datagen.dblp import generate_dblp

        tree = generate_dblp(SCALE.scaled(0.3))
        with Database(directory=directory) as db:
            db.load(tree=tree, name="bib.xml")
            expected = db.query(QUERY_COUNT).collection
        with Database(directory=directory) as db:
            assert os.path.exists(os.path.join(directory, "indexes.pages"))
            assert_collections_equal(db.query(QUERY_COUNT).collection, expected)
