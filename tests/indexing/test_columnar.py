"""Columnar node table: invariants, join equivalence, snapshot
lifecycle, persistence, and columnar-vs-fallback structural identity."""

from __future__ import annotations

import pytest

from repro.datagen.dblp import DBLPConfig, generate_dblp
from repro.datagen.sample import QUERY_1, QUERY_COUNT, figure6_database
from repro.indexing.columnar import columnar_statistics
from repro.indexing.manager import IndexManager
from repro.pattern.matcher import StoreMatcher
from repro.pattern.pattern import Axis, PatternNode, PatternTree
from repro.pattern.structural_join import staircase_join_rows, structural_join
from repro.pattern.predicates import ContentEquals, conjoin, tag
from repro.query.database import Database
from repro.storage.store import NodeStore
from repro.xmlmodel.diff import diff_collections
from repro.xmlmodel.node import element

INSTITUTION_QUERY = """
FOR $i IN distinct-values(document("bib.xml")//institution)
RETURN
<instpubs>
{$i}
{
FOR $b IN document("bib.xml")//article
WHERE $i = $b/author/institution
RETURN $b/title
}
</instpubs>
"""

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


def nested_sections():
    """Same-tag nesting: sec inside sec (exercises the merge path)."""
    return element(
        "doc_root",
        None,
        element(
            "sec",
            None,
            element("p", "a"),
            element(
                "sec",
                None,
                element("p", "b"),
                element("sec", None, element("p", "c")),
            ),
            element("p", "d"),
        ),
        element("sec", None, element("p", "e")),
    )


def build_for(tree):
    store = NodeStore()
    store.load_tree(tree, "t.xml")
    indexes = IndexManager(store)
    indexes.build()
    return store, indexes, indexes.ensure_columnar()


class TestTableInvariants:
    def test_row_order_is_start_and_nid_order(self):
        _, _, table = build_for(figure6_database())
        assert list(table.starts) == sorted(table.starts)
        assert list(table.nids) == sorted(table.nids)
        assert table.n_rows == len(table.starts) == len(table.ends)

    def test_tag_directory_covers_every_row(self):
        store, _, table = build_for(figure6_database())
        covered = 0
        for sym, (lo, hi) in table.tag_dir.items():
            covered += hi - lo
            for p in range(lo, hi):
                row = table.tag_rows[p]
                assert table.tags[row] == sym
                assert table.tag_starts[p] == table.starts[row]
        assert covered == table.n_rows

    def test_label_of_row_round_trips(self):
        store, _, table = build_for(figure6_database())
        for row in range(table.n_rows):
            label = table.label_of_row(row)
            assert table.row_of_label(label) == row
            assert store.label(label.nid) == (label.start, label.end, label.level)

    def test_rows_for_labels_rejects_foreign_labels(self):
        from repro.indexing.labels import NodeLabel

        _, _, table = build_for(figure6_database())
        good = table.label_of_row(0)
        assert table.rows_for_labels([good]) == [0]
        assert table.rows_for_labels([NodeLabel(9999, 9999, 10000, 1)]) is None


class TestStaircaseJoin:
    def grouped_reference(self, ancestors, descendants, axis, table):
        pairs = structural_join(ancestors, descendants, axis)
        grouped = {}
        for a, d in pairs:
            grouped.setdefault(table.row_of_label(a), []).append(table.row_of_label(d))
        return grouped

    @pytest.mark.parametrize("axis", [Axis.AD, Axis.PC])
    def test_matches_object_join_on_flat_streams(self, axis):
        _, indexes, table = build_for(figure6_database())
        sym = lambda name: indexes.store.meta.symbols.lookup(name)
        articles = table.stream_for_tag(sym("article"))
        authors = table.stream_for_tag(sym("author"))
        got = staircase_join_rows(articles, authors, axis)
        want = self.grouped_reference(
            [table.label_of_row(r) for r in articles.row_list()],
            [table.label_of_row(r) for r in authors.row_list()],
            axis,
            table,
        )
        assert got == want
        assert columnar_statistics().window_scans > 0

    @pytest.mark.parametrize("axis", [Axis.AD, Axis.PC])
    def test_nested_ancestors_use_merge_and_agree(self, axis):
        _, indexes, table = build_for(nested_sections())
        stats = columnar_statistics()
        merges_before = stats.merge_joins
        sym = lambda name: indexes.store.meta.symbols.lookup(name)
        secs = table.stream_for_tag(sym("sec"))
        ps = table.stream_for_tag(sym("p"))
        got = staircase_join_rows(secs, ps, axis)
        assert stats.merge_joins == merges_before + 1
        want = self.grouped_reference(
            [table.label_of_row(r) for r in secs.row_list()],
            [table.label_of_row(r) for r in ps.row_list()],
            axis,
            table,
        )
        assert got == want

    def test_self_join_never_pairs_a_node_with_itself(self):
        _, indexes, table = build_for(nested_sections())
        sym = indexes.store.meta.symbols.lookup("sec")
        secs = table.stream_for_tag(sym)
        grouped = staircase_join_rows(secs, secs, Axis.AD)
        for a_row, d_rows in grouped.items():
            assert a_row not in d_rows


class TestMatcherEquivalence:
    def binding_nids(self, matches):
        return [
            {label: node.nid for label, node in match.bindings.items()}
            for match in matches
        ]

    def patterns(self):
        pc = PatternNode("$1", tag("article"))
        pc.add("$2", tag("author"), Axis.PC)
        ad = PatternNode("$1", tag("sec"))
        ad.add("$2", tag("p"), Axis.AD)
        wild = PatternNode("$1", tag("article"))
        wild.add("$2", None, Axis.PC)
        value = PatternNode("$1", tag("article"))
        value.add("$2", conjoin(tag("author"), ContentEquals("Jack")), Axis.PC)
        chain = PatternNode("$1", tag("doc_root"))
        a = chain.add("$2", tag("article"), Axis.AD)
        a.add("$3", tag("title"), Axis.PC)
        return [PatternTree(p) for p in (pc, wild, value, chain)], PatternTree(ad)

    def test_columnar_and_object_walk_agree(self):
        store, indexes, table = build_for(figure6_database())
        columnar = StoreMatcher(store, indexes, columnar=table)
        plain = StoreMatcher(store, indexes)
        flat_patterns, _ = self.patterns()
        for pattern in flat_patterns:
            got = self.binding_nids(columnar.match(pattern))
            want = self.binding_nids(plain.match(pattern))
            assert got == want

    def test_columnar_and_object_walk_agree_on_nesting(self):
        store, indexes, table = build_for(nested_sections())
        columnar = StoreMatcher(store, indexes, columnar=table)
        plain = StoreMatcher(store, indexes)
        _, ad_pattern = self.patterns()
        assert self.binding_nids(columnar.match(ad_pattern)) == self.binding_nids(
            plain.match(ad_pattern)
        )

    def test_doc_bounds_scope_matches(self):
        store = NodeStore()
        store.load_tree(figure6_database(), "a.xml")
        store.load_tree(figure6_database(), "b.xml")
        indexes = IndexManager(store)
        indexes.build()
        table = indexes.ensure_columnar()
        pattern, _ = self.patterns()
        info = store.document("b.xml")
        bounds = store.label(info.root_nid)[:2]
        columnar = StoreMatcher(store, indexes, columnar=table)
        plain = StoreMatcher(store, indexes)
        got = self.binding_nids(columnar.match(pattern[0], doc_bounds=bounds))
        want = self.binding_nids(plain.match(pattern[0], doc_bounds=bounds))
        assert got == want and got  # scoped and non-empty

    @pytest.mark.parametrize("tree_builder", [figure6_database, nested_sections])
    def test_pure_python_path_agrees(self, tree_builder, monkeypatch):
        """Forcing numpy away exercises the pure staircase merge; it
        must agree with the vectorized kernels and the object walk."""
        store, indexes, table = build_for(tree_builder())
        flat_patterns, ad_pattern = self.patterns()
        all_patterns = flat_patterns + [ad_pattern]
        columnar = StoreMatcher(store, indexes, columnar=table)
        plain = StoreMatcher(store, indexes)
        vectorized = [columnar.match(p) for p in all_patterns]

        import repro.pattern.matcher as matcher_module

        monkeypatch.setattr(matcher_module, "_np", None)
        for pattern, fast in zip(all_patterns, vectorized):
            pure = self.binding_nids(columnar.match(pattern))
            assert pure == self.binding_nids(fast)
            assert pure == self.binding_nids(plain.match(pattern))

    def test_match_counts_scans_and_fallbacks(self):
        store, indexes, table = build_for(figure6_database())
        stats = columnar_statistics()
        pattern, _ = self.patterns()
        columnar = StoreMatcher(store, indexes, columnar=table)
        before = (stats.scans, stats.fallbacks)
        columnar.match(pattern[0])
        assert stats.scans == before[0] + 1 and stats.fallbacks == before[1]
        plain = StoreMatcher(store, indexes, columnar=None)
        plain.match(pattern[0])
        assert stats.scans == before[0] + 1  # object walk never counts a scan


class TestSnapshotLifecycle:
    def test_lazy_build_on_first_query(self, fig6_tree):
        db = Database(columnar=True)  # pinned: env may force columnar off
        report = db.load(tree=fig6_tree, name="bib.xml")
        assert report.columnar == "pending"
        assert db.indexes.columnar_status()["state"] == "pending"
        builds = columnar_statistics().builds
        db.query(QUERY_1)
        assert columnar_statistics().builds == builds + 1
        assert db.indexes.columnar_status()["state"] == "ready"

    def test_reused_while_generation_stable(self, fig6_tree):
        db = Database(columnar=True)
        db.load(tree=fig6_tree, name="bib.xml")
        db.query(QUERY_1)
        builds = columnar_statistics().builds
        db.query(QUERY_1)
        db.query(QUERY_COUNT)
        assert columnar_statistics().builds == builds

    @pytest.mark.parametrize("mutation", ["load", "drop", "compact", "repair"])
    def test_invalidated_by_mutation(self, fig6_tree, mutation):
        db = Database(columnar=True)
        db.load(tree=fig6_tree, name="bib.xml")
        db.query(QUERY_1)
        generation = db.indexes.columnar_status()["generation"]
        if mutation == "load":
            db.load(tree=figure6_database(), name="more.xml")
        elif mutation == "drop":
            db.load(tree=figure6_database(), name="more.xml")
            db.drop_document("more.xml")
        elif mutation == "compact":
            db.compact()
        else:
            db.repair()
        status = db.indexes.columnar_status()
        assert status["state"] == "pending"
        if mutation != "repair":  # clean-store repair rebuilds in place
            assert db.data_generation > generation
        builds = columnar_statistics().builds
        result = db.query(QUERY_1)
        assert columnar_statistics().builds == builds + 1
        assert len(result.collection) == 3

    def test_compact_swaps_store_and_table_follows(self, fig6_tree):
        db = Database(columnar=True)
        db.load(tree=fig6_tree, name="bib.xml")
        db.load(tree=figure6_database(), name="gone.xml")
        db.query(QUERY_1)
        db.drop_document("gone.xml")
        db.compact()
        db.query(QUERY_1)
        table = db.indexes.columnar_if_fresh()
        assert table is not None
        assert table.generation == db.store.generation
        assert table.n_rows == db.store.n_nodes()

    def test_disabled_states(self, fig6_tree):
        no_indexes = Database(use_indexes=False)
        assert no_indexes.load(tree=fig6_tree, name="bib.xml").columnar == "disabled"
        no_columnar = Database(columnar=False)
        assert no_columnar.load(tree=fig6_tree, name="bib.xml").columnar == "disabled"
        builds = columnar_statistics().builds
        no_columnar.query(QUERY_1)
        assert columnar_statistics().builds == builds

    def test_env_flag_disables_columnar(self, fig6_tree, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR", "off")
        db = Database()
        assert db.columnar_enabled is False
        monkeypatch.setenv("REPRO_COLUMNAR", "auto")
        assert Database().columnar_enabled is True


class TestPersistence:
    def test_reopen_skips_rebuild(self, fig6_tree, tmp_path):
        directory = str(tmp_path / "db")
        with Database(directory, columnar=True) as db:
            db.load(tree=fig6_tree, name="bib.xml")
            db.query(QUERY_1)  # builds and opportunistically persists

        builds = columnar_statistics().builds
        with Database(directory, columnar=True) as reopened:
            assert reopened.indexes.columnar_status()["state"] == "ready"
            result = reopened.query(QUERY_1)
            assert len(result.collection) == 3
            assert columnar_statistics().builds == builds  # no rebuild

    def test_snapshot_without_columnar_falls_back_to_lazy_build(
        self, fig6_tree, tmp_path
    ):
        directory = str(tmp_path / "db")
        with Database(directory) as db:
            db.load(tree=fig6_tree, name="bib.xml")
            # No query ran: the persisted snapshot has no columnar chunks.

        with Database(directory, columnar=True) as reopened:
            assert reopened.indexes.columnar_status()["state"] == "pending"
            builds = columnar_statistics().builds
            reopened.query(QUERY_1)
            assert columnar_statistics().builds == builds + 1


class TestStructuralIdentity:
    """E1/E2/E4 produce structurally identical results columnar vs
    object-walk fallback, across every physical plan mode."""

    @pytest.fixture(scope="class")
    def trees(self):
        return generate_dblp(
            DBLPConfig(n_articles=60, n_authors=20, seed=7, with_institutions=True)
        )

    @pytest.fixture(scope="class")
    def columnar_db(self, trees):
        db = Database(columnar=True)
        db.load(tree=trees, name="bib.xml")
        return db

    @pytest.fixture(scope="class")
    def fallback_db(self, trees):
        db = Database(columnar=False)
        db.load(tree=trees, name="bib.xml")
        return db

    @pytest.mark.parametrize(
        "query",
        [QUERY_1, QUERY_COUNT, INSTITUTION_QUERY, SORTED_QUERY],
        ids=["e1", "e2", "e4-institution", "e4-sorted"],
    )
    @pytest.mark.parametrize("plan", ["auto", "naive", "naive-hash", "groupby"])
    def test_identical_results(self, columnar_db, fallback_db, query, plan):
        got = columnar_db.query(query, plan=plan)
        want = fallback_db.query(query, plan=plan)
        assert diff_collections(got.collection, want.collection) is None

    def test_explain_reports_the_match_strategy(self, columnar_db, fallback_db):
        assert "structural match: columnar" in columnar_db.explain(QUERY_1).render()
        assert "structural match: object-walk" in fallback_db.explain(QUERY_1).render()
