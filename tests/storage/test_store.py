"""Node-store tests: loading, labels, navigation, materialization,
persistence, statistics."""

import os

import pytest

from repro.errors import DatabaseError
from repro.storage.records import NO_PARENT
from repro.storage.store import NodeStore
from repro.xmlmodel.node import element
from repro.xmlmodel.parse import parse_document


class TestLoading:
    def test_document_registered(self, store):
        info = store.document("bib.xml")
        assert info.name == "bib.xml"
        assert info.n_nodes == store.n_nodes()

    def test_duplicate_name_rejected(self, store, fig6_tree):
        with pytest.raises(DatabaseError):
            store.load_tree(fig6_tree.deep_copy(), "bib.xml")

    def test_unknown_document_rejected(self, store):
        with pytest.raises(DatabaseError):
            store.document("nope.xml")

    def test_load_text(self):
        store = NodeStore()
        info = store.load_text("<a><b>x</b></a>", "t.xml")
        assert info.n_nodes == 2

    def test_nids_assigned_to_source_tree(self, fig6_tree):
        store = NodeStore()
        store.load_tree(fig6_tree, "bib.xml")
        nids = [node.nid for node in fig6_tree.iter()]
        assert nids == list(range(len(nids)))  # preorder

    def test_multiple_documents_disjoint_ranges(self, fig6_tree):
        store = NodeStore()
        first = store.load_tree(fig6_tree, "a.xml")
        second = store.load_text("<r><x>1</x></r>", "b.xml")
        assert second.first_nid == first.last_nid + 1
        # Labels must be disjoint too (for cross-document joins).
        _, end_a, _ = store.label(first.root_nid)
        start_b, _, _ = store.label(second.root_nid)
        assert start_b > end_a


class TestLabels:
    def test_root_label(self, store):
        info = store.document("bib.xml")
        start, end, level = store.label(info.root_nid)
        assert level == 0
        assert (end - start + 1) // 2 == info.n_nodes

    def test_containment_invariant(self, store):
        """Every child's region nests strictly inside its parent's."""
        for record in store.scan():
            if record.parent == NO_PARENT:
                continue
            parent = store.record(record.parent)
            assert parent.start < record.start
            assert record.end < parent.end
            assert record.level == parent.level + 1

    def test_document_order_by_start(self, store):
        starts = [record.start for record in store.scan()]
        assert starts == sorted(starts)

    def test_is_ancestor(self, store):
        info = store.document("bib.xml")
        root = info.root_nid
        assert store.is_ancestor(root, root + 1)
        assert not store.is_ancestor(root + 1, root)


class TestNavigation:
    def test_children_match_source(self, store, fig6_tree):
        for node in fig6_tree.iter():
            expected = [child.nid for child in node.children]
            assert store.children(node.nid) == expected

    def test_parent(self, store, fig6_tree):
        for node in fig6_tree.iter():
            if node.parent is None:
                assert store.parent(node.nid) is None
            else:
                assert store.parent(node.nid) == node.parent.nid

    def test_subtree_nids_contiguous(self, store, fig6_tree):
        article = fig6_tree.children[0]
        nids = store.subtree_nids(article.nid)
        assert list(nids) == [n.nid for n in article.iter()]

    def test_tag_and_content(self, store, fig6_tree):
        author = fig6_tree.children[0].children[0]
        assert store.tag(author.nid) == "author"
        assert store.content(author.nid) == "Jack"


class TestMaterialization:
    def test_full_roundtrip(self, store, fig6_tree):
        info = store.document("bib.xml")
        assert store.materialize(info.root_nid).structurally_equal(fig6_tree)

    def test_subtree_materialization(self, store, fig6_tree):
        article = fig6_tree.children[1]
        assert store.materialize(article.nid).structurally_equal(article)

    def test_shell_has_no_content(self, store):
        info = store.document("bib.xml")
        shell = store.materialize(info.root_nid, with_content=False)
        assert all(node.content is None for node in shell.iter())
        assert all(node.nid is not None for node in shell.iter())

    def test_populate_content_completes_shell(self, store, fig6_tree):
        info = store.document("bib.xml")
        shell = store.materialize(info.root_nid, with_content=False)
        store.populate_content(shell)
        assert shell.structurally_equal(fig6_tree)

    def test_attributes_roundtrip(self):
        store = NodeStore()
        tree = element("a", None, element("b", "x", lang="en", kind="y"))
        store.load_tree(tree, "t.xml")
        again = store.materialize(0)
        assert again.children[0].attributes == {"lang": "en", "kind": "y"}


class TestPersistence:
    def test_reopen_database_directory(self, tmp_path, fig6_tree):
        directory = os.path.join(tmp_path, "db")
        with NodeStore(directory) as store:
            store.load_tree(fig6_tree, "bib.xml")
            expected_nodes = store.n_nodes()
        with NodeStore(directory) as store:
            info = store.document("bib.xml")
            assert store.n_nodes() == expected_nodes
            assert store.materialize(info.root_nid).structurally_equal(fig6_tree)

    def test_reopen_preserves_symbols(self, tmp_path, fig6_tree):
        directory = os.path.join(tmp_path, "db")
        with NodeStore(directory) as store:
            store.load_tree(fig6_tree, "bib.xml")
            tags_before = [store.tag(nid) for nid in range(store.n_nodes())]
        with NodeStore(directory) as store:
            tags_after = [store.tag(nid) for nid in range(store.n_nodes())]
        assert tags_before == tags_after

    def test_append_document_after_reopen(self, tmp_path, fig6_tree):
        directory = os.path.join(tmp_path, "db")
        with NodeStore(directory) as store:
            store.load_tree(fig6_tree, "a.xml")
        with NodeStore(directory) as store:
            info = store.load_text("<r><x>1</x></r>", "b.xml")
            assert store.materialize(info.root_nid).children[0].content == "1"
            assert len(store.documents()) == 2


class TestStatistics:
    def test_record_lookup_counted(self, store):
        store.reset_stats()
        store.record(0)
        store.record(1)
        assert store.counters.record_lookups == 2

    def test_value_lookup_counted(self, store):
        store.reset_stats()
        store.content(1)
        assert store.counters.value_lookups == 1

    def test_materialize_counts_nodes(self, store):
        info = store.document("bib.xml")
        store.reset_stats()
        store.materialize(info.root_nid)
        assert store.counters.nodes_materialized == info.n_nodes

    def test_statistics_merge_keys(self, store):
        stats = store.stats()
        for key in ("record_lookups", "hits", "misses", "physical_reads"):
            assert key in stats

    def test_reset_clears_everything(self, store):
        store.record(0)
        store.reset_stats()
        assert store.counters.record_lookups == 0
        assert store.pool.counters.requests == 0


class TestLargeDocument:
    def test_spans_many_pages(self):
        root = element("doc_root", None)
        for i in range(2000):
            item = root.add("item")
            item.add("name", f"value-{i:05d}")
            item.add("payload", "x" * 64)
        store = NodeStore()
        info = store.load_tree(root, "big.xml")
        assert store.disk.n_pages > 5
        assert store.materialize(info.root_nid).structurally_equal(root)

    def test_locate_across_pages(self):
        root = element("doc_root", None)
        for i in range(3000):
            root.add("n", str(i))
        store = NodeStore()
        store.load_tree(root, "big.xml")
        # Every child nid resolves to the right record.
        assert store.content(1500) == "1499"
        assert store.content(3000) == "2999"
