"""Label-only path navigation (descend_path) tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.indexing.manager import IndexManager
from repro.query.physical_join_support import descend_path
from repro.storage.store import NodeStore
from repro.xmlmodel.node import XMLNode, element


def setup(tree):
    store = NodeStore()
    store.load_tree(tree, "t.xml")
    indexes = IndexManager(store)
    indexes.build()
    return store, indexes


def labels_of(indexes, tag):
    return indexes.labels_for_tag(tag)


class TestDescendPath:
    def sample(self):
        return element(
            "doc_root",
            None,
            element(
                "article",
                None,
                element("title", "T1"),
                element("author", "A", element("institution", "UM")),
            ),
            element("article", None, element("author", "B")),
            element("article", None, element("title", "T3"), element("title", "T3b")),
        )

    def test_single_step_counts(self):
        store, indexes = setup(self.sample())
        articles = labels_of(indexes, "article")
        reached = descend_path(indexes, articles, ("title",))
        counts = [len(reached[label.nid]) for label in articles]
        assert counts == [1, 0, 2]

    def test_two_step_path(self):
        store, indexes = setup(self.sample())
        articles = labels_of(indexes, "article")
        reached = descend_path(indexes, articles, ("author", "institution"))
        counts = [len(reached[label.nid]) for label in articles]
        assert counts == [1, 0, 0]

    def test_missing_tag_gives_empty(self):
        store, indexes = setup(self.sample())
        articles = labels_of(indexes, "article")
        reached = descend_path(indexes, articles, ("ghost",))
        assert all(len(v) == 0 for v in reached.values())

    def test_empty_path_returns_starts(self):
        store, indexes = setup(self.sample())
        articles = labels_of(indexes, "article")
        reached = descend_path(indexes, articles, ())
        assert all(
            len(v) == 1 and v[0].nid == nid for nid, v in reached.items()
        )

    @pytest.mark.parametrize("columnar", [False, True])
    def test_nested_starts_keep_their_own_targets(self, columnar):
        """Child steps give every reached node exactly one owning start,
        so starts may nest inside one another."""
        store, indexes = setup(
            element(
                "doc_root",
                None,
                element(
                    "sec",
                    None,
                    element("head", "outer"),
                    element("sec", None, element("head", "inner"), element("head", "inner2")),
                ),
                element("sec", None),
            )
        )
        secs = labels_of(indexes, "sec")
        table = indexes.ensure_columnar() if columnar else None
        reached = descend_path(indexes, secs, ("head",), columnar=table)
        assert [
            [store.content(label.nid) for label in reached[sec.nid]] for sec in secs
        ] == [["outer"], ["inner", "inner2"], []]
        nested = descend_path(indexes, secs, ("sec", "head"), columnar=table)
        assert [len(nested[sec.nid]) for sec in secs] == [2, 0, 0]

    def test_no_data_access(self):
        store, indexes = setup(self.sample())
        articles = labels_of(indexes, "article")
        store.reset_stats()
        descend_path(indexes, articles, ("author", "institution"))
        assert store.counters.record_lookups == 0
        assert store.counters.value_lookups == 0


tags = st.sampled_from(["a", "b", "c"])


@st.composite
def shaped_trees(draw, depth=3):
    node = XMLNode(draw(tags))
    if depth > 0:
        for child in draw(st.lists(shaped_trees(depth=depth - 1), max_size=3)):
            node.append_child(child)
    return node


@settings(max_examples=40, deadline=None)
@given(tree=shaped_trees(), path=st.lists(tags, min_size=1, max_size=2).map(tuple))
def test_matches_tree_navigation(tree, path):
    """descend_path over sibling subtrees agrees with in-memory child
    navigation."""
    root = element("doc_root", None)
    for child in list(tree.children):
        tree.remove_child(child)
        root.append_child(child)
    store, indexes = setup(root)
    starts = [
        label
        for label in indexes.labels_for_tag(root.children[0].tag)
        if store.parent(label.nid) == 0  # top-level siblings only (non-nesting)
    ] if root.children else []
    if not starts:
        return
    reached = descend_path(indexes, starts, path)

    def navigate(node):
        frontier = [node]
        for name in path:
            frontier = [c for n in frontier for c in n.children if c.tag == name]
        return len(frontier)

    by_nid = {node.nid: node for node in root.iter()}
    for label in starts:
        assert len(reached[label.nid]) == navigate(by_nid[label.nid])
