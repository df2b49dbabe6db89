"""Tag index, value index, and index manager tests."""

import pytest

from repro.errors import IndexError_
from repro.indexing.labels import NodeLabel, assert_document_order, sort_document_order
from repro.indexing.manager import IndexManager
from repro.indexing.tag_index import TagIndex
from repro.indexing.value_index import ValueIndex


def label(nid, start=None, end=None, level=1):
    start = nid * 2 if start is None else start
    end = start + 1 if end is None else end
    return NodeLabel(nid, start, end, level)


class TestNodeLabel:
    def test_contains(self):
        outer = NodeLabel(0, 0, 9, 0)
        inner = NodeLabel(1, 2, 3, 2)
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert not outer.contains(outer)

    def test_is_parent_of(self):
        outer = NodeLabel(0, 0, 9, 0)
        child = NodeLabel(1, 1, 4, 1)
        grandchild = NodeLabel(2, 2, 3, 2)
        assert outer.is_parent_of(child)
        assert not outer.is_parent_of(grandchild)

    def test_sort_document_order(self):
        labels = [label(2), label(0), label(1)]
        assert [l.nid for l in sort_document_order(labels)] == [0, 1, 2]

    def test_assert_document_order(self):
        assert_document_order([label(0), label(1)])
        with pytest.raises(ValueError):
            assert_document_order([label(1), label(0)])


class TestTagIndex:
    def test_postings_in_document_order(self):
        index = TagIndex()
        index.add(0, label(0))
        index.add(0, label(2))
        index.add(0, label(1))  # out of order: triggers lazy sort
        assert [l.nid for l in index.labels(0)] == [0, 1, 2]

    def test_missing_tag_empty(self):
        assert TagIndex().labels(9) == []

    def test_count_and_total(self):
        index = TagIndex()
        index.add(0, label(0))
        index.add(0, label(1))
        index.add(1, label(2))
        assert index.count(0) == 2
        assert index.count(7) == 0
        assert index.total_postings() == 3
        assert index.tags() == [0, 1]

    def test_lookups_counted(self):
        index = TagIndex()
        index.add(0, label(0))
        index.labels(0)
        index.labels(0)
        assert index.lookups == 2

    def test_invariant_duplicate_nid_rejected(self):
        index = TagIndex()
        index.add(0, NodeLabel(5, 0, 1, 1))
        index.add(0, NodeLabel(5, 2, 3, 1))
        with pytest.raises(IndexError_):
            index.check_invariants()


class TestValueIndex:
    def make(self):
        index = ValueIndex()
        index.add(0, "Jack", label(3))
        index.add(0, "Jack", label(1))
        index.add(0, "Jill", label(2))
        index.add(1, "Jack", label(9))  # different tag, same value
        return index

    def test_lookup_sorted(self):
        index = self.make()
        assert [l.nid for l in index.labels(0, "Jack")] == [1, 3]

    def test_missing_value(self):
        assert self.make().labels(0, "Nobody") == []

    def test_type_heterogeneity_keys_scoped_by_tag(self):
        index = self.make()
        assert [l.nid for l in index.labels(1, "Jack")] == [9]

    def test_distinct_values_ascending(self):
        index = self.make()
        values = [value for value, _ in index.distinct_values(0)]
        assert values == ["Jack", "Jill"]

    def test_distinct_values_does_not_leak_other_tags(self):
        index = self.make()
        postings = dict(index.distinct_values(0))
        assert all(l.nid != 9 for labels in postings.values() for l in labels)

    def test_sizes(self):
        index = self.make()
        assert index.n_keys() == 3
        assert index.n_entries() == 4


class TestIndexManager:
    def test_labels_for_tag(self, store, indexes):
        authors = indexes.labels_for_tag("author")
        assert len(authors) == 5
        assert [store.content(l.nid) for l in authors] == [
            "Jack", "John", "Jill", "Jack", "John",
        ]

    def test_labels_for_unknown_tag(self, indexes):
        assert indexes.labels_for_tag("nope") == []

    def test_labels_for_tag_value(self, store, indexes):
        jacks = indexes.labels_for_tag_value("author", "Jack")
        assert len(jacks) == 2
        assert all(store.content(l.nid) == "Jack" for l in jacks)

    def test_distinct_values(self, indexes):
        values = [value for value, _ in indexes.distinct_values("author")]
        assert values == ["Jack", "Jill", "John"]  # ascending

    def test_tag_cardinality(self, indexes):
        assert indexes.tag_cardinality("article") == 3
        assert indexes.tag_cardinality("ghost") == 0

    def test_check_invariants(self, indexes):
        indexes.check_invariants()

    def test_unbuilt_invariants_rejected(self, store):
        manager = IndexManager(store)
        with pytest.raises(IndexError_):
            manager.check_invariants()

    def test_rebuild_after_second_document(self, store):
        manager = IndexManager(store)
        manager.build()
        store.load_text("<doc_root><author>Zara</author></doc_root>", "b.xml")
        manager.build()
        values = [value for value, _ in manager.distinct_values("author")]
        assert "Zara" in values

    def test_statistics_keys(self, indexes):
        indexes.labels_for_tag("author")
        stats = indexes.work_counters()
        assert stats["tag_index_lookups"] >= 1
        assert stats["index_postings_served"] > 0
