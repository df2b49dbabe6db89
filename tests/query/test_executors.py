"""Logical and physical executor tests."""

import pytest

from repro.datagen.sample import QUERY_1, QUERY_COUNT
from repro.errors import TranslationError
from repro.query.logical_exec import LogicalExecutor
from repro.query.parser import parse_query
from repro.query.physical import PhysicalExecutor
from repro.query.plan import PlanNode, scan
from repro.query.rewrite import rewrite
from repro.query.translate import naive_plan, recognize


def plans(text):
    naive = naive_plan(recognize(parse_query(text)), "doc_root")
    return naive, rewrite(naive)


class TestLogicalExecutor:
    def test_scan_materializes_document(self, store, indexes):
        executor = LogicalExecutor(store, indexes)
        out = executor.execute(scan("bib.xml"))
        assert len(out) == 1
        assert out[0].root.tag == "doc_root"

    def test_scan_cached(self, store, indexes):
        executor = LogicalExecutor(store, indexes)
        first = executor.execute(scan("bib.xml"))
        second = executor.execute(scan("bib.xml"))
        assert first is second

    def test_naive_plan_query1(self, store, indexes):
        naive, _ = plans(QUERY_1)
        out = LogicalExecutor(store, indexes).execute(naive)
        assert len(out) == 3
        assert out[0].root.tag == "authorpubs"
        titles = [c.content for c in out[0].root.children if c.tag == "title"]
        assert titles == ["Querying XML", "XML and the Web"]

    def test_groupby_plan_query1_identical(self, store, indexes):
        naive, grouped = plans(QUERY_1)
        executor = LogicalExecutor(store, indexes)
        assert executor.execute(naive).structurally_equal(executor.execute(grouped))

    def test_count_plans_agree(self, store, indexes):
        naive, grouped = plans(QUERY_COUNT)
        executor = LogicalExecutor(store, indexes)
        a = executor.execute(naive)
        b = executor.execute(grouped)
        assert a.structurally_equal(b)
        assert [t.root.content for t in a] == ["2", "2", "1"]

    def test_unsupported_op_rejected(self, store, indexes):
        with pytest.raises(TranslationError):
            LogicalExecutor(store, indexes).execute(PlanNode("mystery"))


class TestPhysicalExecutor:
    def executor(self, store, indexes, **kwargs):
        return PhysicalExecutor(store, indexes, **kwargs)

    def test_naive_plan_query1(self, store, indexes):
        naive, _ = plans(QUERY_1)
        out = self.executor(store, indexes).execute(naive)
        assert len(out) == 3
        assert out[0].root.children[0].content == "Jack"

    def test_groupby_plan_query1(self, store, indexes):
        _, grouped = plans(QUERY_1)
        out = self.executor(store, indexes).execute(grouped)
        assert len(out) == 3
        titles = [c.content for c in out[1].root.children if c.tag == "title"]
        assert titles == ["Querying XML", "Hack HTML"]  # John

    def test_physical_matches_logical(self, store, indexes):
        for text in (QUERY_1, QUERY_COUNT):
            naive, grouped = plans(text)
            logical = LogicalExecutor(store, indexes)
            physical = self.executor(store, indexes)
            reference = logical.execute(naive)
            assert physical.execute(naive).structurally_equal(reference)
            assert physical.execute(grouped).structurally_equal(reference)

    def test_join_strategies_equivalent(self, store, indexes):
        naive, _ = plans(QUERY_1)
        nested = self.executor(store, indexes, join_strategy="nested-loop").execute(naive)
        hashed = self.executor(store, indexes, join_strategy="value-hash").execute(naive)
        assert nested.structurally_equal(hashed)

    def test_grouping_strategies_equivalent(self, store, indexes):
        _, grouped = plans(QUERY_1)
        results = [
            self.executor(store, indexes, grouping_strategy=s).execute(grouped)
            for s in ("sort", "hash", "replicate", "value-index")
        ]
        for other in results[1:]:
            assert results[0].structurally_equal(other)

    def test_value_index_strategy_skips_value_lookups(self, store, indexes):
        _, grouped = plans(QUERY_COUNT)
        store.reset_stats()
        result = self.executor(
            store, indexes, grouping_strategy="value-index"
        ).execute(grouped)
        # Grouping itself needs no value lookups (keys come off the
        # index); only the output group nodes are materialized.
        assert store.counters.value_lookups == len(result)

    def test_replicate_strategy_materializes_more(self, store, indexes):
        _, grouped = plans(QUERY_COUNT)
        store.reset_stats()
        self.executor(store, indexes, grouping_strategy="sort").execute(grouped)
        sort_nodes = store.counters.nodes_materialized
        store.reset_stats()
        self.executor(store, indexes, grouping_strategy="replicate").execute(grouped)
        replicate_nodes = store.counters.nodes_materialized
        assert replicate_nodes > sort_nodes  # the Sec. 5.3 strawman cost

    def test_count_plan_skips_member_materialization(self, store, indexes):
        """Late materialization: COUNT never touches article subtrees —
        only the (leaf) group nodes are materialized for output."""
        _, grouped = plans(QUERY_COUNT)
        store.reset_stats()
        result = self.executor(store, indexes).execute(grouped)
        assert store.counters.nodes_materialized == len(result)  # 1 per group

    def test_scan_only_plans_rejected_at_root(self, store, indexes):
        with pytest.raises(TranslationError):
            self.executor(store, indexes).execute(scan("bib.xml"))

    def test_bad_strategy_rejected(self, store, indexes):
        with pytest.raises(TranslationError):
            self.executor(store, indexes, grouping_strategy="magic")
        with pytest.raises(TranslationError):
            self.executor(store, indexes, join_strategy="magic")

    def test_full_scan_matching_equivalent(self, store, indexes):
        _, grouped = plans(QUERY_1)
        indexed = self.executor(store, indexes, use_indexes=True).execute(grouped)
        scanned = self.executor(store, indexes, use_indexes=False).execute(grouped)
        assert indexed.structurally_equal(scanned)
