"""Low-level physical-executor behaviour: witness sets, deferral,
dedup keying."""

import pytest

from repro.datagen.sample import QUERY_1
from repro.errors import TranslationError
from repro.query.parser import parse_query
from repro.query.physical import (
    DatabaseRef,
    GroupedSet,
    JoinedSet,
    PhysicalExecutor,
    WitnessSet,
)
from repro.query.plan import PlanNode, dupelim, project, scan, select
from repro.query.rewrite import initial_pattern
from repro.query.translate import naive_plan, outer_pattern, recognize


@pytest.fixture
def executor(store, indexes):
    return PhysicalExecutor(store, indexes)


class TestScanAndSelect:
    def test_scan_returns_database_ref(self, executor):
        result = executor._run(scan("bib.xml"))
        assert isinstance(result, DatabaseRef)
        assert result.doc == "bib.xml"

    def test_select_produces_witness_set(self, executor):
        pattern = initial_pattern("doc_root", "article")
        result = executor._run(select(scan("bib.xml"), pattern, {"$2"}))
        assert isinstance(result, WitnessSet)
        assert len(result.matches) == 3
        assert result.selection_list == frozenset({"$2"})

    def test_select_needs_database_input(self, executor):
        pattern = initial_pattern("doc_root", "article")
        inner = select(scan("bib.xml"), pattern, {"$2"})
        with pytest.raises(TranslationError):
            executor._run(select(inner, pattern, {"$2"}))

    def test_select_is_identifier_only(self, store, indexes):
        executor = PhysicalExecutor(store, indexes)
        pattern = initial_pattern("doc_root", "article")
        store.reset_stats()
        executor._run(select(scan("bib.xml"), pattern, {"$2"}))
        assert store.counters.value_lookups == 0
        assert store.counters.nodes_materialized == 0


class TestProjectionDeferral:
    def test_project_records_list_without_work(self, store, indexes):
        executor = PhysicalExecutor(store, indexes)
        pattern = initial_pattern("doc_root", "article")
        plan = project(select(scan("bib.xml"), pattern, {"$2"}), pattern, ["$2*"])
        store.reset_stats()
        result = executor._run(plan)
        assert isinstance(result, WitnessSet)
        assert result.projection_list == ("$2*",)
        # Deferred: projection touched no data.
        assert store.counters.value_lookups == 0
        assert store.counters.nodes_materialized == 0


class TestDupelimKeys:
    def test_witness_dedup_populates_only_key(self, store, indexes):
        executor = PhysicalExecutor(store, indexes)
        pattern = outer_pattern("doc_root", "author")
        plan = dupelim(
            project(select(scan("bib.xml"), pattern, {"$2"}), pattern, ["$1", "$2*"]),
            pattern,
            "$2",
        )
        store.reset_stats()
        result = executor._run(plan)
        assert isinstance(result, WitnessSet)
        assert len(result.matches) == 3  # Jack, John, Jill
        assert store.counters.value_lookups == 5  # one per author occurrence
        assert all("$2" in match.values for match in result.matches)

    def test_dupelim_without_label_rejected_on_witnesses(self, executor):
        pattern = outer_pattern("doc_root", "author")
        plan = dupelim(select(scan("bib.xml"), pattern, {"$2"}))
        with pytest.raises(TranslationError):
            executor._run(plan)


class TestJoinedSets:
    def joined(self, executor):
        plan = naive_plan(recognize(parse_query(QUERY_1)), "doc_root")
        join_node = plan.find("left_outer_join")[0]
        return executor._run(join_node)

    def test_pairs_left_major(self, executor):
        result = self.joined(executor)
        assert isinstance(result, JoinedSet)
        lead = [left.values[result.left_label] for left, _ in result.pairs]
        assert lead == sorted(lead, key=["Jack", "John", "Jill"].index)

    def test_no_padding_in_dblp_shape(self, executor):
        result = self.joined(executor)
        assert all(right is not None for _, right in result.pairs)

    def test_grouped_set_from_full_plan(self, executor, store):
        plan = naive_plan(recognize(parse_query(QUERY_1)), "doc_root")
        from repro.query.rewrite import rewrite

        grouped_plan = rewrite(plan)
        grouped = executor._run(grouped_plan.inputs[0])
        assert isinstance(grouped, GroupedSet)
        values = [value for value, _, _ in grouped.groups]
        assert values == ["Jack", "John", "Jill"]
        member_counts = [len(members) for _, _, members in grouped.groups]
        assert member_counts == [2, 2, 1]


class TestUnsupportedShapes:
    def test_unknown_op_rejected(self, executor):
        with pytest.raises(TranslationError):
            executor._run(PlanNode("teleport"))

    def test_root_must_produce_collection(self, executor):
        with pytest.raises(TranslationError):
            executor.execute(scan("bib.xml"))
