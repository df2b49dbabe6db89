"""Experiment-harness tests at a tiny scale.

These check the harness machinery and the *qualitative* claims of the
paper's evaluation (who wins; E2's advantage exceeds E1's in value
lookups) without asserting wall-clock numbers, which are noisy in CI.
"""

import pytest

from repro.bench.experiments import (
    run_ablation_buffer_pool,
    run_ablation_grouping_strategies,
    run_ablation_match_strategies,
    run_experiment1,
    run_experiment2,
    run_scaling,
)
from repro.bench.harness import build_database, measured_run
from repro.bench.reporting import format_report, format_scaling, format_table
from repro.datagen.dblp import DBLPConfig
from repro.datagen.sample import QUERY_1

TINY = DBLPConfig(n_articles=60, n_authors=25, seed=7)


class TestHarness:
    def test_build_database_profile(self):
        db, profile = build_database(TINY)
        assert profile.n_articles == 60
        assert db.documents() == ["bib.xml"]

    def test_measured_run_record(self):
        db, _ = build_database(TINY)
        record = measured_run(db, "probe", QUERY_1, "groupby")
        assert record.plan_mode == "groupby"
        assert record.seconds > 0
        assert record.result_size > 0
        assert record.statistics["value_lookups"] > 0

    def test_row_keys(self):
        db, _ = build_database(TINY)
        row = measured_run(db, "probe", QUERY_1, "groupby").row()
        for key in ("label", "plan", "seconds", "value_lookups", "results"):
            assert key in row


class TestExperimentShapes:
    def test_e1_groupby_does_least_lookups(self):
        report = run_experiment1(TINY)
        nested = report.run_by_label("direct-nested-loop")
        hashed = report.run_by_label("direct-hash-join")
        grouped = report.run_by_label("groupby")
        assert grouped.statistics["value_lookups"] < hashed.statistics["value_lookups"]
        assert hashed.statistics["value_lookups"] < nested.statistics["value_lookups"]

    def test_e1_all_plans_same_result_size(self):
        report = run_experiment1(TINY)
        sizes = {run.result_size for run in report.runs}
        assert len(sizes) == 1

    def test_e2_gap_exceeds_e1_gap(self):
        """The paper's headline shape: removing the title output widens
        the grouping advantage (>6x vs ~1.8x).

        Measured in storage accesses (record lookups — every value
        lookup is one).  Value lookups alone no longer rank the two:
        the GROUPBY plan reads a title shared by several authors once,
        a saving E2, which reads no title, cannot show."""

        def gap(report):
            baseline = report.run_by_label("direct-hash-join").statistics
            grouped = report.run_by_label("groupby").statistics
            return baseline["record_lookups"] / grouped["record_lookups"]

        assert gap(run_experiment2(TINY)) > gap(run_experiment1(TINY))

    def test_paper_ratio_bracketing(self):
        """The paper's measured ratios sit between the two baselines in
        value-lookup terms."""
        e2 = run_experiment2(TINY)
        low = e2.lookup_ratio("direct-hash-join", "groupby")
        high = e2.lookup_ratio("direct-nested-loop", "groupby")
        assert low < 6.75 < high

    def test_speedup_and_lookup_helpers(self):
        report = run_experiment2(TINY)
        assert report.speedup("direct-nested-loop", "groupby") > 1
        with pytest.raises(KeyError):
            report.run_by_label("missing")


class TestAblations:
    def test_match_strategies_same_results(self):
        report = run_ablation_match_strategies(TINY)
        sizes = {run.result_size for run in report.runs}
        assert len(sizes) == 1
        indexed = report.run_by_label("indexed")
        scanned = report.run_by_label("full-scan")
        assert (
            indexed.statistics["record_lookups"] < scanned.statistics["record_lookups"]
        )

    def test_grouping_strategies(self):
        report = run_ablation_grouping_strategies(TINY)
        labels = [run.label for run in report.runs]
        assert labels == ["sort", "hash", "replicate", "value-index"]
        sort = report.run_by_label("sort")
        replicate = report.run_by_label("replicate")
        assert (
            sort.statistics["record_lookups"] < replicate.statistics["record_lookups"]
        )

    def test_value_index_strategy_tradeoff(self):
        """Footnote 8: the value index avoids value lookups but pays
        parent navigation per posting."""
        report = run_ablation_grouping_strategies(TINY)
        sort = report.run_by_label("sort")
        value_index = report.run_by_label("value-index")
        assert value_index.statistics["value_lookups"] < sort.statistics["value_lookups"]
        assert value_index.statistics["record_lookups"] > sort.statistics["record_lookups"]
        assert value_index.result_size == sort.result_size

    def test_buffer_pool_sweep(self):
        report = run_ablation_buffer_pool(TINY, frame_budgets=(2, 64))
        small = report.runs[0]
        large = report.runs[1]
        assert small.result_size == large.result_size
        # A tiny pool cannot absorb the working set: more physical reads.
        assert (
            small.statistics["physical_reads"] >= large.statistics["physical_reads"]
        )


class TestReporting:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": ""}], ("a", "b"))
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_report_mentions_paper(self):
        report = run_experiment2(TINY)
        text = format_report(report, "E2")
        assert "E2 count-by-author" in text
        assert "paper (E2)" in text
        assert "speedup" in text

    def test_format_scaling(self):
        scaling = run_scaling(scales=(0.5, 1.0), base=TINY)
        text = format_scaling(scaling)
        assert "E1 nested-loop" in text
        assert text.count("\n") >= 3
