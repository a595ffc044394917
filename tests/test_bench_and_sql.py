"""Tests for the benchmark layer (workload queries, harness, Table 2)."""

import pytest

from repro.bench.harness import BenchmarkHarness
from repro.bench.queries import WORKLOADS, get_workload
from repro.bench.reporting import format_milliseconds, render_speedups, render_table2, results_to_csv
from repro.bench.table2 import PRESETS, run_preset


@pytest.fixture(scope="module")
def harness():
    return BenchmarkHarness()


class TestWorkloadDefinitions:
    def test_all_four_workloads_exist(self):
        assert set(WORKLOADS) == {"bidder-network", "dialogs", "curriculum", "hospital"}

    def test_query_texts_parse(self):
        from repro.xquery.parser import parse_query

        for workload in WORKLOADS.values():
            for algorithm in ("naive", "delta", "auto"):
                parse_query(workload.ifp_query(algorithm=algorithm, seed_limit=5))
            for variant in ("fix", "delta"):
                parse_query(workload.udf_query(variant=variant, seed_limit=5))

    def test_recursion_bodies_are_distributive(self):
        """Section 5: all benchmark queries were recognised as distributive."""
        from repro.distributivity import is_distributivity_safe
        from repro.xquery.parser import parse_expression, parse_query

        for workload in WORKLOADS.values():
            module = parse_query(workload.ifp_query(algorithm="auto", seed_limit=1))
            body = parse_expression(workload.recursion_body)
            assert is_distributivity_safe(body, workload.recursion_variable,
                                          functions=module.function_map()), workload.name

    def test_unknown_lookups_raise(self):
        with pytest.raises(KeyError):
            get_workload("nope")
        with pytest.raises(KeyError):
            get_workload("curriculum").size("gigantic")
        with pytest.raises(ValueError):
            get_workload("curriculum").udf_query(variant="bogus")


class TestHarness:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_naive_and_delta_agree_on_every_workload(self, harness, workload):
        naive = harness.run(workload, "tiny", engine="ifp", algorithm="naive")
        delta = harness.run(workload, "tiny", engine="ifp", algorithm="delta")
        assert naive.result_digest == delta.result_digest
        assert delta.nodes_fed_back <= naive.nodes_fed_back
        assert naive.recursion_depth == delta.recursion_depth

    def test_udf_engine_matches_ifp_engine(self, harness):
        ifp = harness.run("curriculum", "tiny", engine="ifp", algorithm="delta")
        udf = harness.run("curriculum", "tiny", engine="udf", algorithm="delta")
        assert ifp.result_digest == udf.result_digest

    def test_algebra_engine_runs_curriculum(self, harness):
        naive = harness.run("curriculum", "tiny", engine="algebra", algorithm="naive")
        delta = harness.run("curriculum", "tiny", engine="algebra", algorithm="delta")
        assert naive.result_digest == delta.result_digest
        assert delta.nodes_fed_back <= naive.nodes_fed_back

    def test_seed_limit_is_honoured(self, harness):
        limited = harness.run("hospital", "tiny", engine="ifp", algorithm="delta", seed_limit=3)
        assert limited.item_count == 3

    def test_unknown_engine_rejected(self, harness):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            harness.run("curriculum", "tiny", engine="mystery")


class TestReportingAndPresets:
    def test_quick_preset_and_rendering(self, harness):
        results = [
            harness.run("curriculum", "tiny", engine="ifp", algorithm="naive"),
            harness.run("curriculum", "tiny", engine="ifp", algorithm="delta"),
            harness.run("curriculum", "tiny", engine="udf", algorithm="delta"),
        ]
        table = render_table2(results)
        assert "IFP Naive" in table and "curriculum" in table
        speedups = render_speedups(results)
        assert "curriculum" in speedups
        csv_text = results_to_csv(results)
        assert csv_text.count("\n") == 4  # header + three rows

    def test_presets_reference_known_workloads(self):
        for rows in PRESETS.values():
            for workload, size in rows:
                get_workload(workload).size(size)

    def test_run_preset_filters_workloads(self):
        results = run_preset("quick", engines=("ifp",), workloads=["hospital"], seed_limit=3)
        assert results and all(r.workload == "hospital" for r in results)

    def test_format_milliseconds(self):
        assert format_milliseconds(None) == "-"
        assert format_milliseconds(0.5).endswith("ms")
        assert "m" in format_milliseconds(75.0)
