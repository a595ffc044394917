"""Tests for the benchmark layer (workload queries, Table 2)."""

import pytest

from repro.bench.queries import WORKLOADS, get_workload
from repro.bench.table2 import ENGINES, PRESETS, render, run_preset, run_row

#: Nodes fed back under (Naive, Delta) on the tiny documents, first 5 seeds.
TINY_FED_BACK = {"bidder-network": (38, 24), "dialogs": (25, 15),
                 "curriculum": (479, 145), "hospital": (182, 99)}


@pytest.fixture(scope="module")
def tiny_rows():
    """Every engine × algorithm on each workload's tiny row, 5 seeds."""
    return {name: {(cell.engine, cell.algorithm): cell
                   for cell in run_row(name, "tiny", seed_limit=5)}
            for name in WORKLOADS}


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


class TestTable2Rows:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_naive_and_delta_agree_on_every_workload(self, tiny_rows, workload):
        for engine in ENGINES:
            naive = tiny_rows[workload][engine, "naive"]
            delta = tiny_rows[workload][engine, "delta"]
            assert naive.answers == delta.answers, engine
            assert len(naive.answers) == 5
        naive = tiny_rows[workload]["interpreter", "naive"]
        delta = tiny_rows[workload]["interpreter", "delta"]
        assert delta.nodes_fed_back <= naive.nodes_fed_back
        assert naive.recursion_depth == delta.recursion_depth

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_engine_gives_the_interpreter_answers(self, tiny_rows, workload):
        reference = tiny_rows[workload]["interpreter", "naive"].answers
        for cell in tiny_rows[workload].values():
            assert cell.answers == reference, (cell.engine, cell.algorithm)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_fed_back_counts_are_the_same_on_every_engine(self, tiny_rows, workload):
        naive, delta = TINY_FED_BACK[workload]
        for engine in ("interpreter", "algebra", "sql"):
            assert tiny_rows[workload][engine, "naive"].nodes_fed_back == naive, engine
            # SQL under Delta is a CTE (counts None) unless the body has no SQL form.
            assert tiny_rows[workload][engine, "delta"].nodes_fed_back in (delta, None), engine
        assert tiny_rows[workload]["algebra", "delta"].nodes_fed_back == delta

    def test_udf_reports_no_counts(self, tiny_rows):
        udf = tiny_rows["curriculum"]["udf", "delta"]
        assert udf.nodes_fed_back is None and udf.recursion_depth is None

    def test_seed_limit_is_honoured(self):
        cells = run_row("hospital", "tiny", engines=("interpreter",), seed_limit=3)
        assert [len(cell.answers) for cell in cells] == [3, 3]

    def test_unknown_engine_or_workload_rejected(self):
        with pytest.raises(ValueError):
            run_row("curriculum", "tiny", engines=("mystery",))
        with pytest.raises(KeyError):
            run_preset("quick", workloads=["nope"])


class TestRenderingAndPresets:
    def test_render_pairs_naive_and_delta(self, tiny_rows):
        cells = [tiny_rows["curriculum"][engine, algorithm]
                 for engine in ("interpreter", "sql") for algorithm in ("naive", "delta")]
        header, interpreter, sql = render(cells).splitlines()
        assert "ratio" in header
        assert interpreter.split()[:4] == ["curriculum", "tiny", "interpreter", "5"]
        assert interpreter.split()[-3:] == ["479", "145", "8"]
        assert sql.split()[-3:] == ["479", "-", "8"]

    def test_presets_reference_known_workloads(self):
        for rows in PRESETS.values():
            for workload, size in rows:
                get_workload(workload).size(size)

    def test_run_preset_filters_workloads(self):
        cells = run_preset("quick", engines=("interpreter",), workloads=["hospital"], seed_limit=3)
        assert cells and all(cell.workload == "hospital" for cell in cells)
