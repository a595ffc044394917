"""compare: verdicts, the unresolved rule, and the environment refusal."""

import json

import pytest

from ledger import report
from ledger.spans import Recorder


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert report.verdict(steady, [10.2, 10.3, 10.1, 10.2], "lower", 0.10) == "within bound"
    assert report.verdict(steady, [12.0, 12.1, 11.9, 12.0], "lower", 0.10) == "regressed"
    assert report.verdict(steady, [8.0, 8.1, 7.9, 8.0], "lower", 0.10) == "improved"
    assert report.verdict(steady, [8.0, 8.1, 7.9, 8.0], "higher", 0.10) == "regressed"


def test_a_set_wider_than_the_bound_is_unresolved_never_unchanged():
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert report.verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    assert report.verdict([10.0, 10.0, 10.0], [9.0, 11.5, 10.0], "lower", 0.10) == "unresolved"


def result_file(path, cpus, values):
    stamp = {"cpus": cpus, "python": "3.11.7", "commit": "c", "load_1min": 0.1, "seed": 1}
    runs = [{"workload": "adhoc", "traced": False, "metrics": {"setup_s": value}}
            for value in values]
    path.write_text(json.dumps({"fingerprint": stamp, "runs": runs}))
    return str(path)


CONTRACT = {"workloads": [{"name": "adhoc"}],
            "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.1}]}


def test_compare_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    first = result_file(tmp_path / "a.json", 2, [1.0, 1.01, 0.99])
    second = result_file(tmp_path / "b.json", 2, [1.3, 1.31, 1.29])
    assert report.compare(first, second, CONTRACT) == 1
    assert "regressed (3+3)" in capsys.readouterr().out


def test_compare_refuses_another_machine(tmp_path):
    first = result_file(tmp_path / "a.json", 2, [1.0])
    second = result_file(tmp_path / "b.json", 4, [1.0])
    with pytest.raises(SystemExit, match="cpus: 2 against 4"):
        report.compare(first, second, CONTRACT)


def test_self_time_is_the_span_minus_its_children():
    recorder = Recorder()
    root = recorder.add("op", 0.0, 0.010, None, 0, engine="sql")
    recorder.add_shipped({"name": "query", "elapsed_ms": 8.0, "attributes": {}, "children": [
        {"name": "parse", "elapsed_ms": 1.0, "attributes": {}, "children": []},
        {"name": "execute", "elapsed_ms": 6.0, "attributes": {}, "children": [
            {"name": "sql", "elapsed_ms": 4.0, "attributes": {"rows": 3}, "children": []}]},
    ]}, 0.0, root, 0)
    table = recorder.self_by_name("engine")["sql"]
    assert {name: round(value, 6) for name, value in table.items()} == {
        "op": 0.002, "query": 0.001, "parse": 0.001, "execute": 0.002, "sql": 0.004}
    assert sum(table.values()) == pytest.approx(0.010)
    assert [span["attributes"] for span in recorder.named("sql", engine="sql")] == [{"rows": 3}]
    assert recorder.named("sql", engine="algebra") == []
