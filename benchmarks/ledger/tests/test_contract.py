"""BENCHMARK.json keeps to the contract, and runs emit exactly its names."""

import json
import os
import re
import subprocess
import sys

import pytest

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LEDGER))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    CONTRACT = json.load(handle)


def test_benchmark_json_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert all(not part.startswith("/") and ".." not in part for part in CONTRACT["command"])
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16 and 1 <= len(CONTRACT["per_layer"]) <= 128
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(metric for metric in CONTRACT["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in CONTRACT["end_to_end"])
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * CONTRACT["run_seconds"] < 3420


def run(*arguments):
    completed = subprocess.run(
        [sys.executable, os.path.join(LEDGER, "run.py"), *arguments],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", [entry["name"] for entry in CONTRACT["workloads"]])
def test_a_run_emits_exactly_the_contract_names(workload, trace, key):
    output = run("--workload", workload, "--smoke", "--seconds", "1", "--trace", trace)
    result = json.loads(output.strip().rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in CONTRACT[key]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    assert all(NAME.match(name) for name in result["metrics"])
    assert all(isinstance(entry["value"], float) for entry in result["metrics"].values())
    if key == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        assert os.path.exists(os.path.join(LEDGER, "out", f"trace-{workload}.json"))


def test_the_whole_smoke_ledger_finishes_in_twenty_seconds(tmp_path):
    import time
    started = time.monotonic()
    output = run("--smoke", "--seconds", "1", "--json", str(tmp_path / "smoke.json"))
    assert time.monotonic() - started < 20.0
    assert "algebra/curriculum/four-document" in output
    with open(tmp_path / "smoke.json", encoding="utf-8") as handle:
        document = json.load(handle)
    assert [entry["workload"] for entry in document["runs"]] == [
        entry["name"] for entry in CONTRACT["workloads"]]
    assert set(document["fingerprint"]) == {"cpus", "python", "commit", "load_1min", "seed"}


def test_no_program_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command fails and prints no result."""
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "adhoc", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=tmp_path)
    assert completed.returncode != 0 and completed.stdout == ""
