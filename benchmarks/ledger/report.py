"""Printing a run, stamping result files, and comparing two sets of runs."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess

from ledger import stats


def load_contract(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint(root: str, seed: int) -> dict:
    """What two result files must share before their numbers may be compared
    (cpus, python, seed), and what tells runs apart (commit, load)."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"cpus": os.cpu_count(), "python": platform.python_version(), "commit": commit,
            "load_1min": os.getloadavg()[0], "seed": seed}


def print_run(run: dict, units: dict[str, str]) -> None:
    """Every metric of one run by name, with its unit."""
    kind = "per-layer (traced)" if run["traced"] else "end-to-end (untraced)"
    print(f"== {run['workload']}: {kind}, seed {run['seed']}, "
          f"{run['attempted']} ops attempted, {run['failed']} failed")
    for name, value in run["metrics"].items():
        print(f"  {name:<38} {value:>14.4f} {units[name]}")
    detail = run["detail"]
    if "samples" in detail:
        print("  samples per cell: " + ", ".join(
            f"{cell}={count}" for cell, count in detail["samples"].items()))
    for failure in detail.get("failures", []):
        print(f"  FAILED {failure}")
    for kind in ("wrong", "unsupported"):
        if detail.get(f"cells_{kind}"):
            print(f"  check matrix, {kind} cells: " + ", ".join(detail[f"cells_{kind}"]))
    if "where_the_time_goes" in detail:
        print_time_table(detail["where_the_time_goes"])


def print_time_table(table: dict[str, dict[str, float]]) -> None:
    """Self time per span name as a share of each engine's op time."""
    engines = sorted(table)
    names = sorted({name for column in table.values() for name in column},
                   key=lambda name: -max(column.get(name, 0.0) for column in table.values()))
    print("  where the time goes (self time, share of the engine's op time):")
    print("    " + f"{'span':<22}" + "".join(f"{engine:>14}" for engine in engines))
    for name in names:
        cells = "".join(
            f"{table[engine].get(name, 0.0):>14.3f}" if name == "ms per op"
            else f"{table[engine].get(name, 0.0):>13.1%} " for engine in engines)
        print(f"    {name:<22}{cells}")


def append_run(path: str, stamp: dict, run: dict) -> None:
    """Add *run* to the result file at *path* (created with *stamp*)."""
    document = {"fingerprint": stamp, "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        problem = incomparable(document["fingerprint"], stamp, ("cpus", "python", "seed", "commit"))
        if problem:
            raise SystemExit(f"{path} holds runs of another environment: {problem}")
    document["runs"].append(run)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)


def incomparable(first: dict, second: dict, keys=("cpus", "python", "seed")) -> str:
    """Why two fingerprints may not be compared, or an empty string."""
    return "; ".join(f"{key}: {first[key]} against {second[key]}"
                     for key in keys if first[key] != second[key])


def own_spread(values: list[float]) -> float:
    """A set's own spread as a share of its median: the interquartile
    distance from four values up, the whole range below that."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    return stats.spread(values)


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """improved / regressed / within bound — or unresolved, when either
    set's own spread is wider than the bound the verdict would rest on."""
    if max(own_spread(base), own_spread(change)) > bound:
        return "unresolved"
    shift = statistics.median(change) / statistics.median(base) - 1.0
    if better == "higher":
        shift = -shift
    if shift > bound:
        return "regressed"
    if shift < -bound:
        return "improved"
    return "within bound"


def compare(path_a: str, path_b: str, contract: dict) -> int:
    """One row per workload × end-to-end metric; 1 if anything regressed."""
    documents = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    problem = incomparable(documents[0]["fingerprint"], documents[1]["fingerprint"])
    if problem:
        raise SystemExit(f"refusing to compare across environments: {problem}")
    print(f"A {path_a}: commit {documents[0]['fingerprint']['commit'][:12]}   "
          f"B {path_b}: commit {documents[1]['fingerprint']['commit'][:12]}")
    print(f"{'workload':<15}{'metric':<16}{'A median':>12}{'B median':>12}{'B/A':>8}"
          f"{'A spread':>10}{'B spread':>10}{'bound':>7}  verdict (runs)")
    regressed = False
    for workload in (entry["name"] for entry in contract["workloads"]):
        for metric in contract["end_to_end"]:
            sides = [[run["metrics"][metric["name"]] for run in document["runs"]
                      if run["workload"] == workload and not run["traced"]]
                     for document in documents]
            if not all(sides):
                continue
            outcome = verdict(*sides, metric["better"], metric["bound"])
            regressed |= outcome == "regressed"
            medians = [statistics.median(side) for side in sides]
            print(f"{workload:<15}{metric['name']:<16}{medians[0]:>12.4f}{medians[1]:>12.4f}"
                  f"{medians[1] / medians[0]:>8.3f}{own_spread(sides[0]):>10.1%}"
                  f"{own_spread(sides[1]):>10.1%}{metric['bound']:>7.0%}  {outcome} "
                  f"({len(sides[0])}+{len(sides[1])})")
    return 1 if regressed else 0
