#!/usr/bin/env python3
"""The performance ledger: one command, every metric by name.

    python3 benchmarks/ledger/run.py                      # all four workloads, end-to-end
    python3 benchmarks/ledger/run.py --traced             # all four, per-layer tables
    python3 benchmarks/ledger/run.py --smoke              # tiny documents, 2 s windows
    python3 benchmarks/ledger/run.py --workload adhoc --seed 7 --seconds 20 --trace 0
    python3 benchmarks/ledger/run.py compare A.json B.json

With ``--workload`` the run happens in this process and the last line of
standard output is the result object of ``BENCHMARK.json``'s contract;
without it every workload runs in a child process of its own (so peak
memory is per workload) and ``--json OUT`` collects the stamped runs.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

LEDGER = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER))
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(LEDGER, "out")

if not os.path.isdir(os.path.join(SOURCE, "repro")):
    sys.exit(f"ledger: no program to measure: {SOURCE}/repro is missing")
sys.path[:0] = [os.path.dirname(LEDGER), SOURCE]

from ledger import check, report  # noqa: E402
from ledger.measure import measure  # noqa: E402
from ledger.ops import CLOSURE_CLASSES, DEFAULT_SEED, WORKLOADS  # noqa: E402


def parse_arguments(argv: list[str], contract: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this workload here; default: all, one child process each")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the timed window (default {contract['run_seconds']}, "
                             f"2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced replay, not end-to-end ones")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="tiny documents, short windows")
    parser.add_argument("--json", metavar="OUT", help="append the stamped run(s) to this file")
    arguments = parser.parse_args(argv)
    arguments.traced = arguments.traced or arguments.trace == 1
    if arguments.seconds is None:
        arguments.seconds = 2.0 if arguments.smoke else float(contract["run_seconds"])
    return arguments


def run_here(arguments: argparse.Namespace, contract: dict) -> int:
    """Measure one workload in this process; the last line is the result."""
    kind = "per_layer" if arguments.traced else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in contract[kind]}
    outcome = measure(arguments.workload, arguments.seed, arguments.seconds,
                      arguments.traced, arguments.smoke, OUT, SOURCE)
    unknown = set(outcome.metrics) - set(units)
    if unknown:
        raise SystemExit(f"ledger: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer that does no work in this workload reports 0.
    metrics = {name: float(outcome.metrics.get(name, 0.0)) for name in units}
    run = {"workload": arguments.workload, "seed": arguments.seed, "traced": arguments.traced,
           "seconds": arguments.seconds, "tiny": arguments.smoke,
           "attempted": outcome.attempted, "failed": outcome.failed,
           "metrics": metrics, "detail": outcome.detail}
    report.print_run(run, units)
    if arguments.json:
        report.append_run(arguments.json, report.fingerprint(ROOT, arguments.seed), run)
    print(json.dumps({
        "correct": outcome.failed == 0, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def run_all(arguments: argparse.Namespace) -> int:
    """Every workload in a child process of its own, then what only the
    whole set can say: the check matrix and Table 2's Naive/Delta ratios."""
    path = arguments.json
    if path is None:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "ledger-latest.json")
        if os.path.exists(path):
            os.unlink(path)
    print(f"ledger: seed {arguments.seed}, {arguments.seconds:g} s windows, closed loop "
          f"(one caller: in-process or over HTTP), times calibrated to a 350 us kernel")
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
                   "--trace", str(int(arguments.traced)), "--json", path]
        if arguments.smoke:
            command.append("--smoke")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")  # not the result object
        if child.returncode != 0:
            return child.returncode
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"][-len(WORKLOADS):]
    cells = check.matrix(arguments.seed)
    print(f"== check matrix: {cells['total']} cells, {len(cells['wrong'])} wrong "
          f"{cells['wrong']}, {len(cells['unsupported'])} unsupported {cells['unsupported']}")
    if not arguments.traced:
        p50 = {run["workload"]: run["detail"]["p50_ms"] for run in runs}
        print("== fixpoint.naive_over_delta (interpreter class medians, closure-naive ÷ closure-delta)")
        for cls in CLOSURE_CLASSES:
            ratio = (p50["closure-naive"][f"{cls}/interpreter"]
                     / p50["closure-delta"][f"{cls}/interpreter"])
            print(f"  {cls:<12} {ratio:8.2f}")
    print(f"ledger: runs written to {path}")
    return 1 if any(run["failed"] for run in runs) else 0


def main(argv: list[str]) -> int:
    contract = report.load_contract(ROOT)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return report.compare(argv[1], argv[2], contract)
    arguments = parse_arguments(argv, contract)
    if arguments.workload:
        return run_here(arguments, contract)
    return run_all(arguments)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
