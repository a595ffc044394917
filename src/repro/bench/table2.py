"""Regenerate the paper's Table 2 (``repro-table2`` / ``python -m repro.bench.table2``).

Every cell is one loop over :meth:`repro.Session.evaluate`: per seed, the
workload's answer text (:meth:`~repro.bench.queries.Workload.seed_query`)
with the seed bound to ``$s``.  The engine is only the ``engine=`` setting.
Columns, each under Naive and Delta:

``interpreter`` / ``algebra`` / ``sql``
    The native fixed point operator on each engine (the MonetDB/XQuery µ/µ∆
    role).  Where SQL runs the fixpoint as one recursive CTE the iteration
    happens inside SQLite and its counts print as ``-``.
``udf``
    The recursive ``fix``/``delta`` functions of Figures 2 and 4 on the
    interpreter (the Saxon role); no fixpoint runs, so no counts.

Presets: ``quick`` runs in seconds; ``paper`` has the sizes of the paper's
rows (minutes — compare its Naive/Delta ratios and node counts, not its
absolute times).  Repeats, memory and phases: ``benchmarks/ledger/run.py``.
"""

from __future__ import annotations

import argparse
import time
from collections.abc import Iterable
from dataclasses import dataclass

from repro.bench.queries import WORKLOADS, Workload, get_workload
from repro.session import Session
from repro.xmlio.serializer import serialize_sequence

ENGINES = ("interpreter", "algebra", "sql", "udf")

#: (workload, size) rows per preset.
PRESETS: dict[str, list[tuple[str, str]]] = {
    "quick": [("bidder-network", "tiny"), ("bidder-network", "small"),
              ("dialogs", "tiny"), ("curriculum", "tiny"), ("hospital", "tiny")],
    "default": [("bidder-network", "small"), ("bidder-network", "medium"),
                ("dialogs", "default"), ("curriculum", "medium"), ("hospital", "medium")],
    "paper": [("bidder-network", "small"), ("bidder-network", "medium"),
              ("bidder-network", "large"), ("bidder-network", "huge"),
              ("dialogs", "default"), ("curriculum", "medium"),
              ("curriculum", "large"), ("hospital", "medium")],
}


@dataclass
class Cell:
    """One engine × algorithm run over all seeds of a Table 2 row."""

    workload: str
    size: str
    engine: str
    algorithm: str
    seconds: float
    #: The serialized answer of each seed, in seed order.
    answers: list[str]
    #: ``None`` where no iteration was observable (a CTE, or ``udf``).
    nodes_fed_back: int | None
    recursion_depth: int | None


def seeds_of(session: Session, workload: Workload, limit: int | None) -> list:
    """The row's seeds, enumerated once with the interpreter."""
    seeds = workload.seeds_expression
    if limit is not None:
        seeds = f"subsequence({seeds}, 1, {limit})"
    return session.evaluate(f"{workload.prolog}\n{seeds}", engine="interpreter").items


def run_cell(session: Session, workload: Workload, seeds: list, engine: str,
             algorithm: str, size: str = "") -> Cell:
    """Evaluate the per-seed text once per seed on one engine."""
    text = workload.seed_query(algorithm, udf=engine == "udf")
    setting = "interpreter" if engine == "udf" else engine
    seconds, answers, runs = 0.0, [], []
    for seed in seeds:
        started = time.perf_counter()
        result = session.evaluate(text, engine=setting, variables={"s": [seed]})
        seconds += time.perf_counter() - started
        answers.append(serialize_sequence(result.items))
        runs.extend(result.statistics.runs)
    counted = bool(runs) and all(run.algorithm != "cte" for run in runs)
    return Cell(workload.name, size, engine, algorithm, seconds, answers,
                sum(run.total_nodes_fed_back for run in runs) if counted else None,
                max(run.recursion_depth for run in runs) if counted else None)


def run_row(workload_name: str, size: str, engines: Iterable[str] = ENGINES,
            seed_limit: int | None = None) -> list[Cell]:
    """Naive and Delta on every engine for one (workload, size) row."""
    if set(engines) - set(ENGINES):
        raise ValueError(f"unknown engine in {list(engines)} (expected {', '.join(ENGINES)})")
    workload = get_workload(workload_name)
    row = workload.size(size)
    limit = seed_limit if seed_limit is not None else row.default_seed_limit
    with Session({workload.document_uri: row.build_document()}) as session:
        seeds = seeds_of(session, workload, limit)
        return [run_cell(session, workload, seeds, engine, algorithm, size)
                for engine in engines for algorithm in ("naive", "delta")]


def run_preset(preset: str, engines: Iterable[str] = ENGINES,
               workloads: Iterable[str] | None = None,
               seed_limit: int | None = None) -> list[Cell]:
    """Every row of *preset*, optionally restricted to some workloads."""
    wanted = set(workloads) if workloads else set(WORKLOADS)
    if wanted - set(WORKLOADS):
        raise KeyError(f"unknown workload in {sorted(wanted)}")
    return [cell for name, size in PRESETS[preset] if name in wanted
            for cell in run_row(name, size, tuple(engines), seed_limit)]


def render(cells: list[Cell]) -> str:
    """One line per row × engine: both algorithms and the Naive/Delta ratio."""
    def count(value: int | None) -> str:
        return "-" if value is None else str(value)

    lines = [f"{'workload':<15} {'size':<8} {'engine':<12} {'seeds':>5} {'naive ms':>10} "
             f"{'delta ms':>10} {'ratio':>6} {'naive fed':>10} {'delta fed':>10} {'depth':>6}"]
    for naive, delta in zip(cells[::2], cells[1::2]):
        ratio = naive.seconds / delta.seconds if delta.seconds else float("nan")
        lines.append(
            f"{naive.workload:<15} {naive.size:<8} {naive.engine:<12} {len(naive.answers):>5} "
            f"{naive.seconds * 1e3:>10.1f} {delta.seconds * 1e3:>10.1f} {ratio:>6.2f} "
            f"{count(naive.nodes_fed_back):>10} {count(delta.nodes_fed_back):>10} "
            f"{count(naive.recursion_depth):>6}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-table2",
        description="Regenerate Table 2 of 'An Inflationary Fixed Point Operator in XQuery'")
    parser.add_argument("--preset", choices=sorted(PRESETS), default="quick",
                        help="which document sizes to run (default: quick)")
    parser.add_argument("--workloads", nargs="*", choices=sorted(WORKLOADS), default=None,
                        help="restrict to the given workloads")
    parser.add_argument("--engines", nargs="*", choices=ENGINES, default=list(ENGINES),
                        help="engines to compare (default: all four)")
    parser.add_argument("--seed-limit", type=int, default=None,
                        help="override the per-size default number of seeds")
    arguments = parser.parse_args(argv)
    print(render(run_preset(arguments.preset, arguments.engines, arguments.workloads,
                            arguments.seed_limit)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
