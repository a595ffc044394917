"""CI guard: features that promise to be ~free must stay ~free.

Each guard is one row of ``GUARDS`` — ``(name, settings A, settings B,
tolerance, what to audit)`` — and asserts that the same prepared Table-2
closure costs at most ``tolerance`` more CPU under A than under B::

    PYTHONPATH=src python benchmarks/check_overhead.py

``limits``
    generous, never-tripping :class:`~repro.limits.ResourceLimits` (every
    governor checkpoint runs, none fires) vs ``limits=None``.
``analysis``
    the static analyzer on (fingerprint + analysis-cache lookup per run)
    vs ``analyze=False``.

``hoisting``
    (not a settings pair) the optimizer's invariant-hoisting rule over a
    query with nothing to hoist vs the whole of ``optimize_module`` on the
    same query: at most 5 %, so ad-hoc query texts do not pay for the rule.
    The query is the per-start-node closure the ledger's ``adhoc`` workload
    sends; it declares no prolog variable, which is the property the rule's
    early exit tests.  (A module that does declare one pays for the scoped
    walk — about a third of ``optimize_module`` — whether or not it finds
    anything.)

Tracing has no row: its two settings points are watched where every other
number is, in the ledger (``benchmarks/ledger/``) — the *disabled* cost as
``interpreter_ms`` on ``closure-delta`` (parent commit vs change), the
*enabled* cost as the per-layer ``trace.overhead_share``.

The measurement is built for noisy shared runners:

* CPU seconds (``time.process_time``), not wall clock — CPU steal on a
  virtualized host adds tens of percent of one-sided wall-clock noise
  that would drown a 2% signal;
* alternating *blocks* of same-settings runs, order swapping every pair
  so drift cannot favour one side, with a few untimed warm-up runs at
  each block start — CPython's adaptive interpreter re-specializes the
  guarded call sites when the settings flip, and timing that
  re-specialization would charge the A/B switch itself to variant A;
* the **min** of several independent estimates — noise only ever inflates
  an estimate, so the min converges on the true overhead while a genuine
  regression shows up in every estimate, including the min.

A guard fails (exit 1) when A is more than its tolerance slower than B.
Block times below the ``--floor-ms`` noise floor abort with an error
instead of silently passing, so a guard cannot degrade into a no-op on
fast machines — raise ``--inner`` in that case.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import NamedTuple

from repro.bench.queries import get_workload
from repro.limits import ResourceLimits
from repro.session import Session
from repro.settings import EvalSettings
from repro.xquery.optimizer import hoist_invariants, optimize_module
from repro.xquery.parser import parse_query

BASE = EvalSettings(engine="interpreter", ifp_algorithm="delta")

#: Enabled-but-untriggered: nothing the tiny workload does comes within
#: orders of magnitude of these, so every checkpoint runs and none trips.
GENEROUS_LIMITS = ResourceLimits(timeout_s=3600.0,
                                 max_fixpoint_rounds=1_000_000,
                                 max_frontier_nodes=1_000_000_000,
                                 max_result_items=1_000_000_000)


class Guard(NamedTuple):
    name: str
    a: EvalSettings
    b: EvalSettings
    tolerance: float
    audit: str


GUARDS = (
    Guard("limits", BASE.replace(limits=GENEROUS_LIMITS), BASE, 0.02,
          "the `governor is not None` guards and the checkpoint placement/stride"),
    Guard("analysis", BASE.replace(analyze=True), BASE.replace(analyze=False), 0.02,
          "Session._analysis_for and the analysis-cache key"),
)

#: Untimed runs at the start of every block (adaptive re-specialization).
BLOCK_WARMUP = 3


def measure(guard: Guard, estimates: int, pairs: int, inner: int) -> list[tuple[float, float]]:
    """*estimates* independent ``(A, B)`` CPU totals of one warm session,
    each summed over *pairs* alternating block pairs of *inner* runs."""
    workload = get_workload("curriculum")
    session = Session()
    session.register_document(workload.document_uri,
                              workload.size("tiny").build_document())
    prepared = session.prepare(workload.ifp_query(algorithm="delta"), settings=BASE)

    def block(settings: EvalSettings) -> float:
        for _ in range(BLOCK_WARMUP):
            prepared.run(settings=settings)
        started = time.process_time()
        for _ in range(inner):
            prepared.run(settings=settings)
        return time.process_time() - started

    block(guard.a)  # warm the caches and both paths outside the measurement
    block(guard.b)
    results = []
    for _ in range(estimates):
        totals = {guard.a: 0.0, guard.b: 0.0}  # settings values are hashable
        for index in range(pairs):
            for settings in ((guard.a, guard.b) if index % 2 == 0 else (guard.b, guard.a)):
                totals[settings] += block(settings)
        results.append((totals[guard.a], totals[guard.b]))
    session.close()
    return results


def check(guard: Guard, arguments: argparse.Namespace) -> bool:
    results = measure(guard, arguments.estimates, arguments.pairs, arguments.inner)
    floor_s = arguments.floor_ms / 1000.0 * arguments.pairs
    slowest = max(b for _, b in results)
    if slowest < floor_s:
        print(f"{guard.name} overhead check INVALID: baseline estimate "
              f"{slowest * 1000.0:.2f} CPU ms is below the noise floor "
              f"({floor_s * 1000.0:.0f} ms) — raise --inner", file=sys.stderr)
        return False
    overheads = sorted(a / b - 1.0 for a, b in results)
    passed = overheads[0] <= guard.tolerance
    print(f"{guard.name}: estimates " + " ".join(f"{value:+.2%}" for value in overheads))
    print(f"{guard.name}: overhead (min of {arguments.estimates}) {overheads[0]:+.2%} "
          f"(allowed ≤ {guard.tolerance:.0%}) — {'ok' if passed else 'FAILED'}")
    if not passed:
        print(f"\n{guard.name} overhead check FAILED: costs more than "
              f"{guard.tolerance:.0%} even in the most favourable estimate — "
              f"audit {guard.audit}", file=sys.stderr)
    return passed


#: Share of ``optimize_module`` the hoisting rule may cost on a query with
#: nothing to hoist.
HOISTING_TOLERANCE = 0.05


#: The ledger's per-start-node curriculum closure.
NOTHING_TO_HOIST = ('with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"] '
                    "recurse $x/id(./prerequisites/pre_code)")


def check_hoisting(arguments: argparse.Namespace) -> bool:
    """The hoisting rule's cost on a query with nothing to hoist, as a
    share of optimizing that query."""
    module = parse_query(NOTHING_TO_HOIST)
    optimized = optimize_module(module)
    parts = (optimized.functions, optimized.variables, optimized.body)
    repeats = arguments.inner * 50  # one optimize_module is ~50 us

    def cpu(function, *operands) -> float:
        started = time.process_time()
        for _ in range(repeats):
            function(*operands)
        return time.process_time() - started

    cpu(optimize_module, module)  # warm both call sites
    cpu(hoist_invariants, *parts)
    shares = sorted(cpu(hoist_invariants, *parts) / cpu(optimize_module, module)
                    for _ in range(arguments.estimates))
    passed = shares[0] <= HOISTING_TOLERANCE
    print("hoisting: estimates " + " ".join(f"{share:.2%}" for share in shares))
    print(f"hoisting: share of optimize_module (min of {arguments.estimates}) "
          f"{shares[0]:.2%} (allowed ≤ {HOISTING_TOLERANCE:.0%}) — "
          f"{'ok' if passed else 'FAILED'}")
    if not passed:
        print("\nhoisting overhead check FAILED: audit the early exit of "
              "repro.xquery.optimizer.hoist_invariants", file=sys.stderr)
    return passed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--estimates", type=int, default=5,
                        help="independent overhead estimates; the min is "
                             "the verdict (default 5)")
    parser.add_argument("--pairs", type=int, default=4,
                        help="alternating block pairs per estimate (default 4)")
    parser.add_argument("--inner", type=int, default=30,
                        help="timed query evaluations per block (default 30)")
    parser.add_argument("--floor-ms", type=float, default=20.0,
                        help="fail if a baseline block total is below this "
                             "noise floor (default 20 ms); raise --inner instead")
    arguments = parser.parse_args(argv)
    # No short-circuit: every guard reports before the exit status.
    return 0 if all([*(check(guard, arguments) for guard in GUARDS),
                     check_hoisting(arguments)]) else 1


if __name__ == "__main__":
    sys.exit(main())
