"""Fixed point engine: one entry point over the Naive and Delta algorithms.

The engine is deliberately independent of the XQuery evaluator — the
recursion body is just a callable over node sequences — so the same code
path serves the XQuery ``with … recurse`` form, the Regular XPath
translation, the relational algebra µ/µ∆ operators and direct library use
from Python (see ``examples/``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.errors import FixpointError
from repro.fixpoint.delta import delta_fixpoint
from repro.fixpoint.naive import naive_fixpoint
from repro.fixpoint.stats import FixpointStatistics

#: Algorithms the engine knows about.
ALGORITHMS = ("naive", "delta")


@dataclass
class FixpointResult:
    """Value plus statistics of one IFP evaluation."""

    value: list
    statistics: FixpointStatistics

    @property
    def algorithm(self) -> str:
        return self.statistics.algorithm


class FixpointEngine:
    """Evaluates inflationary fixed points with a selectable algorithm.

    Parameters
    ----------
    max_iterations:
        Iteration bound standing in for "the IFP is undefined"
        (Definition 2.1).

    Every run records the per-iteration measurements of Table 2.
    """

    def __init__(self, max_iterations: int = 100_000):
        self.max_iterations = max_iterations

    def run(self, body: Callable[[list], list], seed: Sequence,
            algorithm: str = "naive", seed_is_initial_result: bool = False,
            trace=None, governor=None) -> FixpointResult:
        """Compute the IFP of *body* seeded by *seed*.

        ``algorithm`` must be ``"naive"`` or ``"delta"``; deciding *which*
        one is legal is the caller's job (the XQuery evaluator consults the
        distributivity analyses, benchmarks pin it explicitly).
        ``seed_is_initial_result`` selects the Example 2.4 reading where the
        seed itself is ``res_0`` (see :func:`~repro.fixpoint.naive.naive_fixpoint`).
        ``trace`` (a :class:`~repro.observability.tracing.TraceContext`)
        wraps the run in a ``fixpoint`` span with per-round children.
        ``governor`` (a :class:`~repro.limits.Governor`) is consulted at
        every round boundary for deadlines, cancellation and budgets.
        """
        if algorithm not in ALGORITHMS:
            raise FixpointError(f"unknown fixed point algorithm '{algorithm}'")
        statistics = FixpointStatistics(algorithm=algorithm)
        span = (trace.begin("fixpoint", algorithm=algorithm, seed=len(seed))
                if trace is not None else None)
        try:
            if algorithm == "delta":
                value = delta_fixpoint(body, seed, self.max_iterations, statistics,
                                       seed_is_initial_result=seed_is_initial_result,
                                       trace=trace, governor=governor)
            else:
                value = naive_fixpoint(body, seed, self.max_iterations, statistics,
                                       seed_is_initial_result=seed_is_initial_result,
                                       trace=trace, governor=governor)
        finally:
            if span is not None:
                trace.end(span)
        if span is not None:
            span.set(result_size=len(value), rounds=statistics.recursion_depth)
        return FixpointResult(value=value, statistics=statistics)

    def run_both(self, body: Callable[[list], list], seed: Sequence,
                 seed_is_initial_result: bool = False) -> dict[str, FixpointResult]:
        """Run Naive and Delta on the same input (used by tests/benchmarks)."""
        return {
            name: self.run(body, seed, algorithm=name,
                           seed_is_initial_result=seed_is_initial_result)
            for name in ALGORITHMS
        }
