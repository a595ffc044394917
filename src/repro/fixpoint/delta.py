"""Algorithm *Delta* (Figure 3b of the paper; semi-naive / delta iteration).

::

    res <- e_rec(e_seed);
    Δ   <- res;
    do
        Δ   <- e_rec(Δ) except res;
        res <- Δ union res;
    while res grows;

Only the nodes that were not encountered in earlier iterations are fed back
into the recursion body.  Theorem 3.2: this computes the same result as
Naive whenever the body is *distributive* for the recursion variable; for
non-distributive bodies (Example 2.4 / Query Q2) the two algorithms may
disagree, which is why the engine only switches to Delta after a
distributivity check (or when explicitly forced).

``res`` is kept as a *set* (:class:`~repro.fixpoint.accumulator.ResultAccumulator`),
not as the sequence the pseudo-code suggests: ``except res`` is a membership
probe per produced node and ``union res`` an append, so a round costs
O(|e_rec(Δ)|) instead of re-validating and re-sorting everything found so
far.  Δ itself is still handed to the body duplicate-free and in document
order — exactly what ``except`` would deliver — and ``res`` is put in
document order once, when the loop ends.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro import faults
from repro.errors import FixpointError
from repro.xdm.sequence import ensure_node_sequence
from repro.fixpoint.accumulator import ResultAccumulator, document_order
from repro.fixpoint.stats import FixpointStatistics


def delta_fixpoint(body: Callable[[list], list], seed: Sequence,
                   max_iterations: int = 100_000,
                   statistics: FixpointStatistics | None = None,
                   seed_is_initial_result: bool = False,
                   trace=None, governor=None) -> list:
    """Compute the IFP of *body* seeded by *seed* with algorithm Delta.

    The signature mirrors :func:`repro.fixpoint.naive.naive_fixpoint`; see
    there for parameter semantics (including ``seed_is_initial_result``,
    which selects the Example 2.4 reading where the seed itself is the
    initial result and initial delta, and ``trace``, which attaches one
    ``round`` span per iteration carrying the frontier/delta sizes).
    """
    seed_nodes = ensure_node_sequence(list(seed), "inflationary fixed point seed")
    result = ResultAccumulator()

    if seed_is_initial_result:
        delta = document_order(result.add_new(seed_nodes))
        if statistics is not None:
            statistics.algorithm = "delta"
            statistics.record(0, 0, len(seed_nodes), len(result), len(result))
    else:
        fed = seed_nodes
        span = trace.begin("round", iteration=0) if trace is not None else None
        produced = body(list(fed))
        delta = document_order(result.add_new(produced))
        if span is not None:
            span.set(fed=len(fed), produced=len(produced),
                     new=len(delta), result_size=len(result))
            trace.end(span)
        if statistics is not None:
            statistics.algorithm = "delta"
            statistics.record(0, len(fed), len(produced), len(result), len(result))

    iteration = 0
    while delta:
        iteration += 1
        if iteration > max_iterations:
            raise FixpointError(
                f"inflationary fixed point did not converge within {max_iterations} iterations"
            )
        fed = delta
        if governor is not None:
            governor.check_round(iteration, frontier=len(fed),
                                 result_size=len(result))
        faults.trigger("slow-span")
        span = trace.begin("round", iteration=iteration) if trace is not None else None
        produced = body(list(fed))
        delta = document_order(result.add_new(produced))
        if span is not None:
            span.set(fed=len(fed), produced=len(produced),
                     new=len(delta), result_size=len(result))
            trace.end(span)
        if statistics is not None:
            statistics.record(iteration, len(fed), len(produced), len(delta), len(result))
    return result.in_document_order()
