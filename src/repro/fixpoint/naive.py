"""Algorithm *Naive* (Figure 3a of the paper).

::

    res <- e_rec(e_seed);
    do
        res <- e_rec(res) union res;
    while res grows;

The whole accumulated result is fed back into the recursion body on every
round, so nodes discovered early are re-processed again and again — the
redundant work that motivates the Delta variant.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro import faults
from repro.errors import FixpointError
from repro.xdm.sequence import ensure_node_sequence
from repro.fixpoint.accumulator import ResultAccumulator
from repro.fixpoint.stats import FixpointStatistics


def naive_fixpoint(body: Callable[[list], list], seed: Sequence,
                   max_iterations: int = 100_000,
                   statistics: FixpointStatistics | None = None,
                   seed_is_initial_result: bool = False,
                   trace=None, governor=None) -> list:
    """Compute the IFP of *body* seeded by *seed* with algorithm Naive.

    Parameters
    ----------
    body:
        The recursion body ``e_rec`` as a callable from a node sequence to a
        node sequence (the evaluator closes over the recursion variable).
    seed:
        The seed sequence ``e_seed`` (must contain only nodes).
    max_iterations:
        Bound standing in for Definition 2.1's "the IFP is undefined":
        exceeded only if the body keeps producing fresh nodes forever.
    statistics:
        Optional collector for the per-iteration measurements of Table 2.
    seed_is_initial_result:
        Definition 2.1 starts from ``res_0 = e_rec(e_seed)``.  The iteration
        table of Example 2.4, however, treats the seed itself as ``res_0``.
        Setting this flag selects the latter reading: the seed is taken as
        the initial result (and is therefore always contained in the IFP).
    trace:
        Optional :class:`~repro.observability.tracing.TraceContext`; when
        present every round becomes a ``round`` span carrying the fed /
        produced / new / accumulated sizes alongside its wall time.
    governor:
        Optional :class:`~repro.limits.Governor`; consulted once per round
        (deadline, cancellation, round/frontier/result budgets) with the
        sizes this driver already computes.

    Returns
    -------
    list
        The fixed point ``res_k`` in document order.
    """
    seed_nodes = ensure_node_sequence(list(seed), "inflationary fixed point seed")

    # Naive feeds the whole result back, so it is put in document order
    # after every round that grew it (the accumulator only appends).
    result = ResultAccumulator()
    if seed_is_initial_result:
        result.add_new(seed_nodes)
        result.in_document_order()
        if statistics is not None:
            statistics.algorithm = "naive"
            statistics.record(0, 0, len(seed_nodes), len(result), len(result))
    else:
        fed = seed_nodes
        span = trace.begin("round", iteration=0) if trace is not None else None
        produced = body(list(fed))
        result.add_new(produced)
        result.in_document_order()
        if span is not None:
            span.set(fed=len(fed), produced=len(produced),
                     new=len(result), result_size=len(result))
            trace.end(span)
        if statistics is not None:
            statistics.algorithm = "naive"
            statistics.record(0, len(fed), len(produced), len(result), len(result))

    iteration = 0
    while True:
        iteration += 1
        if iteration > max_iterations:
            raise FixpointError(
                f"inflationary fixed point did not converge within {max_iterations} iterations"
            )
        fed_count = len(result)
        if governor is not None:
            governor.check_round(iteration, frontier=fed_count,
                                 result_size=len(result))
        faults.trigger("slow-span")
        span = trace.begin("round", iteration=iteration) if trace is not None else None
        produced = body(list(result.items))
        new_nodes = len(result.add_new(produced))
        if span is not None:
            span.set(fed=fed_count, produced=len(produced),
                     new=new_nodes, result_size=len(result))
            trace.end(span)
        if statistics is not None:
            statistics.record(iteration, fed_count, len(produced), new_nodes, len(result))
        if new_nodes == 0:
            return result.items
        result.in_document_order()
