"""The one inflationary-fixed-point driver: Figure 3's loop, written once.

Definition 2.1 gives the IFP of a body ``e_rec`` seeded by ``e_seed`` as the
limit of ``res_0 = e_rec(e_seed)``, ``res_{i+1} = e_rec(res_i) union res_i``.
Figure 3 iterates it two ways::

    (a) Naive                           (b) Delta
    res <- e_rec(e_seed);               res <- e_rec(e_seed);
    do                                  Δ   <- res;
        res <- e_rec(res) union res;    do
    while res grows;                        Δ   <- e_rec(Δ) except res;
                                            res <- Δ union res;
                                        while res grows;

The two panels differ in exactly two things, and those are the only places
:meth:`FixpointEngine.run` branches on the algorithm:

* **what is fed** — Naive hands the body all of ``res``, Delta only the
  frontier Δ of nodes not seen in earlier rounds; either way duplicate-free
  and in document order, as ``union``/``except`` deliver it;
* **when to stop** — Naive after a round that added nothing, Delta before a
  round that would be fed nothing.

Naive re-processes early nodes again and again, which is the redundant work
Delta avoids.  Theorem 3.2: Delta computes the same result whenever the body
is *distributive* for the recursion variable; for other bodies (Example 2.4,
Query Q2) the two may disagree, so deciding *which* algorithm is legal is the
caller's job.

Everything else a round needs lives here too, once, for every engine: the
iteration bound that stands in for "the IFP is undefined", the governor's
round-boundary check, the ``slow-span`` fault point, the ``fixpoint`` /
``round`` spans and Table 2's per-iteration statistics.  The driver is
independent of any evaluator — the recursion body is a callable over node
lists — so the XQuery interpreter (its AST closure), the algebra engine (the
µ/µ∆ body plan over an ``iter|pos|item`` table), the SQL engine's fallback,
the Regular XPath translation and direct library use (``examples/``) all
iterate through this one loop.

``res`` is kept as a *set* (:class:`~repro.fixpoint.accumulator.ResultAccumulator`),
not as the sequence the pseudo-code suggests: ``except res`` is a membership
probe per produced node and ``union res`` an append, so folding a round in
costs O(|e_rec(fed)|) instead of re-validating and re-sorting everything
found so far.

When the body is a *step relation* — a closed body that Figure 5 proves
distributive, such as ``$x/id(./prerequisites/pre_code)`` or the bidder
network's ``bidder($x)``, is the relation ``x ↦ e({x})`` (Definition 3.1;
:class:`~repro.xdm.index.StepRelation`) — the loop does not need nodes at
all.  The caller passes the relation beside the body; if it binds to the
seed's tree, the seed is encoded to pre ranks once, every round is the
union of the fed pres' images (memoised on the structural index, each
missing one filled by the body callable on that one node) and set algebra
against the result (:class:`~repro.fixpoint.accumulator.PreAccumulator`),
and the fixed point is decoded once.  Feeding, stopping, budgets, spans
and statistics are the same lines of this loop either way, so the rounds
cannot differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

from repro import faults
from repro.errors import FixpointError
from repro.fixpoint.accumulator import PreAccumulator, ResultAccumulator
from repro.fixpoint.stats import FixpointStatistics
from repro.observability import maybe_span
from repro.xdm.index import StepRelation
from repro.xdm.sequence import ensure_node_sequence

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
        Bound standing in for Definition 2.1's "the IFP is undefined":
        exceeded only if the body keeps producing fresh nodes forever.

    Every run records the per-iteration measurements of Table 2.
    """

    def __init__(self, max_iterations: int = 100_000):
        self.max_iterations = max_iterations

    def run(self, body: Callable[[list], list], seed: Sequence,
            algorithm: str = "naive", seed_is_initial_result: bool = False,
            trace=None, governor=None,
            span_attributes: Mapping[str, object] | None = None,
            relation: StepRelation | None = None,
            documents: Callable[[str], object] | None = None) -> FixpointResult:
        """Compute the IFP of *body* seeded by *seed*.

        Parameters
        ----------
        body:
            The recursion body ``e_rec`` as a callable from a node sequence
            to a node sequence (the evaluator closes over the recursion
            variable).  A result item that is not a node is the type error
            ``union``/``except`` would raise on it.
        seed:
            The seed sequence ``e_seed`` (must contain only nodes).  Round 0
            feeds it as written — in sequence order, duplicates included.
        algorithm:
            ``"naive"`` or ``"delta"`` (see the module docstring).
        seed_is_initial_result:
            Definition 2.1 starts from ``res_0 = e_rec(e_seed)``.  The
            iteration table of Example 2.4, however, treats the seed itself
            as ``res_0``.  Setting this flag selects the latter reading: the
            seed is taken as the initial result (and initial Δ) and is
            therefore always contained in the IFP; round 0 then applies no
            body and has no span.
        trace:
            Optional :class:`~repro.observability.tracing.TraceContext`; the
            run becomes a ``fixpoint`` span (``algorithm``, ``seed``,
            ``result_size``, ``rounds``) and every round a ``round`` child
            carrying the fed / produced / new / accumulated sizes alongside
            its wall time.
        governor:
            Optional :class:`~repro.limits.Governor`; consulted before every
            round ≥ 1 (deadline, cancellation, round/frontier/result budgets)
            with the sizes the loop already has: ``frontier`` is the number
            of nodes about to be fed.
        span_attributes:
            Extra attributes for the ``fixpoint`` span — what the calling
            engine knows and the loop does not (algebra's ``variant``, the
            SQL engine's ``path``).
        relation:
            *body* as a :class:`~repro.xdm.index.StepRelation`, when the
            calling engine recognized it as one.  If the relation binds to
            the seed's tree the run iterates in pre-space: the seed is
            encoded once, a round is a union of memoised images and set
            algebra on pres, and the fixed point is decoded once — the same
            rounds, sizes, budgets and spans (*body* runs only to fill
            missing images), with ``space="pre"`` on the ``fixpoint`` span
            (``"nodes"`` when the relation declined the seed; no ``space``
            without a relation) and ``filled`` on its rounds, the sources
            the round evaluated on nodes.  Traced runs count each offered
            relation as ``kernel:fixpoint:pre-space``, a declined one as a
            fallback.
        documents:
            The calling engine's document lookup (URI → the document held
            under it, or ``None``), with which the relation checks
            that the documents its body reads are the seed's tree.

        Returns the fixed point in document order, with its
        :class:`~repro.fixpoint.stats.FixpointStatistics`.
        """
        if algorithm not in ALGORITHMS:
            raise FixpointError(f"unknown fixed point algorithm '{algorithm}'")
        feed_everything = algorithm == "naive"
        seed_nodes = ensure_node_sequence(seed, "inflationary fixed point seed")
        statistics = FixpointStatistics(algorithm=algorithm)
        space = None
        if relation is not None:
            space = relation.bind(seed_nodes, body, documents)
            span_attributes = {**(span_attributes or {}),
                               "space": "nodes" if space is None else "pre"}
            if trace is not None:
                trace.record_kernel("fixpoint:pre-space", space is not None)
        if space is None:
            result = ResultAccumulator()
        else:  # from here on "nodes" are pres
            body, seed_nodes, result = space.image, space.seed, PreAccumulator(space)

        def run_round(iteration: int, fed: list) -> list:
            """Apply the body to *fed* (a list the body may keep) and fold
            its output into ``res``; returns the nodes that were new."""
            fed_count = len(fed)
            span = trace.begin("round", iteration=iteration) if trace is not None else None
            produced = body(fed)
            new = result.add_new(produced)
            if span is not None:
                span.set(fed=fed_count, produced=len(produced),
                         new=len(new), result_size=len(result))
                if space is not None:
                    span.set(filled=space.filled)
                trace.end(span)
            statistics.record(iteration, fed_count, len(produced), len(new), len(result))
            return new

        with maybe_span(trace, "fixpoint", algorithm=algorithm,
                        **(span_attributes or {}), seed=len(seed_nodes)) as span:
            if seed_is_initial_result:
                new = result.add_new(seed_nodes)
                statistics.record(0, 0, len(seed_nodes), len(new), len(result))
            else:
                new = run_round(0, seed_nodes)
            iteration = 0
            # Delta stops before a round that would be fed nothing ...
            while feed_everything or new:
                fed = result.everything() if feed_everything else result.frontier(new)
                iteration += 1
                if iteration > self.max_iterations:
                    raise FixpointError(
                        "inflationary fixed point did not converge within "
                        f"{self.max_iterations} iterations")
                if governor is not None:
                    governor.check_round(iteration, frontier=len(fed),
                                         result_size=len(result))
                faults.trigger("slow-span")
                new = run_round(iteration, fed)
                if feed_everything and not new:
                    break  # ... Naive after a round that added nothing
            value = result.in_document_order()
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
