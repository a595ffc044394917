"""Interpreted evaluation of algebra plans, including µ and µ∆.

The engine evaluates a plan DAG bottom-up with memoisation (shared subplans
are computed once).  Fixpoint operators are handled by the engine itself,
but not *iterated* by it: µ and µ∆ hand the shared driver
(:meth:`repro.fixpoint.engine.FixpointEngine.run` — algorithm Naive for µ,
Delta for µ∆) a body that wraps the fed nodes in an ``iter|pos|item`` table,
re-evaluates the body plan with the
:class:`~repro.algebra.operators.RecursionInput` leaf rebound to it and
returns the ``item`` column.  Rounds, budgets, spans and typed errors are
therefore the interpreter's by construction, and the rows fed into the body
per iteration are Table 2's "total number of nodes fed back".

Tables are :class:`~repro.algebra.columnar.ColumnarTable` throughout.
Every :meth:`AlgebraEvaluator.evaluate_plan` call runs in a fresh
:class:`_PlanRun` with its own memo cache, recursion binding and
statistics, so nested or repeated evaluations cannot leak fixpoint bindings
into each other.  ``AlgebraEvaluator.statistics`` remains the cumulative
view across runs (what a session reports for one query);
``last_run_statistics`` is the freshest single run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AlgebraError
from repro.algebra.columnar import ColumnarTable
from repro.algebra.operators import AlgebraEngineProtocol, Fixpoint, Operator
from repro.fixpoint.engine import FixpointEngine
from repro.fixpoint.stats import FixpointStatistics

SEQ_COLUMNS = ("iter", "pos", "item")


@dataclass
class AlgebraStatistics:
    """Row-level statistics collected while evaluating a plan."""

    operator_invocations: int = 0
    fixpoint_runs: list[FixpointStatistics] = field(default_factory=list)

    @property
    def total_rows_fed_back(self) -> int:
        return sum(run.total_nodes_fed_back for run in self.fixpoint_runs)

    @property
    def max_recursion_depth(self) -> int:
        return max((run.recursion_depth for run in self.fixpoint_runs), default=0)


class _PlanRun(AlgebraEngineProtocol):
    """One plan evaluation: private memo cache, binding and statistics."""

    def __init__(self, max_iterations: int,
                 statistics: AlgebraStatistics | None = None,
                 use_index: bool = True, trace=None, governor=None):
        self.max_iterations = max_iterations
        self.statistics = statistics if statistics is not None else AlgebraStatistics()
        self.macro_cache: dict = {}
        self.use_index = use_index
        self.trace = trace
        self.governor = governor
        self._recursion_binding: ColumnarTable | None = None

    # -- engine protocol ------------------------------------------------------

    def recursion_input(self) -> ColumnarTable:
        if self._recursion_binding is None:
            raise AlgebraError("recursion input used outside a fixpoint evaluation")
        return self._recursion_binding

    def evaluate_plan(self, plan: Operator) -> ColumnarTable:
        """Evaluate a nested plan in a fresh run (no binding leaks into it)."""
        nested = _PlanRun(self.max_iterations, statistics=self.statistics,
                          use_index=self.use_index, trace=self.trace,
                          governor=self.governor)
        return nested._evaluate(plan, cache={})

    # -- internals ---------------------------------------------------------------

    def _evaluate(self, operator: Operator, cache: dict[int, ColumnarTable]) -> ColumnarTable:
        if id(operator) in cache:
            return cache[id(operator)]
        governor = self.governor
        if governor is not None and governor.tick():
            governor.check_now()
        if isinstance(operator, Fixpoint):
            result = self._evaluate_fixpoint(operator, cache)
        else:
            inputs = [self._evaluate(child, cache) for child in operator.children]
            self.statistics.operator_invocations += 1
            result = operator.compute(inputs, self)
        cache[id(operator)] = result
        return result

    def _evaluate_fixpoint(self, operator: Fixpoint, cache: dict[int, ColumnarTable]) -> ColumnarTable:
        seed_table = self._evaluate(operator.seed_plan, cache)

        def body(nodes: list) -> list:
            return _items(self._apply_body(operator, self._items_table(nodes)))

        result = FixpointEngine(self.max_iterations).run(
            body, _items(seed_table),
            algorithm="delta" if operator.variant == "mu_delta" else "naive",
            trace=self.trace, governor=self.governor,
            span_attributes={"variant": operator.variant},
            relation=operator.relation if self.use_index else None,
            documents=operator.documents.get)
        self.statistics.fixpoint_runs.append(result.statistics)
        return self._items_table(result.value)

    def _apply_body(self, operator: Fixpoint, input_table: ColumnarTable) -> ColumnarTable:
        """Evaluate the body plan with the recursion input bound to *input_table*."""
        previous = self._recursion_binding
        self._recursion_binding = input_table
        try:
            # The body must be re-evaluated from scratch each round: no cache
            # entries may survive because the recursion input changed.
            return self._evaluate(operator.body_plan, cache={})
        finally:
            self._recursion_binding = previous

    def _items_table(self, items: list) -> ColumnarTable:
        """*items* as a one-iteration sequence table (the list is not copied:
        the driver hands over lists nobody else holds)."""
        count = len(items)
        return ColumnarTable.from_columns(
            SEQ_COLUMNS, [[1] * count, list(range(1, count + 1)), items]
        )


class AlgebraEvaluator:
    """Evaluates plan DAGs over ``iter|pos|item`` tables.

    Parameters
    ----------
    max_iterations:
        Fixpoint iteration bound (cycle/runaway protection).
    use_index:
        Route the step macro through the per-document structural index's
        batch kernels (:mod:`repro.xdm.index`).  Defaults to on; disable
        for A/B comparisons against the per-node axis walks.
    trace:
        Optional :class:`~repro.observability.tracing.TraceContext`; when
        present every µ/µ∆ run emits a ``fixpoint`` span with per-round
        children carrying the fed/produced/new/result sizes.
    governor:
        Optional :class:`~repro.limits.Governor`; checked per operator
        invocation (cheap stride checkpoint) and at every µ/µ∆ round
        boundary (deadline, cancellation, round/frontier/result budgets).
    """

    def __init__(self, max_iterations: int = 100_000,
                 use_index: bool = True, trace=None, governor=None):
        self.max_iterations = max_iterations
        self.use_index = use_index
        self.trace = trace
        self.governor = governor
        self.run_history: list[AlgebraStatistics] = []

    # -- evaluation ------------------------------------------------------------

    def evaluate_plan(self, plan: Operator) -> ColumnarTable:
        """Evaluate *plan* in a fresh run and return its output table."""
        run = _PlanRun(self.max_iterations, use_index=self.use_index,
                       trace=self.trace, governor=self.governor)
        result = run._evaluate(plan, cache={})
        self.run_history.append(run.statistics)
        return result

    # -- statistics --------------------------------------------------------------

    @property
    def statistics(self) -> AlgebraStatistics:
        """Cumulative statistics across all :meth:`evaluate_plan` runs."""
        merged = AlgebraStatistics()
        for run in self.run_history:
            merged.operator_invocations += run.operator_invocations
            merged.fixpoint_runs.extend(run.fixpoint_runs)
        return merged

    @property
    def last_run_statistics(self) -> AlgebraStatistics:
        """Statistics of the most recent run only (fresh per run)."""
        if not self.run_history:
            return AlgebraStatistics()
        return self.run_history[-1]


# ---------------------------------------------------------------------------
# helpers over iter|pos|item tables (item identity = node identity)
# ---------------------------------------------------------------------------


def _items(table: ColumnarTable) -> list:
    return table.column_values("item")
