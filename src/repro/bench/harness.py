"""Measurement harness for the Table 2 experiments.

A :class:`BenchmarkHarness` builds (and caches) the workload documents, runs
a workload query under a chosen engine/algorithm combination, and reports
wall-clock time plus the iteration statistics the paper's Table 2 lists
(total number of nodes fed back into the recursion body, recursion depth).

Engines
-------
``ifp``
    The native fixed point operator of the engine (``with … recurse``
    evaluated by :mod:`repro.fixpoint`) — the MonetDB/XQuery µ/µ∆ role.
``udf``
    The source-level recursive user-defined functions ``fix``/``delta`` of
    Figures 2 and 4 — the Saxon role.  Iteration statistics are not
    observable from outside the functions, so only times are reported.
``algebra``
    The Relational XQuery backend: the query's fixpoint is compiled to µ/µ∆
    and evaluated by the interpreted algebra engine.  Practical for the
    smaller documents; included to mirror the paper's algebraic account.
``sql``
    The SQLite backend: the workload document is shredded into pre/post
    tables once (cached per workload size, mirroring how the paper's RDBMS
    substrate loads documents ahead of querying) and each fixpoint runs as
    a recursive CTE or through the shared fixpoint driver
    (:mod:`repro.sqlbackend`).  CTE runs report no per-iteration counts —
    the iteration happens inside SQLite.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.fixpoint.stats import StatisticsCollector
from repro.observability import TraceContext, maybe_span, phase_summary
from repro.xdm.items import is_node, string_value_of_item
from repro.xdm.node import DocumentNode
from repro.xquery.context import DocumentResolver, DynamicContext, StaticContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.optimizer import optimize_module
from repro.xquery.parser import parse_query
from repro.bench.queries import Workload, get_workload


@dataclass
class RunResult:
    """Outcome of one benchmark run."""

    workload: str
    size: str
    engine: str
    algorithm: str
    seconds: float
    item_count: int
    result_digest: str
    nodes_fed_back: int | None = None
    recursion_depth: int | None = None
    ifp_evaluations: int | None = None
    seed_limit: int | None = None
    paper_row: str | None = None
    #: Table storage backend (algebra engine only).
    backend: str | None = None
    #: How many measured repetitions ``seconds`` is the best of, and how
    #: many unmeasured warmup runs preceded them.
    repeats: int = 1
    warmup: int = 0
    #: Peak traced allocation (KiB) of one tracemalloc-instrumented run
    #: (measured separately from the timed runs — tracing skews time).
    peak_mem_kb: float | None = None
    #: Per-phase wall time of one span-traced run (name → {seconds,
    #: count}; see :func:`repro.observability.tracing.phase_summary`) —
    #: measured separately from the timed runs, like ``peak_mem_kb``.
    phases: dict | None = None

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "size": self.size,
            "engine": self.engine,
            "algorithm": self.algorithm,
            "backend": self.backend,
            "seconds": round(self.seconds, 4),
            "items": self.item_count,
            "nodes_fed_back": self.nodes_fed_back,
            "recursion_depth": self.recursion_depth,
            "ifp_evaluations": self.ifp_evaluations,
            "seed_limit": self.seed_limit,
            "paper_row": self.paper_row,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "peak_mem_kb": self.peak_mem_kb,
            "phases": self.phases,
        }


@dataclass
class _PreparedWorkload:
    workload: Workload
    size_label: str
    document: DocumentNode
    resolver: DocumentResolver
    modules: dict = field(default_factory=dict)
    #: Lazily created SQLite store with the document shredded (sql engine).
    sql_store: object = None


class BenchmarkHarness:
    """Builds workload documents once and runs measured query evaluations."""

    def __init__(self, optimize_queries: bool = True):
        self.optimize_queries = optimize_queries
        self._prepared: dict[tuple[str, str], _PreparedWorkload] = {}

    # -- preparation ---------------------------------------------------------

    def prepare(self, workload_name: str, size_label: str) -> _PreparedWorkload:
        """Build (or fetch the cached) document for a workload size."""
        key = (workload_name, size_label)
        if key not in self._prepared:
            workload = get_workload(workload_name)
            size = workload.size(size_label)
            document = size.build_document()
            resolver = DocumentResolver()
            resolver.register(workload.document_uri, document)
            self._prepared[key] = _PreparedWorkload(workload, size_label, document, resolver)
        return self._prepared[key]

    # -- running -------------------------------------------------------------------

    def run(self, workload_name: str, size_label: str, engine: str = "ifp",
            algorithm: str = "delta", seed_limit: int | None = None,
            backend: str | None = None, repeats: int = 1,
            warmup: int = 0, measure_memory: bool = True,
            measure_phases: bool = True) -> RunResult:
        """Run one (workload, size, engine, algorithm) combination.

        ``backend`` selects the algebra engine's table storage (``"row"`` or
        ``"columnar"``; see :mod:`repro.algebra.storage`) and is ignored by
        the other engines.  ``warmup`` unmeasured runs precede ``repeats``
        measured ones; the reported time is the best (minimum) measured run,
        so one-time costs — lazy index builds, module caches — are charged
        to warmup, matching the steady-state serving pattern.  Unless
        ``measure_memory`` is off, one extra run executes under tracemalloc
        *after* the timed ones (tracing roughly doubles allocation costs, so
        it must never share a run with a timing) and reports the peak traced
        allocation as ``peak_mem_kb``.  Likewise ``measure_phases`` runs one
        extra span-traced evaluation and attaches its
        :func:`~repro.observability.tracing.phase_summary` as ``phases`` —
        again separate from the timed runs, so tracing never skews times.
        """
        prepared = self.prepare(workload_name, size_label)
        workload = prepared.workload
        size = workload.size(size_label)
        limit = seed_limit if seed_limit is not None else size.default_seed_limit
        if repeats < 1:
            raise ReproError("repeats must be at least 1")

        def once(trace: TraceContext | None = None) -> RunResult:
            if engine == "ifp":
                return self._run_ifp(prepared, algorithm, limit, size.paper_row,
                                     trace=trace)
            if engine == "udf":
                return self._run_udf(prepared, algorithm, limit, size.paper_row,
                                     trace=trace)
            if engine == "algebra":
                return self._run_algebra(prepared, algorithm, limit, size.paper_row,
                                         backend=backend, trace=trace)
            if engine == "sql":
                return self._run_sql(prepared, algorithm, limit, size.paper_row,
                                     trace=trace)
            raise ReproError(f"unknown engine '{engine}' (expected ifp, udf, algebra or sql)")

        for _ in range(warmup):
            once()
        best = min((once() for _ in range(repeats)), key=lambda r: r.seconds)
        best.repeats = repeats
        best.warmup = warmup
        if measure_memory:
            best.peak_mem_kb = _measure_peak_memory(once)
        if measure_phases:
            trace = TraceContext("bench", engine=engine, algorithm=algorithm)
            with trace.activate():
                once(trace=trace)
            best.phases = phase_summary(trace.finish())
        return best

    def compare(self, workload_name: str, size_label: str,
                engines: tuple[str, ...] = ("ifp", "udf"),
                algorithms: tuple[str, ...] = ("naive", "delta"),
                seed_limit: int | None = None,
                backend: str | None = None, repeats: int = 1,
                warmup: int = 0) -> list[RunResult]:
        """Run the full Naive-vs-Delta comparison for one workload size."""
        return [
            self.run(workload_name, size_label, engine=engine, algorithm=algorithm,
                     seed_limit=seed_limit, backend=backend, repeats=repeats,
                     warmup=warmup)
            for engine in engines
            for algorithm in algorithms
        ]

    # -- engines ------------------------------------------------------------------------

    def _run_ifp(self, prepared: _PreparedWorkload, algorithm: str,
                 limit: int | None, paper_row: str | None,
                 trace: TraceContext | None = None) -> RunResult:
        query = prepared.workload.ifp_query(algorithm=algorithm, seed_limit=limit)
        module = self._module(prepared, ("ifp", algorithm, limit), query)
        statistics = StatisticsCollector()
        context = DynamicContext(
            static=StaticContext(trace=trace),
            documents=prepared.resolver,
            statistics=statistics,
        )
        evaluator = Evaluator()
        started = time.perf_counter()
        with maybe_span(trace, "execute"):
            result = evaluator.evaluate_module(module, context)
        elapsed = time.perf_counter() - started
        return RunResult(
            workload=prepared.workload.name,
            size=prepared.size_label,
            engine="ifp",
            algorithm=algorithm,
            seconds=elapsed,
            item_count=len(result),
            result_digest=result_digest(result),
            nodes_fed_back=statistics.total_nodes_fed_back,
            recursion_depth=statistics.max_recursion_depth,
            ifp_evaluations=statistics.ifp_evaluations,
            seed_limit=limit,
            paper_row=paper_row,
        )

    def _run_udf(self, prepared: _PreparedWorkload, algorithm: str,
                 limit: int | None, paper_row: str | None,
                 trace: TraceContext | None = None) -> RunResult:
        variant = "delta" if algorithm == "delta" else "fix"
        query = prepared.workload.udf_query(variant=variant, seed_limit=limit)
        module = self._module(prepared, ("udf", variant, limit), query)
        context = DynamicContext(
            static=StaticContext(trace=trace),
            documents=prepared.resolver)
        evaluator = Evaluator()
        started = time.perf_counter()
        with maybe_span(trace, "execute"):
            result = evaluator.evaluate_module(module, context)
        elapsed = time.perf_counter() - started
        return RunResult(
            workload=prepared.workload.name,
            size=prepared.size_label,
            engine="udf",
            algorithm=algorithm,
            seconds=elapsed,
            item_count=len(result),
            result_digest=result_digest(result),
            seed_limit=limit,
            paper_row=paper_row,
        )

    def _run_algebra(self, prepared: _PreparedWorkload, algorithm: str,
                     limit: int | None, paper_row: str | None,
                     backend: str | None = None,
                     trace: TraceContext | None = None) -> RunResult:
        from repro.algebra.compiler import AlgebraCompiler
        from repro.algebra.evaluator import AlgebraEvaluator
        from repro.xquery.parser import parse_expression

        workload = prepared.workload
        # The algebra backend evaluates the fixpoint per seed (µ/µ∆ at the
        # top level of a plan); seeds are enumerated with the interpreter.
        seeds_query = workload.seeds_expression
        if limit is not None:
            seeds_query = f"subsequence({seeds_query}, 1, {limit})"
        prolog_module = parse_query(workload.ifp_query(algorithm="naive", seed_limit=1))
        functions = prolog_module.function_map()
        evaluator = Evaluator()
        context = DynamicContext(documents=prepared.resolver)
        for function in prolog_module.functions:
            context.static.functions[(function.name, function.arity)] = function
        for declaration in prolog_module.variables:
            if declaration.value is not None:
                context = context.bind(declaration.name, evaluator.evaluate(declaration.value, context))
        seeds = evaluator.evaluate(parse_expression(seeds_query), context)

        variant = "delta" if algorithm == "delta" else "naive"
        compiler = AlgebraCompiler(documents=prepared.resolver, document=prepared.document,
                                   functions=functions, backend=backend)
        algebra_engine = AlgebraEvaluator(backend=backend, trace=trace)
        total_items = 0
        digest_parts: list[str] = []
        started = time.perf_counter()
        execute_span = trace.begin("execute") if trace is not None else None
        for seed in seeds:
            from repro.algebra.operators import DocumentRoot

            base_context = compiler.initial_context(
                variables={"s": _constant_sequence_plan(compiler, [seed])}
            )
            base_context = base_context.bind(
                "doc", DocumentRoot(base_context.loop, prepared.document)
            )
            seed_expr = _seed_with_expression(workload, variant)
            plan = compiler.compile(seed_expr, base_context)
            table = algebra_engine.evaluate_plan(plan)
            total_items += len(table)
            digest_parts.extend(
                sorted(string_value_of_item(item) for item in table.column_values("item"))
            )
        if execute_span is not None:
            trace.end(execute_span)
        elapsed = time.perf_counter() - started
        statistics = algebra_engine.statistics
        return RunResult(
            workload=workload.name,
            size=prepared.size_label,
            engine="algebra",
            algorithm=algorithm,
            seconds=elapsed,
            item_count=total_items,
            result_digest=_digest_strings(digest_parts),
            nodes_fed_back=statistics.total_rows_fed_back,
            recursion_depth=statistics.max_recursion_depth,
            ifp_evaluations=len(statistics.fixpoint_runs),
            seed_limit=limit,
            paper_row=paper_row,
            backend=algebra_engine.backend,
        )

    def _run_sql(self, prepared: _PreparedWorkload, algorithm: str,
                 limit: int | None, paper_row: str | None,
                 trace: TraceContext | None = None) -> RunResult:
        from repro.sqlbackend.executor import SQLEvaluator
        from repro.sqlbackend.shredder import SqlDocumentStore

        query = prepared.workload.ifp_query(algorithm=algorithm, seed_limit=limit)
        module = self._module(prepared, ("sql", algorithm, limit), query)
        if prepared.sql_store is None:
            store = SqlDocumentStore()
            store.shred(prepared.document, uri=prepared.workload.document_uri)
            prepared.sql_store = store
        statistics = StatisticsCollector()
        context = DynamicContext(
            static=StaticContext(trace=trace),
            documents=prepared.resolver,
            statistics=statistics,
        )
        evaluator = SQLEvaluator(store=prepared.sql_store)
        started = time.perf_counter()
        with maybe_span(trace, "execute"):
            result = evaluator.evaluate_module(module, context)
        elapsed = time.perf_counter() - started
        return RunResult(
            workload=prepared.workload.name,
            size=prepared.size_label,
            engine="sql",
            algorithm=algorithm,
            seconds=elapsed,
            item_count=len(result),
            result_digest=result_digest(result),
            nodes_fed_back=statistics.total_nodes_fed_back,
            recursion_depth=statistics.max_recursion_depth,
            ifp_evaluations=statistics.ifp_evaluations,
            seed_limit=limit,
            paper_row=paper_row,
        )

    # -- helpers --------------------------------------------------------------------------

    def _module(self, prepared: _PreparedWorkload, key: tuple, query: str):
        if key not in prepared.modules:
            module = parse_query(query)
            if self.optimize_queries:
                module = optimize_module(module)
            prepared.modules[key] = module
        return prepared.modules[key]


def _measure_peak_memory(run) -> float | None:
    """Peak traced allocation of one *run* call, in KiB.

    Skipped (returns ``None``) when tracemalloc is already tracing — e.g.
    when the whole benchmark process runs under ``python -X tracemalloc`` —
    rather than resetting someone else's trace.
    """
    if tracemalloc.is_tracing():
        return None
    tracemalloc.start()
    try:
        run()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round(peak / 1024.0, 1)


def _seed_with_expression(workload: Workload, algorithm: str):
    from repro.xquery.parser import parse_expression

    return parse_expression(workload.closure_expression(algorithm))


def _constant_sequence_plan(compiler, items):
    from repro.algebra.operators import LiteralTable
    from repro.algebra.table import Table

    rows = [(1, position, item) for position, item in enumerate(items, start=1)]
    return LiteralTable(Table(("iter", "pos", "item"), rows))


def result_digest(result: list) -> str:
    """A stable digest of a query result for Naive-vs-Delta equality checks.

    Constructed nodes differ in identity between runs, so the digest hashes
    the sorted string values of the result items instead.
    """
    return _digest_strings(sorted(
        string_value_of_item(item) if is_node(item) else string_value_of_item(item)
        for item in result
    ))


def _digest_strings(parts: list[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]
