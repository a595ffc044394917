"""Fixpoint execution on SQLite: the recursive CTE, or the shared driver.

:class:`SqlFixpointExecutor` evaluates one ``with … recurse`` form along one
of two paths:

**Recursive CTE** (the paper's SQL:1999 side).  When
:func:`repro.fixpoint.decision.decide_fixpoint` — the same call, under the
same settings, as on the other two engines — says Delta, and the body is a
linear step chain the emitter can translate (the executor's own half of the
precondition), the whole fixpoint executes as a *single* ``WITH RECURSIVE``
statement against the
:class:`~repro.sqlbackend.shredder.SqlDocumentStore`; SQLite's
semi-naive queue evaluation plays the µ∆ role and the deduplicating
``UNION`` is the inflationary accumulation.  Iteration counts are not
observable from outside the RDBMS, so such runs report an empty iteration
trace under the algorithm label ``"cte"``.

**The shared driver** (the fallback).  Non-distributive or non-chain-shaped
bodies have no SQL form, so their body is the interpreter's and the loop is
:meth:`repro.fixpoint.engine.FixpointEngine.run` — the same rounds, budgets,
spans and typed errors as on the other two engines.  Nothing is staged in
SQLite and nothing is shredded for it: the store is only touched once a
statement was emitted.

:class:`SQLEvaluator` is the interpreter with ``with … recurse`` rerouted
through this executor — the ``engine="sql"`` entry point of
:func:`repro.api.evaluate`.
"""

from __future__ import annotations

import itertools
import sqlite3
from collections.abc import Callable

from repro import faults
from repro.errors import SqlBackendError
from repro.fixpoint.decision import FixpointDecision
from repro.fixpoint.engine import FixpointEngine, FixpointResult
from repro.limits import sqlite_guard
from repro.observability import maybe_span
from repro.settings import EvalSettings
from repro.xdm.items import is_node
from repro.xdm.node import AttributeNode
from repro.fixpoint.stats import FixpointStatistics
from repro.sqlbackend.decode import decode_pres
from repro.sqlbackend.emitter import FixpointSql, emit_fixpoint_sql
from repro.sqlbackend.shredder import SqlDocumentStore
from repro.xdm.sequence import ensure_node_sequence
from repro.xquery import ast
from repro.xquery.context import DynamicContext
from repro.xquery.evaluator import Evaluator


def _abbreviate(statement: str, limit: int = 200) -> str:
    """Statement text condensed for span attributes (whitespace folded)."""
    text = " ".join(statement.split())
    return text if len(text) <= limit else text[: limit - 1] + "…"


class SqlFixpointExecutor:
    """Runs ``with … recurse`` fixpoints against a SQLite store."""

    #: Most recent statements kept in :attr:`executed_statements`.  A
    #: long-lived executor on a pooled store (the query service reuses
    #: shredded stores across requests) would otherwise accumulate the
    #: transcript without bound.
    MAX_RECORDED_STATEMENTS = 128

    def __init__(self, store: SqlDocumentStore | None = None):
        self.store = store or SqlDocumentStore()
        #: ``WITH RECURSIVE`` statements executed so far (for tests/--stats);
        #: only the last :attr:`MAX_RECORDED_STATEMENTS` are retained.
        self.executed_statements: list[str] = []
        self._run_ids = itertools.count(1)

    def _record_statement(self, statement: str) -> None:
        self.executed_statements.append(statement)
        if len(self.executed_statements) > self.MAX_RECORDED_STATEMENTS:
            del self.executed_statements[:-self.MAX_RECORDED_STATEMENTS]

    def run(self, expr: ast.WithExpr, seed: list,
            body: Callable[[list], list], algorithm: str,
            max_iterations: int = 100_000,
            variables: dict | None = None,
            push_predicates: bool = True,
            trace=None, governor=None,
            anchor_document=None) -> FixpointResult:
        """Evaluate the fixpoint of *expr* seeded by *seed*.

        ``algorithm`` is :func:`~repro.fixpoint.decision.decide_fixpoint`'s
        (``using`` clause, engine settings, the configured checker):
        ``"delta"`` selects the recursive CTE whenever the body is
        emittable, ``"naive"`` always iterates the shared driver.
        ``variables`` are the caller's in-scope bindings — the emitter
        inlines them into pushed predicate probes; ``push_predicates``
        mirrors the engine's ``use_pushdown`` option.  ``trace`` (a
        :class:`~repro.observability.tracing.TraceContext`) wraps the run
        in a ``fixpoint`` span whose ``path`` attribute records whether the
        CTE or the driver executed it; a CTE's span also says in ``guards``
        how its multi-token guards were decided (:meth:`_check_guards`).
        ``governor`` (a :class:`~repro.limits.Governor`) makes the run
        interruptible: the driver checks at round boundaries, and the CTE
        runs under a SQLite progress handler
        (:func:`repro.limits.sqlite_guard`) so a single monster ``WITH
        RECURSIVE`` honours deadlines too.
        ``anchor_document`` is the context node's document (or ``None``):
        top-level ``id(...)`` bodies scope their ID lookups to it, so
        without one they fall back to the driver.
        """
        emitted = None
        if algorithm == "delta" and not any(
                isinstance(node, AttributeNode) for node in seed):
            # Attribute seeds cannot enter the CTE: their pre ranks live in
            # the attr table, which the emitted chain never reads — the
            # driver gives them the interpreter's semantics instead.
            emitted = emit_fixpoint_sql(
                expr.body, expr.var, variables=variables,
                push_predicates=push_predicates,
                anchor_doc_id=self._anchor_resolver(anchor_document,
                                                    governor=governor))
        if emitted is not None:
            # The guard probes must see the shredded documents, so the seed
            # is encoded first.  encode() may shred a large unseen document
            # on demand; the governor makes that walk interruptible too.
            seed_pres = self.store.encode(
                ensure_node_sequence(seed, "inflationary fixed point seed"),
                governor=governor)
            tripped, guards = self._check_guards(emitted, trace)
            if tripped:
                emitted = None
        if trace is not None:
            trace.record_kernel("sql:fixpoint", emitted is not None)
        if emitted is None:
            return FixpointEngine(max_iterations).run(
                body, seed, algorithm=algorithm, trace=trace,
                governor=governor, span_attributes={"path": "driver"})
        with maybe_span(trace, "fixpoint", algorithm=algorithm, path="cte",
                        seed=len(seed), guards=guards) as span:
            # sqlite_guard sits innermost so it can translate an interrupted
            # statement into the governor's typed error before the generic
            # sqlite3.Error → SqlBackendError mapping sees it.
            try:
                faults.trigger("sqlite-execute")
                with sqlite_guard(self.store.connection, governor):
                    result = self._run_cte(emitted, seed_pres, trace=trace)
            except sqlite3.Error as error:
                raise SqlBackendError(
                    f"SQLite error during fixpoint execution: {error}"
                ) from error
            if span is not None:
                span.set(result_size=len(result.value),
                         rounds=result.statistics.recursion_depth)
        return result

    def _anchor_resolver(self, anchor_document, governor=None):
        """A lazy ``doc_id`` supplier for top-level ``id(...)`` emission.

        Resolved only when the body actually contains a top-level ``id``
        call: shredding the anchor document just in case would be wasted
        work for every other body shape.
        """
        def resolve():
            if anchor_document is None:
                return None
            self.store.encode([anchor_document], governor=governor)
            return self.store.doc_id_of(anchor_document)

        return resolve

    def _check_guards(self, emitted: FixpointSql, trace=None) -> tuple[bool, str]:
        """Whether the store holds data the emitted chain would mishandle
        (multi-token IDREFS content) — the shared driver takes over then —
        and how that was known: ``"none"`` (no guard), ``"cached"`` or
        ``"probed"``.

        The verdicts live on the store (:meth:`SqlDocumentStore.verdict`),
        once per probe and store version, so the probes run only after the
        store's content changed; each one that runs gets a ``sql`` span
        with ``probe="multi-token"``.
        """
        if not emitted.guards:
            return False, "none"
        probed = False

        def probe(statement: str) -> bool:
            nonlocal probed
            probed = True
            with maybe_span(trace, "sql", probe="multi-token",
                            statement=_abbreviate(statement)):
                return bool(self.store.connection.execute(statement).fetchone()[0])

        tripped = any(self.store.verdict(guard, probe) for guard in emitted.guards)
        return tripped, "probed" if probed else "cached"

    # -- the recursive CTE path ---------------------------------------------

    #: Seed sets beyond this bind through a temp table instead of ``?``
    #: placeholders (SQLite's host-parameter limit is 999 before 3.32).
    MAX_SEED_PARAMETERS = 500

    def _run_cte(self, emitted: FixpointSql, seed_pres: list[int],
                 trace=None) -> FixpointResult:
        connection = self.store.connection
        if len(seed_pres) > self.MAX_SEED_PARAMETERS:
            seed_table = f"fix_seed_{next(self._run_ids)}"
            connection.execute(f"CREATE TEMP TABLE {seed_table} (pre INTEGER)")
            try:
                connection.executemany(
                    f"INSERT INTO {seed_table} (pre) VALUES (?)",
                    [(pre,) for pre in seed_pres])
                statement = emitted.statement_from_table(seed_table)
                self._record_statement(statement)
                with maybe_span(trace, "sql", statement=_abbreviate(statement)) as span:
                    rows = connection.execute(statement).fetchall()
                    if span is not None:
                        span.set(rows=len(rows))
            finally:
                connection.execute(f"DROP TABLE IF EXISTS {seed_table}")
        else:
            statement = emitted.statement(len(seed_pres))
            self._record_statement(statement)
            # VALUES needs a row; -1 matches no step (every member takes one)
            parameters = seed_pres or [-1]
            with maybe_span(trace, "sql", statement=_abbreviate(statement)) as span:
                rows = connection.execute(statement, parameters).fetchall()
                if span is not None:
                    span.set(rows=len(rows))
        with maybe_span(trace, "decode", rows=len(rows)):
            nodes = decode_pres(self.store, (row[0] for row in rows))
        statistics = FixpointStatistics(algorithm="cte")
        return FixpointResult(value=nodes, statistics=statistics)


class SQLEvaluator(Evaluator):
    """The interpreter with ``with … recurse`` executed on SQLite.

    Everything outside the IFP form behaves exactly like
    :class:`~repro.xquery.evaluator.Evaluator` (which is what makes the
    ``sql`` engine item-identical to the interpreter by construction);
    every fixpoint runs as a recursive CTE over the store when its body can
    be emitted, and through the interpreter's own driver otherwise.
    """

    def __init__(self, store: SqlDocumentStore | None = None):
        super().__init__()
        self.executor = SqlFixpointExecutor(store)

    @property
    def store(self) -> SqlDocumentStore:
        return self.executor.store

    def _run_fixpoint(self, expr: ast.WithExpr, context: DynamicContext,
                      seed: list, body: Callable[[list], list],
                      algorithm: str) -> FixpointResult:
        anchor_document = None
        if context.focus.defined and is_node(context.focus.item):
            anchor_document = context.focus.item.document()
        static = context.static
        return self.executor.run(
            expr, seed, body, algorithm,
            max_iterations=static.settings.max_ifp_iterations,
            variables=context.variables,
            push_predicates=static.settings.use_pushdown,
            trace=static.trace,
            governor=static.governor,
            anchor_document=anchor_document,
        )


def fixpoint_statements(module_or_expr, settings: EvalSettings = EvalSettings()
                        ) -> list[tuple[ast.WithExpr, FixpointDecision, FixpointSql | None]]:
    """All ``with … recurse`` forms of a query, what *settings* decide for
    each, and their emitted SQL.

    Returns ``(expr, decision, emitted)`` triples — the module optimized
    and analyzed as the engine would under *settings* — where ``emitted``
    is ``None`` for fixpoints the sql engine runs through the driver loop:
    those the decision makes Naive (``decision`` says who did) and bodies
    that are not a linear step chain.  Used by the CLI's ``--emit-sql``.
    Variable right-hand sides of pushed predicates are unknown here, so
    such bodies display as driver-loop fallbacks even though the engine may
    still inline the runtime bindings.
    """
    from repro.analysis import analyze_module
    from repro.xquery.optimizer import optimize_module

    module = (module_or_expr if isinstance(module_or_expr, ast.Module)
              else ast.Module(body=module_or_expr))
    if settings.optimize:
        module = optimize_module(module)
    triples = []
    for fact in analyze_module(module).under(settings).fixpoints:
        decision = fact.decision
        emitted = (emit_fixpoint_sql(fact.site.body, fact.site.var,
                                     push_predicates=settings.use_pushdown)
                   if decision.algorithm == "delta" else None)
        triples.append((fact.site, decision, emitted))
    return triples


__all__ = ["SqlFixpointExecutor", "SQLEvaluator", "fixpoint_statements"]
