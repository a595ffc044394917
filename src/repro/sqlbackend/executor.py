"""Fixpoint execution on SQLite: the recursive CTE, or the shared driver.

:class:`SqlFixpointExecutor` evaluates one ``with … recurse`` form.  When
:func:`repro.fixpoint.decision.decide_fixpoint` — the same call, under the
same settings, as on the other two engines — says Delta and the body is a
linear step chain the emitter can translate (the executor's own half of
the precondition), the fixpoint is SQL:1999's: one ``WITH RECURSIVE``
statement against the :class:`~repro.sqlbackend.shredder.SqlDocumentStore`,
whose semi-naive queue evaluation plays the µ∆ role and whose
deduplicating ``UNION`` is the inflationary accumulation.  The statement is
emitted once per ``with`` node (:func:`~repro.sqlbackend.emitter.emitted_for`);
the multi-token guards are decided first, and a chain of two or more joins
that stays in its tree reads the store's materialised ``(src, dst)`` edge
table of the seed's trees (built by the first closure that starts there,
under the same governor as the statement) instead of walking the joins per
frontier row.  Then, in this order:

**The image relation** (a body that is also a step relation, which every
emittable chain is).  A recursive CTE is sound exactly when the body is
distributive — SQLite applies the member once per new row, Definition
3.1's ``e(X) = ∪ e({x})`` — so the statement that reaches the fixed point
can also hand back the image of every source it reached: it ends with one
more join to the edge table or the member, and its ``(src, dst)`` rows fill
sql's own image memo (:class:`~repro.xdm.index.StepRelation` keyed
``engine="sql"``).  That join costs about as much again as the plain
statement, so a seed's first miss (:meth:`~repro.xdm.index.ImageSpace.first_miss`)
runs the plain statement (as the whole-fixpoint CTE below) and notes the
seed; from its next run on, the run goes through
:meth:`repro.fixpoint.engine.FixpointEngine.run` with the image statement
as the relation's *fill*: the filling run's first round runs it, every
later round and every warm run probes the memo.  Those rounds are the
loop's, so they equal the interpreter's; the ``fixpoint`` span says
``space="pre"``, and ``path="cte"``, ``guards`` and ``edges`` only on a
run whose fill ran a statement (a ``sql`` child span).

**The whole-fixpoint CTE** (a relation seed's first miss, and an
emittable body the relation declines: a seed in two trees, a variable
bound in the query rather than the prolog).  The statement returns the
fixed point itself; its rounds are not
observable from outside the RDBMS, so such runs report an empty iteration
trace under the algorithm label ``"cte"`` (``path="cte"``).

**The shared driver** (the fallback: Naive, bodies with no SQL form,
attribute seeds, round budgets, tripped guards, a full sql memo).  The body
is the interpreter's, the images the interpreter's, and the loop
:meth:`~repro.fixpoint.engine.FixpointEngine.run` — the same rounds,
budgets, spans and typed errors as on the other two engines
(``path="driver"``).  Nothing is staged in SQLite and nothing is shredded
for it: the store is only touched once a statement was emitted.

:class:`SQLEvaluator` is the interpreter with ``with … recurse`` rerouted
through this executor — the ``engine="sql"`` entry point of
:func:`repro.api.evaluate`.
"""

from __future__ import annotations

import dataclasses
import itertools
import sqlite3
from operator import itemgetter
from collections.abc import Callable

from repro import faults
from repro.errors import FixpointError, SqlBackendError
from repro.fixpoint.decision import FixpointDecision
from repro.fixpoint.engine import FixpointEngine, FixpointResult
from repro.limits import sqlite_guard
from repro.observability import maybe_span
from repro.settings import EvalSettings
from repro.xdm.index import StepRelation, StructuralIndex
from repro.xdm.items import is_node
from repro.xdm.node import AttributeNode
from repro.fixpoint.stats import FixpointStatistics
from repro.sqlbackend.decode import decode_pres
from repro.sqlbackend.emitter import FixpointSql, emit_fixpoint_sql, emitted_for
from repro.sqlbackend.shredder import SqlDocumentStore
from repro.xdm.sequence import ensure_node_sequence
from repro.xquery import ast
from repro.xquery.context import DynamicContext
from repro.xquery.evaluator import Evaluator


#: The parts of an image statement's ``(src, dst)`` row.
_source, _target = itemgetter(0), itemgetter(1)


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
            anchor_document=None,
            relation: StepRelation | None = None,
            documents=None) -> FixpointResult:
        """Evaluate the fixpoint of *expr* seeded by *seed*.

        ``algorithm`` is :func:`~repro.fixpoint.decision.decide_fixpoint`'s
        (``using`` clause, engine settings, the configured checker):
        ``"delta"`` selects the recursive CTE whenever the body is
        emittable — as the fill of sql's images when *relation* binds to the
        seed and the seed missed in an earlier run, as the whole fixpoint
        otherwise — and ``"naive"`` always iterates the shared driver.
        ``variables`` are the caller's in-scope bindings — the emitter
        inlines them into pushed predicate probes; ``push_predicates``
        mirrors the engine's ``use_pushdown`` option.  ``trace`` (a
        :class:`~repro.observability.tracing.TraceContext`) wraps the run
        in a ``fixpoint`` span whose ``path`` attribute records whether the
        CTE or the driver executed it; a CTE's span also says in ``guards``
        how its multi-token guards were decided (:meth:`_check_guards`) and
        in ``edges`` whether it read a materialised step relation
        (:meth:`_edge_table`).
        ``governor`` (a :class:`~repro.limits.Governor`) makes the run
        interruptible: the driver checks at round boundaries, and the CTE
        runs under a SQLite progress handler
        (:func:`repro.limits.sqlite_guard`) so a single monster ``WITH
        RECURSIVE`` honours deadlines too.  A round, frontier or result
        budget sends the run to the driver, whose span names the budgets in
        ``fallback``; so does a CTE result of more than *max_iterations*
        nodes (``fallback="max_ifp_iterations"``), the only kind that can
        have needed more rounds — the same typed errors, in the same round,
        as on the other engines.
        ``anchor_document`` is the context node's document (or ``None``):
        top-level ``id(...)`` bodies scope their ID lookups to it, so
        without one they fall back to the driver.  ``relation`` is the body
        as a step relation (the interpreter's key): keyed for sql it runs
        an emittable body in pre-space on images the statement fills, and
        the driver iterates it with the interpreter's images;
        ``documents`` looks up the documents the relation reads.
        """
        engine = FixpointEngine(max_iterations)
        emitted = space = None
        driver = {"path": "driver"}
        budgets = governor.limits.round_budgets() if governor is not None else ()
        if budgets:
            # SQLite's rounds are not observable: a round, frontier or
            # result budget needs the loop that counts them.
            driver["fallback"] = ",".join(budgets)
        elif algorithm == "delta" and not any(
                isinstance(node, AttributeNode) for node in seed):
            # Attribute seeds cannot enter the CTE: their pre ranks live in
            # the attr table, which the emitted chain never reads — the
            # driver gives them the interpreter's semantics instead.  The
            # statement is memoised on the node: a warm run emits nothing.
            emitted = emitted_for(
                expr, variables, push_predicates,
                self._anchor_resolver(anchor_document, governor=governor))
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
            elif relation is not None:
                # sql's own images, filled by the statement with its image
                # join; the fill reads the tree, not the space (a space
                # holding a fill that holds it is a cycle).
                attributes: dict = {}
                space = self._sql_relation(expr, relation).bind(
                    seed, body, documents,
                    lambda pres: self._images(emitted, tree, pres, guards,
                                              attributes, trace, governor))
                tree = None if space is None else space.idx
                if space is not None and space.full():
                    emitted = None  # the driver, on the interpreter's images
                elif space is not None and space.first_miss():
                    # The plain statement answers a seed's first miss: the
                    # image join costs twice that, paid from its next run.
                    space = None
        if trace is not None:
            trace.record_kernel("sql:fixpoint", emitted is not None)
        if emitted is None:
            return engine.run(
                body, seed, algorithm=algorithm, trace=trace,
                governor=governor, span_attributes=driver, relation=relation,
                documents=documents)
        if space is not None:
            # Images from SQLite, rounds from the loop: a filling run's first
            # round fills the memo with one statement, a warm run probes it.
            return engine.run(body, seed, algorithm=algorithm, trace=trace,
                              governor=governor, span_attributes=attributes,
                              relation=space)
        with maybe_span(trace, "fixpoint", algorithm=algorithm, path="cte",
                        seed=len(seed), guards=guards) as span:
            rows, disposition = self._rows(emitted, seed, seed_pres, trace, governor)
            with maybe_span(trace, "decode", rows=len(rows)):
                value = decode_pres(self.store, (row[0] for row in rows))
            if span is not None:
                span.set(edges=disposition, result_size=len(value), rounds=0)
        if len(value) > max_iterations:
            # Every round before the last adds a node, so only a result this
            # large can have taken more rounds than the bound allows; the
            # driver counts them, and raises where the other engines do.
            return engine.run(
                body, seed, algorithm=algorithm, trace=trace, governor=governor,
                span_attributes={"path": "driver", "fallback": "max_ifp_iterations"},
                relation=relation, documents=documents)
        return FixpointResult(value=value, statistics=FixpointStatistics(algorithm="cte"))

    @staticmethod
    def _sql_relation(expr: ast.WithExpr, relation: StepRelation) -> StepRelation:
        """*relation* keyed for sql's own images, once per ``with`` node
        (*relation* is the node's own, :func:`pushdown.fixpoint_relation`)."""
        found = expr._sql_relation
        if found is False:
            found = dataclasses.replace(relation, engine="sql")
            object.__setattr__(expr, "_sql_relation", found)
        return found

    def _images(self, emitted: FixpointSql, idx: StructuralIndex, pres: list[int], guards: str,
                attributes: dict, trace=None, governor=None) -> dict[int, tuple[int, ...]]:
        """The fill of a relation run: one image statement seeded by the
        sources *pres* (of *idx*), whose rows give the image of every source
        it reached — ``{pre: image pres}`` in *idx*'s ranks.  Notes on the
        ``fixpoint`` span's *attributes* that a statement ran
        (``path="cte"``), how its guards were decided and whether it read
        an edge table."""
        nodes = [idx.nodes[pre] for pre in pres]
        seed_pres = self.store.encode(nodes, governor=governor)
        rows, disposition = self._rows(emitted, nodes, seed_pres, trace, governor,
                                       images=True)
        attributes.update(path="cte", guards=guards, edges=disposition)
        with maybe_span(trace, "decode", rows=len(rows)):
            # Seed and targets are every source: a source without rows has
            # an empty image.  A source's rows come in runs (the join's
            # outer loop), each run's pairs distinct from the others'.
            ranks = set(map(_target, rows)).union(seed_pres)
            to_index = dict(zip(ranks, map(idx.pre_of.get, map(id, self.store.decode(ranks)))))
            if None in to_index.values():
                raise FixpointError("a step relation's body left the seed's tree")
            rank = to_index.__getitem__
            images = dict.fromkeys(to_index.values(), ())
            for source, run in itertools.groupby(rows, _source):
                source = rank(source)
                images[source] += tuple(map(rank, map(_target, run)))
            return images

    def _rows(self, emitted: FixpointSql, seed: list, seed_pres: list[int], trace=None,
              governor=None, images: bool = False) -> tuple[list, str]:
        """Run *emitted* from *seed* under *governor* (:meth:`_execute`):
        its rows, and how the edge table was had (:meth:`_edge_table`)."""
        # sqlite_guard sits innermost so it can translate an interrupted
        # statement into the governor's typed error before the generic
        # sqlite3.Error → SqlBackendError mapping sees it.
        try:
            faults.trigger("sqlite-execute")
            with sqlite_guard(self.store.connection, governor):
                edges, disposition = self._edge_table(emitted, seed, trace)
                return self._execute(emitted, seed_pres, edges, trace, images), disposition
        except sqlite3.Error as error:
            raise SqlBackendError(
                f"SQLite error during fixpoint execution: {error}") from error

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
        (multi-token IDREFS content, or an ID bound to an element of another
        tree: :meth:`SqlDocumentStore.has_foreign_ids`, no probe needed) —
        the shared driver takes over then — and how that was known:
        ``"none"`` (no guard), ``"cached"``, ``"probed"`` or
        ``"foreign-ids"``.

        The verdicts live on the store (:meth:`SqlDocumentStore.verdict`),
        once per probe and store version, so the probes run only after the
        store's content changed; each one that runs gets a ``sql`` span
        with ``probe="multi-token"``.
        """
        if not emitted.guards:
            return False, "none"
        if self.store.has_foreign_ids():
            return True, "foreign-ids"
        probed = False

        def probe(statement: str) -> bool:
            nonlocal probed
            probed = True
            with maybe_span(trace, "sql", probe="multi-token",
                            statement=_abbreviate(statement)):
                return bool(self.store.connection.execute(statement).fetchone()[0])

        tripped = any(self.store.verdict(guard, probe) for guard in emitted.guards)
        return tripped, "probed" if probed else "cached"

    def _edge_table(self, emitted: FixpointSql, seed: list,
                    trace=None) -> tuple[str | None, str]:
        """The store's ``(src, dst)`` table of the chain over the seed's
        trees (:meth:`SqlDocumentStore.edge_table`) — ``None`` to read the
        joins — and how it was had: ``"none"`` (a single join, a chain that
        may leave its tree, no seed), ``"cached"``, ``"built"`` or
        ``"declined"``.  Each build that runs is a ``sql`` span with
        ``build="edges"``."""
        select = emitted.edge_select()
        if select is None or not seed:
            return None, "none"

        def build(statement: str, parameters: tuple) -> int:
            with maybe_span(trace, "sql", build="edges",
                            statement=_abbreviate(statement)) as span:
                inserted = self.store.connection.execute(statement, parameters).rowcount
                if span is not None:
                    span.set(rows=inserted)
            return inserted

        return self.store.edge_table(select, seed, build)

    # -- the recursive CTE path ---------------------------------------------

    #: Seed sets beyond this bind through a temp table instead of ``?``
    #: placeholders (SQLite's host-parameter limit is 999 before 3.32).
    MAX_SEED_PARAMETERS = 500

    def _execute(self, emitted: FixpointSql, seed_pres: list[int],
                 edges: str | None = None, trace=None, images: bool = False) -> list:
        """Run *emitted*'s statement seeded by *seed_pres*: its rows, one
        ``(pre,)`` per node of the fixed point or, with *images*, the
        ``(src, dst)`` rows of :meth:`FixpointSql.images`."""
        connection = self.store.connection
        if len(seed_pres) > self.MAX_SEED_PARAMETERS:
            seed_table = f"fix_seed_{next(self._run_ids)}"
            connection.execute(f"CREATE TEMP TABLE {seed_table} (pre INTEGER)")
            try:
                connection.executemany(
                    f"INSERT INTO {seed_table} (pre) VALUES (?)",
                    [(pre,) for pre in seed_pres])
                statement = emitted.statement_from_table(seed_table, edges, images)
                self._record_statement(statement)
                with maybe_span(trace, "sql", statement=_abbreviate(statement)) as span:
                    rows = connection.execute(statement).fetchall()
                    if span is not None:
                        span.set(rows=len(rows))
            finally:
                connection.execute(f"DROP TABLE IF EXISTS {seed_table}")
            return rows
        statement = emitted.statement(len(seed_pres), edges, images)
        self._record_statement(statement)
        # VALUES needs a row; -1 matches no step (every member takes one)
        parameters = seed_pres or [-1]
        with maybe_span(trace, "sql", statement=_abbreviate(statement)) as span:
            rows = connection.execute(statement, parameters).fetchall()
            if span is not None:
                span.set(rows=len(rows))
        return rows


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
                      algorithm: str, relation: StepRelation | None) -> FixpointResult:
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
            relation=relation,
            documents=context.documents.loaded,
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
