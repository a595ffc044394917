"""Session-owned evaluation state: caches, documents, SQLite pool.

Until PR 6 every piece of serving state was a module-level global — the
parsed-module and compiled-plan LRUs in :mod:`repro.api`, the structural
index registry, and a fresh in-memory SQLite store per SQL evaluation.
That is workable for scripts but wrong for a long-running concurrent
service: callers cannot isolate corpora, cannot drop one tenant's caches,
and cannot keep the SQL shred warm across requests.

A :class:`Session` owns all of it explicitly:

* its **document registry** (URI → document) with *snapshot semantics*:
  :meth:`Session.register_document` bumps a generation and starts a new
  snapshot resolver — nothing else.  Evaluations in flight finish against
  the snapshot they captured; new requests see the new corpus, and what
  they find cached is checked against it *per document*, so a write costs
  the plans and the shred of the document it wrote and nothing of any
  other;
* its **module and plan caches** (:class:`repro.plancache.LRUCache`,
  fully lock-protected), keyed by query text and by (module, normalized
  :class:`~repro.settings.EvalSettings` plan key) respectively; a plan
  entry carries the documents its compilation resolved and is served only
  to a resolver that still resolves them to the same objects
  (:class:`repro.plancache.CachedPlan`);
* its **SQLite store pool** (:class:`repro.sqlbackend.pool.SqlStorePool`):
  one store per worker thread for the life of the session; at each
  acquisition it keeps the shredded trees the evaluation can name and that
  have not changed, and forgets the rest;
* its **default settings**, overridable per call
  (``session.evaluate(query, engine="sql")``): one
  :class:`~repro.settings.EvalSettings` value is resolved per evaluation
  and handed to the engines unchanged on
  :class:`~repro.xquery.context.StaticContext`, next to the run's live
  :class:`~repro.observability.tracing.TraceContext` and
  :class:`~repro.limits.Governor` (each ``None`` unless asked for).

The module-level :func:`repro.api.evaluate` is a thin wrapper over one
process-wide default session, so existing code keeps its behavior.

Lock order (narrowest first, see DESIGN.md §8): an evaluation thread may
take the session lock, then a cache lock, then the structural-index
registry lock (under which the change tokens of shredded trees live too)
— never the reverse; a plan entry is validated under the cache lock and
looks into the registry from there.  No lock is held while a query body
actually evaluates — traced runs included: the kernel counters of a
traced query live on its own trace context, not behind a session lock.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sequence
from typing import Any, TYPE_CHECKING

from repro import faults as faults_module
from repro import plancache
from repro.fixpoint.stats import StatisticsCollector
from repro.limits import CancelToken, Governor, ResourceLimits
from repro.observability.tracing import Span, TraceContext, maybe_span
from repro.settings import Engine, EvalSettings, coerce_settings
from repro.xdm.node import DocumentNode
from repro.xmlio.parser import parse_xml
from repro.xquery import ast, pushdown
from repro.xquery.context import DocumentResolver, DynamicContext, StaticContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.optimizer import optimize_module
from repro.xquery.parser import parse_query

if TYPE_CHECKING:
    from repro.analysis.report import AnalysisReport


@dataclass
class QueryResult:
    """The outcome of an evaluation (:meth:`Session.evaluate` and the
    module-level :func:`repro.api.evaluate`)."""

    items: list
    statistics: StatisticsCollector = field(default_factory=StatisticsCollector)
    #: Root :class:`~repro.observability.tracing.Span` of ``trace=True``
    #: runs (``None`` otherwise): the query span tree — parse, compile,
    #: execute, decode phases with per-fixpoint-round children and the
    #: ``kernel:*`` batch-vs-fallback counters of this query.
    trace: Span | None = None
    #: The static-analysis report of the compiled module
    #: (``settings.analyze`` runs, ``None`` otherwise): scope diagnostics,
    #: per-fixpoint distributivity facts, cardinality classes.
    analysis: "AnalysisReport | None" = None

    @property
    def nodes_fed_back(self) -> int:
        """Total nodes fed into recursion bodies across all IFPs in the query."""
        return self.statistics.total_nodes_fed_back

    @property
    def recursion_depth(self) -> int:
        return self.statistics.max_recursion_depth

    def string_values(self) -> list[str]:
        from repro.xdm.items import string_value_of_item

        return [string_value_of_item(item) for item in self.items]

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


def build_resolver(documents, id_attributes: Iterable[str]) -> DocumentResolver:
    """Normalize a documents argument (mapping / resolver / None)."""
    if isinstance(documents, DocumentResolver):
        return documents
    resolver = DocumentResolver()
    for uri, doc in (documents or {}).items():
        if isinstance(doc, str):
            doc = parse_xml(doc, id_attributes=id_attributes)
        resolver.register(uri, doc)
    return resolver


class Session:
    """An isolated evaluation context: documents, caches, SQLite pool.

    Parameters
    ----------
    documents:
        Initial corpus: mapping from URI to a parsed document or XML text
        (registered via :meth:`register_document`).
    settings:
        Default :class:`EvalSettings` of this session (a mapping of field
        names also works).  Per-call settings/overrides take precedence.
    id_attributes:
        Attribute names treated as IDs when XML text is parsed here.
    module_cache_size / plan_cache_size:
        Capacities of the per-session LRU caches.
    sql_store:
        ``"memory"`` (default) or ``"wal"`` — how the per-worker SQLite
        stores of the SQL engine are backed (see
        :class:`~repro.sqlbackend.pool.SqlStorePool`).
    sql_store_dir:
        Directory for ``"wal"`` store files (default: a private tempdir).
    faults:
        Optional fault-injection plan (:class:`repro.faults.FaultPlan` or a
        ``REPRO_FAULTS``-syntax string) activated process-wide for the
        session's lifetime and deactivated on :meth:`close`.  Chaos-testing
        hook; see :mod:`repro.faults`.
    """

    def __init__(self,
                 documents: Mapping[str, DocumentNode | str] | None = None,
                 *,
                 settings: EvalSettings | Mapping[str, Any] | None = None,
                 id_attributes: Iterable[str] = ("id", "xml:id"),
                 module_cache_size: int = 256,
                 plan_cache_size: int = 64,
                 sql_store: str = "memory",
                 sql_store_dir: str | None = None,
                 faults: "faults_module.FaultPlan | str | None" = None):
        from repro.sqlbackend.pool import SqlStorePool

        self.settings = coerce_settings(settings)
        self.id_attributes = tuple(id_attributes)
        self._lock = threading.RLock()
        self._documents: dict[str, DocumentNode] = {}
        self._generation = 0
        self._snapshot: DocumentResolver | None = None
        self._module_cache = plancache.LRUCache(module_cache_size)
        self._plan_cache = plancache.LRUCache(plan_cache_size)
        self._analysis_cache = plancache.LRUCache(module_cache_size)
        self._sql_pool = SqlStorePool(mode=sql_store, directory=sql_store_dir)
        self._closed = False
        self._fault_plan: faults_module.FaultPlan | None = None
        if faults is not None:
            plan = (faults if isinstance(faults, faults_module.FaultPlan)
                    else faults_module.parse_plan(faults))
            self._fault_plan = plan
            faults_module.activate(plan)
        for uri, doc in (documents or {}).items():
            self.register_document(uri, doc)

    # -- documents & snapshots ----------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic counter of document-registry changes."""
        with self._lock:
            return self._generation

    def register_document(self, uri: str,
                          document: DocumentNode | str,
                          id_attributes: Iterable[str] | None = None) -> int:
        """Register (or replace) *document* under *uri*; returns the new
        generation.

        Replacing a document is the service's mutation model: queries in
        flight finish on the snapshot they captured; the next request
        captures a new one, against which the compiled-plan cache and the
        SQLite store pool check what they hold document by document.
        """
        if isinstance(document, str):
            document = parse_xml(
                document,
                id_attributes=tuple(id_attributes or self.id_attributes))
        with self._lock:
            self._documents[uri] = document
            self._generation += 1
            self._snapshot = None
            return self._generation

    def apply_journal_record(self, record: Mapping[str, Any]) -> int:
        """Apply one corpus-journal record (see :mod:`repro.service.journal`).

        The journal-driven registration hook of the prefork service: every
        worker's tailer funnels ``register``/``replace``/``remove`` records
        through here, so a replicated mutation takes exactly the same path
        — generation bump, new snapshot —
        as a direct :meth:`register_document` call, and all workers
        converge on an identical corpus snapshot.  Returns the new
        generation.
        """
        op = record.get("op")
        if op in ("register", "replace"):
            xml = record.get("xml")
            if not isinstance(xml, str):
                raise ValueError(f"journal {op} record for {record.get('uri')!r} "
                                 f"carries no xml text")
            return self.register_document(
                str(record["uri"]), xml,
                id_attributes=record.get("id_attributes"))
        if op == "remove":
            return self.remove_document(str(record["uri"]))
        raise ValueError(f"unknown journal op {op!r}")

    def remove_document(self, uri: str) -> int:
        """Remove *uri* from the corpus; returns the new generation."""
        with self._lock:
            self._documents.pop(uri, None)
            self._generation += 1
            self._snapshot = None
            return self._generation

    def document_uris(self) -> list[str]:
        with self._lock:
            return sorted(self._documents)

    def snapshot(self) -> DocumentResolver:
        """An immutable view of the current corpus.

        The returned resolver never changes: evaluations started against it
        keep seeing exactly these documents even while
        :meth:`register_document` moves the session forward.  A batch of
        queries can share one snapshot to amortize the capture.
        """
        with self._lock:
            resolver = self._snapshot
            if resolver is None:
                resolver = DocumentResolver()
                for uri, doc in self._documents.items():
                    resolver.register(uri, doc)
                self._snapshot = resolver
            return resolver

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, query: str,
                 documents=None,
                 variables: Mapping[str, Sequence[Any] | Any] | None = None,
                 context_item: Any = None,
                 settings: EvalSettings | Mapping[str, Any] | None = None,
                 id_attributes: Iterable[str] | None = None,
                 cancel_token: CancelToken | None = None,
                 **overrides: Any) -> QueryResult:
        """Parse (through the module cache) and evaluate *query*.

        ``documents`` defaults to the session's current snapshot;
        *overrides* are :class:`EvalSettings` field names applied on top of
        ``settings`` (which itself defaults to the session settings), e.g.
        ``session.evaluate(q, engine="sql", use_index=False)``.
        ``cancel_token`` lets another thread stop the evaluation
        cooperatively (:class:`~repro.limits.CancelToken`).
        """
        settings = coerce_settings(settings, self.settings, **overrides)
        trace = (TraceContext("query", engine=str(settings.engine.value))
                 if settings.trace else None)
        module = self._module_for(query, settings, trace)
        return self._evaluate(module, documents, variables, context_item,
                              settings, id_attributes, pre_optimized=True,
                              trace=trace, cancel_token=cancel_token)

    def evaluate_query(self, module: ast.Module,
                       documents=None,
                       variables: Mapping[str, Sequence[Any] | Any] | None = None,
                       context_item: Any = None,
                       settings: EvalSettings | Mapping[str, Any] | None = None,
                       id_attributes: Iterable[str] | None = None,
                       cancel_token: CancelToken | None = None,
                       **overrides: Any) -> QueryResult:
        """Evaluate an already-parsed module (see :meth:`evaluate`).

        With ``settings.optimize`` the module is rewritten here per call
        (the fresh object cannot be plan-cached); :meth:`prepare` is the
        parse-once path that keeps the plan cache effective.
        """
        settings = coerce_settings(settings, self.settings, **overrides)
        return self._evaluate(module, documents, variables, context_item,
                              settings, id_attributes, pre_optimized=False,
                              cancel_token=cancel_token)

    def prepare(self, query: str,
                settings: EvalSettings | Mapping[str, Any] | None = None,
                **overrides: Any) -> "PreparedQuery":
        """Parse and optimize *query* once; bind-and-run many times.

        The returned :class:`PreparedQuery` shares this session's caches,
        so repeated ``prepared(variables=...)`` calls skip lexing, parsing
        and (on the algebra engine, for cache-safe modules) compilation.
        """
        settings = coerce_settings(settings, self.settings, **overrides)
        module = self._module_for(query, settings)
        return PreparedQuery(session=self, query=query, module=module,
                             settings=settings)

    def _module_for(self, query: str, settings: EvalSettings,
                    trace: TraceContext | None = None) -> ast.Module:
        """Parse *query*, serving repeated texts from the module cache."""
        with maybe_span(trace, "parse") as span:
            if not settings.use_cache:
                if span is not None:
                    span.set(module_cache="bypass")
                return self._parsed(query, settings)
            key = settings.module_key(query)
            module = self._module_cache.get(key)
            if module is None:
                if span is not None:
                    span.set(module_cache="miss")
                module = self._parsed(query, settings)
                self._module_cache.put(key, module)
            elif span is not None:
                span.set(module_cache="hit")
            return module

    @staticmethod
    def _parsed(query: str, settings: EvalSettings) -> ast.Module:
        """*query* parsed, and optimized if *settings* say so: the parser
        applies the local rewrites as it builds the module."""
        if not settings.optimize:
            return parse_query(query)
        return optimize_module(parse_query(query, optimize=True))

    def _evaluate(self, module: ast.Module, documents, variables, context_item,
                  settings: EvalSettings, id_attributes,
                  pre_optimized: bool, trace: TraceContext | None = None,
                  cancel_token: CancelToken | None = None) -> QueryResult:
        if settings.trace and trace is None:
            # evaluate_query()/PreparedQuery.run() land here without a
            # context (no parse phase to cover) — open the root now.
            trace = TraceContext("query", engine=str(settings.engine.value))
        plan_cacheable = pre_optimized or not settings.optimize
        if settings.optimize and not pre_optimized:
            with maybe_span(trace, "optimize"):
                module = optimize_module(module)
        if documents is None:
            resolver = self.snapshot()
        else:
            resolver = build_resolver(
                documents, tuple(id_attributes or self.id_attributes))

        analysis = None
        if settings.analyze:
            # One engine-independent static pass before dispatch: typed
            # static errors (undefined variable/function, wrong arity,
            # duplicate declaration) raise here — identically for the
            # interpreter, algebra and SQL paths — and the report rides
            # along on the result.
            with maybe_span(trace, "analyze") as span:
                analysis = self._analysis_for(module, variables, settings,
                                              span).under(settings)
                if span is not None:
                    span.set(diagnostics=len(analysis.diagnostics),
                             fixpoints=len(analysis.fixpoints))
            analysis.raise_first()

        statistics = StatisticsCollector()
        governor = None
        if settings.limits is not None or cancel_token is not None:
            # The deadline starts here, so compile time counts.
            governor = Governor(settings.limits or ResourceLimits(),
                                token=cancel_token)
        context = DynamicContext(
            static=StaticContext(settings=settings, trace=trace, governor=governor,
                                 analysis=analysis),
            documents=resolver,
            statistics=statistics,
        )
        for name, value in (variables or {}).items():
            context = context.bind(
                name, list(value) if isinstance(value, (list, tuple)) else [value])
        if context_item is not None:
            context = context.with_focus(context_item, 1, 1)

        activation = trace.activate() if trace is not None else nullcontext()
        with activation:
            if settings.engine is Engine.INTERPRETER:
                evaluator = Evaluator()
                with maybe_span(trace, "execute"):
                    items = evaluator.evaluate_module(module, context)
                result = QueryResult(items=items, statistics=statistics)
            elif settings.engine is Engine.SQL:
                from repro.sqlbackend.executor import SQLEvaluator

                evaluator = SQLEvaluator(store=self._sql_pool.store(resolver))
                with maybe_span(trace, "execute"):
                    items = evaluator.evaluate_module(module, context)
                result = QueryResult(items=items, statistics=statistics)
            else:
                result = self._evaluate_algebra(module, resolver, variables,
                                                statistics, settings,
                                                plan_cacheable, trace, governor,
                                                analysis)
        result.analysis = analysis
        if trace is not None:
            result.trace = trace.finish()
        return result

    def _analysis_for(self, module: ast.Module, variables,
                      settings: EvalSettings, span=None) -> "AnalysisReport":
        """Run (or fetch) the static analysis of *module*.

        Cached like the plan: keyed on the module fingerprint plus the
        caller-bound variable *names* (values never matter statically),
        but only for modules whose shape makes fingerprinting sound.
        """
        from repro.analysis import analyze_module

        bound = frozenset((variables or {}).keys())
        if not (settings.use_cache and plancache.module_cache_safe(module)):
            if span is not None:
                span.set(analysis_cache="bypass")
            return analyze_module(module, bound)
        key = settings.analysis_key(plancache.fingerprint([module]), bound)
        report = self._analysis_cache.get(key)
        if report is None:
            if span is not None:
                span.set(analysis_cache="miss")
            report = analyze_module(module, bound)
            self._analysis_cache.put(key, report)
        elif span is not None:
            span.set(analysis_cache="hit")
        return report

    def _evaluate_algebra(self, module: ast.Module, resolver: DocumentResolver,
                          variables, statistics, settings: EvalSettings,
                          plan_cacheable: bool,
                          trace: TraceContext | None,
                          governor: Governor | None,
                          analysis: AnalysisReport | None) -> QueryResult:
        """Compile (or fetch) and run the algebra plan of *module*."""
        from repro.algebra.columnar import ColumnarTable
        from repro.algebra.compiler import AlgebraCompiler
        from repro.algebra.evaluator import AlgebraEvaluator
        from repro.algebra.operators import LiteralTable
        from repro.sqlbackend.decode import decode_result_table

        plan = None
        plan_key = None
        compile_span = trace.begin("compile") if trace is not None else None
        plan_cache_state = "bypass"
        # The plan cache keys on module identity, so it only helps when the
        # caller passes a stable module object (as evaluate()/prepare()
        # arrange via the module cache).  A module this call just rewrote is
        # fresh per call: caching would only fill the LRU with entries that
        # can never hit, each pinning documents.  The settings component is
        # the normalized EvalSettings plan key — pushdown and what decides
        # µ or µ∆ shape the compiled plan, everything else is
        # evaluation-time.  Whether the entry found fits *these* documents
        # is the entry's to say.
        if settings.use_cache and plan_cacheable and plancache.module_cache_safe(module):
            plan_key = (plancache.fingerprint([module]), settings.plan_key())
            entry = self._plan_cache.get(plan_key, lambda entry: entry.serves(resolver))
            plan_cache_state = "miss"
            if entry is not None:
                plan = entry.plan
                plan_cache_state = "hit"
        if plan is None:
            # Everything the compilation learns about documents — fn:doc in
            # the body, the prolog and hoisted variables evaluated below,
            # the one-document default of fn:id — it asks of this view,
            # which is what the cached plan will then depend on.
            read = plancache.DocumentsRead(resolver)
            compiler = AlgebraCompiler(documents=read,
                                       functions=module.function_map(),
                                       push_predicates=settings.use_pushdown,
                                       settings=settings, analysis=analysis,
                                       variables=pushdown.prolog_variables(module))
            evaluator = Evaluator()
            compile_context = compiler.initial_context()
            # Prolog variables are compile-time constants here: each
            # initializer runs once, seeing the declarations before it (and
            # the caller's bindings), exactly as Evaluator.evaluate_module
            # binds them in order.
            prolog = DynamicContext(
                static=StaticContext(functions=module.function_map(), settings=settings,
                                     trace=trace, governor=governor, analysis=analysis),
                documents=read)
            for name, value in (variables or {}).items():
                prolog = prolog.bind(
                    name, list(value) if isinstance(value, (list, tuple)) else [value])
            for declaration in module.variables:
                if declaration.value is None:
                    # External declaration: inline the caller's binding (such
                    # modules are never plan-cached — see module_cache_safe).
                    if not declaration.external or declaration.name not in prolog.variables:
                        continue
                    value = prolog.variables[declaration.name]
                else:
                    value = evaluator.evaluate(declaration.value, prolog)
                    prolog = prolog.bind(declaration.name, value)
                rows = [(1, position, item) for position, item in enumerate(value, start=1)]
                compile_context = compile_context.bind(
                    declaration.name,
                    LiteralTable(ColumnarTable(("iter", "pos", "item"), rows)),
                )
            plan = compiler.compile(module.body, compile_context)
            if plan_key is not None:
                self._plan_cache.put(plan_key, read.cached(plan))
        if compile_span is not None:
            compile_span.set(plan_cache=plan_cache_state)
            trace.end(compile_span)
        algebra_engine = AlgebraEvaluator(max_iterations=settings.max_ifp_iterations,
                                          use_index=settings.use_index,
                                          trace=trace, governor=governor)
        with maybe_span(trace, "execute"):
            table = algebra_engine.evaluate_plan(plan)
        with maybe_span(trace, "decode", rows=len(table)):
            items = decode_result_table(table)
        result = QueryResult(items=items, statistics=statistics)
        result.statistics.runs.extend(algebra_engine.statistics.fixpoint_runs)
        return result

    # -- caches & lifecycle --------------------------------------------------

    def clear_caches(self) -> None:
        """Drop every cached parsed module, compiled plan and analysis."""
        self._module_cache.clear()
        self._plan_cache.clear()
        self._analysis_cache.clear()

    def cache_stats(self) -> dict:
        """Hit/miss/size counters of the module, plan and analysis caches."""
        return {"module": self._module_cache.stats(),
                "plan": self._plan_cache.stats(),
                "analysis": self._analysis_cache.stats()}

    def stats(self) -> dict:
        """One snapshot of everything the session keeps hot."""
        with self._lock:
            generation = self._generation
            documents = len(self._documents)
        stats = self.cache_stats()
        stats.update({
            "generation": generation,
            "documents": documents,
            "sql_pool": self._sql_pool.stats(),
        })
        return stats

    def close(self) -> None:
        """Release pooled SQLite stores and drop the caches."""
        if self._closed:
            return
        self._closed = True
        if (self._fault_plan is not None
                and faults_module.active_plan() is self._fault_plan):
            faults_module.activate(None)
        self._sql_pool.close()
        self.clear_caches()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class PreparedQuery:
    """A parsed, optimized query bound to a session: run without re-parsing.

    Created by :meth:`Session.prepare`.  ``run`` (also ``__call__``)
    accepts fresh variable bindings, a context item, per-run documents and
    settings overrides; everything else — parsed module, session caches,
    compiled plan (algebra engine, cache-safe modules) — is reused.
    """

    session: Session
    query: str
    module: ast.Module
    settings: EvalSettings

    def run(self, documents=None,
            variables: Mapping[str, Sequence[Any] | Any] | None = None,
            context_item: Any = None,
            settings: EvalSettings | Mapping[str, Any] | None = None,
            cancel_token: CancelToken | None = None,
            **overrides: Any) -> QueryResult:
        resolved = coerce_settings(settings, self.settings, **overrides)
        return self.session._evaluate(self.module, documents, variables,
                                      context_item, resolved, None,
                                      pre_optimized=True,
                                      cancel_token=cancel_token)

    __call__ = run


# ---------------------------------------------------------------------------
# the default process session behind the module-level API
# ---------------------------------------------------------------------------

_DEFAULT_SESSION: Session | None = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def default_session() -> Session:
    """The process-wide session serving :func:`repro.api.evaluate`."""
    global _DEFAULT_SESSION
    session = _DEFAULT_SESSION
    if session is None:
        with _DEFAULT_SESSION_LOCK:
            session = _DEFAULT_SESSION
            if session is None:
                session = _DEFAULT_SESSION = Session()
    return session


__all__ = ["Session", "PreparedQuery", "QueryResult", "build_resolver",
           "default_session"]
