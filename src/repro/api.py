"""Convenience API: the entry points a downstream user starts from.

The lower-level packages (``repro.xquery``, ``repro.fixpoint``,
``repro.distributivity``, ``repro.algebra``) remain fully usable on their
own; this module wires them together behind a handful of functions:

>>> from repro import parse_xml, evaluate
>>> doc = parse_xml('<r><a code="a1"/><a code="a2"/></r>', id_attributes=("code",))
>>> result = evaluate('count(//a)', documents={"doc.xml": doc}, context_item=doc)
>>> result.items
[2]

Since PR 6 the evaluation state (module/plan caches, document registry,
per-worker SQLite stores) lives in :class:`repro.session.Session` objects;
the functions here operate on one process-wide *default session*
(:func:`repro.session.default_session`), so scripts keep working unchanged
while services construct their own sessions.  :func:`evaluate` and
:func:`evaluate_query` forward ``settings=`` and ``**overrides`` (field
names of the one settings type, :class:`~repro.settings.EvalSettings`) to
that session exactly as :meth:`Session.evaluate` takes them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.report import AnalysisReport

from repro.errors import BudgetExceeded, QueryCancelled, QueryTimeout
from repro.fixpoint.engine import FixpointEngine, FixpointResult
from repro.limits import CancelToken, ResourceLimits
from repro.session import (
    PreparedQuery,
    QueryResult,
    Session,
    build_resolver,
    default_session,
)
from repro.settings import Engine, EvalSettings
from repro.xdm.node import DocumentNode, Node
from repro.xmlio.parser import parse_xml_file
from repro.xquery import ast
from repro.xquery.context import DocumentResolver, DynamicContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_expression, parse_query


def clear_query_caches() -> None:
    """Drop every cached parsed module and compiled plan (default session)."""
    default_session().clear_caches()


def query_cache_stats() -> dict:
    """Hit/miss/size counters of the default session's caches."""
    return default_session().cache_stats()


def parse_query_text(text: str) -> ast.Module:
    """Parse a query (prolog + body) without evaluating it.

    ``repro.parse_query`` (re-exported from :mod:`repro.xquery.parser`) is an
    alias of the same operation; this wrapper exists for symmetry with
    :func:`evaluate_query`.
    """
    return parse_query(text)


def evaluate(query: str,
             documents: Mapping[str, DocumentNode | str] | DocumentResolver | None = None,
             variables: Mapping[str, Sequence[Any] | Any] | None = None,
             context_item: Any = None,
             id_attributes: Iterable[str] = ("id", "xml:id"),
             settings: EvalSettings | Mapping[str, Any] | None = None,
             **overrides: Any) -> QueryResult:
    """Parse and evaluate an XQuery query on the default session.

    Parameters
    ----------
    query:
        The query text (LiXQuery-style subset plus ``with … recurse``).
    documents:
        Documents available to ``fn:doc``: a mapping from URI to a parsed
        document or XML text, or a pre-built resolver.  Defaults to the
        default session's registered corpus (empty unless populated).
    variables:
        External variable bindings (``declare variable $x external``).
    context_item:
        Initial context item (usually a document or element node).
    id_attributes:
        Attribute names treated as IDs when XML text is parsed here.
    settings:
        An :class:`EvalSettings` value (or mapping of its fields); defaults
        to the default session's settings.
    **overrides:
        :class:`EvalSettings` field names applied on top of ``settings`` —
        ``evaluate(q, engine="sql", use_index=False, trace=True)`` — the
        same spelling :meth:`Session.evaluate` takes.  An unknown name
        raises :class:`TypeError`.
    """
    return default_session().evaluate(
        query, documents=documents, variables=variables,
        context_item=context_item, settings=settings,
        id_attributes=id_attributes, **overrides,
    )


def evaluate_query(module: ast.Module,
                   documents: Mapping[str, DocumentNode | str] | DocumentResolver | None = None,
                   variables: Mapping[str, Sequence[Any] | Any] | None = None,
                   context_item: Any = None,
                   id_attributes: Iterable[str] = ("id", "xml:id"),
                   settings: EvalSettings | Mapping[str, Any] | None = None,
                   **overrides: Any) -> QueryResult:
    """Evaluate an already-parsed query module (see :func:`evaluate`).

    The plan cache keys on the module *object*, so repeated calls benefit
    only when the same parsed module is passed again (as :func:`evaluate`
    arranges via its module cache, and :meth:`repro.session.Session.prepare`
    exposes directly).
    """
    return default_session().evaluate_query(
        module, documents=documents, variables=variables,
        context_item=context_item, settings=settings,
        id_attributes=id_attributes, **overrides,
    )


def ifp(body: Callable[[list], list] | str,
        seed: Sequence[Node] | Node,
        algorithm: str = "delta",
        variable: str = "x",
        documents: Mapping[str, DocumentNode] | DocumentResolver | None = None,
        max_iterations: int = 100_000,
        seed_is_initial_result: bool = False) -> FixpointResult:
    """Compute an inflationary fixed point directly from Python.

    ``body`` is either a Python callable over node lists or an XQuery
    expression text with the recursion variable free (default ``$x``).
    """
    seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    if isinstance(body, str):
        expression = parse_expression(body)
        resolver = build_resolver(documents, ("id", "xml:id"))
        evaluator = Evaluator()
        base_context = DynamicContext(documents=resolver)

        def body_function(nodes: list) -> list:
            return evaluator.evaluate(expression, base_context.bind(variable, nodes))
    else:
        body_function = body
    engine = FixpointEngine(max_iterations=max_iterations)
    return engine.run(body_function, seeds, algorithm=algorithm,
                      seed_is_initial_result=seed_is_initial_result)


def transitive_closure(path: str, context_nodes: Sequence[Node] | Node,
                       algorithm: str = "auto") -> list[Node]:
    """Evaluate a Regular XPath expression (with ``+``/``*`` closures).

    ``path`` uses the Regular XPath syntax of
    :mod:`repro.regularxpath.parser`, e.g.
    ``"(child::prerequisites/child::pre_code)+"``.
    """
    from repro.regularxpath import evaluate_regular_xpath

    nodes = list(context_nodes) if isinstance(context_nodes, (list, tuple)) else [context_nodes]
    return evaluate_regular_xpath(path, nodes, algorithm=algorithm)


def analyze_query_text(query: str,
                       variables: Iterable[str] = ()) -> "AnalysisReport":
    """Statically analyze *query* without evaluating it (the lint entry).

    Runs the full pass pipeline of :mod:`repro.analysis` — scope/arity
    checking, cardinality inference, the strengthened distributivity proof
    — over the *unoptimized* parse and returns the
    :class:`~repro.analysis.report.AnalysisReport`.  Static errors are
    *reported*, not raised; ``repro-xquery --check`` and the service's
    ``POST /analyze`` are thin wrappers over this.

    *variables* names the externally-bound variables (only the names
    matter statically).
    """
    from repro.analysis import analyze_query

    return analyze_query(query, bound_variables=tuple(variables))


def is_distributive_static(body: str | ast.Expr, variable: str = "x",
                           functions: Iterable[ast.FunctionDecl] | None = None) -> bool:
    """The strengthened static distributivity check (cardinality-assisted).

    Accepts everything Figure 5 accepts plus bodies it rejects for reasons
    the cardinality facts discharge — see
    :mod:`repro.analysis.distributivity` for the proof rules.
    """
    from repro.analysis.distributivity import is_distributive_static as _check

    expression = parse_expression(body) if isinstance(body, str) else body
    return _check(expression, variable, functions=functions)


def is_distributive_syntactic(body: str | ast.Expr, variable: str = "x",
                              functions: Iterable[ast.FunctionDecl] | None = None) -> bool:
    """Figure 5's syntactic distributivity check on a recursion body."""
    from repro.distributivity import is_distributivity_safe

    expression = parse_expression(body) if isinstance(body, str) else body
    return is_distributivity_safe(expression, variable, functions=functions)


def is_distributive_algebraic(body: str | ast.Expr, variable: str = "x",
                              functions: Iterable[ast.FunctionDecl] | None = None,
                              documents: Mapping[str, DocumentNode] | DocumentResolver | None = None,
                              document: DocumentNode | None = None,
                              strict: bool = False) -> bool:
    """Section 4's algebraic distributivity check (union push-up on the plan)."""
    from repro.algebra.distributivity import is_distributive_algebraic as _check

    expression = parse_expression(body) if isinstance(body, str) else body
    resolver = build_resolver(documents, ("id", "xml:id"))
    return _check(expression, variable, functions=functions, documents=resolver,
                  document=document, strict=strict)


def load_documents(paths: Mapping[str, str],
                   id_attributes: Iterable[str] = ("id", "xml:id")) -> DocumentResolver:
    """Parse XML files from disk into a resolver (URI → file path mapping)."""
    resolver = DocumentResolver()
    for uri, path in paths.items():
        resolver.register(uri, parse_xml_file(path, id_attributes=id_attributes))
    return resolver


__all__ = [
    "BudgetExceeded",
    "CancelToken",
    "Engine",
    "EvalSettings",
    "PreparedQuery",
    "QueryCancelled",
    "QueryResult",
    "QueryTimeout",
    "ResourceLimits",
    "Session",
    "analyze_query_text",
    "clear_query_caches",
    "default_session",
    "evaluate",
    "evaluate_query",
    "ifp",
    "is_distributive_algebraic",
    "is_distributive_static",
    "is_distributive_syntactic",
    "load_documents",
    "parse_query_text",
    "query_cache_stats",
    "transitive_closure",
]
