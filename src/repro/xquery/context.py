"""Static and dynamic evaluation contexts.

The split follows the XQuery processing model: the *static context* holds
what is fixed before evaluation starts (declared functions, the evaluation
settings and the run's live trace/governor), the *dynamic context* holds
what changes during evaluation (variable bindings, the focus, available
documents) plus the statistics hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any, TYPE_CHECKING

from repro.errors import UndefinedVariableError, XQueryDynamicError
from repro.limits import Governor
from repro.observability.tracing import TraceContext
from repro.settings import EvalSettings
from repro.xquery.ast import FunctionDecl

if TYPE_CHECKING:
    from repro.analysis.report import AnalysisReport


@dataclass
class StaticContext:
    """What is fixed for one evaluation before it starts.

    Besides the declared functions this is where an evaluation's
    configuration lives, in three typed slots the engines read directly:

    ``settings``
        The frozen :class:`~repro.settings.EvalSettings` of the run — the
        same value the caller handed to ``evaluate()``.
    ``trace``
        The live :class:`~repro.observability.tracing.TraceContext` of a
        traced run, ``None`` otherwise.  Engines attach phase, per-round
        and kernel-counter records to it behind one ``is not None`` test.
    ``governor``
        The live :class:`~repro.limits.Governor` of a governed run
        (deadline, budgets, cancellation), ``None`` otherwise.
    ``analysis``
        The module's :class:`~repro.analysis.report.AnalysisReport` of an
        analyzed run, ``None`` otherwise: its fixpoint facts hold the
        distributivity verdicts the Naive/Delta decision reads.

    The session builds the two live objects from ``settings.trace`` /
    ``settings.limits``; a bare boolean or
    :class:`~repro.limits.ResourceLimits` is rejected here, so nothing but
    the real object can reach an engine.
    """

    functions: dict[tuple[str, int], FunctionDecl] = field(default_factory=dict)
    settings: EvalSettings = EvalSettings()
    trace: TraceContext | None = None
    governor: Governor | None = None
    analysis: AnalysisReport | None = None

    def __post_init__(self):
        for slot, kind in (("trace", TraceContext), ("governor", Governor)):
            value = getattr(self, slot)
            if value is not None and not isinstance(value, kind):
                raise TypeError(f"{slot} must be a {kind.__name__} or None "
                                f"(got {type(value).__name__})")

    def lookup_function(self, name: str, arity: int) -> FunctionDecl | None:
        return self.functions.get((name, arity))


class DocumentResolver:
    """Maps URIs passed to ``fn:doc`` onto XDM document nodes.

    Documents can be registered eagerly (:meth:`register`) or produced on
    demand by a loader callable (e.g. one that reads from disk or from a
    data generator).  Results are cached so that repeated ``doc("u")`` calls
    return the *same* node identities, as XQuery requires.
    """

    def __init__(self, loader: Callable[[str], Any] | None = None):
        self._documents: dict[str, Any] = {}
        self._loader = loader

    def register(self, uri: str, document: Any) -> None:
        """Register *document* under *uri*."""
        self._documents[uri] = document

    def resolve(self, uri: str) -> Any:
        if uri in self._documents:
            return self._documents[uri]
        if self._loader is not None:
            document = self._loader(uri)
            if document is not None:
                self._documents[uri] = document
                return document
        raise XQueryDynamicError(f"document '{uri}' is not available", code="FODC0002")

    def loaded(self, uri: str) -> Any:
        """The document already held under *uri*, or ``None`` — never asks
        the loader (cache validation must not fetch anything)."""
        return self._documents.get(uri)

    def known_uris(self) -> list[str]:
        return sorted(self._documents)


@dataclass
class Focus:
    """The dynamic focus: context item, position and size."""

    item: Any = None
    position: int = 0
    size: int = 0

    @property
    def defined(self) -> bool:
        return self.item is not None


class DynamicContext:
    """Variable bindings, focus and evaluation services.

    Contexts are persistent: ``bind``/``with_focus`` return new contexts that
    share unmodified state with their parent, so the evaluator can freely
    thread them through recursive calls.
    """

    __slots__ = ("variables", "focus", "static", "documents", "statistics", "depth")

    def __init__(self, static: StaticContext | None = None,
                 documents: DocumentResolver | None = None,
                 variables: dict[str, list] | None = None,
                 focus: Focus | None = None,
                 statistics: Any = None,
                 depth: int = 0):
        self.static = static or StaticContext()
        self.documents = documents or DocumentResolver()
        self.variables = variables or {}
        self.focus = focus or Focus()
        self.statistics = statistics
        self.depth = depth

    # -- derivation ----------------------------------------------------------

    def bind(self, name: str, value: list) -> "DynamicContext":
        """Return a new context with ``$name`` bound to *value*."""
        variables = dict(self.variables)
        variables[name] = value
        return self._derive(variables=variables)

    def bind_many(self, bindings: dict[str, list]) -> "DynamicContext":
        variables = dict(self.variables)
        variables.update(bindings)
        return self._derive(variables=variables)

    def with_focus(self, item: Any, position: int, size: int) -> "DynamicContext":
        """Return a new context with the given focus."""
        return self._derive(focus=Focus(item, position, size))

    def without_focus(self) -> "DynamicContext":
        return self._derive(focus=Focus())

    def enter_function(self) -> "DynamicContext":
        """Track user-defined function recursion depth."""
        if self.depth + 1 > self.static.settings.max_recursion_depth:
            raise XQueryDynamicError(
                "user-defined function recursion too deep", code="REPR0002"
            )
        return self._derive(depth=self.depth + 1)

    def _derive(self, variables: dict[str, list] | None = None,
                focus: Focus | None = None,
                depth: int | None = None) -> "DynamicContext":
        return DynamicContext(
            static=self.static,
            documents=self.documents,
            variables=self.variables if variables is None else variables,
            focus=self.focus if focus is None else focus,
            statistics=self.statistics,
            depth=self.depth if depth is None else depth,
        )

    # -- lookups ---------------------------------------------------------------

    def variable(self, name: str) -> list:
        try:
            return self.variables[name]
        except KeyError:
            # The static analyzer catches this before evaluation (with a
            # source position); this is the engine-side backstop for raw
            # Evaluator use and analyze=False runs.
            raise UndefinedVariableError(name) from None

    def context_item(self) -> Any:
        if not self.focus.defined:
            raise XQueryDynamicError("the context item is undefined", code="XPDY0002")
        return self.focus.item
