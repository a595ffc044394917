"""Evaluation settings: the one settings type, from ``evaluate()`` to the engines.

:class:`EvalSettings` is a single immutable, hashable value bundling every
engine/tuning knob of an evaluation.  Every entry point —
:func:`repro.api.evaluate`, :meth:`repro.session.Session.evaluate`,
``prepare``/``run``, the CLI, the service — accepts ``settings=`` (a value
or a mapping of its fields) plus ``**overrides`` named after its fields,
validated by :meth:`EvalSettings.replace`; the engines read the very same
value off :class:`~repro.xquery.context.StaticContext.settings`.

* immutable, so a settings object can be shared between threads and stored
  inside cache keys without defensive copying;
* hashable, so the compiled-plan cache keys on it directly
  (:meth:`EvalSettings.plan_key` normalizes away the fields that do not
  change the compiled plan's shape).

The two *live* per-run objects a settings value asks for — the
:class:`~repro.observability.tracing.TraceContext` of ``trace=True`` and
the :class:`~repro.limits.Governor` of ``limits=...`` — are built by the
session and ride beside the settings in their own typed
``StaticContext`` slots; they are never stored in a settings field.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from collections.abc import Mapping
from typing import Any

from repro.fixpoint.decision import ALGORITHM_POLICIES, CHECKERS
from repro.limits import ResourceLimits


class Engine(str, Enum):
    """Which execution backend evaluates a query."""

    #: The tree-walking interpreter with the native IFP operator.
    INTERPRETER = "interpreter"
    #: The Relational XQuery backend (compile to algebra, evaluate plans).
    ALGEBRA = "algebra"
    #: The SQLite backend: documents shredded into pre/post tables and each
    #: fixpoint run as a recursive CTE (or, failing that, the shared driver).
    SQL = "sql"


@dataclass(frozen=True)
class EvalSettings:
    """Immutable bundle of every engine/tuning knob of an evaluation.

    Attributes
    ----------
    ifp_algorithm:
        ``"auto"`` (choose Delta when the distributivity check allows),
        ``"naive"`` or ``"delta"`` — on every engine; only a ``using``
        clause in the query text overrides it.
    distributivity_checker:
        Who ``"auto"`` asks, on every engine: ``"syntactic"`` (Figure 5),
        ``"algebraic"`` (Section 4's ∪ push-up over the compiled body),
        ``"analysis"`` (the strengthened cardinality-assisted proof of
        :mod:`repro.analysis.distributivity`) or ``"never"``.  Both fields
        are read by :func:`repro.fixpoint.decision.decide_fixpoint` and
        nowhere else; a name it does not know is a ``ValueError`` here.
    engine:
        :class:`Engine` member (strings are coerced).
    optimize:
        Apply the AST-level rewrites of :mod:`repro.xquery.optimizer`.
    analyze:
        Run the static analyzer (:mod:`repro.analysis`) over the compiled
        module before execution: typed static errors (undefined variables/
        functions, wrong arity, duplicates) surface engine-independently
        and the :class:`~repro.analysis.report.AnalysisReport` is attached
        to the result.  The report is cached alongside the plan.
    use_index:
        Answer axis steps from the per-document structural index.
    use_pushdown:
        Route recognized predicate shapes through the batch kernels.
    use_cache:
        Serve parsed modules / compiled plans from the session caches.
    trace:
        Collect a per-query trace span tree
        (:mod:`repro.observability.tracing`): phase spans, per-fixpoint
        round spans with delta sizes, ``kernel:*`` batch-vs-fallback
        counters.  The session builds the live
        :class:`~repro.observability.tracing.TraceContext` and returns the
        tree as ``QueryResult.trace``.
    max_ifp_iterations / max_recursion_depth:
        Safety bounds on fixpoint rounds and user-function recursion.
    limits:
        :class:`~repro.limits.ResourceLimits` governing the evaluation
        (wall-clock deadline, fixpoint round/frontier/result budgets) or
        ``None`` for unlimited.  The session builds the live
        :class:`~repro.limits.Governor` from it (plus any per-call
        ``cancel_token``) and hands it to the engines as
        ``StaticContext.governor``.
    """

    ifp_algorithm: str = "auto"
    distributivity_checker: str = "syntactic"
    engine: Engine = Engine.INTERPRETER
    optimize: bool = True
    analyze: bool = True
    use_index: bool = True
    use_pushdown: bool = True
    use_cache: bool = True
    trace: bool = False
    max_ifp_iterations: int = 100_000
    max_recursion_depth: int = 500
    limits: ResourceLimits | None = None

    def __post_init__(self):
        # Coerce engine strings ("sql") into the enum so equality/hashing
        # of settings values never depends on how the caller spelled it.
        if not isinstance(self.engine, Engine):
            object.__setattr__(self, "engine", Engine(self.engine))
        # A misspelt name must not pick an algorithm silently.
        for name, allowed in (("ifp_algorithm", ALGORITHM_POLICIES),
                              ("distributivity_checker", CHECKERS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)} "
                                 f"(got {getattr(self, name)!r})")

    def replace(self, **changes: Any) -> "EvalSettings":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    def plan_key(self) -> "EvalSettings":
        """These settings normalized down to what shapes a compiled plan.

        The algebra plan cache uses the returned value directly as the
        settings component of its key: fields that only steer *evaluation*
        (index usage, tracing, budgets) are reset to defaults so equivalent
        plans share one entry, while fields baked into the plan survive —
        predicate pushdown, and the two that decide each fixpoint's µ or µ∆
        (``ifp_algorithm``, ``distributivity_checker``; ``analyze`` says
        whether the decision read the cached report).
        """
        return EvalSettings(
            ifp_algorithm=self.ifp_algorithm,
            distributivity_checker=self.distributivity_checker,
            engine=Engine.ALGEBRA,
            use_pushdown=self.use_pushdown,
            analyze=self.analyze,
        )

    def module_key(self, query: str) -> tuple:
        """The module-cache key of *query* under these settings."""
        return (query, bool(self.optimize))

    def analysis_key(self, module_fingerprint: str,
                     bound_variables: frozenset) -> tuple:
        """The analysis-cache key of a compiled module under these settings.

        Keyed on the module shape and the caller-bound variable *names*
        (their values never matter statically); the ``analyze`` flag itself
        gates the lookup, so it needs no component here.
        """
        return (module_fingerprint, bound_variables)


def coerce_settings(value: "EvalSettings | Mapping[str, Any] | None",
                    base: "EvalSettings | None" = None,
                    **overrides: Any) -> EvalSettings:
    """Normalize *value* (settings, mapping of fields, or None) onto *base*,
    then apply *overrides* (field names; unknown ones raise ``TypeError``)."""
    base = base if base is not None else EvalSettings()
    if value is None:
        resolved = base
    elif isinstance(value, EvalSettings):
        resolved = value
    elif isinstance(value, Mapping):
        resolved = base.replace(**dict(value))
    else:
        raise TypeError(
            f"settings must be an EvalSettings, a mapping of its fields or None "
            f"(got {type(value).__name__})"
        )
    return resolved.replace(**overrides) if overrides else resolved


__all__ = ["Engine", "EvalSettings", "coerce_settings"]
