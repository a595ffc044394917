"""Result types of the static analyzer: diagnostics, facts, the report.

The analyzer (:mod:`repro.analysis.analyzer`) runs once per compiled module
and produces one :class:`AnalysisReport` — an immutable value that is
cached alongside the plan, attached to query results
(``QueryResult.analysis``), rendered by ``repro-xquery --check`` /
``--explain-analysis`` and served by ``POST /analyze``.

What the analyzer derives does not depend on the evaluation settings; which
algorithm a fixpoint then *runs* does.  A report therefore says under which
settings it speaks (:meth:`AnalysisReport.under`; the default settings for
the cached report and the lint entry points, the run's on a query result),
and everything it says about Naive or Delta — a fact's ``algorithm_hint``,
the ``REPR0002`` warnings — is
:func:`repro.fixpoint.decision.decide_fixpoint`'s answer under them, worked
out when it is read.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import XQueryStaticError
from repro.fixpoint.decision import FixpointDecision, decide_fixpoint
from repro.settings import EvalSettings
from repro.xquery import ast


@dataclass(frozen=True)
class AnalysisDiagnostic:
    """One finding of a static pass.

    ``severity`` is ``"error"`` (the query cannot run; a typed
    :class:`~repro.errors.XQueryStaticError` is carried in ``error``) or
    ``"warning"`` (the query runs, but an optimization opportunity was
    rejected — e.g. a fixpoint body that failed the distributivity proof,
    reported under the failing rule's name).
    """

    severity: str
    code: str
    rule: str
    message: str
    line: int | None = None
    column: int | None = None
    #: The ready-to-raise typed exception of an ``"error"`` diagnostic.
    error: XQueryStaticError | None = field(default=None, compare=False)

    def format(self) -> str:
        where = f"{self.line}:{self.column}: " if self.line is not None else ""
        return f"{self.severity}: {where}[{self.code}] {self.message} ({self.rule})"


@dataclass(frozen=True)
class FixpointFact:
    """The distributivity facts derived for one ``with … recurse`` site."""

    variable: str
    #: The algorithm pinned in the query text (``"auto"`` unless ``using``).
    declared_algorithm: str
    #: Occurrence class of the seed expression (``empty``/``1``/``?``/``+``/``*``).
    seed_cardinality: str
    #: Did the paper's Figure-5 syntactic check alone accept the body?
    syntactic_safe: bool
    #: Did the strengthened (cardinality-assisted) proof accept the body?
    safe: bool
    #: The deciding rule: ``SYNTACTIC``, ``TRUSTED-BUILTIN``,
    #: ``CARD-EMPTY-BASE``, ``CARD-SEED-NONEMPTY`` for proofs; the failing
    #: syntactic rule name for rejections.
    rule: str
    detail: str
    #: The ``with`` expression itself and the module's functions (both held
    #: by the module the analysis cache pins): what a checker needs that
    #: has no verdict stored here.
    site: ast.WithExpr = field(compare=False, repr=False)
    functions: Mapping[tuple[str, int], ast.FunctionDecl] = field(compare=False, repr=False)
    #: The Figure-5 rule that accepted the body, or the first that failed.
    syntactic_rule: str = ""
    syntactic_detail: str = ""
    #: Cardinality facts the strengthened proof consumed, human-readable.
    facts: tuple[str, ...] = ()
    line: int | None = None
    column: int | None = None
    #: The settings :attr:`decision` is taken under (see
    #: :meth:`AnalysisReport.under`).
    settings: EvalSettings = EvalSettings()

    @property
    def decision(self) -> FixpointDecision:
        """Naive or Delta for this site under :attr:`settings`, and why."""
        return decide_fixpoint(self.site, self.settings, self.functions, fact=self)

    @property
    def algorithm_hint(self) -> str:
        """The algorithm the engines run this site with (all three)."""
        return self.decision.algorithm

    def format(self) -> str:
        where = f" at {self.line}:{self.column}" if self.line is not None else ""
        status = "distributive" if self.safe else "not distributive"
        decision = self.decision
        lines = [f"fixpoint ${self.variable}{where}: {status} "
                 f"[{self.rule}] -> {decision.algorithm} "
                 f"({decision.checker}: {decision.rule})",
                 f"  seed cardinality: {self.seed_cardinality}",
                 f"  syntactic (Figure 5) verdict: "
                 f"{'safe' if self.syntactic_safe else 'rejected'}"]
        for fact in self.facts:
            lines.append(f"  fact: {fact}")
        if self.detail:
            lines.append(f"  {self.detail}")
        return "\n".join(lines)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the static passes learned about one module."""

    #: Scope and arity findings; they hold under any settings.
    findings: tuple[AnalysisDiagnostic, ...] = ()
    fixpoints: tuple[FixpointFact, ...] = ()
    #: Occurrence class of the module body (``empty``/``1``/``?``/``+``/``*``).
    body_cardinality: str = "*"

    def under(self, settings: EvalSettings) -> "AnalysisReport":
        """This report speaking for a run under *settings*.

        The report itself when they decide every fixpoint the way the
        settings it already speaks for do (always, for a run on default
        settings and the cached report); else a copy whose facts carry
        them.  No decision is taken here.
        """
        for fact in self.fixpoints:
            if (fact.settings.ifp_algorithm != settings.ifp_algorithm
                    or fact.settings.distributivity_checker
                    != settings.distributivity_checker):
                break
        else:
            return self
        return dataclasses.replace(self, fixpoints=tuple(
            dataclasses.replace(fact, settings=settings) for fact in self.fixpoints))

    def fact_for(self, site: ast.WithExpr) -> FixpointFact | None:
        """The fact of *site* — the very ``with`` expression of the analyzed
        module (which the fact keeps alive), not one that looks like it."""
        for fact in self.fixpoints:
            if fact.site is site:
                return fact
        return None

    @property
    def diagnostics(self) -> tuple[AnalysisDiagnostic, ...]:
        """The findings, then one ``REPR0002`` warning per fixpoint whose
        body the configured checker looked at and could not prove."""
        rejections = []
        for fact in self.fixpoints:
            decision = fact.decision
            if decision.rejected:
                rejections.append(AnalysisDiagnostic(
                    severity="warning", code="REPR0002",
                    rule=f"rejected-distributivity:{decision.rule}",
                    message=(f"fixpoint body of ${fact.variable} is not proved "
                             f"distributive by the {decision.checker} checker "
                             f"({decision.rule}): {decision.reason}; "
                             "auto mode falls back to the Naive algorithm"),
                    line=fact.line, column=fact.column))
        return (*self.findings, *rejections)

    def errors(self) -> tuple[AnalysisDiagnostic, ...]:
        return tuple(d for d in self.findings if d.severity == "error")

    def warnings(self) -> tuple[AnalysisDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "warning")

    def ok(self) -> bool:
        """True when no static error was found (warnings do not count)."""
        return not self.errors()

    def raise_first(self) -> None:
        """Raise the typed error of the first ``"error"`` diagnostic, if any."""
        for diagnostic in self.findings:
            if diagnostic.severity != "error":
                continue
            if diagnostic.error is not None:
                raise diagnostic.error
            raise XQueryStaticError(diagnostic.message, code=diagnostic.code)

    def format(self) -> str:
        """The full human-readable report (``--explain-analysis``)."""
        lines = [f"body cardinality: {self.body_cardinality}"]
        diagnostics = self.diagnostics
        if not diagnostics:
            lines.append("diagnostics: none")
        else:
            lines.append("diagnostics:")
            for diagnostic in diagnostics:
                lines.append(f"  {diagnostic.format()}")
        if self.fixpoints:
            lines.append("fixpoints:")
            for fact in self.fixpoints:
                for row in fact.format().splitlines():
                    lines.append(f"  {row}")
        else:
            lines.append("fixpoints: none")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready rendering (service ``POST /analyze``)."""
        return {
            "ok": self.ok(),
            "body_cardinality": self.body_cardinality,
            "diagnostics": [
                {"severity": d.severity, "code": d.code, "rule": d.rule,
                 "message": d.message, "line": d.line, "column": d.column}
                for d in self.diagnostics
            ],
            "fixpoints": [
                {"variable": f.variable, "declared_algorithm": f.declared_algorithm,
                 "algorithm": f.algorithm_hint, "seed_cardinality": f.seed_cardinality,
                 "syntactic_safe": f.syntactic_safe, "safe": f.safe,
                 "rule": f.rule, "detail": f.detail, "facts": list(f.facts),
                 "line": f.line, "column": f.column}
                for f in self.fixpoints
            ],
        }


__all__ = ["AnalysisDiagnostic", "FixpointFact", "AnalysisReport"]
