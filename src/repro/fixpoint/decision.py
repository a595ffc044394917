"""Naive or Delta: the one place a ``with … recurse`` site is decided.

Theorem 3.2 is a single sentence — algorithm Delta may replace Naive exactly
when the recursion body is distributive — and the property is undecidable,
so a processor picks a sound approximation of it.  :func:`decide_fixpoint`
is where this code base does that, for every engine and every report:

1. a ``using naive|delta`` clause in the query text wins;
2. else ``settings.ifp_algorithm``, when it names an algorithm;
3. else the checker named by ``settings.distributivity_checker``
   (:data:`CHECKERS`): Delta if it proves the body distributive, Naive if
   it does not.

The checkers are incomparable (Section 4 of the paper): ``syntactic`` is
Figure 5, ``analysis`` adds cardinality facts and trusted built-ins to it,
``algebraic`` pushes a ∪ through the compiled body plan, ``never`` proves
nothing.  The two AST verdicts do not depend on the settings and sit in the
module's cached :class:`~repro.analysis.report.FixpointFact`; handed that
fact the decision is a lookup, without one it runs the checker on the spot.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import AlgebraError

if TYPE_CHECKING:
    from repro.algebra.operators import Operator, RecursionInput
    from repro.analysis.report import FixpointFact
    from repro.settings import EvalSettings
    from repro.xquery import ast

    Functions = Mapping[tuple[str, int], ast.FunctionDecl] | None
    BodyPlan = tuple[Operator, RecursionInput] | None

#: What ``settings.ifp_algorithm`` may say; anything but ``"auto"`` is the
#: decision.
ALGORITHM_POLICIES = ("auto", "naive", "delta")


@dataclass(frozen=True)
class FixpointDecision:
    """How one ``with … recurse`` site runs, and who said so."""

    #: ``"naive"`` or ``"delta"``.
    algorithm: str
    #: ``"using"`` (the query text), ``"ifp_algorithm"`` (the setting) or
    #: the name of the checker that was asked.
    checker: str
    #: The rule that proved the body distributive, or the one that failed.
    rule: str
    reason: str

    @property
    def rejected(self) -> bool:
        """Did a checker look at the body and fail to prove it?  (Forced
        algorithms and ``never`` reject nothing.)"""
        return (self.algorithm == "naive"
                and self.checker not in ("using", "ifp_algorithm", "never"))


def _syntactic(site: ast.WithExpr, functions: Functions,
               fact: FixpointFact | None, body_plan: BodyPlan) -> tuple[bool, str, str]:
    if fact is not None:
        return fact.syntactic_safe, fact.syntactic_rule, fact.syntactic_detail
    from repro.distributivity.syntactic import analyze_distributivity

    verdict = analyze_distributivity(site.body, site.var, functions).deciding()
    return verdict.safe, verdict.rule, verdict.detail


def _analysis(site: ast.WithExpr, functions: Functions,
              fact: FixpointFact | None, body_plan: BodyPlan) -> tuple[bool, str, str]:
    if fact is not None:
        return fact.safe, fact.rule, fact.detail
    from repro.analysis.distributivity import analyze_distributivity_static

    judgment = analyze_distributivity_static(
        site.body, site.var, functions=functions, seed=site.seed)
    return judgment.safe, judgment.rule, judgment.detail


def _algebraic(site: ast.WithExpr, functions: Functions,
               fact: FixpointFact | None, body_plan: BodyPlan) -> tuple[bool, str, str]:
    from repro.algebra import distributivity as pushup

    try:
        report = (pushup.analyze_plan_pushup(*body_plan) if body_plan is not None
                  else pushup.analyze_plan_distributivity(site.body, site.var, functions))
    except AlgebraError as error:
        # A body the algebra compiler rejects is "not inferred", hence
        # Naive; any other exception is a bug and propagates.
        return False, "PUSHUP-UNSUPPORTED", str(error)
    if report.distributive:
        return True, "PUSHUP", "a ∪ at the recursion input reaches the plan root"
    return False, "PUSHUP-BLOCKED", \
        "the ∪ push-up is blocked at " + ", ".join(report.blocking_labels())


def _never(site: ast.WithExpr, functions: Functions,
           fact: FixpointFact | None, body_plan: BodyPlan) -> tuple[bool, str, str]:
    return False, "NEVER", "distributivity checking is switched off"


#: ``settings.distributivity_checker`` → its judgment of a site:
#: ``(distributive?, rule, reason)``.
CHECKERS: dict[str, Callable[[Any, Any, Any, Any], tuple[bool, str, str]]] = {
    "syntactic": _syntactic,
    "analysis": _analysis,
    "algebraic": _algebraic,
    "never": _never,
}


def decide_fixpoint(site: ast.WithExpr, settings: EvalSettings,
                    functions: Functions = None,
                    fact: FixpointFact | None = None,
                    body_plan: BodyPlan = None) -> FixpointDecision:
    """Decide Naive or Delta for *site* under *settings*.

    *functions* are the module's declarations (the FUNCALL rule and the
    plan compiler inline them).  *fact* is the site's entry in the module's
    analysis report, when there is one: it holds the AST verdicts, so they
    are not derived again.  *body_plan* is ``(plan, recursion input)`` of
    the body when the caller has compiled it anyway (the algebra engine),
    so the ``algebraic`` checker compiles nothing twice.
    """
    if site.algorithm != "auto":
        return FixpointDecision(site.algorithm, "using", "USING",
                                f"the query text says 'using {site.algorithm}'")
    if settings.ifp_algorithm != "auto":
        return FixpointDecision(settings.ifp_algorithm, "ifp_algorithm", "SETTING",
                                f"ifp_algorithm is '{settings.ifp_algorithm}'")
    checker = settings.distributivity_checker
    distributive, rule, reason = CHECKERS[checker](site, functions, fact, body_plan)
    return FixpointDecision("delta" if distributive else "naive", checker, rule, reason)


__all__ = ["ALGORITHM_POLICIES", "CHECKERS", "FixpointDecision", "decide_fixpoint"]
