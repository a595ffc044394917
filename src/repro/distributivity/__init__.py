"""Distributivity analyses (Section 3 of the paper).

An XQuery expression ``e`` is *distributive* for ``$x`` (Definition 3.1)
when ``for $y in X return e($y)`` is set-equal to ``e(X)`` for every
non-empty sequence ``X``.  Distributivity of the recursion body is exactly
the condition under which algorithm Delta may replace Naive
(Theorem 3.2) — but the property is undecidable, so the engine relies on
safe approximations:

* :mod:`repro.distributivity.syntactic` — the ``ds_$x(·)`` inference rules
  of Figure 5, applied bottom-up over the AST by one walk that reads a rule
  table: :data:`FIGURE5` as the paper gives them, :data:`STRENGTHENED`
  (trusting ``fn:id``; the static analysis adds cardinality facts to it in
  :mod:`repro.analysis.distributivity`) and :data:`SET_AT_A_TIME` (plus the
  EXISTENTIAL rule, for the optimizer's set-at-a-time ``for``).
* :mod:`repro.distributivity.hints` — the "distributivity hint" rewriting of
  Section 3.2: any distributive expression can be wrapped as
  ``for $y in $x return e($y)``, which the syntactic rules always accept.
* :mod:`repro.algebra.distributivity` — the algebraic account of Section 4
  (union push-up over the compiled plan), which lives with the algebra
  backend.
"""

from repro.distributivity.syntactic import (
    FIGURE5,
    SET_AT_A_TIME,
    STRENGTHENED,
    DistributivityJudgment,
    analyze_distributivity,
    is_distributivity_safe,
)
from repro.distributivity.hints import apply_distributivity_hint, has_distributivity_hint

__all__ = [
    "FIGURE5",
    "STRENGTHENED",
    "SET_AT_A_TIME",
    "DistributivityJudgment",
    "analyze_distributivity",
    "is_distributivity_safe",
    "apply_distributivity_hint",
    "has_distributivity_hint",
]
