"""Strengthened distributivity proof: Figure 5 plus cardinality facts.

The paper's syntactic check (:mod:`repro.distributivity.syntactic`)
deliberately rejects two families the text itself points out as safe but
out of reach for a purely syntactic judgment (Sections 3.2 and 4):

* **emptiness conditionals** — ``if (count($x) >= 1) then e else ()`` and
  friends.  Inside an inflationary fixed point the recursion variable is
  only ever bound to sequences the driver actually feeds; whenever we can
  decide the condition for those inputs, the conditional collapses to one
  branch and the body becomes Figure-5 distributive.
* **trusted built-ins** — ``fn:id`` distributes over node-set union in its
  argument (``id(A ∪ B) = id(A) ∪ id(B)``), making the ``$x/id(...)``
  variant of paper query Q1 safe for the Delta algorithm and the SQL
  ``WITH RECURSIVE`` emission.

Soundness of the conditional elimination (full argument in DESIGN.md §11):
let ``B`` be the written body and ``B'`` the body with every decided
conditional replaced by its live branch.  Both algorithms compute round 0
identically as ``B(seed)``; every later input is non-empty in both (naive
feeds the growing accumulator, delta feeds non-empty frontiers), and on
non-empty inputs ``B ≡ B'`` by construction of the condition verdicts.  It
remains to rule out a divergence when the accumulator is empty, via either

* **CARD-EMPTY-BASE** — ``B(∅) = ∅``: at the empty input every decided
  conditional selects a branch (the ``verdict_empty`` direction) and the
  resulting body has cardinality EMPTY, so a naive iteration from an empty
  round-0 result terminates immediately, exactly like delta; or
* **CARD-SEED-NONEMPTY** — the accumulator is never empty: the seed has
  cardinality ``1``/``+`` and ``B'`` maps non-empty inputs to non-empty
  outputs (lower bound ≥ 1 under ``$x : +``), so round 0 is non-empty and
  the question never arises.

Either fact, together with Figure-5 distributivity of ``B'``, gives
``naive(B) = delta(B)`` — which is all the engines need to pick µ∆ or the
recursive CTE.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields, replace

from repro.distributivity.syntactic import (
    DistributivityJudgment,
    analyze_distributivity,
)
from repro.xquery import ast

from repro.analysis import cardinality as card
from repro.analysis.cardinality import Cardinality, infer_cardinality

#: Built-ins the strengthened check trusts to distribute over union in
#: their node-set argument.  ``fn:id`` maps each idref token of each input
#: item independently, so ``id(A ∪ B) = id(A) ∪ id(B)`` as node sets.
TRUSTED_DISTRIBUTIVE_BUILTINS = frozenset({"id", "fn:id"})

_FunctionMap = Mapping[tuple[str, int], ast.FunctionDecl] | None


@dataclass(frozen=True)
class StaticDistributivityJudgment:
    """The verdict of the strengthened check for one recursion body."""

    safe: bool
    #: ``SYNTACTIC`` / ``TRUSTED-BUILTIN`` / ``CARD-EMPTY-BASE`` /
    #: ``CARD-SEED-NONEMPTY`` when safe; the blocking rule otherwise.
    rule: str
    detail: str
    #: Human-readable cardinality facts the proof consumed.
    facts: tuple[str, ...]
    #: The plain Figure-5 derivation (no strengthening).
    syntactic: DistributivityJudgment
    #: The derivation over the conditional-free body, when one was attempted.
    strengthened: DistributivityJudgment | None = None


def is_distributive_static(body: ast.Expr, variable: str,
                           functions: _FunctionMap = None,
                           seed: ast.Expr | None = None,
                           env: Mapping[str, Cardinality] | None = None) -> bool:
    """Boolean form of :func:`analyze_distributivity_static`."""
    return analyze_distributivity_static(
        body, variable, functions=functions, seed=seed, env=env).safe


def analyze_distributivity_static(
        body: ast.Expr, variable: str, *,
        functions: _FunctionMap = None,
        seed: ast.Expr | None = None,
        env: Mapping[str, Cardinality] | None = None,
) -> StaticDistributivityJudgment:
    """Prove *body* distributive in ``$variable``, or explain the failure.

    *seed* (the fixpoint's seed expression) and *env* (cardinalities of
    in-scope variables) feed the cardinality facts; both are optional —
    without them only the ``SYNTACTIC``, ``TRUSTED-BUILTIN`` and
    ``CARD-EMPTY-BASE`` rules can fire.
    """
    base = analyze_distributivity(body, variable, functions)
    if base.safe:
        return StaticDistributivityJudgment(
            safe=True, rule="SYNTACTIC",
            detail="accepted by the Figure 5 syntactic rules alone",
            facts=(), syntactic=base)

    environment = dict(env or {})
    rewritten, facts = _eliminate_decided_conditionals(body, variable)
    strengthened = analyze_distributivity(
        rewritten, variable, functions,
        trusted_builtins=TRUSTED_DISTRIBUTIVE_BUILTINS)
    if not strengthened.safe:
        failure = strengthened.deciding()
        return StaticDistributivityJudgment(
            safe=False, rule=failure.rule, detail=failure.detail, facts=tuple(facts),
            syntactic=base, strengthened=strengthened)

    if not facts:
        # No conditional was touched: only trusting built-ins was needed,
        # which holds for every input, empty or not.
        return StaticDistributivityJudgment(
            safe=True, rule="TRUSTED-BUILTIN",
            detail="distributive once union-distributing built-ins "
                   f"({', '.join(sorted(TRUSTED_DISTRIBUTIVE_BUILTINS))}) "
                   "are trusted",
            facts=(), syntactic=base, strengthened=strengthened)

    # Conditionals were eliminated: justify the empty-accumulator case.
    empty_body = _body_at_empty(body, variable)
    at_empty = infer_cardinality(
        empty_body, {**environment, variable: card.EMPTY})
    if at_empty.always_empty():
        return StaticDistributivityJudgment(
            safe=True, rule="CARD-EMPTY-BASE",
            detail="body(∅) is provably empty, so an empty round-0 "
                   "result terminates both algorithms identically",
            facts=(*facts, "cardinality of body at $"
                   f"{variable} = () is empty"),
            syntactic=base, strengthened=strengthened)

    if seed is not None:
        seed_card = infer_cardinality(seed, environment)
        if seed_card.never_empty():
            live_card = infer_cardinality(
                rewritten, {**environment, variable: card.PLUS})
            if live_card.never_empty():
                return StaticDistributivityJudgment(
                    safe=True, rule="CARD-SEED-NONEMPTY",
                    detail="the seed is provably non-empty and the body "
                           "preserves non-emptiness, so the accumulator "
                           "never becomes empty",
                    facts=(*facts,
                           f"seed cardinality: {seed_card.indicator}",
                           "rewritten body cardinality under $"
                           f"{variable} : + is {live_card.indicator}"),
                    syntactic=base, strengthened=strengthened)

    return StaticDistributivityJudgment(
        safe=False, rule="CARD-UNJUSTIFIED",
        detail="an emptiness conditional could be decided for non-empty "
               "inputs, but neither an empty base case nor a non-empty "
               "seed could be proved",
        facts=tuple(facts), syntactic=base, strengthened=strengthened)


# ---------------------------------------------------------------------------
# condition verdicts
# ---------------------------------------------------------------------------


def _count_comparison(cond: ast.Expr, variable: str) -> tuple[str, int] | None:
    """Match ``count($variable) <op> <int literal>`` (either side); returns
    the operator normalized to the count-on-the-left orientation."""
    if not isinstance(cond, (ast.GeneralComparison, ast.ValueComparison)):
        return None
    flipped = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
               "eq": "eq", "ne": "ne", "lt": "gt", "le": "ge",
               "gt": "lt", "ge": "le"}
    left, right, op = cond.left, cond.right, cond.op
    if _is_count_of(right, variable) and isinstance(left, ast.Literal):
        left, right = right, left
        op = flipped[op]
    if not (_is_count_of(left, variable) and isinstance(right, ast.Literal)):
        return None
    if not isinstance(right.value, int) or isinstance(right.value, bool):
        return None
    normalized = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=",
                  "gt": ">", "ge": ">="}.get(op, op)
    return normalized, right.value


def _is_count_of(expr: ast.Expr, variable: str) -> bool:
    return (isinstance(expr, ast.FunctionCall)
            and expr.name in ("count", "fn:count")
            and len(expr.args) == 1
            and isinstance(expr.args[0], ast.VarRef)
            and expr.args[0].name == variable)


def _is_var(expr: ast.Expr, variable: str) -> bool:
    return isinstance(expr, ast.VarRef) and expr.name == variable


def condition_verdict(cond: ast.Expr, variable: str,
                      nonempty: bool) -> bool | None:
    """The boolean value of *cond* given ``$variable`` is a non-empty node
    sequence (``nonempty=True``) or the empty sequence (``nonempty=False``);
    ``None`` when undecidable.

    Only error-free condition shapes are recognized, so deciding them can
    never change the failure behavior of the body.
    """
    if _is_var(cond, variable):
        # EBV of a node sequence: true iff non-empty.
        return nonempty
    if isinstance(cond, ast.FunctionCall) and len(cond.args) == 1:
        name = cond.name[3:] if cond.name.startswith("fn:") else cond.name
        if name in ("exists", "boolean") and _is_var(cond.args[0], variable):
            return nonempty
        if name == "empty" and _is_var(cond.args[0], variable):
            return not nonempty
        if name == "not":
            inner = condition_verdict(cond.args[0], variable, nonempty)
            return None if inner is None else not inner
    comparison = _count_comparison(cond, variable)
    if comparison is not None:
        op, bound = comparison
        if not nonempty:
            count = 0
            return {"=": count == bound, "!=": count != bound,
                    "<": count < bound, "<=": count <= bound,
                    ">": count > bound, ">=": count >= bound}[op]
        # count >= 1, exact value unknown
        if op == ">=":
            return True if bound <= 1 else None
        if op == ">":
            return True if bound <= 0 else None
        if op == "!=":
            return True if bound <= 0 else None
        if op == "=":
            return False if bound <= 0 else None
        if op == "<":
            return False if bound <= 1 else None
        if op == "<=":
            return False if bound <= 0 else None
    return None


# ---------------------------------------------------------------------------
# body rewriting
# ---------------------------------------------------------------------------


def _rewrite_conditionals(expr: ast.Expr, variable: str, nonempty: bool,
                          facts: list[str] | None) -> ast.Expr:
    """Replace every conditional decidable for the given emptiness state of
    ``$variable`` by the selected branch.

    Undecidable conditionals are left in place — the syntactic rules (or
    the cardinality join over both branches) judge them afterwards.
    Occurrences under a construct that rebinds ``$variable`` are skipped
    (:func:`repro.xquery.ast._shadowed_body_fields`).
    """
    if isinstance(expr, ast.IfExpr):
        verdict = condition_verdict(expr.condition, variable, nonempty)
        if verdict is not None:
            branch = expr.then_branch if verdict else expr.else_branch
            if facts is not None:
                facts.append(
                    f"condition decided {'true' if verdict else 'false'} for "
                    f"{'non-empty' if nonempty else 'empty'} ${variable}")
            return _rewrite_conditionals(branch, variable, nonempty, facts)
    shadowed = ast._shadowed_body_fields(expr, variable)
    changes: dict[str, object] = {}
    for field_info in fields(expr):  # type: ignore[arg-type]
        if field_info.name in shadowed:
            continue
        value = getattr(expr, field_info.name)
        if isinstance(value, ast.Expr):
            rewritten = _rewrite_conditionals(value, variable, nonempty, facts)
            if rewritten is not value:
                changes[field_info.name] = rewritten
        elif isinstance(value, tuple) and value and all(
                isinstance(item, ast.Expr) for item in value):
            rewritten_items = tuple(
                _rewrite_conditionals(item, variable, nonempty, facts)
                for item in value)
            if any(new is not old for new, old in zip(rewritten_items, value)):
                changes[field_info.name] = rewritten_items
    return replace(expr, **changes) if changes else expr  # type: ignore[type-var]


def _eliminate_decided_conditionals(body: ast.Expr,
                                    variable: str) -> tuple[ast.Expr, list[str]]:
    """The body specialized to non-empty ``$variable``, with the facts used."""
    facts: list[str] = []
    rewritten = _rewrite_conditionals(body, variable, nonempty=True, facts=facts)
    return rewritten, facts


def _body_at_empty(body: ast.Expr, variable: str) -> ast.Expr:
    """The body specialized to ``$variable = ()`` (undecided parts kept)."""
    return _rewrite_conditionals(body, variable, nonempty=False, facts=None)


__all__ = ["TRUSTED_DISTRIBUTIVE_BUILTINS", "StaticDistributivityJudgment",
           "analyze_distributivity_static", "is_distributive_static",
           "condition_verdict"]
