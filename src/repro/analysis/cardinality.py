"""Cardinality (occurrence) inference over the XQuery AST.

The second analysis pass: every expression is assigned one of five
occurrence classes — the classic ``empty · one · optional · star · plus``
lattice of XML Schema occurrence indicators:

========  ==========  =============================
member    bounds      sequence shapes it covers
========  ==========  =============================
EMPTY     (0, 0)      ``()``
ONE       (1, 1)      exactly one item
OPT       (0, 1)      zero or one item (``?``)
PLUS      (1, ∞)      one or more items (``+``)
STAR      (0, ∞)      anything (``*``, the top)
========  ==========  =============================

The inference is *sound but deliberately incomplete*: when a construct's
cardinality cannot be bounded statically the answer is :data:`STAR`.  Two
consumers rely on the sound direction only:

* **emptiness detection** — the optimizer may eliminate a branch whose
  cardinality is :data:`EMPTY`, and the strengthened distributivity check
  (:mod:`repro.analysis.distributivity`) may discharge an emptiness
  conditional only when the facts are proven;
* **non-emptiness** (lower bound ≥ 1) — used to justify eliminating the
  paper-rejected ``count($x) >= 1`` conditional family inside recursion
  bodies (see DESIGN.md §11 for the soundness argument).
"""

from __future__ import annotations

import enum
from collections.abc import Mapping

from repro.xquery import ast


class Cardinality(enum.Enum):
    """One point of the occurrence lattice; the value is ``(lower, upper)``
    with ``None`` standing for an unbounded upper limit."""

    EMPTY = (0, 0)
    ONE = (1, 1)
    OPT = (0, 1)
    PLUS = (1, None)
    STAR = (0, None)

    @property
    def lower(self) -> int:
        return self.value[0]

    @property
    def upper(self) -> int | None:
        return self.value[1]

    @property
    def indicator(self) -> str:
        """The occurrence-indicator spelling (``empty``/``1``/``?``/``+``/``*``)."""
        return {"EMPTY": "empty", "ONE": "1", "OPT": "?",
                "PLUS": "+", "STAR": "*"}[self.name]

    def always_empty(self) -> bool:
        return self is Cardinality.EMPTY

    def never_empty(self) -> bool:
        return self.lower >= 1


EMPTY = Cardinality.EMPTY
ONE = Cardinality.ONE
OPT = Cardinality.OPT
PLUS = Cardinality.PLUS
STAR = Cardinality.STAR


def from_bounds(lower: int, upper: int | None) -> Cardinality:
    """Collapse arbitrary ``(lower, upper)`` bounds onto the five classes."""
    lower = min(lower, 1)
    if upper is not None and upper > 1:
        upper = None
    if upper == 0:
        return EMPTY
    if lower == 1:
        return ONE if upper == 1 else PLUS
    return OPT if upper == 1 else STAR


def _add(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return a + b


def _mul(a: int | None, b: int | None) -> int | None:
    if a == 0 or b == 0:
        return 0
    if a is None or b is None:
        return None
    return a * b


def concat(a: Cardinality, b: Cardinality) -> Cardinality:
    """Cardinality of the sequence concatenation ``(a, b)``."""
    return from_bounds(a.lower + b.lower, _add(a.upper, b.upper))


def alt(a: Cardinality, b: Cardinality) -> Cardinality:
    """Least upper bound: an expression yielding either *a* or *b*."""
    upper = None if a.upper is None or b.upper is None else max(a.upper, b.upper)
    return from_bounds(min(a.lower, b.lower), upper)


def times(a: Cardinality, b: Cardinality) -> Cardinality:
    """Cardinality of a ``for`` loop: *a* iterations each yielding *b*."""
    return from_bounds(a.lower * b.lower, _mul(a.upper, b.upper))


def union(a: Cardinality, b: Cardinality) -> Cardinality:
    """Node-set union: at least the larger operand, at most both."""
    return from_bounds(max(a.lower, b.lower), _add(a.upper, b.upper))


#: Built-in functions with a statically known result cardinality.  Only the
#: *sound* entries belong here: a function listed with ONE must return one
#: item on every successful call (errors abort evaluation, so they do not
#: weaken the bound).
_BUILTIN_CARDINALITY: dict[str, Cardinality] = {
    # always exactly one item
    "count": ONE, "exists": ONE, "empty": ONE, "not": ONE, "boolean": ONE,
    "true": ONE, "false": ONE, "string": ONE, "number": ONE, "sum": ONE,
    "string-length": ONE, "normalize-space": ONE, "name": ONE,
    "local-name": ONE, "concat": ONE, "string-join": ONE, "deep-equal": ONE,
    "contains": ONE, "starts-with": ONE, "ends-with": ONE, "substring": ONE,
    "substring-before": ONE, "substring-after": ONE, "upper-case": ONE,
    "lower-case": ONE, "translate": ONE, "doc-available": ONE,
    "position": ONE, "last": ONE, "floor": ONE, "ceiling": ONE,
    "round": ONE, "abs": ONE, "doc": ONE, "root": ONE, "lang": ONE,
    # cardinality guards
    "zero-or-one": OPT, "exactly-one": ONE, "one-or-more": PLUS,
    # empty-in → empty-out aggregates
    "min": OPT, "max": OPT, "avg": OPT, "node-name": OPT,
}


def infer_cardinality(expr: ast.Expr,
                      env: Mapping[str, Cardinality] | None = None) -> Cardinality:
    """Infer the occurrence class of *expr* under variable bounds *env*.

    *env* maps in-scope variable names to their cardinality; unknown
    variables (and every construct outside the handled core) default to
    :data:`STAR`.  User-defined function calls are not expanded — their
    result is :data:`STAR` — so the inference always terminates, recursion
    or not.
    """
    environment: dict[str, Cardinality] = dict(env or {})
    return _infer(expr, environment)


def _infer(expr: ast.Expr, env: dict[str, Cardinality]) -> Cardinality:
    kind = type(expr)  # (paths and steps first: the most frequent nodes)
    if kind is ast.PathExpr:
        # a path maps each left-hand item: none in, or none out of each, none out
        empty = _infer(expr.left, env).always_empty() or _infer(expr.right, env).always_empty()
        return EMPTY if empty else STAR
    if kind is ast.AxisStep:
        return EMPTY if expr.predicates and _keeps_nothing(expr.predicates, env) else STAR
    if isinstance(expr, ast.Literal):
        return ONE
    if isinstance(expr, ast.EmptySequence):
        return EMPTY
    if isinstance(expr, ast.VarRef):
        return env.get(expr.name, STAR)
    if isinstance(expr, (ast.ContextItem, ast.RootExpr)):
        return ONE
    if isinstance(expr, ast.SequenceExpr):
        result = EMPTY
        for item in expr.items:
            result = concat(result, _infer(item, env))
        return result
    if isinstance(expr, ast.RangeExpr):
        if (isinstance(expr.start, ast.Literal) and isinstance(expr.end, ast.Literal)
                and isinstance(expr.start.value, int) and isinstance(expr.end.value, int)):
            span = expr.end.value - expr.start.value + 1
            return from_bounds(max(span, 0), max(span, 0))
        return STAR
    if isinstance(expr, ast.UnionExpr):
        return union(_infer(expr.left, env), _infer(expr.right, env))
    if isinstance(expr, (ast.IntersectExpr, ast.ExceptExpr)):
        return from_bounds(0, _infer(expr.left, env).upper)
    if isinstance(expr, (ast.OrExpr, ast.AndExpr, ast.GeneralComparison,
                         ast.QuantifiedExpr, ast.InstanceOfExpr)):
        return ONE
    if isinstance(expr, (ast.ValueComparison, ast.NodeComparison)):
        # an empty operand makes the whole comparison ()
        left = _infer(expr.left, env)
        right = _infer(expr.right, env)
        return ONE if left.never_empty() and right.never_empty() else OPT
    if isinstance(expr, ast.ArithmeticExpr):
        left = _infer(expr.left, env)
        right = _infer(expr.right, env)
        return ONE if left.never_empty() and right.never_empty() else OPT
    if isinstance(expr, ast.UnaryExpr):
        return ONE if _infer(expr.operand, env).never_empty() else OPT
    if isinstance(expr, ast.ForExpr):
        sequence = _infer(expr.sequence, env)
        bound = dict(env)
        bound[expr.var] = ONE
        if expr.position_var:
            bound[expr.position_var] = ONE
        return times(sequence, _infer(expr.body, bound))
    if isinstance(expr, ast.LetExpr):
        bound = dict(env)
        bound[expr.var] = _infer(expr.value, env)
        return _infer(expr.body, bound)
    if isinstance(expr, ast.IfExpr):
        return alt(_infer(expr.then_branch, env), _infer(expr.else_branch, env))
    if isinstance(expr, ast.TypeswitchExpr):
        operand = _infer(expr.operand, env)
        result: Cardinality | None = None
        for case in expr.cases:
            bound = dict(env)
            if case.var:
                bound[case.var] = operand
            card = _infer(case.body, bound)
            result = card if result is None else alt(result, card)
        bound = dict(env)
        if expr.default_var:
            bound[expr.default_var] = operand
        default = _infer(expr.default, bound)
        return default if result is None else alt(result, default)
    if isinstance(expr, ast.OrderedExpr):
        return _infer(expr.body, env)
    if isinstance(expr, ast.CastExpr):
        return OPT if expr.optional else ONE
    if isinstance(expr, (ast.DirectElementConstructor, ast.AttributeConstructor)):
        return ONE
    if isinstance(expr, ast.FilterExpr):
        empty = _infer(expr.primary, env).always_empty() or _keeps_nothing(expr.predicates, env)
        return EMPTY if empty else STAR
    if isinstance(expr, ast.FunctionCall):
        name = expr.name
        local = name.split(":", 1)[1] if name.startswith("fn:") else name
        builtin = _BUILTIN_CARDINALITY.get(local)
        if builtin is not None:
            return builtin
        return STAR
    # paths, filters, axis steps, computed constructors, nested fixpoints,
    # user-defined function calls: no static bound
    return STAR


def _keeps_nothing(predicates: tuple[ast.Expr, ...], env: dict[str, Cardinality]) -> bool:
    """Is one of *predicates* false for every candidate?  A general
    comparison with an operand that is always empty is: it quantifies
    existentially over no items."""
    return any(isinstance(predicate, ast.GeneralComparison)
               and (_infer(predicate.left, env).always_empty()
                    or _infer(predicate.right, env).always_empty())
               for predicate in predicates)


__all__ = ["Cardinality", "EMPTY", "ONE", "OPT", "PLUS", "STAR",
           "from_bounds", "concat", "alt", "times", "union",
           "infer_cardinality"]
