"""The syntactic distributivity approximation ``ds_$x(·)`` (Figure 5).

The checker walks the AST bottom-up and applies the paper's inference rules.
It is *sound* (whenever it answers "safe", the expression is distributive
for the recursion variable, and algorithm Delta preserves the IFP
semantics) but deliberately incomplete: expressions such as
``count($x) >= 1`` or the ``id($x/…)`` variant of Query Q1 are distributive
yet rejected — precisely the cases the paper uses to motivate the
distributivity hint (Section 3.2) and the algebraic check (Section 4).

Beyond the rules shown in Figure 5 the implementation encodes the two
observations made in the accompanying text:

* a subexpression whose value does not depend on ``$x`` is distributive,
  *unless* it constructs nodes (fresh node identities break set-equality);
* there is no rule for node constructors, positional filters, aggregations,
  general comparisons, or built-in calls receiving ``$x`` — all of these are
  conservatively rejected when ``$x`` occurs free in them.

One rule beyond Figure 5 is opt-in (``existential=True``), like
``trusted_builtins``: **EXISTENTIAL** accepts a filter or step
``X[p1]…[pn]`` whose ``X`` and ``p1…pn-1`` do not mention ``$x`` and whose
last predicate is a general comparison with ``$x`` free on exactly one
side, that side distributive in ``$x``.  ``A θ (S1 ∪ S2)`` holds iff
``A θ S1`` or ``A θ S2`` does, and the positions of ``X``'s items do not
depend on ``$x``, so every item of ``X`` is kept for ``S1 ∪ S2`` iff it is
kept for ``S1`` or for ``S2``.  The optimizer's set-at-a-time ``for``
(:mod:`repro.xquery.optimizer`) uses it; the fixpoint decision's checkers
do not, so no verdict they give depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

from repro.xquery import ast


@dataclass
class DistributivityJudgment:
    """The result of the ``ds_$x(·)`` analysis for one (sub)expression.

    ``rule`` names the Figure 5 rule (or the engine-specific reason) that
    decided the judgment; ``children`` holds the sub-judgments so reports
    and tests can inspect the whole derivation tree.
    """

    expression: ast.Expr
    variable: str
    safe: bool
    rule: str
    detail: str = ""
    children: list["DistributivityJudgment"] = field(default_factory=list)

    def failures(self) -> list["DistributivityJudgment"]:
        """All failing leaf judgments (useful for 'why was Delta not used?')."""
        if self.safe:
            return []
        leaf_failures = [child_failure for child in self.children for child_failure in child.failures()]
        return leaf_failures or [self]

    def deciding(self) -> "DistributivityJudgment":
        """The judgment to quote for the verdict: this one when safe, the
        first failing leaf when not."""
        return self if self.safe else self.failures()[0]

    def format(self, indent: int = 0) -> str:
        """A human-readable rendering of the derivation tree."""
        marker = "✓" if self.safe else "✗"
        line = f"{'  ' * indent}{marker} {self.rule}: {type(self.expression).__name__}"
        if self.detail:
            line += f" — {self.detail}"
        lines = [line]
        for child in self.children:
            lines.append(child.format(indent + 1))
        return "\n".join(lines)


FunctionMap = Mapping[tuple[str, int], ast.FunctionDecl]

#: Built-ins trusted to distribute over union in their node-set argument.
#: ``fn:id`` maps each idref token of each input item independently, so
#: ``id(A ∪ B) = id(A) ∪ id(B)`` as node sets.
TRUSTED_DISTRIBUTIVE_BUILTINS = frozenset({"id", "fn:id"})


def is_distributivity_safe(expr: ast.Expr, variable: str,
                           functions: FunctionMap | Iterable[ast.FunctionDecl] | None = None,
                           trusted_builtins: frozenset[str] = frozenset(),
                           existential: bool = False) -> bool:
    """Return ``True`` iff the Figure 5 rules infer ``ds_$variable(expr)``."""
    return analyze_distributivity(expr, variable, functions, trusted_builtins,
                                  existential).safe


def analyze_distributivity(expr: ast.Expr, variable: str,
                           functions: FunctionMap | Iterable[ast.FunctionDecl] | None = None,
                           trusted_builtins: frozenset[str] = frozenset(),
                           existential: bool = False) -> DistributivityJudgment:
    """Run the ``ds_$x(·)`` analysis and return the full derivation tree.

    Parameters
    ----------
    expr:
        The recursion body ``e_rec``.
    variable:
        The recursion variable ``$x``.
    functions:
        User-defined function declarations, either as the mapping produced by
        :meth:`repro.xquery.ast.Module.function_map` or as an iterable of
        declarations (needed by the FUNCALL rule).
    trusted_builtins:
        Extra built-in function names the caller asserts to be distributive
        in every argument (the paper notes that e.g. ``fn:id`` would need
        its own rule); empty by default to stay faithful to Figure 5.
    existential:
        Also apply the EXISTENTIAL rule (see the module docstring); off by
        default to stay faithful to Figure 5.
    """
    checker = _SyntacticChecker(normalize_functions(functions), trusted_builtins,
                                existential)
    return checker.check(expr, variable)


def normalize_functions(functions: FunctionMap | Iterable[ast.FunctionDecl] | None
                        ) -> dict[tuple[str, int], ast.FunctionDecl]:
    """Declarations by ``(name, arity)``, however the caller holds them."""
    if functions is None:
        return {}
    if isinstance(functions, Mapping):
        return dict(functions)
    return {(decl.name, decl.arity): decl for decl in functions}


_ARITHMETIC = ("ARITHMETIC", "arithmetic atomizes the whole sequence")
_LOGICAL = ("LOGICAL", "boolean connectives reduce the sequence to a single truth value")
_CONSTRUCTOR = ("NODE-CONSTRUCTOR", "node constructors create fresh node identities")

#: Forms Figure 5 has no rule for once the recursion variable (``{var}``)
#: occurs free in them: expression class → (rule, why).
_NO_RULE: dict[type, tuple[str, str]] = {
    ast.FilterExpr: ("FILTER", "predicates may inspect position or cardinality of the "
                               "sequence bound to ${var} (e.g. $x[1] is not distributive)"),
    ast.AxisStep: ("STEP-PREDICATE", "${var} occurs free inside a step predicate"),
    ast.GeneralComparison: ("COMPARISON", "general comparisons quantify existentially over "
                                          "the whole sequence bound to ${var} (e.g. $x = 10)"),
    ast.ValueComparison: ("COMPARISON", "value comparisons require the whole (singleton) sequence"),
    ast.NodeComparison: ("COMPARISON", "node comparisons require the whole (singleton) sequence"),
    ast.ArithmeticExpr: _ARITHMETIC,
    ast.UnaryExpr: _ARITHMETIC,
    ast.RangeExpr: ("RANGE", "range expressions atomize the whole sequence"),
    ast.OrExpr: _LOGICAL,
    ast.AndExpr: _LOGICAL,
    ast.QuantifiedExpr: ("QUANTIFIER", "quantifiers reduce the sequence to a single truth value"),
    ast.IntersectExpr: ("INTERSECT", "intersect needs both operands in full"),
    ast.ExceptExpr: ("EXCEPT", "except needs both operands in full"),
    ast.WithExpr: ("NESTED-IFP", "nested fixed points over the outer recursion variable "
                                 "are not analysed"),
    ast.DirectElementConstructor: _CONSTRUCTOR,
    ast.ComputedConstructor: _CONSTRUCTOR,
    ast.CastExpr: ("CAST", "casts atomize the whole (singleton) sequence"),
    ast.InstanceOfExpr: ("INSTANCE-OF", "instance of inspects the cardinality of the whole sequence"),
}


#: The forms EXISTENTIAL applies to: a step or a filter, with predicates.
_EXISTENTIAL_FORMS = (ast.AxisStep, ast.FilterExpr)


class _SyntacticChecker:
    """Bottom-up application of the Figure 5 rules."""

    def __init__(self, functions: dict[tuple[str, int], ast.FunctionDecl],
                 trusted_builtins: frozenset[str], existential: bool = False):
        self.functions = functions
        self.trusted_builtins = trusted_builtins
        self.existential = existential
        self._in_progress: set[tuple[str, int, str]] = set()

    # -- entry -------------------------------------------------------------

    def check(self, expr: ast.Expr, variable: str) -> DistributivityJudgment:
        free = expr.free_variables()

        # CONST / VAR: literals and variable references are always safe.
        if isinstance(expr, (ast.Literal, ast.EmptySequence, ast.ContextItem, ast.RootExpr)):
            return self._judge(expr, variable, True, "CONST")
        if isinstance(expr, ast.VarRef):
            return self._judge(expr, variable, True, "VAR")

        # Node constructors anywhere in the expression create fresh node
        # identities on every (re-)evaluation; splitting the input would
        # yield different nodes, so distributivity fails (Section 3.2).
        if expr.contains_node_constructor():
            return self._judge(
                expr, variable, False, "NODE-CONSTRUCTOR",
                "the expression constructs new nodes",
            )

        # Independence: e does not mention $x at all (and, per the check
        # above, constructs no nodes) — its value is the same for every
        # split of the input.
        if variable not in free:
            return self._judge(expr, variable, True, "INDEPENDENT",
                               "recursion variable does not occur free")

        # $x occurs free: a form Figure 5 has no rule for, or dispatch.
        no_rule = _NO_RULE.get(type(expr))
        if no_rule is not None:
            if self.existential and type(expr) in _EXISTENTIAL_FORMS:
                judgment = self._check_existential(expr, variable)
                if judgment is not None:
                    return judgment
            return self._judge(expr, variable, False, no_rule[0],
                               no_rule[1].format(var=variable))
        handler = getattr(self, f"_check_{type(expr).__name__}", None)
        if handler is None:
            return self._judge(
                expr, variable, False, "UNSUPPORTED",
                f"no distributivity rule covers {type(expr).__name__} with ${variable} free",
            )
        return handler(expr, variable)

    def _judge(self, expr: ast.Expr, variable: str, safe: bool, rule: str,
               detail: str = "", children: list[DistributivityJudgment] | None = None) -> DistributivityJudgment:
        return DistributivityJudgment(expr, variable, safe, rule, detail, children or [])

    # -- CONCAT -------------------------------------------------------------

    def _check_SequenceExpr(self, expr: ast.SequenceExpr, variable: str) -> DistributivityJudgment:
        children = [self.check(item, variable) for item in expr.items]
        safe = all(child.safe for child in children)
        return self._judge(expr, variable, safe, "CONCAT", children=children)

    def _check_UnionExpr(self, expr: ast.UnionExpr, variable: str) -> DistributivityJudgment:
        children = [self.check(expr.left, variable), self.check(expr.right, variable)]
        safe = all(child.safe for child in children)
        return self._judge(expr, variable, safe, "CONCAT", children=children)

    # -- IF -------------------------------------------------------------------

    def _check_IfExpr(self, expr: ast.IfExpr, variable: str) -> DistributivityJudgment:
        if variable in expr.condition.free_variables():
            return self._judge(
                expr, variable, False, "IF",
                f"${variable} occurs free in the condition (the condition inspects the whole sequence)",
            )
        children = [self.check(expr.then_branch, variable), self.check(expr.else_branch, variable)]
        safe = all(child.safe for child in children)
        return self._judge(expr, variable, safe, "IF", children=children)

    # -- FOR1 / FOR2 ------------------------------------------------------------

    def _check_ForExpr(self, expr: ast.ForExpr, variable: str) -> DistributivityJudgment:
        in_sequence = variable in expr.sequence.free_variables()
        in_body = variable in expr.body.free_variables()
        if in_sequence and in_body:
            return self._judge(
                expr, variable, False, "FOR",
                f"${variable} occurs free in both the range and the body (violates linearity)",
            )
        if not in_sequence:
            # FOR1: $x only in the body.
            child = self.check(expr.body, variable)
            return self._judge(expr, variable, child.safe, "FOR1", children=[child])
        # FOR2: $x only in the range expression.
        if expr.position_var is not None and expr.position_var in expr.body.free_variables():
            return self._judge(
                expr, variable, False, "FOR2",
                "positional variable of the iteration over the recursion variable is used in the body",
            )
        child = self.check(expr.sequence, variable)
        return self._judge(expr, variable, child.safe, "FOR2", children=[child])

    # -- LET1 / LET2 ------------------------------------------------------------

    def _check_LetExpr(self, expr: ast.LetExpr, variable: str) -> DistributivityJudgment:
        in_value = variable in expr.value.free_variables()
        in_body = variable in expr.body.free_variables()
        if in_value and in_body:
            return self._judge(
                expr, variable, False, "LET",
                f"${variable} occurs free in both the bound expression and the body",
            )
        if not in_value:
            # LET1
            child = self.check(expr.body, variable)
            return self._judge(expr, variable, child.safe, "LET1", children=[child])
        # LET2: the let variable now carries (part of) the recursion input,
        # so the body must be distributive in the let variable as well.
        value_child = self.check(expr.value, variable)
        body_child = self.check(expr.body, expr.var)
        safe = value_child.safe and body_child.safe
        return self._judge(expr, variable, safe, "LET2", children=[value_child, body_child])

    # -- TYPESW -------------------------------------------------------------------

    def _check_TypeswitchExpr(self, expr: ast.TypeswitchExpr, variable: str) -> DistributivityJudgment:
        if variable in expr.operand.free_variables():
            return self._judge(
                expr, variable, False, "TYPESW",
                f"${variable} occurs free in the typeswitch operand",
            )
        children = [self.check(case.body, variable) for case in expr.cases]
        children.append(self.check(expr.default, variable))
        safe = all(child.safe for child in children)
        return self._judge(expr, variable, safe, "TYPESW", children=children)

    # -- STEP1 / STEP2 ---------------------------------------------------------------

    def _check_PathExpr(self, expr: ast.PathExpr, variable: str) -> DistributivityJudgment:
        in_left = variable in expr.left.free_variables()
        in_right = variable in expr.right.free_variables()
        if in_left and in_right:
            return self._judge(
                expr, variable, False, "STEP",
                f"${variable} occurs free on both sides of '/'",
            )
        if not in_left:
            child = self.check(expr.right, variable)
            return self._judge(expr, variable, child.safe, "STEP1", children=[child])
        child = self.check(expr.left, variable)
        return self._judge(expr, variable, child.safe, "STEP2", children=[child])

    # -- FUNCALL ------------------------------------------------------------------------

    def _check_FunctionCall(self, expr: ast.FunctionCall, variable: str) -> DistributivityJudgment:
        declaration = self.functions.get((expr.name, len(expr.args)))
        if declaration is None:
            if expr.name in self.trusted_builtins:
                children = [self.check(arg, variable) for arg in expr.args]
                safe = all(child.safe for child in children)
                return self._judge(expr, variable, safe, "FUNCALL-TRUSTED", children=children)
            return self._judge(
                expr, variable, False, "FUNCALL-BUILTIN",
                f"${variable} is passed to built-in {expr.name}(), whose distributivity the "
                "syntactic rules cannot establish (cf. the id() discussion in Section 4.1)",
            )
        key = (declaration.name, declaration.arity, variable)
        if key in self._in_progress:
            return self._judge(
                expr, variable, False, "FUNCALL-RECURSIVE",
                f"recursive call cycle through {declaration.name}() cannot be analysed syntactically",
            )
        self._in_progress.add(key)
        try:
            children: list[DistributivityJudgment] = []
            safe = True
            for parameter, argument in zip(declaration.params, expr.args):
                if variable not in argument.free_variables():
                    continue
                argument_judgment = self.check(argument, variable)
                body_judgment = self.check(declaration.body, parameter.name)
                children.extend([argument_judgment, body_judgment])
                safe = safe and argument_judgment.safe and body_judgment.safe
            return self._judge(expr, variable, safe, "FUNCALL", children=children)
        finally:
            self._in_progress.discard(key)

    # -- EXISTENTIAL (opt-in) ---------------------------------------------------

    def _check_existential(self, expr: ast.AxisStep | ast.FilterExpr,
                           variable: str) -> DistributivityJudgment | None:
        """``X[p1]…[pn]`` with ``$x`` only on one side of the general
        comparison ``pn`` — judged by that side; ``None`` for any other
        shape (the form then has no rule)."""
        if type(expr) is ast.FilterExpr and variable in expr.primary.free_variables():
            return None
        *front, last = expr.predicates
        if type(last) is not ast.GeneralComparison or any(
                variable in predicate.free_variables() for predicate in front):
            return None
        in_left = variable in last.left.free_variables()
        if in_left == (variable in last.right.free_variables()):
            return None
        child = self.check(last.left if in_left else last.right, variable)
        return self._judge(expr, variable, child.safe, "EXISTENTIAL", children=[child])

    def _check_OrderedExpr(self, expr: ast.OrderedExpr, variable: str) -> DistributivityJudgment:
        child = self.check(expr.body, variable)
        return self._judge(expr, variable, child.safe, "ORDERED", children=[child])
