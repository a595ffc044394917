"""The syntactic distributivity approximation ``ds_$x(·)`` (Figure 5).

One walk, :func:`judge`, applies the paper's inference rules bottom-up over
the AST and reads them from a rule set: node class → rule.  It is *sound*
(whenever it answers "safe", the expression is distributive for the
recursion variable, and algorithm Delta preserves the IFP semantics) but
deliberately incomplete: expressions such as ``count($x) >= 1`` or the
``id($x/…)`` variant of Query Q1 are distributive yet rejected — precisely
the cases the paper uses to motivate the distributivity hint (Section 3.2)
and the algebraic check (Section 4).

The walk holds what every rule set shares: the axioms CONST and VAR, and
the two observations of the text accompanying Figure 5 —

* a subexpression whose value does not depend on ``$x`` is distributive,
  *unless* it constructs nodes (fresh node identities break set-equality);
* there is no rule for node constructors, positional filters, aggregations,
  general comparisons, or built-in calls receiving ``$x`` — all of these are
  conservatively rejected when ``$x`` occurs free in them (a rejecting
  entry in the rule set; a form no entry names is UNSUPPORTED).

Three rule sets, one per use:

* :data:`FIGURE5` — the rules as the paper gives them: the fixpoint
  decision's ``syntactic`` checker and the step-relation recognizer.
* :data:`STRENGTHENED` — FUNCALL trusts :data:`TRUSTED_DISTRIBUTIVE_BUILTINS`
  (the paper notes that ``fn:id`` would need its own rule): the static
  analysis, :mod:`repro.analysis.distributivity`.
* :data:`SET_AT_A_TIME` — :data:`STRENGTHENED` plus **EXISTENTIAL** entries
  for steps and filters: ``X[p1]…[pn]`` whose ``X`` and ``p1…pn-1`` do not
  mention ``$x`` and whose last predicate is a general comparison with
  ``$x`` free on exactly one side, that side distributive in ``$x``.
  ``A θ (S1 ∪ S2)`` holds iff ``A θ S1`` or ``A θ S2`` does, and the
  positions of ``X``'s items do not depend on ``$x``, so every item of
  ``X`` is kept for ``S1 ∪ S2`` iff it is kept for ``S1`` or for ``S2``.
  The optimizer's set-at-a-time ``for`` (:mod:`repro.xquery.optimizer`)
  reads it; no fixpoint decision does, so no verdict they give depends on
  it.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

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
Declarations = dict[tuple[str, int], ast.FunctionDecl]

#: A rule: the judgment of a node in which the recursion variable occurs
#: free and that constructs nothing, its parts judged by :func:`judge` with
#: the same rule set and declarations.
Rule = Callable[[Any, str, "Rules", Declarations], DistributivityJudgment]
#: A rule set: node class → its rule.
Rules = Mapping[type[ast.Expr], Rule]

#: Built-ins trusted to distribute over union in their node-set argument.
#: ``fn:id`` maps each idref token of each input item independently, so
#: ``id(A ∪ B) = id(A) ∪ id(B)`` as node sets.
TRUSTED_DISTRIBUTIVE_BUILTINS = frozenset({"id", "fn:id"})

#: The axioms every rule set shares: these forms are safe as they stand.
_AXIOMS: dict[type[ast.Expr], str] = {
    ast.Literal: "CONST", ast.EmptySequence: "CONST", ast.ContextItem: "CONST",
    ast.RootExpr: "CONST", ast.VarRef: "VAR",
}


def judge(expr: ast.Expr, variable: str, rules: Rules,
          functions: Declarations) -> DistributivityJudgment:
    """``ds_$variable(expr)`` by the rule set *rules*, with the user
    functions *functions* by ``(name, arity)`` (:func:`normalize_functions`)."""
    axiom = _AXIOMS.get(type(expr))
    if axiom is not None:
        return DistributivityJudgment(expr, variable, True, axiom)
    # Node constructors anywhere in the expression create fresh node
    # identities on every (re-)evaluation; splitting the input would
    # yield different nodes, so distributivity fails (Section 3.2).
    if expr.contains_node_constructor():
        return DistributivityJudgment(expr, variable, False, "NODE-CONSTRUCTOR",
                                      "the expression constructs new nodes")
    # Independence: e does not mention $x at all (and, per the check
    # above, constructs no nodes) — its value is the same for every
    # split of the input.
    if variable not in expr.free_variables():
        return DistributivityJudgment(expr, variable, True, "INDEPENDENT",
                                      "recursion variable does not occur free")
    return rules.get(type(expr), _UNSUPPORTED)(expr, variable, rules, functions)


def _of_all(expr: ast.Expr, variable: str, rule: str,
            children: list[DistributivityJudgment]) -> DistributivityJudgment:
    """Safe iff every sub-judgment is."""
    return DistributivityJudgment(expr, variable, all(child.safe for child in children),
                                  rule, "", children)


def _reject(rule: str, why: str) -> Rule:
    """A form with no rule once ``$var`` occurs free in it (``{kind}``: its class)."""
    def reject(expr: ast.Expr, variable: str, rules: Rules,
               functions: Declarations) -> DistributivityJudgment:
        return DistributivityJudgment(expr, variable, False, rule,
                                      why.format(var=variable, kind=type(expr).__name__))
    return reject


_UNSUPPORTED = _reject("UNSUPPORTED", "no distributivity rule covers {kind} with ${var} free")


def _concat(expr: ast.SequenceExpr | ast.UnionExpr, variable: str, rules: Rules,
            functions: Declarations) -> DistributivityJudgment:
    parts = expr.items if type(expr) is ast.SequenceExpr else (expr.left, expr.right)
    return _of_all(expr, variable, "CONCAT",
                   [judge(part, variable, rules, functions) for part in parts])


def _if(expr: ast.IfExpr, variable: str, rules: Rules,
        functions: Declarations) -> DistributivityJudgment:
    if variable in expr.condition.free_variables():
        return DistributivityJudgment(
            expr, variable, False, "IF",
            f"${variable} occurs free in the condition (the condition inspects the whole sequence)")
    return _of_all(expr, variable, "IF", [judge(expr.then_branch, variable, rules, functions),
                                          judge(expr.else_branch, variable, rules, functions)])


def _for(expr: ast.ForExpr, variable: str, rules: Rules,
         functions: Declarations) -> DistributivityJudgment:
    in_sequence = variable in expr.sequence.free_variables()
    if in_sequence and variable in expr.body.free_variables():
        return DistributivityJudgment(
            expr, variable, False, "FOR",
            f"${variable} occurs free in both the range and the body (violates linearity)")
    if not in_sequence:
        # FOR1: $x only in the body.
        return _of_all(expr, variable, "FOR1", [judge(expr.body, variable, rules, functions)])
    # FOR2: $x only in the range expression.
    if expr.position_var is not None and expr.position_var in expr.body.free_variables():
        return DistributivityJudgment(
            expr, variable, False, "FOR2",
            "positional variable of the iteration over the recursion variable is used in the body")
    return _of_all(expr, variable, "FOR2", [judge(expr.sequence, variable, rules, functions)])


def _let(expr: ast.LetExpr, variable: str, rules: Rules,
         functions: Declarations) -> DistributivityJudgment:
    in_value = variable in expr.value.free_variables()
    if in_value and variable in expr.body.free_variables():
        return DistributivityJudgment(
            expr, variable, False, "LET",
            f"${variable} occurs free in both the bound expression and the body")
    if not in_value:
        return _of_all(expr, variable, "LET1", [judge(expr.body, variable, rules, functions)])
    # LET2: the let variable now carries (part of) the recursion input, so
    # the body must be distributive in the let variable as well.
    return _of_all(expr, variable, "LET2", [judge(expr.value, variable, rules, functions),
                                            judge(expr.body, expr.var, rules, functions)])


def _typeswitch(expr: ast.TypeswitchExpr, variable: str, rules: Rules,
                functions: Declarations) -> DistributivityJudgment:
    if variable in expr.operand.free_variables():
        return DistributivityJudgment(expr, variable, False, "TYPESW",
                                      f"${variable} occurs free in the typeswitch operand")
    branches = [*(case.body for case in expr.cases), expr.default]
    return _of_all(expr, variable, "TYPESW",
                   [judge(branch, variable, rules, functions) for branch in branches])


def _path(expr: ast.PathExpr, variable: str, rules: Rules,
          functions: Declarations) -> DistributivityJudgment:
    in_left = variable in expr.left.free_variables()
    if in_left and variable in expr.right.free_variables():
        return DistributivityJudgment(expr, variable, False, "STEP",
                                      f"${variable} occurs free on both sides of '/'")
    if not in_left:
        return _of_all(expr, variable, "STEP1", [judge(expr.right, variable, rules, functions)])
    return _of_all(expr, variable, "STEP2", [judge(expr.left, variable, rules, functions)])


def _ordered(expr: ast.OrderedExpr, variable: str, rules: Rules,
             functions: Declarations) -> DistributivityJudgment:
    return _of_all(expr, variable, "ORDERED", [judge(expr.body, variable, rules, functions)])


def _funcall(trusted: frozenset[str],
             calls: frozenset[tuple[str, int, str]] = frozenset()) -> Rule:
    """FUNCALL trusting the built-ins *trusted*, while the calls *calls* —
    ``(name, arity, variable)`` — are being judged: a user function's body
    is judged by a rule set whose FUNCALL knows the call, so a cycle
    through it is FUNCALL-RECURSIVE."""
    def funcall(expr: ast.FunctionCall, variable: str, rules: Rules,
                functions: Declarations) -> DistributivityJudgment:
        declaration = functions.get((expr.name, len(expr.args)))
        if declaration is None:
            if expr.name in trusted:
                return _of_all(expr, variable, "FUNCALL-TRUSTED",
                               [judge(arg, variable, rules, functions) for arg in expr.args])
            return DistributivityJudgment(
                expr, variable, False, "FUNCALL-BUILTIN",
                f"${variable} is passed to built-in {expr.name}(), whose distributivity the "
                "syntactic rules cannot establish (cf. the id() discussion in Section 4.1)")
        key = (declaration.name, declaration.arity, variable)
        if key in calls:
            return DistributivityJudgment(
                expr, variable, False, "FUNCALL-RECURSIVE",
                f"recursive call cycle through {declaration.name}() cannot be analysed syntactically")
        inside = {**rules, ast.FunctionCall: _funcall(trusted, calls | {key})}
        children: list[DistributivityJudgment] = []
        for parameter, argument in zip(declaration.params, expr.args):
            if variable in argument.free_variables():
                children += [judge(argument, variable, inside, functions),
                             judge(declaration.body, parameter.name, inside, functions)]
        return _of_all(expr, variable, "FUNCALL", children)
    return funcall


def _existential(otherwise: Rule) -> Rule:
    """EXISTENTIAL for a step or a filter, *otherwise* for any other shape
    of it: ``X[p1]…[pn]`` with ``$x`` only on one side of the general
    comparison ``pn`` is judged by that side."""
    def existential(expr: ast.AxisStep | ast.FilterExpr, variable: str, rules: Rules,
                    functions: Declarations) -> DistributivityJudgment:
        if type(expr) is ast.FilterExpr and variable in expr.primary.free_variables():
            return otherwise(expr, variable, rules, functions)
        *front, last = expr.predicates
        if type(last) is not ast.GeneralComparison or any(
                variable in predicate.free_variables() for predicate in front):
            return otherwise(expr, variable, rules, functions)
        in_left = variable in last.left.free_variables()
        if in_left == (variable in last.right.free_variables()):
            return otherwise(expr, variable, rules, functions)
        return _of_all(expr, variable, "EXISTENTIAL",
                       [judge(last.left if in_left else last.right, variable, rules, functions)])
    return existential


_ARITHMETIC = _reject("ARITHMETIC", "arithmetic atomizes the whole sequence")
_LOGICAL = _reject("LOGICAL", "boolean connectives reduce the sequence to a single truth value")

#: The rules of Figure 5 by node class; the forms it has no rule for reject
#: (``{var}``: the recursion variable).  Node constructors need no entry:
#: the walk rejects whatever constructs nodes before it looks here.
FIGURE5: Rules = {
    ast.SequenceExpr: _concat,
    ast.UnionExpr: _concat,
    ast.IfExpr: _if,
    ast.ForExpr: _for,
    ast.LetExpr: _let,
    ast.TypeswitchExpr: _typeswitch,
    ast.PathExpr: _path,
    ast.OrderedExpr: _ordered,
    ast.FunctionCall: _funcall(frozenset()),
    ast.FilterExpr: _reject("FILTER", "predicates may inspect position or cardinality of the "
                                      "sequence bound to ${var} (e.g. $x[1] is not distributive)"),
    ast.AxisStep: _reject("STEP-PREDICATE", "${var} occurs free inside a step predicate"),
    ast.GeneralComparison: _reject("COMPARISON", "general comparisons quantify existentially over "
                                                 "the whole sequence bound to ${var} (e.g. $x = 10)"),
    ast.ValueComparison: _reject("COMPARISON", "value comparisons require the whole (singleton) "
                                               "sequence"),
    ast.NodeComparison: _reject("COMPARISON", "node comparisons require the whole (singleton) "
                                              "sequence"),
    ast.ArithmeticExpr: _ARITHMETIC,
    ast.UnaryExpr: _ARITHMETIC,
    ast.RangeExpr: _reject("RANGE", "range expressions atomize the whole sequence"),
    ast.OrExpr: _LOGICAL,
    ast.AndExpr: _LOGICAL,
    ast.QuantifiedExpr: _reject("QUANTIFIER", "quantifiers reduce the sequence to a single truth "
                                              "value"),
    ast.IntersectExpr: _reject("INTERSECT", "intersect needs both operands in full"),
    ast.ExceptExpr: _reject("EXCEPT", "except needs both operands in full"),
    ast.WithExpr: _reject("NESTED-IFP", "nested fixed points over the outer recursion variable "
                                        "are not analysed"),
    ast.CastExpr: _reject("CAST", "casts atomize the whole (singleton) sequence"),
    ast.InstanceOfExpr: _reject("INSTANCE-OF", "instance of inspects the cardinality of the "
                                               "whole sequence"),
}

#: :data:`FIGURE5` trusting the union-distributing built-ins.
STRENGTHENED: Rules = {**FIGURE5, ast.FunctionCall: _funcall(TRUSTED_DISTRIBUTIVE_BUILTINS)}

#: :data:`STRENGTHENED` with EXISTENTIAL for steps and filters.
SET_AT_A_TIME: Rules = {
    **STRENGTHENED,
    ast.AxisStep: _existential(FIGURE5[ast.AxisStep]),
    ast.FilterExpr: _existential(FIGURE5[ast.FilterExpr]),
}


def is_distributivity_safe(expr: ast.Expr, variable: str,
                           functions: FunctionMap | Iterable[ast.FunctionDecl] | None = None,
                           rules: Rules = FIGURE5) -> bool:
    """Return ``True`` iff the rule set *rules* infers ``ds_$variable(expr)``."""
    return analyze_distributivity(expr, variable, functions, rules).safe


def analyze_distributivity(expr: ast.Expr, variable: str,
                           functions: FunctionMap | Iterable[ast.FunctionDecl] | None = None,
                           rules: Rules = FIGURE5) -> DistributivityJudgment:
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
    rules:
        The rule set: :data:`FIGURE5` (faithful to the paper),
        :data:`STRENGTHENED` or :data:`SET_AT_A_TIME`.
    """
    return judge(expr, variable, rules, normalize_functions(functions))


def normalize_functions(functions: FunctionMap | Iterable[ast.FunctionDecl] | None
                        ) -> Declarations:
    """Declarations by ``(name, arity)``, however the caller holds them."""
    if functions is None:
        return {}
    if isinstance(functions, Mapping):
        return dict(functions)
    return {(decl.name, decl.arity): decl for decl in functions}
