"""The one distributivity walk against the checker it replaced.

``judge`` reads Figure 5 from a table (``FIGURE5``, ``STRENGTHENED``,
``SET_AT_A_TIME``); before it, ``_SyntacticChecker`` dispatched to one
method per node class and took two knobs, ``trusted_builtins`` and
``existential``.  That checker, its ``analyze_distributivity`` and the
static analysis' ``analyze_distributivity_static`` that called it (with the
two wrappers of ``_rewrite_conditionals`` it used) are kept below
verbatim as the oracle.  Over every ``with`` body of the repository's
query texts, the EXISTENTIAL bodies and every subexpression of them × each
of its free variables, the derivation trees (``format()``), the deciding
rules and details and the static verdicts must be equal, byte for byte,
under (∅, off) ↔ ``FIGURE5``, (trusted, off) ↔ ``STRENGTHENED`` and
(trusted, on) ↔ ``SET_AT_A_TIME``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import pytest

from repro.analysis import cardinality as card
from repro.analysis.cardinality import Cardinality, infer_cardinality
from repro.analysis.distributivity import (
    StaticDistributivityJudgment,
    _rewrite_conditionals,
    analyze_distributivity_static as new_analyze_distributivity_static,
)
from repro.distributivity import syntactic
from repro.distributivity.syntactic import (
    FIGURE5,
    SET_AT_A_TIME,
    STRENGTHENED,
    TRUSTED_DISTRIBUTIVE_BUILTINS,
    DistributivityJudgment,
    FunctionMap,
    analyze_distributivity as new_analyze_distributivity,
    normalize_functions,
)
from repro.errors import XQueryError
from repro.xquery import ast
from repro.xquery.parser import parse_query
from tests.conftest import front_end_corpus
from tests.test_set_at_a_time import D, EXISTENTIAL_BODIES

_FunctionMap = Mapping[tuple[str, int], ast.FunctionDecl] | None


# ---------------------------------------------------------------------------
# the oracle: the parent's checker, verbatim
# ---------------------------------------------------------------------------


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



def _eliminate_decided_conditionals(body: ast.Expr,
                                    variable: str) -> tuple[ast.Expr, list[str]]:
    """The body specialized to non-empty ``$variable``, with the facts used."""
    facts: list[str] = []
    rewritten = _rewrite_conditionals(body, variable, nonempty=True, facts=facts)
    return rewritten, facts


def _body_at_empty(body: ast.Expr, variable: str) -> ast.Expr:
    """The body specialized to ``$variable = ()`` (undecided parts kept)."""
    return _rewrite_conditionals(body, variable, nonempty=False, facts=None)



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


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------

#: Bodies in ``$x`` that bring every entry of the three tables into play:
#: the repository's query texts do not put the recursion variable in every
#: form (:func:`test_the_cases_meet_every_entry` says they now do).
RULE_TEXTS = (
    "$x", "42", "()", ".", "/", "$y/child::a", "$x/child::a", "$x/descendant::b/child::c",
    "$x/id(./prerequisites/pre_code)", "id($x/@ref)", "fn:id($x/@ref, $d)", "id($x/a, $x/b)",
    "count($x)", "count($x) >= 1", "empty($x)", "$x = 10", "$x != $y", "$x eq 10", "$x is $y",
    "$x << $y", "$x + 1", "-$x", "1 to count($x)", "$x and $y", "$x or $y",
    "some $y in $x satisfies $y = 1", "every $y in $d satisfies $y = $x",
    "$x intersect $y", "$x except $y", "($x/a, $x/b)", "$x/a union $x/b", "$x/a | $d/b",
    "if ($switch) then $x/a else $x/b", "if (count($x/self::a)) then $x/* else ()",
    "if (count($x) >= 1) then $x/* else ()", "if (exists($x)) then $x/a else $d/b",
    "if (empty($x)) then () else $x/a", "if (not(count($x) = 0)) then $x/a else ()",
    "if (count($x) > 2) then $x/a else ()",
    "for $y in $x return $y/a", "for $y in $d/item return $x/a", "for $y in $x return count($x)",
    "for $y at $p in $x return $d/item[$p]", "for $y at $p in $x return $y/a",
    "let $d := $d/a return $x/id($d)", "let $e := $x/a return $e/b", "let $e := $x/a return $x/b",
    "let $e := $x/a return count($e)", "typeswitch ($flag) case xs:integer return $x/a default return $x/b",
    "typeswitch ($x) case node() return $x default return ()",
    "typeswitch ($f) case $c as node() return $c/a default $z return $x[1]",
    "ordered { $x/a }", "ordered { $x[1] }", "$x[1]", "$x[@k = 1]", "($x)[. = 1]", "($d/a)[$x]",
    "$x/a[count($x) = 1]", "$d//n[@k = $x/@k]", "$d//n[$x/@k = $x/@j]", "$d//n[@k eq $x/@k]",
    "$d//n[@a = $x][1]", "$d//n[1][@k = $x/@k]", "$d//n[count($x) = 1]", "($d//m)[@k = $x/@k]",
    "($d//m)[@k = $x[1]/@k]", "($x/a)[@k = $x/@k]", "$x/(if ($x) then a else b)", "$x/$x", "$d/($x/a)",
    'text { "c" }', "for $y in $x return <seen/>", "<wrap>{ $y }</wrap>", "<w a='{$x}'>{$x}</w>",
    'element e { $x }', "with $z seeded by $x recurse $z/a", "with $z seeded by $d recurse $x/a",
    "$x cast as xs:string", "$x instance of node()*", "xs:string($x)",
    "declare function bidder ($in) { for $id in $in/@id return $id/.. }; bidder($x)",
    "declare function walk ($n) { $n union walk($n/child::a) }; walk($x)",
    "declare function pair ($a, $b) { ($a/l, $b/r) }; pair($x, $x/z)",
    "declare function pair ($a, $b) { ($a/l, $b[1]) }; pair($d, $x/z)",
    "declare function ping ($n) { pong($n/a) }; declare function pong ($n) { ping($n) | $n }; "
    "ping($x)",
    "declare function up ($n) { up($n/..)[1] }; declare function top ($m) { up($m) }; top($x)",
    "declare function ref ($n) { id($n/@to) }; ref($x)",
    "declare function f ($n) { $n/a }; f($x) | f($d)",
)


def _modules():
    texts = (*front_end_corpus(), *(body.replace("D", D) for body in EXISTENTIAL_BODIES), *RULE_TEXTS)
    for text in texts:
        try:
            yield parse_query(text)
        except XQueryError:
            continue


@pytest.fixture(scope="module")
def cases() -> list[tuple[ast.Expr, str, dict, ast.Expr | None]]:
    """``(expression, variable, declarations, seed)``: every ``with`` body
    with its seed, and every subexpression × each of its free variables."""
    found: dict = {}
    for module in _modules():
        functions = module.function_map()
        roots = [*(function.body for function in module.functions),
                 *(declaration.value for declaration in module.variables
                   if declaration.value is not None), module.body]
        calls = tuple(functions.items())
        for root in roots:
            for node in root.iter_subexpressions():
                if type(node) is ast.WithExpr:
                    found.setdefault((node.body, node.var, node.seed, calls),
                                     (node.body, node.var, functions, node.seed))
                for variable in sorted(node.free_variables()):
                    found.setdefault((node, variable, None, calls), (node, variable, functions, None))
    return list(found.values())


#: The parent's knobs ↔ the table that replaces them.
CONFIGURATIONS = {
    "figure 5": (frozenset(), False, FIGURE5),
    "strengthened": (TRUSTED_DISTRIBUTIVE_BUILTINS, False, STRENGTHENED),
    "set at a time": (TRUSTED_DISTRIBUTIVE_BUILTINS, True, SET_AT_A_TIME),
}


@pytest.mark.parametrize("configuration", tuple(CONFIGURATIONS))
def test_the_walk_derives_what_the_checker_derived(cases, configuration):
    trusted, existential, rules = CONFIGURATIONS[configuration]
    for expr, variable, functions, _seed in cases:
        old = analyze_distributivity(expr, variable, functions, trusted, existential)
        new = new_analyze_distributivity(expr, variable, functions, rules)
        assert new.format() == old.format(), (variable, expr)
        assert ((new.deciding().rule, new.deciding().detail)
                == (old.deciding().rule, old.deciding().detail)), (variable, expr)


def test_the_static_judgment_is_the_checkers(cases):
    for expr, variable, functions, seed in cases:
        old = analyze_distributivity_static(expr, variable, functions=functions, seed=seed)
        new = new_analyze_distributivity_static(expr, variable, functions=functions, seed=seed)
        assert ((new.safe, new.rule, new.detail, new.facts)
                == (old.safe, old.rule, old.detail, old.facts)), (variable, expr)
        assert new.syntactic.format() == old.syntactic.format()
        assert ((new.strengthened and new.strengthened.format())
                == (old.strengthened and old.strengthened.format()))


#: Rules the walk applies before it looks at a table.
WALK_RULES = {"CONST", "VAR", "INDEPENDENT", "NODE-CONSTRUCTOR"}


def test_the_cases_meet_every_entry(cases):
    """Every entry of every table decides some case, in every way it can
    decide, so that dropping or changing one fails the oracle tests."""
    met: set[tuple[type, str]] = set()
    for expr, variable, functions, _seed in cases:
        for rules in (FIGURE5, STRENGTHENED, SET_AT_A_TIME):
            stack = [new_analyze_distributivity(expr, variable, functions, rules)]
            while stack:
                judgment = stack.pop()
                stack.extend(judgment.children)
                if judgment.rule not in WALK_RULES:
                    met.add((type(judgment.expression), judgment.rule))
    assert {kind for kind, _rule in met} >= set(SET_AT_A_TIME)
    assert {rule for _kind, rule in met} >= {
        "CONCAT", "IF", "FOR", "FOR1", "FOR2", "LET", "LET1", "LET2", "TYPESW", "STEP", "STEP1",
        "STEP2", "ORDERED", "FUNCALL", "FUNCALL-TRUSTED", "FUNCALL-BUILTIN", "FUNCALL-RECURSIVE",
        "FILTER", "STEP-PREDICATE", "EXISTENTIAL", "UNSUPPORTED"}
    assert {(ast.AxisStep, "EXISTENTIAL"), (ast.FilterExpr, "EXISTENTIAL"),
            (ast.AxisStep, "STEP-PREDICATE"), (ast.FilterExpr, "FILTER")} <= met


def test_the_default_rules_are_figure_5(cases):
    for expr, variable, functions, _seed in cases:
        assert (new_analyze_distributivity(expr, variable, functions).format()
                == syntactic.judge(expr, variable, FIGURE5, normalize_functions(functions)).format())
