"""The AST's one account of scope, :data:`repro.xquery.ast.BINDERS`, against
the hand-written code it replaced, and the walks a never-seen text gets.

Below, verbatim, the 30 ``children()`` methods every node class once
overrode, the substitution with its private binder list
(``_shadowed_body_fields``), the plan cache's reflective constructor search
and the strengthened checker's reflective conditional rewriter.  On every
node of the optimizer oracle's modules and of the parser tests' texts, the
generic walks must pair the same children with the same bound sets, and
compute the same free variables, shadowed fields, constructor verdicts,
substitutions and rewritten bodies.
"""

from __future__ import annotations

import ast as python_ast
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.analysis import analyze_module, analyzer, cardinality, scopes
from repro.analysis import cardinality as card
from repro.analysis import distributivity as strengthened
from repro.analysis.distributivity import condition_verdict
from repro.distributivity import syntactic
from repro.errors import UndefinedVariableError, XQuerySyntaxError
from repro.session import Session
from repro.xmlio.parser import parse_xml
from repro.xquery import ast
from repro.xquery.optimizer import optimize_module
from repro.xquery.parser import parse_query
from tests.conftest import benchmark_modules


class _Overrides:
    """The deleted ``children()`` methods, one class per node class."""

    class Expr:
        def children(self) -> list[tuple["Expr", frozenset[str]]]:
            """Child expressions paired with the variables bound for each child."""
            return []

    class SequenceExpr:
        def children(self):
            return [(item, frozenset()) for item in self.items]

    class RangeExpr:
        def children(self):
            return [(self.start, frozenset()), (self.end, frozenset())]

    class UnionExpr:
        def children(self):
            return [(self.left, frozenset()), (self.right, frozenset())]

    class IntersectExpr:
        def children(self):
            return [(self.left, frozenset()), (self.right, frozenset())]

    class ExceptExpr:
        def children(self):
            return [(self.left, frozenset()), (self.right, frozenset())]

    class OrExpr:
        def children(self):
            return [(self.left, frozenset()), (self.right, frozenset())]

    class AndExpr:
        def children(self):
            return [(self.left, frozenset()), (self.right, frozenset())]

    class GeneralComparison:
        def children(self):
            return [(self.left, frozenset()), (self.right, frozenset())]

    class ValueComparison:
        def children(self):
            return [(self.left, frozenset()), (self.right, frozenset())]

    class NodeComparison:
        def children(self):
            return [(self.left, frozenset()), (self.right, frozenset())]

    class ArithmeticExpr:
        def children(self):
            return [(self.left, frozenset()), (self.right, frozenset())]

    class UnaryExpr:
        def children(self):
            return [(self.operand, frozenset())]

    class ForExpr:
        def children(self):
            bound = {self.var}
            if self.position_var:
                bound.add(self.position_var)
            return [(self.sequence, frozenset()), (self.body, frozenset(bound))]

    class LetExpr:
        def children(self):
            return [(self.value, frozenset()), (self.body, frozenset({self.var}))]

    class IfExpr:
        def children(self):
            return [
                (self.condition, frozenset()),
                (self.then_branch, frozenset()),
                (self.else_branch, frozenset()),
            ]

    class QuantifiedExpr:
        def children(self):
            return [
                (self.sequence, frozenset()),
                (self.satisfies, frozenset({self.var})),
            ]

    class TypeswitchCase:
        def children(self):
            bound = frozenset({self.var}) if self.var else frozenset()
            return [(self.body, bound)]

    class TypeswitchExpr:
        def children(self):
            result: list[tuple[ast.Expr, frozenset[str]]] = [(self.operand, frozenset())]
            for case in self.cases:
                result.append((case, frozenset()))
            default_bound = frozenset({self.default_var}) if self.default_var else frozenset()
            result.append((self.default, default_bound))
            return result

    class WithExpr:
        def children(self):
            return [(self.seed, frozenset()), (self.body, frozenset({self.var}))]

    class AxisStep:
        def children(self):
            return [(predicate, frozenset()) for predicate in self.predicates]

    class PathExpr:
        def children(self):
            return [(self.left, frozenset()), (self.right, frozenset())]

    class FilterExpr:
        def children(self):
            return [(self.primary, frozenset())] + [(p, frozenset()) for p in self.predicates]

    class FunctionCall:
        def children(self):
            return [(arg, frozenset()) for arg in self.args]

    class AttributeConstructor:
        def children(self):
            return [(part, frozenset()) for part in self.value_parts]

    class DirectElementConstructor:
        def children(self):
            result: list[tuple[ast.Expr, frozenset[str]]] = []
            for attribute in self.attributes:
                result.append((attribute, frozenset()))
            for part in self.content:
                result.append((part, frozenset()))
            return result

    class ComputedConstructor:
        def children(self):
            result = []
            if self.name is not None:
                result.append((self.name, frozenset()))
            if self.content is not None:
                result.append((self.content, frozenset()))
            return result

    class OrderedExpr:
        def children(self):
            return [(self.body, frozenset())]

    class CastExpr:
        def children(self):
            return [(self.operand, frozenset())]

    class InstanceOfExpr:
        def children(self):
            return [(self.operand, frozenset())]


#: Node class → its deleted ``children()`` (the base class's for the rest).
OVERRIDES = {getattr(ast, name): kind.children
             for name, kind in vars(_Overrides).items() if isinstance(kind, type)}


def oracle_children(node: ast.Expr) -> list[tuple[ast.Expr, frozenset[str]]]:
    """What *node*'s hand-written ``children()`` returned."""
    return OVERRIDES.get(type(node), OVERRIDES[ast.Expr])(node)


def oracle_free_variables(expr: ast.Expr) -> frozenset[str]:
    """``fv(e)`` read off the hand-written ``children()``, uncached."""
    free = frozenset((expr.name,)) if type(expr) is ast.VarRef else frozenset()
    for child, bound in oracle_children(expr):
        free |= oracle_free_variables(child) - bound
    return free


def _shadowed_body_fields(expr, var: str) -> frozenset[str]:
    """Fields of *expr* in which free occurrences of *var* are shadowed."""
    if isinstance(expr, ast.ForExpr) and var in {expr.var, expr.position_var}:
        return frozenset({"body"})
    if isinstance(expr, (ast.LetExpr,)) and var == expr.var:
        return frozenset({"body"})
    if isinstance(expr, ast.QuantifiedExpr) and var == expr.var:
        return frozenset({"satisfies"})
    if isinstance(expr, ast.WithExpr) and var == expr.var:
        return frozenset({"body"})
    if isinstance(expr, ast.TypeswitchCase) and var == expr.var:
        return frozenset({"body"})
    if isinstance(expr, ast.TypeswitchExpr) and var == expr.default_var:
        return frozenset({"default"})
    return frozenset()


def substitute_variable(expr, var: str, replacement, calls=None):
    """Return ``expr`` with free occurrences of ``$var`` replaced."""
    kind = type(expr)
    if var not in expr.free_variables():
        if calls is not None:
            _append_calls(expr, calls)
        return expr
    if kind is ast.VarRef:
        return replacement
    if calls is not None and kind is ast.FunctionCall:
        calls.append(expr)
    shadowed = _shadowed_body_fields(expr, var)
    updates = {}
    for name, is_tuple in _SUBEXPRESSION_FIELDS[kind]:
        value = getattr(expr, name)
        if name in shadowed:
            if calls is not None and value is not None:
                for part in value if is_tuple else (value,):
                    _append_calls(part, calls)
        elif is_tuple:
            parts = tuple([substitute_variable(part, var, replacement, calls) for part in value])
            if any(new is not old for new, old in zip(parts, value)):
                updates[name] = parts
        elif value is not None:
            part = substitute_variable(value, var, replacement, calls)
            if part is not value:
                updates[name] = part
    if not updates:
        return expr
    return replace(expr, **updates)


def _append_calls(expr, calls) -> None:
    if _SUBEXPRESSION_FIELDS[type(expr)]:  # (a leaf calls nothing)
        calls.extend([sub for sub in expr.iter_subexpressions() if type(sub) is ast.FunctionCall])


_SUBEXPRESSION_FIELDS = {
    kind: tuple(entry for entry in plan[::-1] if entry[0] != "node_test")
    for kind, plan in ast.CHILD_FIELDS.items()
}


def iter_expressions(expr):
    """Generic pre-order walk over an AST expression (dataclass fields)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (tuple, list)):
            stack.extend(node)
            continue
        if not isinstance(node, ast.Expr):
            continue
        yield node
        for field in fields(node):
            stack.append(getattr(node, field.name))


def contains_constructor(expr) -> bool:
    """Does *expr* (or any subexpression) construct nodes?"""
    for node in iter_expressions(expr):
        if isinstance(node, (ast.DirectElementConstructor, ast.ComputedConstructor)):
            return True
    return False


def _rewrite_conditionals(expr, variable: str, nonempty: bool, facts):
    """Replace every conditional decidable for the given emptiness state of
    ``$variable`` by the selected branch."""
    if isinstance(expr, ast.IfExpr):
        verdict = condition_verdict(expr.condition, variable, nonempty)
        if verdict is not None:
            branch = expr.then_branch if verdict else expr.else_branch
            if facts is not None:
                facts.append(
                    f"condition decided {'true' if verdict else 'false'} for "
                    f"{'non-empty' if nonempty else 'empty'} ${variable}")
            return _rewrite_conditionals(branch, variable, nonempty, facts)
    shadowed = _shadowed_body_fields(expr, variable)
    changes: dict[str, object] = {}
    for field_info in fields(expr):
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
    return replace(expr, **changes) if changes else expr


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------


def _parser_test_texts() -> list[str]:
    """Every string constant of the parser tests that parses as a module."""
    source = Path(__file__).with_name("test_xquery_parser.py").read_text()
    texts = []
    for node in python_ast.walk(python_ast.parse(source)):
        if isinstance(node, python_ast.Constant) and isinstance(node.value, str):
            texts.append(node.value)
    return texts


#: Bodies that rebind the recursion variable around a decidable condition,
#: in each binding form: the rewrite must leave the shadowed one alone.
SHADOWING = tuple(
    f"with $x seeded by //a recurse (if (exists($x)) then $x/b else (), {inner})"
    for inner in (
        "let $x := //c return if (exists($x)) then $x/d else ()",
        "for $y at $x in //c return if (empty($x)) then $y else ()",
        "some $x in //c satisfies (if (exists($x)) then 1 else 0)",
        "with $x seeded by //c recurse if (empty($x)) then $x/d else ()",
        "typeswitch ($x) case $x as node()* return (if (exists($x)) then 1 else 0) "
        "default $x return if (empty($x)) then 2 else 3",
    ))


@pytest.fixture(scope="module")
def modules() -> list[ast.Module]:
    """The optimizer oracle's modules, the parser tests' texts and
    :data:`SHADOWING`, as parsed and as optimized."""
    from tests.test_optimizer_rewrites import _modules

    parsed = _modules() + [parse_query(text) for text in SHADOWING]
    for text in _parser_test_texts():
        try:
            parsed.append(parse_query(text))
        except XQuerySyntaxError:
            continue
    return parsed + [optimize_module(module) for module in parsed]


@pytest.fixture(scope="module")
def nodes(modules) -> list[ast.Expr]:
    """Every expression node of :func:`modules`."""
    found = []
    for module in modules:
        for root in (*(f.body for f in module.functions),
                     *(d.value for d in module.variables if d.value is not None), module.body):
            found.extend(root.iter_subexpressions())
    return found


def test_the_corpus_has_every_binding_form(nodes):
    kinds = {type(node) for node in nodes}
    assert set(OVERRIDES) - {ast.Expr} <= kinds
    assert any(isinstance(node, ast.ForExpr) and node.position_var for node in nodes)
    assert any(isinstance(node, ast.TypeswitchCase) and node.var is None for node in nodes)
    assert any(isinstance(node, ast.TypeswitchExpr) and node.default_var for node in nodes)


def test_children_pair_what_the_overrides_paired(nodes):
    for node in nodes:
        assert [(id(child), bound) for child, bound in node.children()] \
            == [(id(child), bound) for child, bound in oracle_children(node)]
        assert [id(child) for child in node.child_expressions()] \
            == [id(child) for child, _bound in oracle_children(node)]


def test_free_variables_and_constructors_are_the_overrides(nodes):
    for node in nodes:
        assert node.free_variables() == oracle_free_variables(node)
        assert node.contains_node_constructor() == contains_constructor(node)


def test_shadowed_fields_are_the_private_list(nodes):
    for node in nodes:
        names = {getattr(node, name, None) for name in ("var", "position_var", "default_var")}
        for name in names - {None} | {"x", "nope"}:
            assert set(ast.shadowed_fields(node, name)) == _shadowed_body_fields(node, name)


def test_substitution_is_the_field_walk(nodes):
    for node in nodes:
        if isinstance(node, (ast.WithExpr, ast.ForExpr, ast.LetExpr)):
            for name in (node.var, "x"):
                old_calls: list = []
                new_calls: list = []
                old = substitute_variable(node, name, ast.VarRef("#x"), old_calls)
                new = ast.substitute_variable(node, name, ast.VarRef("#x"), new_calls)
                assert new == old and (new is node) == (old is node)
                assert sorted(map(id, new_calls)) == sorted(map(id, old_calls))


def test_conditionals_are_rewritten_as_the_reflective_walk_did(nodes):
    rewritten = 0
    for node in nodes:
        if not isinstance(node, ast.WithExpr):
            continue
        for nonempty in (True, False):
            old_facts: list[str] = []
            new_facts: list[str] = []
            old = _rewrite_conditionals(node.body, node.var, nonempty, old_facts)
            new = strengthened._rewrite_conditionals(node.body, node.var, nonempty, new_facts)
            assert new == old and new_facts == old_facts
            assert (new is node.body) == (old is node.body)
            rewritten += new is not node.body
    assert rewritten >= 10  # the comparison covers decided conditionals


def _walk(self, expr: ast.Expr, env: frozenset[str]) -> None:
    """The scope check's walk over the overrides' pairs."""
    if isinstance(expr, ast.VarRef):
        if expr.name not in env:
            line, column = scopes._position(expr)
            self._report(UndefinedVariableError(expr.name, line, column),
                         rule="undefined-variable")
    elif isinstance(expr, ast.FunctionCall):
        self._check_call(expr)
    for child, bound in oracle_children(expr):
        self._walk(child, env | bound)


def _fixpoint_sites(module, environment):
    """The fixpoint-site walk over the overrides' pairs."""
    sites = []

    def walk(expr, env):
        if isinstance(expr, ast.WithExpr):
            sites.append((expr, dict(env)))
        if isinstance(expr, ast.ForExpr):
            walk(expr.sequence, env)
            bound = dict(env)
            bound[expr.var] = card.ONE
            if expr.position_var:
                bound[expr.position_var] = card.ONE
            walk(expr.body, bound)
            return
        if isinstance(expr, ast.LetExpr):
            walk(expr.value, env)
            bound = dict(env)
            bound[expr.var] = card.infer_cardinality(expr.value, env)
            walk(expr.body, bound)
            return
        for child, bound_names in oracle_children(expr):
            if bound_names:
                child_env = dict(env)
                for name in bound_names:
                    # rebinding shadows any outer bound for this subtree
                    child_env[name] = card.STAR
                walk(child, child_env)
            else:
                walk(child, env)

    base = dict(environment)
    for declaration in module.variables:
        if declaration.value is not None:
            walk(declaration.value, base)
    for function in module.functions:
        env = dict(base)
        for param in function.params:
            env[param.name] = card.STAR
        walk(function.body, env)
    walk(module.body, base)
    return sites


def test_the_analysis_is_the_overrides_walk(modules, monkeypatch):
    """Scope findings, fixpoint facts and verdicts of every module equal
    those of the two analysis walks run over the overrides' pairs."""
    reports = [analyze_module(module) for module in modules]
    monkeypatch.setattr(scopes._ScopeChecker, "_walk", _walk)
    monkeypatch.setattr(analyzer, "_fixpoint_sites", _fixpoint_sites)
    assert [analyze_module(module) for module in modules] == reports
    assert sum(len(report.findings) for report in reports) >= 10
    assert sum(len(report.fixpoints) for report in reports) >= 100


def test_the_binder_table_is_complete():
    """Every field that names a bound variable is in :data:`ast.BINDERS`, and
    every entry there names a child field and binder fields of its class: a
    binding form missing from the table fails here, not as a wrong
    ``fv(e)``."""
    for kind in ast.Expr.__subclasses__():
        names = {field.name for field in fields(kind)}
        listed = {binder for binders in ast.BINDERS.get(kind, {}).values() for binder in binders}
        assert names & {"var", "position_var", "default_var"} == listed, kind
    for kind, entry in ast.BINDERS.items():
        children = dict(ast.CHILD_FIELDS[kind])
        for child, binders in entry.items():
            assert children.get(child) is False, (kind, child)  # one expression
            assert set(binders) <= {field.name for field in fields(kind)}, (kind, binders)


# ---------------------------------------------------------------------------
# the walks a never-seen text gets
# ---------------------------------------------------------------------------
#
# ``sys.setprofile`` counts the calls of each walker while one new text of
# the ledger's ``adhoc`` workload runs on a warm session: a count repeats
# exactly where a timing does not.  Before the table, ``children()`` was
# called 44, 53 and 62 times for these three shapes (the scope and fixpoint
# site walks and ``free_variables`` each asked for the pairs); the other
# counts were as pinned.

#: Walker → its function.
WALKERS = {
    "children": ast.Expr.children,
    "figure 5": syntactic.judge,
    "rewrite": strengthened._rewrite_conditionals,
    "cardinality": cardinality._infer,
}

#: Shape → walker → calls per new text, on every engine.
WALKS = {
    "curriculum": {"figure 5": 2, "cardinality": 8},
    "q1-function": {"figure 5": 4, "cardinality": 8},
    "q2": {"figure 5": 2, "rewrite": 16, "cardinality": 8},
}


def count_walks(function) -> Counter:
    """Calls of each of :data:`WALKERS` while *function* runs."""
    codes = {walker.__code__: name for name, walker in WALKERS.items()}
    counts: Counter = Counter()

    def profile(frame, event, argument):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return counts


@pytest.fixture(scope="module")
def adhoc():
    corpus, ops, _ = benchmark_modules()
    documents, _ = corpus.build("tiny")
    start = ops.Scenarios(documents).curriculum.starts[0]
    document = parse_xml(documents["curriculum.xml"], id_attributes=corpus.ID_ATTRIBUTES)
    return ops, corpus.ID_ATTRIBUTES, document, start


@pytest.mark.parametrize("engine", ("interpreter", "algebra", "sql"))
@pytest.mark.parametrize("shape", tuple(WALKS))
def test_walks_per_new_text(adhoc, shape, engine):
    ops, id_attributes, document, start = adhoc
    with Session(id_attributes=id_attributes) as session:
        session.register_document("curriculum.xml", document)
        for serial in (1, 2):  # the index builds and shreds are paid once
            session.evaluate(ops.adhoc_text(shape, serial, start, 3), engine=engine)
        text = ops.adhoc_text(shape, 3, start, 3)
        counts = count_walks(lambda: session.evaluate(text, engine=engine))
    assert counts == Counter(WALKS[shape])
