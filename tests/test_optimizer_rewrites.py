"""The optimizer rewrite catalog: unit tests per rewrite plus randomized
property tests checking every rewrite is item-identical across all three
engines, rewrites on versus off."""

from __future__ import annotations

import math
import random
from dataclasses import fields, replace

import pytest

from repro.api import evaluate
from repro.errors import XQueryError
from repro.settings import EvalSettings
from repro.xmlio.parser import parse_xml
from repro.xmlio.serializer import serialize_sequence
from repro.errors import XQuerySyntaxError
from repro.xquery import ast, optimizer
from repro.xquery.optimizer import (
    _COMPARISON_OPS,
    _LOOP_FIELDS,
    _Hoister,
    _is_all_nodes_step,
    _local_name,
    _numeric_literal,
    _position_free,
    _provably_error_free,
    _static_ebv,
    optimize,
    optimize_module,
)
from repro.xquery.parser import parse_expression, parse_query
from tests.conftest import front_end_corpus

ENGINES = ("interpreter", "algebra", "sql")


def _opt(expression: str) -> ast.Expr:
    return optimize(parse_expression(expression))


def _literal(expression: str):
    result = _opt(expression)
    assert isinstance(result, ast.Literal), f"{expression!r} -> {result!r}"
    return result.value


# ---------------------------------------------------------------------------
# unit tests, one per catalog entry
# ---------------------------------------------------------------------------


class TestConstantFolding:
    @pytest.mark.parametrize("expression, expected", [
        ("1 + 2", 3),
        ("2 * 3 + 4", 10),
        ("10 - 2 - 3", 5),
        ("7 div 2", 3.5),
        ("10 idiv 3", 3),
        ("-10 idiv 3", -3),        # truncates toward zero, like the runtime
        ("10 mod 3", 1),
        ("-10 mod 3", -1),         # sign follows the dividend
        ("1.5 + 2.5", 4.0),
        ("-(2 + 3)", -5),
    ])
    def test_arithmetic(self, expression, expected):
        value = _literal(expression)
        assert value == expected
        assert type(value) is type(expected)

    @pytest.mark.parametrize("expression, expected", [
        ("2 < 3", True),
        ("2 >= 3", False),
        ("2 eq 2", True),
        ("'a' lt 'b'", True),
        ("'abc' = 'abc'", True),
        ("1.5 gt 1", True),
    ])
    def test_comparisons(self, expression, expected):
        assert _literal(expression) is expected

    @pytest.mark.parametrize("expression", [
        "1 div 0",                 # must still raise FOAR0001 at runtime
        "1 idiv 0",
        "1 mod 0",
        "'a' + 1",                 # type error preserved
        "1 < 'a'",                 # incomparable, preserved
    ])
    def test_error_raising_forms_not_folded(self, expression):
        assert not isinstance(_opt(expression), ast.Literal)

    def test_folds_match_the_evaluator(self):
        for expression in ("7 div 2", "10 idiv 3", "-10 idiv 3",
                           "10 mod 3", "-10 mod 3", "-7 idiv 2", "-7 mod 2"):
            folded = _literal(expression)
            evaluated = evaluate(expression,
                                 settings=EvalSettings(optimize=False)).items
            assert [folded] == evaluated, expression


class TestDeadBranchElimination:
    @pytest.mark.parametrize("expression, expected", [
        ("if (true()) then 1 else 2", 1),
        ("if (false()) then 1 else 2", 2),
        ("if (0) then 1 else 2", 2),
        ("if (1) then 1 else 2", 1),
        ("if ('') then 1 else 2", 2),
        ("if ('x') then 1 else 2", 1),
    ])
    def test_literal_conditions(self, expression, expected):
        assert _literal(expression) == expected

    def test_empty_sequence_condition(self):
        assert _literal("if (()) then 1 else 2") == 2

    def test_dynamic_condition_kept(self):
        assert isinstance(_opt("if ($c) then 1 else 2"), ast.IfExpr)


class TestUnusedLetPruning:
    def test_pruned_when_value_is_error_free(self):
        assert _literal("let $unused := 1 return 2") == 2
        assert _literal("let $unused := (1, 2, ()) return 3") == 3

    def test_kept_when_value_could_raise(self):
        # pruning this let would mask the static/dynamic error
        assert isinstance(_opt("let $unused := $missing return 2"), ast.LetExpr)
        assert isinstance(_opt("let $unused := 1 div 0 return 2"), ast.LetExpr)

    def test_kept_when_variable_is_used(self):
        result = _opt("let $v := 1 return $v + $w")
        assert isinstance(result, ast.LetExpr)


class TestDescendantFusion:
    def test_slash_slash_fused(self):
        # $d/descendant-or-self::node()/child::item -> $d/descendant::item
        result = _opt("$d//item")
        assert isinstance(result, ast.PathExpr)
        assert isinstance(result.left, ast.VarRef)
        assert isinstance(result.right, ast.AxisStep)
        assert result.right.axis == "descendant"

    #: ``//item[1]`` is the first item *of each parent*: two here.  Fused to
    #: ``/descendant::item[1]`` it was the first of the document (answer 1,
    #: on every engine, with default settings).
    PER_PARENT_XML = '<r><p><item k="a"/><item k="a"/></p><p><item k="a"/></p></r>'

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("predicates", ['[1]', '[@k = "a"][1]', '[last()]'])
    def test_positions_count_per_parent(self, engine, predicates):
        query = f'count(doc("d.xml")//item{predicates})'
        documents = {"d.xml": parse_xml(self.PER_PARENT_XML)}
        assert evaluate(query, documents=documents, engine=engine).items == [2]
        assert evaluate(query, documents=documents, engine=engine,
                        optimize=False).items == [2]

    @staticmethod
    def _fused(expression: str) -> bool:
        result = _opt(expression)
        assert isinstance(result, ast.PathExpr)
        fused = result.right.axis == "descendant"
        assert fused or (result.right.axis == "child"
                         and result.left.right.axis == "descendant-or-self")
        return fused

    @pytest.mark.parametrize("expression", [
        # the ledger's bidder steps: fusion is what lets them probe the index
        "$doc//open_auction[seller/@person = $id]",
        "$doc//people",
        # boolean- or node-valued, and blind to the position
        "$d//item[@k]", "$d//item[sub]", '$d//item[@k = "a"][sub = $v]',
        "$d//item[sub/leaf]", "$d//item[.//leaf]", "$d//item[not(sub)]",
        "$d//item[exists(sub) and empty(@m)]", "$d//item[@n = 1 or sub != 'x']",
        "$d//item[count(sub) = 1]", "$d//item[@n + 1 = 2]", "$d//item[. is $n]",
        '$d//item[sub[1] = "x"]', "$d//item[sub[last()]]",  # a position one focus down
    ])
    def test_position_free_predicates_still_fuse(self, expression):
        assert self._fused(expression)

    @pytest.mark.parametrize("expression", [
        "$d//item[1]", "$d//item[last()]", '$d//item[@k = "a"][1]', "$d//item[2][@k]",
        "$d//item[position() < 3]", "$d//item[@k and position() = 2]",
        "$d//item[not(position() = last())]", "$d//item[last() - 1]",
        # may be a number, hence a position: a variable, arithmetic, unknown calls
        "$d//item[$n]", "$d//item[@n + 1]", "$d//item[count(sub)]",
        "$d//item[local:f(.)]", "$d//item[(sub, 1)[1]]", "$d//item[sub/count(leaf)]",
        "$d//item[if (@k) then 1 else 2]",
    ])
    def test_a_predicate_that_may_be_positional_blocks_the_fusion(self, expression):
        assert not self._fused(expression)


class TestUnusedFunctionPruning:
    def test_unreachable_function_dropped(self):
        module = optimize_module(parse_query(
            "declare function local:used() { 1 }; "
            "declare function local:unused() { local:helper() }; "
            "declare function local:helper() { 2 }; "
            "local:used()"))
        assert [f.name for f in module.functions] == ["local:used"]

    def test_call_graph_reachability_is_transitive(self):
        module = optimize_module(parse_query(
            "declare function local:a() { local:b() }; "
            "declare function local:b() { local:c() }; "
            "declare function local:c() { 1 }; "
            "local:a()"))
        assert len(module.functions) == 3

    def test_functions_reached_from_globals_kept(self):
        module = optimize_module(parse_query(
            "declare function local:init() { 7 }; "
            "declare variable $g := local:init(); $g"))
        assert [f.name for f in module.functions] == ["local:init"]

    def test_recursive_function_kept(self):
        module = optimize_module(parse_query(
            "declare function local:down($n) { "
            "if ($n <= 0) then () else local:down($n - 1) }; "
            "local:down(3)"))
        assert len(module.functions) == 1


PROLOG = 'declare variable $d := doc("d.xml"); '


def _hoisted(query: str) -> tuple[ast.Module, dict[str, ast.Expr]]:
    """The optimized module and its synthesized prolog variables."""
    module = optimize_module(parse_query(query))
    return module, {decl.name: decl.value for decl in module.variables
                    if decl.name.startswith("hoisted")}


class TestInvariantHoisting:
    def test_function_body_scan_becomes_a_prolog_variable(self):
        module, hoisted = _hoisted(
            PROLOG + "declare function local:f($in) "
            "{ for $v in $in/@v return $d//item[@v = $v] }; "
            "declare variable $late := 1; local:f($d//item)")
        # ``$d//item[@v = $v]`` mentions the loop variable; nothing to hoist
        assert not hoisted
        module, hoisted = _hoisted(
            PROLOG + "declare function local:f($in) "
            "{ for $v in $in/@v return $d/root/item[@v = $v] }; "
            "declare variable $late := 1; local:f($d//item)")
        assert list(hoisted.values()) == [parse_expression("$d/root")]
        # declared right behind the variable it reads, before later ones
        assert [decl.name for decl in module.variables] == ["d", "hoisted#1", "late"]
        body = module.functions[0].body.body
        assert body.left == ast.VarRef("hoisted#1")

    def test_equal_expressions_share_one_variable(self):
        module, hoisted = _hoisted(
            PROLOG + "for $i in (1, 2) return (count($d//sub) + $i, count($d//sub))")
        assert list(hoisted.values()) == [optimize(parse_expression("count($d//sub)"))]
        first, second = module.body.body.items
        assert first.left == second == ast.VarRef("hoisted#1")

    def test_the_maximal_expression_moves_whole(self):
        _, hoisted = _hoisted(
            PROLOG + "for $i in (1, 2) return (count($d//sub), $d//sub[. = '1'])")
        assert list(hoisted.values()) == [
            optimize(parse_expression("(count($d//sub), $d//sub[. = '1'])"))]

    def test_let_around_the_loop_when_a_local_variable_is_read(self):
        module, hoisted = _hoisted(
            PROLOG + "let $k := $d//item return "
            "for $i in (1, 2) return count($k/sub)")
        assert not hoisted  # $k is not a prolog variable …
        outer = module.body
        assert isinstance(outer, ast.LetExpr) and outer.var == "k"
        inner = outer.body  # … so the binding goes around the loop
        assert isinstance(inner, ast.LetExpr) and inner.var == "hoisted#1"
        assert inner.value == parse_expression("count($k/sub)")
        assert isinstance(inner.body, ast.ForExpr)
        assert inner.body.body == ast.VarRef("hoisted#1")

    def test_fixpoint_body(self):
        module, hoisted = _hoisted(
            PROLOG + "declare variable $hoisted := 7; "
            "with $x seeded by $d//item[@n = '0'] "
            "recurse $x/following-sibling::item[@v = $d//item[@n = '0']/@v]")
        # a user's own $hoisted cannot clash: no query text can spell "#"
        assert [decl.name for decl in module.variables] == ["d", "hoisted#1", "hoisted"]
        assert hoisted["hoisted#1"] == optimize(parse_expression("$d//item[@n = '0']/@v"))
        # the seed runs once: it stays where it is
        assert module.body.seed == optimize(parse_expression("$d//item[@n = '0']"))

    def test_doc_call_needs_a_prolog_proof(self):
        # no initializer evaluates doc("d.xml"): it could raise, it stays
        _, hoisted = _hoisted('declare variable $one := 1; '
                              'for $i in (1, 2) return doc("d.xml")//item')
        assert not hoisted
        module, hoisted = _hoisted(
            'declare variable $early := 1; declare variable $r := doc("d.xml")/root; '
            'for $i in (1, 2) return doc("d.xml")//item')
        assert list(hoisted.values()) == [optimize(parse_expression('doc("d.xml")//item'))]
        assert [decl.name for decl in module.variables] == ["early", "r", "hoisted#1"]

    @pytest.mark.parametrize("body, moved", [
        ("$d//item[@v = 1]", None),       # numeric comparison may raise FORG0001
        ("$d//item[@v + 1]", None),       # arithmetic on untyped content
        ("$d//item[position() = last()]", None),  # only position() op N is total
        ("local:g($d)", None),            # user functions are opaque
        ("$p//item", None),               # a parameter: may be atomic, varies
        # only the invariant operand moves, not the expression around it:
        ("($d//item, <e/>)", "$d//item"),         # a node per iteration
        ("$d//item/string(.)", "$d//item"),       # not an axis step
        ("$i/sub[. = $d//sub]", "$d//sub"),       # reads the loop variable
    ])
    def test_kept_in_place(self, body, moved):
        _, hoisted = _hoisted(
            PROLOG + "declare function local:g($p) { for $i in $p return " + body + " }; "
            "local:g($d//item)")
        expected = [] if moved is None else [optimize(parse_expression(moved))]
        assert list(hoisted.values()) == expected

    def test_outer_focus_is_not_hoisted(self):
        module, hoisted = _hoisted(
            PROLOG + "$d//item/(for $i in (1, 2) return (./sub, sub[last()], position()))")
        assert not hoisted
        assert module.body == optimize(parse_expression(
            "$d//item/(for $i in (1, 2) return (./sub, sub[last()], position()))"))

    def test_recursion_variable_through_a_parameter(self):
        module, hoisted = _hoisted(
            PROLOG + "declare function local:f($p) { $p/sub[. = '1'] }; "
            "with $x seeded by $d//item recurse local:f($x)")
        assert not hoisted
        assert module.functions[0].body == parse_expression("$p/sub[. = '1']")

    def test_pruned_functions_are_not_hoisted_from(self):
        # pruning runs first: a helper nothing calls (directly or through
        # another unused helper) must not cost an eager prolog variable
        module, hoisted = _hoisted(
            PROLOG + "declare function local:unused($p) { $p[. = $d//sub] }; "
            "declare function local:also($p) { local:unused($p)/$d//item }; "
            "count($d//item)")
        assert not hoisted and not module.functions
        assert [decl.name for decl in module.variables] == ["d"]

    def test_the_walk_runs_only_when_a_loop_reads_an_outer_variable(self, monkeypatch):
        from repro.xquery import optimizer

        def walked(self, body):
            raise AssertionError("the hoister walked")

        monkeypatch.setattr(optimizer._Hoister, "run", walked)
        # $d only feeds a seed, a for sequence and a let outside every loop;
        # the loops read their own variables — and are still optimized
        for quiet in (
                PROLOG + "declare function local:f($p) { for $i in $p/sub return $i/.. }; "
                "with $x seeded by $d//item[@n = '0'] recurse local:f($x)",
                PROLOG + "for $i in $d//item return if (1 = 1) then $i/@n else 1 + 1",
                PROLOG + "let $k := $d//item return (some $i in $k satisfies $i/@v = '3')",
                PROLOG + "$d//item[@v = '3']"):
            module = parse_query(quiet)
            assert optimize_module(module) == optimize_module(module, hoist=False)
        for loud in (
                PROLOG + "for $i in (1, 2) return $d",
                PROLOG + "let $k := 1 return for $i in (1, 2) return $k",
                PROLOG + "declare function local:f($p) { $p[. = $d] }; local:f(1)",
                PROLOG + 'some $i in (1, 2) satisfies doc("e.xml")'):
            with pytest.raises(AssertionError, match="the hoister walked"):
                optimize_module(parse_query(loud))

    def test_nothing_to_look_for_without_prolog_variables(self):
        module = parse_query('for $i in (1, 2) return doc("d.xml")//item')
        assert optimize_module(module).body == optimize(module.body)


# ---------------------------------------------------------------------------
# property tests: rewrites on vs off, three engines, randomized documents
# ---------------------------------------------------------------------------


def _random_document(rng: random.Random) -> str:
    """A small randomized item tree exercising paths, predicates and ids."""
    parts = ["<root>"]
    for index in range(rng.randint(2, 6)):
        value = rng.randint(0, 9)
        parts.append(f'<item n="{index}" v="{value}">')
        for _ in range(rng.randint(0, 3)):
            parts.append(f"<sub>{rng.randint(0, 99)}</sub>")
        parts.append(f"{value}</item>")
    parts.append("</root>")
    return "".join(parts)


#: Each query exercises at least one rewrite (folding, dead branches,
#: unused lets, descendant fusion, unused functions) against live data, so
#: an unsound rewrite shows up as an on/off or cross-engine mismatch.
PROPERTY_QUERIES = (
    'let $unused := 1 return count(doc("d.xml")//item)',
    'if (true()) then doc("d.xml")//sub else ()',
    'if (2 < 3) then count(doc("d.xml")//item) else -1',
    'for $i in doc("d.xml")//item return 2 + 3',
    'doc("d.xml")//item[count(sub) >= 1 * 1]/@n',
    'count(for $i in doc("d.xml")//item return $i) + (2 * 3)',
    'let $v := (1, 2) let $unused := () return count($v)',
    'declare function local:unused() { doc("missing.xml")/x }; '
    'count(doc("d.xml")//item)',
    'for $i in doc("d.xml")//item '
    'return if (false()) then $i else string($i/@v)',
    'doc("d.xml")//item[@v = "3"]',
    '(if (1) then 10 else 20) + (-(2 + 3))',
    'for $s in doc("d.xml")//sub return string($s)',
    # invariant hoisting: prolog variables, a let around the loop, a
    # fixpoint body, a function a fixpoint calls, a prolog chain
    PROLOG + 'for $i in $d//item return $d//item[@v = "3"]/@n',
    PROLOG + 'let $k := $d//item return for $i in (1, 2) return count($k/sub)',
    PROLOG + 'with $x seeded by $d//item[@n = "0"] '
             'recurse $x/following-sibling::item[@v = $d//item[@n = "0"]/@v]',
    PROLOG + 'declare function local:same($in) '
             '{ for $v in $in/@v return $d/root/item[@v = $v] }; '
             'with $x seeded by $d//item[@n = "1"] recurse local:same($x)',
    PROLOG + 'declare variable $items := $d//item; '
             'for $i in (1, 2) return count($items[sub = $items/@v])',
    PROLOG + 'for $i in () return doc("missing.xml")//item[@v = 1 div 0]',
    PROLOG + 'for $i in (1, 2) return <e>{count($d//sub)}</e>',
    PROLOG + '$d//item/(for $i in (1, 2) return ./sub)',
    # a hoisted (or plain prolog) multi-item value as the loop body's whole
    # result: each iteration delivers it contiguously and in its own order
    PROLOG + 'for $i in (1, 2) return $d//item/@n',
    PROLOG + 'for $i in (1, 2) return data($d//item/@n)',
    PROLOG + 'for $i in (1, 2) return $d//item[@v = data($d//item/@v)]/@n',
    PROLOG + 'for $i in (1, 2) return for $j in (3, 4) return $d//item/@n',
    'declare variable $k := (1, 2); for $i in (1, 2) return $k',
    PROLOG + 'let $k := $d//item/@n return for $i in (1, 2) return $k',
    # a sequence expression or an if/else inside a loop: the algebra's ∪ is
    # operand-major, each iteration must still deliver its own items in turn
    'for $p in (1, 2) return ($p, "x")',
    'for $p in (1, 2, 3) return if ($p = 2) then "a" else "b"',
    PROLOG + 'for $i in $d//item return (string($i/@n), if ($i/sub) then "s" else "-")',
)


def _run(query: str, documents, engine: str, optimized: bool) -> str:
    settings = EvalSettings(engine=engine, optimize=optimized)
    result = evaluate(query, documents=documents, settings=settings)
    return serialize_sequence(result.items)


@pytest.mark.parametrize("seed", [7, 23, 91])
def test_rewrites_item_identical_across_engines(seed):
    rng = random.Random(seed)
    for _ in range(2):
        documents = {"d.xml": parse_xml(_random_document(rng))}
        for query in PROPERTY_QUERIES:
            outcomes = {
                (engine, optimized): _run(query, documents, engine, optimized)
                for engine in ENGINES
                for optimized in (True, False)
            }
            distinct = set(outcomes.values())
            assert len(distinct) == 1, (
                f"seed {seed}, query {query!r}: divergent results {outcomes}")


@pytest.mark.parametrize("engine", ENGINES)
def test_errors_survive_optimization(engine):
    """Rewrites never mask an error the unoptimized query raises."""
    for query in ("1 div 0", "let $u := $missing return 2",
                  # hoisting must not make a lazily failing operand eager,
                  # nor hide the failure of one that is evaluated
                  PROLOG + 'for $i in (1, 2) return doc("missing.xml")//item',
                  PROLOG + 'for $i in (1, 2) return $d//item[@v = 1 div 0]'):
        for optimized in (True, False):
            with pytest.raises(XQueryError):
                evaluate(query, settings=EvalSettings(
                    engine=engine, optimize=optimized))
    # an unused-but-failing let must behave the same with rewrites on and
    # off (the optimizer keeps lets whose value could raise; whether the
    # engine then evaluates them eagerly is the engine's own contract)
    def raises(optimized: bool) -> bool:
        try:
            evaluate("let $u := 1 div 0 return 2",
                     settings=EvalSettings(engine=engine, optimize=optimized))
        except XQueryError:
            return True
        return False

    assert raises(True) == raises(False)


def test_fixpoint_queries_unchanged_by_rewrites(curriculum_resolver,
                                                curriculum_document):
    """The tentpole path: rewrites on/off do not perturb IFP results."""
    query = ('with $x seeded by '
             'doc("curriculum.xml")/curriculum/course[@code="c1"] '
             'recurse id($x/prerequisites/pre_code)')
    outcomes = set()
    for engine in ENGINES:
        for optimized in (True, False):
            settings = EvalSettings(engine=engine, optimize=optimized,
                                    distributivity_checker="analysis")
            result = evaluate(query, documents=curriculum_resolver,
                              context_item=curriculum_document,
                              settings=settings)
            outcomes.add(serialize_sequence(result.items))
    assert len(outcomes) == 1


# ---------------------------------------------------------------------------
# The rewrite table against the four-call chain it replaced
# ---------------------------------------------------------------------------
#
# Below, verbatim, the previous optimizing pass: ``_map_children`` reflecting
# over every dataclass field, the chain of four rewrites run on every node
# (leaves included), each behind its own ``isinstance`` guard, and the scout
# built on them.  Pruning and the hoister are the module's own on both sides.

def oracle_optimize(expr: ast.Expr) -> ast.Expr:
    """Return an optimized copy of *expr* (the input is never mutated)."""
    return _rewrite(_map_children(expr, oracle_optimize))


def _rewrite(expr: ast.Expr) -> ast.Expr:
    """The local rewrites at one node whose children are already optimized."""
    rewritten = _fold_constants(expr)
    rewritten = _eliminate_dead_branch(rewritten)
    rewritten = _fuse_descendant_step(rewritten)
    return _prune_unused_let(rewritten)



def _called_keys(expr: ast.Expr) -> set[tuple[str, int]]:
    keys: set[tuple[str, int]] = set()
    pending = [expr]  # (a flat walk: the generator costs a frame per level and node)
    while pending:
        node = pending.pop()
        if type(node) is ast.FunctionCall:
            keys.add((node.name, len(node.args)))
        pending.extend(node.child_expressions())
    return keys


def _prune_unused_functions(functions: tuple[ast.FunctionDecl, ...],
                            variables: tuple[ast.VariableDecl, ...],
                            body: ast.Expr) -> tuple[ast.FunctionDecl, ...]:
    if not functions:
        return functions
    declared = {(function.name, function.arity) for function in functions}
    worklist = _called_keys(body)
    for declaration in variables:
        if declaration.value is not None:
            worklist |= _called_keys(declaration.value)
    reachable: set[tuple[str, int]] = set()
    while worklist:
        key = worklist.pop()
        if key in reachable or key not in declared:
            continue
        reachable.add(key)
        for function in functions:
            if (function.name, function.arity) == key:
                worklist |= _called_keys(function.body)
    return tuple(f for f in functions if (f.name, f.arity) in reachable)


def oracle_optimize_module(module: ast.Module, hoist: bool = True) -> ast.Module:
    """Optimize every function body, variable initializer and the query body,
    drop function declarations the call graph cannot reach, then hoist the
    invariants of what is left (*hoist* false leaves that rule out: the
    baseline of the overhead guard in ``benchmarks/check_overhead.py``).

    Pruning comes first: an invariant inside a function nothing calls must
    not become a prolog variable every engine evaluates eagerly.  Hoisted
    expressions never call a declared function, so hoisting cannot change
    what is reachable.

    Everything hoistable bottoms out in a prolog variable — directly, or as
    the proof that a ``doc()`` call succeeds.  A module without one has
    nothing to look for; one with prolog variables is optimized by a
    :class:`_Scout`, which notes on the way whether the rule's own walk
    could find anything."""
    scout = None
    visit = oracle_optimize
    #: prolog variables with a value, each bound at loop depth 0
    prolog = {decl.name: 0 for decl in module.variables if decl.value is not None}
    if hoist and prolog:
        scout = _OracleScout(prolog)
        visit = scout.visit
        scout.depth = 1  # a function body runs once per call: a loop body as a whole
    functions = tuple(
        replace(function, body=visit(function.body)) for function in module.functions
    )
    if scout is not None:
        scout.depth = 0  # initializers and the query body run once
    variables = tuple(
        replace(decl, value=visit(decl.value)) if decl.value is not None else decl
        for decl in module.variables
    )
    body = visit(module.body)
    functions = _prune_unused_functions(functions, variables, body)
    if scout is not None and scout.found:
        functions, variables, body = _Hoister(functions, variables).run(body)
    return ast.Module(functions=functions, variables=variables, body=body)



_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _map_children(expr, function):
    """*expr* with *function* applied to every child expression (fields
    and tuples of them); the same object when nothing changed."""
    kind = type(expr)
    names = _FIELD_NAMES.get(kind)
    if names is None:
        names = _FIELD_NAMES[kind] = tuple(f.name for f in fields(kind))
    updates = {}
    for name in names:
        value = getattr(expr, name)
        new_value = _map_value(value, function)
        if new_value is not value:
            updates[name] = new_value
    if not updates:
        return expr
    return replace(expr, **updates)  # type: ignore[type-var]


def _map_value(value, function):
    if isinstance(value, ast.Expr):
        return function(value)
    if isinstance(value, tuple):
        new_items = tuple(_map_value(item, function) for item in value)
        if all(new is old for new, old in zip(new_items, value)):
            return value
        return new_items
    return value



def _fuse_descendant_step(expr: ast.Expr) -> ast.Expr:
    """Fuse the two steps produced by the ``//`` abbreviation into one."""
    if not isinstance(expr, ast.PathExpr):
        return expr
    right = expr.right
    left = expr.left
    if (
        isinstance(right, ast.AxisStep)
        and right.axis == "child"
        and isinstance(left, ast.PathExpr)
        and _is_all_nodes_step(left.right)
        and all(_position_free(predicate) for predicate in right.predicates)
    ):
        fused_step = ast.AxisStep("descendant", right.node_test, right.predicates)
        return ast.PathExpr(left.left, fused_step)
    return expr



def _fold_constants(expr: ast.Expr) -> ast.Expr:
    if isinstance(expr, ast.UnaryExpr):
        value = _numeric_literal(expr.operand)
        if value is not None:
            return ast.Literal(-value if expr.op == "-" else +value)
        return expr
    if isinstance(expr, ast.ArithmeticExpr):
        left = _numeric_literal(expr.left)
        right = _numeric_literal(expr.right)
        if left is None or right is None:
            return expr
        if expr.op == "+":
            return ast.Literal(left + right)
        if expr.op == "-":
            return ast.Literal(left - right)
        if expr.op == "*":
            return ast.Literal(left * right)
        # division family: only with a provably non-zero divisor, and only
        # matching the evaluator's semantics exactly
        if right == 0 or (isinstance(right, float) and math.isnan(right)):
            return expr
        if expr.op == "div":
            return ast.Literal(left / right)
        if expr.op == "idiv" and isinstance(left, int) and isinstance(right, int):
            quotient = abs(left) // abs(right)
            return ast.Literal(quotient if (left >= 0) == (right >= 0) else -quotient)
        if expr.op == "mod" and isinstance(left, int) and isinstance(right, int):
            remainder = abs(left) % abs(right)
            return ast.Literal(remainder if left >= 0 else -remainder)
        return expr
    if isinstance(expr, (ast.ValueComparison, ast.GeneralComparison)):
        return _fold_comparison(expr)
    return expr



def _fold_comparison(expr: ast.Expr) -> ast.Expr:
    op = _COMPARISON_OPS.get(expr.op)
    if op is None:
        return expr
    left = _numeric_literal(expr.left)
    right = _numeric_literal(expr.right)
    if left is None or right is None:
        # same-type string comparison folds too; anything else is left
        # alone (mixed-type comparisons raise at runtime)
        if not (isinstance(expr.left, ast.Literal) and isinstance(expr.right, ast.Literal)
                and isinstance(expr.left.value, str) and isinstance(expr.right.value, str)):
            return expr
        left, right = expr.left.value, expr.right.value
    result = {
        "==": left == right, "!=": left != right,
        "<": left < right, "<=": left <= right,
        ">": left > right, ">=": left >= right,
    }[op]
    return ast.Literal(result)



def _eliminate_dead_branch(expr: ast.Expr) -> ast.Expr:
    if not isinstance(expr, ast.IfExpr):
        return expr
    verdict = _static_ebv(expr.condition)
    if verdict is None:
        return expr
    return expr.then_branch if verdict else expr.else_branch



def _prune_unused_let(expr: ast.Expr) -> ast.Expr:
    if not isinstance(expr, ast.LetExpr):
        return expr
    if expr.var in expr.body.free_variables():
        return expr
    if not _provably_error_free(expr.value):
        return expr
    return expr.body



_SCOUTED = frozenset({ast.VarRef, ast.LetExpr, ast.FunctionCall, *_LOOP_FIELDS})


class _OracleScout(optimizer._Scout):
    __slots__ = ()

    def visit(self, expr: ast.Expr) -> ast.Expr:
        """:func:`optimize` of *expr*, noting what is read at which depth."""
        kind = type(expr)
        if kind in _SCOUTED:
            if kind is ast.VarRef:
                depth = self.depth
                if depth and depth > self.bound.get(expr.name, depth):
                    self.found = True
                return expr  # inspected, and no rewrite applies to it
            if kind is ast.LetExpr:
                self.bound[expr.var] = min(self.depth, self.bound.get(expr.var, self.depth))
            elif kind is ast.FunctionCall:
                if self.depth and _local_name(expr) == "doc":
                    self.found = True
            else:
                # the sequence or seed runs once, at this depth; the body deeper
                once, repeated = _LOOP_FIELDS[kind]
                head, body = getattr(expr, once), getattr(expr, repeated)
                new_head = self.visit(head)
                self.depth += 1
                new_body = self.visit(body)
                self.depth -= 1
                if new_head is not head or new_body is not body:
                    expr = replace(expr, **{once: new_head, repeated: new_body})
                return _rewrite(expr)
        return _rewrite(_map_children(expr, self.visit))



def oracle(module: ast.Module, hoist: bool, monkeypatch) -> ast.Module:
    """The verbatim front end, then the one step it did not have: marking
    the set-at-a-time loops (``ForExpr.whole``) of what it returns."""
    with monkeypatch.context() as patched:  # the hoister's walk maps children too
        patched.setattr(ast, "map_children", _map_children)
        optimized = oracle_optimize_module(module, hoist)
    graph = optimizer._CallGraph(optimized.functions, optimized.variables, optimized.body)
    return ast.Module(*optimizer._set_at_a_time(
        graph, optimized.functions, optimized.variables, optimized.body))


#: The expression forms no repository query uses, with something to rewrite
#: inside each.
OTHER_FORMS = (
    "typeswitch (1 + 1) case $n as xs:integer return -(2) case node() return //a "
    "default $o return (1 to 2 * 3)",
    "some $q in //a satisfies every $r in $q//b satisfies $r is $q",
    "<a b='{1 + 1}' c=\"x\">t{ //a/b }<c/></a>",
    "element e { attribute {concat('a', 'b')} { 1 = 1 }, text { if (1) then 2 else 3 } }",
    "ordered { (//a intersect //b) except //c } | unordered { . }",
    "(1 cast as xs:string?, //a instance of node()*, - //a/@n, let $u := 1 return 2)",
    "//a[1][b = 'x' and (1 eq 1 or c)]/..[@k << /]/descendant::text()",
)


def _modules() -> list[ast.Module]:
    """The repository's own query texts, the hoisting tests' queries and the
    rewrite generators above, as modules — plus every rewrite target wrapped
    so that it sits in a loop, in a prolog variable and in a function."""
    texts = [*front_end_corpus(), *PROPERTY_QUERIES, *OTHER_FORMS]
    texts += [f"{PROLOG}for $i in $d//item return ({query}, $d//item[@k = $i/@k])"
              for query in PROPERTY_QUERIES]
    texts += [f"declare variable $g := {query}; declare function f($p) {{ {query} }}; "
              f"declare function unused() {{ 1 }}; (f(1), $g)"
              for query in PROPERTY_QUERIES]
    modules = []
    for text in texts:
        try:
            modules.append(parse_query(text))
        except XQuerySyntaxError:
            continue  # prose and documents from examples/
    return modules


def _expressions(module: ast.Module):
    """Every expression node of *module*."""
    for root in (*(f.body for f in module.functions),
                 *(d.value for d in module.variables if d.value is not None), module.body):
        yield from root.iter_subexpressions()


def test_the_rule_table_is_the_four_call_chain(monkeypatch):
    modules = _modules()
    assert len(modules) > 700
    whole = 0
    for module in modules:
        for hoist in (True, False):
            optimized = optimize_module(module, hoist)
            assert optimized == oracle(module, hoist, monkeypatch)
        assert optimize(module.body) == oracle_optimize(module.body)
        whole += any(getattr(node, "whole", False) for node in _expressions(optimized))
    assert whole >= 5  # the comparison covers the new step


def test_the_child_plan_finds_every_child():
    """``ast.CHILD_FIELDS`` names the fields the reflection walk found: all
    of the hand-written ``children()`` overrides' children, and an axis
    step's node test."""
    from tests.test_ast_binders import oracle_children

    seen = set()
    for module in _modules():
        for node in module.body.iter_subexpressions():
            seen.add(type(node))
            planned = []
            for name, is_tuple in ast.CHILD_FIELDS[type(node)]:
                value = getattr(node, name)
                planned.extend(value if is_tuple else [value] if value is not None else [])
            reflected = []
            for field in fields(node):
                value = getattr(node, field.name)
                reflected.extend(item for item in (value if isinstance(value, tuple) else [value])
                                 if isinstance(item, ast.Expr))
            assert [id(child) for child in planned] == [id(child) for child in reflected]
            assert [id(child) for child in planned if not isinstance(child, ast.NodeTest)] \
                == [id(child) for child, _bound in oracle_children(node)]
    assert seen | {ast.NodeTest} == set(ast.CHILD_FIELDS) == set(ast.Expr.__subclasses__())
