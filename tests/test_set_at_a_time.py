"""The set-at-a-time ``for`` (Definition 3.1 read right to left).

A ``for $v in E return R`` whose value is only ever consumed as a node set
and whose ``R`` distributes over ``$v`` is marked ``whole`` by the optimizer,
and every engine then evaluates ``R`` once over all of ``E`` instead of once
per item.  These tests pin which loops are marked (and which must stay per
item), that the answers do not move on any engine, that the EXISTENTIAL
rule the marking relies on is sound, and what the marking saves: the
bidder closure's value probes per round.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import evaluate
from repro.distributivity import apply_distributivity_hint
from repro.distributivity.syntactic import SET_AT_A_TIME, analyze_distributivity
from repro.session import Session
from repro.settings import EvalSettings
from repro.xdm.items import is_node
from repro.xmlio.parser import parse_xml
from repro.xquery import ast, pushdown
from repro.xquery.context import DocumentResolver
from repro.xquery.optimizer import optimize_module
from repro.xquery.parser import parse_expression, parse_query

from tests.conftest import benchmark_modules

ENGINES = ("interpreter", "algebra", "sql")

#: The reference mode: every rewrite, index, kernel and cache off, Naive everywhere.
REFERENCE = EvalSettings.reference()


def whole_flags(query: str) -> list[bool]:
    """``whole`` of every ``for`` in the optimized module, in document order."""
    module = optimize_module(parse_query(query))
    roots = [function.body for function in module.functions]
    roots += [declaration.value for declaration in module.variables if declaration.value]
    roots.append(module.body)
    return [node.whole for root in roots for node in root.iter_subexpressions()
            if isinstance(node, ast.ForExpr)]


# ---------------------------------------------------------------------------
# which loops are marked
# ---------------------------------------------------------------------------

D = 'doc("g.xml")'
SEED = f'{D}//n[@id = "n0"]'
FUNCTION = "declare function f($a as node()*) as node()* {{ {body} }};\n"


class TestWhichLoops:
    @pytest.mark.parametrize("query", [
        # the recursion body, and what a set context reaches from it
        f"with $x seeded by {SEED} recurse for $y in $x return $y/id(./r)",
        f"with $x seeded by {SEED} recurse let $k := 1 return for $y in $x return $y/..",
        f"with $x seeded by {SEED} recurse if ({D}//m) then for $y in $x return $y/.. else ()",
        f"with $x seeded by {SEED} recurse ($x/.., for $y in $x return $y/m)",
        f"with $x seeded by {SEED} recurse $x/.. | ordered {{ for $y in $x return $y/m }}",
        # EXISTENTIAL, on a step and on a filter
        f"with $x seeded by {SEED} recurse for $y in $x/@k return {D}//n[@k = $y]",
        f"with $x seeded by {SEED} recurse for $y in $x/r return ({D}//n)[@id = $y]",
        f'with $x seeded by {SEED} recurse for $y in $x return {D}//n[@k = "a"][@id = $y/r]',
        # a function whose every call sits in a set context
        FUNCTION.format(body="for $y in $a return $y/id(./r)")
        + f"with $x seeded by {SEED} recurse f($x)",
        FUNCTION.format(body="for $y in $a return $y/id(./r)")
        + f"count(with $x seeded by {SEED} recurse (f($x), f($x/..)))",
    ])
    def test_marked(self, query):
        assert whole_flags(query) == [True]

    def test_the_bidder_loop_is_marked(self):
        _, ops, _ = benchmark_modules()
        for naive in (False, True):
            assert whole_flags(ops.closure_text("bidder", "person7", naive=naive)) == [True]

    def test_nested_loops_are_marked_each(self):
        query = (f"with $x seeded by {SEED} recurse "
                 "for $y in $x return for $z in $y/id(./r) return $z/m")
        assert whole_flags(query) == [True, True]

    @pytest.mark.parametrize("query", [
        # an ``at $i`` loop
        f"with $x seeded by {SEED} recurse for $y at $i in $x return $y/id(./r)",
        # $v on both sides of a comparison
        f"with $x seeded by {SEED} recurse for $y in $x return {D}//n[$y/@k = $y/r]",
        # [$v]
        f"with $x seeded by {SEED} recurse for $y in $x/@k return {D}//n[$y]",
        # [p($v)][1]: the position depends on what p kept
        f"with $x seeded by {SEED} recurse for $y in $x/@k return {D}//n[@k = $y][1]",
        # count($v)
        f"with $x seeded by {SEED} recurse for $y in $x return {D}//n[count($y) = 1]",
        # a constructor
        f"with $x seeded by {SEED} recurse for $y in $x return (<a/>, $y/..)",
        # a function also called outside a set context
        FUNCTION.format(body="for $y in $a return $y/id(./r)")
        + f"(f({D}//n), with $x seeded by {SEED} recurse f($x))",
        # an ``as node()`` return type (declared types are not enforced)
        FUNCTION.format(body="for $y in $a return $y/id(./r)").replace(
            "as node()* {", "as node() {")
        + f"with $x seeded by {SEED} recurse f($x)",
        # not a set context: the seed, a filter's primary, a comparison
        f"with $x seeded by (for $y in {D}//n return $y/m) recurse $x/..",
        f"with $x seeded by {SEED} recurse (for $y in $x return $y/..)[1]",
        f"for $y in {D}//n return $y/m",
    ])
    def test_stays_per_item(self, query):
        assert whole_flags(query) == [False]

    @pytest.mark.parametrize("body, marked", [("$x[1]/id(./r)", False), ("$x/id(./r)", True)])
    def test_a_hint_is_checked_not_trusted(self, body, marked):
        """The distributivity hint is the author's claim; the marking checks
        it — ``$y[1]`` is the node itself per item, the first of the set
        over the whole."""
        hinted = "for $y in $x return " + body.replace("$x", "$y")
        assert parse_expression(hinted) == apply_distributivity_hint(
            parse_expression(body), "x", "y")
        assert whole_flags(f"with $x seeded by {SEED} recurse {hinted}") == [marked]

    def test_reference_mode_marks_nothing(self):
        query = f"with $x seeded by {SEED} recurse for $y in $x return $y/id(./r)"
        assert not parse_query(query).body.body.whole  # the parser never sets it
        resolver = resolver_for(graph_xml(random.Random(3), size=6))
        assert items(query, resolver) == items(query, resolver, settings=REFERENCE)


# ---------------------------------------------------------------------------
# random documents: a graph of n elements with IDs, references and values
# ---------------------------------------------------------------------------


def graph_xml(rng: random.Random, size: int | None = None) -> str:
    size = size or rng.randrange(2, 10)
    parts = []
    for index in range(size):
        refs = "".join(f"<r>n{rng.randrange(size)}</r>" for _ in range(rng.randrange(0, 4)))
        children = "".join(f'<m k="{rng.choice("ab")}"/>' for _ in range(rng.randrange(0, 2)))
        parts.append(f'<n id="n{index}" k="{rng.choice("abc")}">{refs}{children}</n>')
    return f"<g>{''.join(parts)}</g>"


def resolver_for(xml: str) -> DocumentResolver:
    resolver = DocumentResolver()
    resolver.register("g.xml", parse_xml(xml))
    return resolver


def items(query: str, resolver: DocumentResolver, **options) -> list:
    """The answer, nodes by identity."""
    result = evaluate(query, documents=resolver, **{"use_cache": False, **options}).items
    return [("node", id(item)) if is_node(item) else (type(item), item) for item in result]


#: Set-context loops: ``{x}`` is the recursion variable.
LOOPS = (
    "for $y in {x} return $y/id(./r)",
    "for $y in {x}/@k return D//n[@k = $y]",
    "for $y in {x}/r return (D//n)[@id = $y]",
    'for $y in {x} return D//n[@k = "a"][@id = $y/r]',
    "for $y in {x} return ($y/m, $y/..)",
    "for $y in {x} return for $z in $y/id(./r) return $z/id(./r)",
    "for $y in {x}/@k return let $z := D//n[@k = $y] return $z/id(./r)",
    'for $y in {x} return if (D//m[@k = "b"]) then $y/id(./r) else $y/m',
    "for $y in {x} return $y/m | D//n[@id = $y/r]",
    # per item, whatever the context
    "for $y at $i in {x} return $y/id(./r)",
    "for $y in {x} return ($y/id(./r))[1]",
)


class TestAnswersDoNotMove:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), loop=st.sampled_from(LOOPS),
           start=st.sampled_from(('@id = "n0"', '@id = "n1"', '@k = "a"', '@k = "b"')),
           naive=st.booleans(), in_function=st.booleans())
    def test_every_engine_against_reference_mode(self, seed, loop, start, naive, in_function):
        resolver = resolver_for(graph_xml(random.Random(seed)))
        using = " using naive" if naive else ""
        seed_path = f"D//n[{start}]"
        if in_function:
            query = (FUNCTION.format(body=loop.format(x="$a"))
                     + f"with $x seeded by {seed_path} recurse f($x){using}")
        else:
            query = f"with $x seeded by {seed_path} recurse {loop.format(x='$x')}{using}"
        query = query.replace("D", D)
        expected = items(query, resolver, settings=REFERENCE)
        for engine in ENGINES:
            assert items(query, resolver, engine=engine) == expected, engine


# ---------------------------------------------------------------------------
# EXISTENTIAL is sound: R(A ∪ B) = R(A) ∪ R(B)
# ---------------------------------------------------------------------------

#: Bodies the rule accepts (each derivation uses it).
EXISTENTIAL_BODIES = (
    "D//n[@k = $v/@k]",
    "D//n[@id = $v/r]",
    "(D//m)[@k = $v/@k]",
    "D//n[r = $v/@id]",
    'D//n[@k = "a"][@id = $v/r]',
    "D//n[1][@k = $v/@k]",
    "D//n[position() > 1][@k != $v/@k]",
    "(D//n)[last()][m/@k = $v/m/@k]",
    "let $w := D//n[@id = $v/r] return D//n[@k = $w/@k]",
)

#: Node sets to split the variable's value into.
PARTS = ('D//n[@k = "a"]', 'D//n[@k = "b"]', 'D//n[@k = "c"]', "D//n[r]", "D//n[m]",
         "D//m", "()")


@pytest.mark.parametrize("body", EXISTENTIAL_BODIES)
def test_existential_is_used(body):
    judgment = analyze_distributivity(parse_expression(body.replace("D", D)), "v",
                                      rules=SET_AT_A_TIME)
    assert judgment.safe and "EXISTENTIAL" in judgment.format()
    # and only when asked for: the fixpoint decision's checkers do not use it
    assert not analyze_distributivity(parse_expression(body.replace("D", D)), "v").safe


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), body=st.sampled_from(EXISTENTIAL_BODIES),
       a=st.sampled_from(PARTS), b=st.sampled_from(PARTS))
def test_existential_distributes_over_union(seed, body, a, b):
    resolver = resolver_for(graph_xml(random.Random(seed)))

    def applied(part: str) -> str:
        return f"(let $v := ({part}) return {body})"

    whole = applied(f"{a} | {b}")
    split = f"{applied(a)} | {applied(b)}"
    assert (items(whole.replace("D", D), resolver, settings=REFERENCE)
            == items(split.replace("D", D), resolver, settings=REFERENCE))


# ---------------------------------------------------------------------------
# what it saves: the bidder closure's value probes
# ---------------------------------------------------------------------------


class TestBidderProbes:
    @pytest.mark.parametrize("engine", ["interpreter", "sql"])
    @pytest.mark.parametrize("naive", [False, True])
    def test_one_probe_per_predicate_per_round(self, engine, naive, monkeypatch):
        """The loop body has two value predicates (``[seller/@person =
        $id]``, ``[@id = $b/@person]``), each one index probe per
        evaluation: per item that was two per fed node.  (``| $none``, an
        external variable, keeps the body off the image relation, whose
        rounds would evaluate it on nodes only to fill its memo.)"""
        corpus, ops, _ = benchmark_modules()
        documents, _ = corpus.build("tiny")
        scenarios = ops.Scenarios(documents)
        start = scenarios.start_nodes("bidder", random.Random(7))[0]
        query = "declare variable $none external;\n" + ops.closure_text(
            "bidder", start, naive=naive).replace("recurse bidder($x)",
                                                  "recurse (bidder($x) | $none)")
        none = {"none": []}
        probes = []
        probe_step = pushdown.probe_step
        monkeypatch.setattr(pushdown, "probe_step",
                            lambda *args, **kw: probes.append(1) or probe_step(*args, **kw))
        with Session({"auction.xml": documents["auction.xml"]},
                     id_attributes=corpus.ID_ATTRIBUTES) as session:
            result = session.evaluate(query, engine=engine, trace=True, variables=none)
            assert "space" not in result.trace.find("fixpoint").attributes
            rounds = [span for span in result.trace.iter_spans() if span.name == "round"]
            fed = sum(span.attributes["fed"] for span in rounds)
            # (and one for the seed's ``[@id = "…"]``)
            assert len(probes) == 1 + 2 * len(rounds) < 1 + 2 * fed
            cleared = per_item(optimize_module(parse_query(query)))
            probes.clear()
            assert ops.canonical_items("bidder", session.evaluate_query(
                cleared, engine=engine, optimize=False, variables=none).items) == ops.canonical_items(
                    "bidder", result.items)
            assert len(probes) == 1 + 2 * fed


def per_item(module: ast.Module) -> ast.Module:
    """*module* with every ``whole`` cleared."""
    def clear(expr):
        if isinstance(expr, ast.ForExpr):
            expr = dataclasses.replace(expr, whole=False, body=clear(expr.body),
                                       sequence=clear(expr.sequence))
        elif isinstance(expr, ast.LetExpr):
            expr = dataclasses.replace(expr, value=clear(expr.value), body=clear(expr.body))
        return expr
    return dataclasses.replace(module, functions=tuple(
        dataclasses.replace(function, body=clear(function.body))
        for function in module.functions))
