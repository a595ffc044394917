"""Predicate pushdown: batch kernels vs the naive focus loop, all engines.

The property suite generates randomized documents and runs every pushable
predicate shape — attribute/child value comparisons (literal and variable
right-hand sides), existence tests, positional predicates — through each
engine with pushdown on and off, cross-checking against the fully naive
interpreter (no index, no pushdown).  Results must be *item-identical*
(same node objects in the same order), which is the contract that lets the
engines switch paths freely.

The invalidation tests pin the value-mutation hooks: after ``set_value``
on an attribute or text node the value inverted indexes must never serve
stale entries, while the structural arrays survive untouched.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.distributivity import analyze_plan_pushup
from repro.algebra.operators import Fixpoint, StepJoin, ValueEqualJoin
from repro.api import evaluate
from repro.errors import AlgebraError, ReproError, XQueryDynamicError
from repro.xdm import index as xdm_index
from repro.xdm.node import ElementNode, TextNode
from repro.xmlio.parser import parse_xml
from repro.xquery import pushdown
from repro.xquery.context import DocumentResolver
from repro.xquery.parser import parse_expression

ENGINES = ("interpreter", "algebra", "sql")

#: Engine × table backend (only the algebra engine has one to choose).
ENGINE_BACKENDS = (("interpreter", None), ("algebra", "columnar"), ("algebra", "row"),
                   ("sql", None))


# ---------------------------------------------------------------------------
# randomized documents
# ---------------------------------------------------------------------------


def random_document(seed: int):
    """A random small tree over a fixed name/value pool (parsed XML)."""
    rng = random.Random(seed)
    names = ["item", "sub", "wrap"]
    attr_names = ["k", "m"]
    values = [f"v{i}" for i in range(4)]
    texts = [f"t{i}" for i in range(3)]

    def element(depth: int) -> str:
        name = rng.choice(names)
        attributes = "".join(
            f' {attr}="{rng.choice(values)}"'
            for attr in attr_names if rng.random() < 0.6
        )
        if rng.random() < 0.5:
            attributes += f' n="{rng.randrange(4)}"'
        if depth >= 3 or rng.random() < 0.3:
            return f"<{name}{attributes}>{rng.choice(texts)}</{name}>"
        children = "".join(element(depth + 1)
                           for _ in range(rng.randrange(1, 4)))
        return f"<{name}{attributes}>{children}</{name}>"

    body = "".join(element(1) for _ in range(rng.randrange(3, 7)))
    return parse_xml(f"<root>{body}</root>")


#: Query bodies over the random documents; {d} is the fn:doc call.
PREDICATE_QUERIES = [
    '{d}//item[@k = "v1"]',
    '{d}//item[@k = $v]',
    '{d}//item[@m]',
    '{d}//item[sub = "t1"]',
    '{d}//item[sub = $v]',
    '{d}//wrap[sub]',
    '{d}//item[2]',
    '{d}//item[last()]',
    '{d}//item[position() < 3]',
    '{d}//wrap/item[position() >= 2]',
    '{d}//item[@k = "v2"][2]',
    '{d}//item[@k = "v0"][sub]',
    '{d}//sub/ancestor::item[1]',
    '{d}//item/preceding-sibling::item[1]',
    '{d}//item[@n = 2]',          # numeric rhs: must fall back, still agree
    '{d}//item[@k = "v1"][count(sub) >= 0]',  # unrecognized tail predicate
    # relative-path left-hand sides (the path-value index)
    '{d}//wrap[item/@k = $v]',
    '{d}//wrap[item/sub = "t1"]',
    '{d}/root/item[item/item/@k = "v2"]',
    '{d}//*[item/@k = $v]',       # wildcard step: filtered, not probed
    '{d}//item[sub/@n = 2]',      # numeric rhs behind a path: falls back
    # focus-free computed right-hand sides, multi-valued
    '{d}//item[@k = {d}//sub/@k]',
    '{d}//item[@k = ($v, "v3")]',
    'for $w in {d}//wrap return {d}//item[@k = $w/item/@k]',
    'for $w in {d}//wrap return {d}//item[sub/@m = $w/@m]/@n',
    '{d}//item[@n = count({d}/root/wrap)]',   # computed numeric: falls back
]

VARIABLES = {"v": ["v1", "t1"]}


def _has_positional(query: str) -> bool:
    expr = parse_expression(
        query.format(d='doc("r.xml")').replace("$v", '"v1"'))
    return any(
        isinstance(pushdown.recognize_predicate(predicate), pushdown.PositionShape)
        for sub in expr.iter_subexpressions()
        if hasattr(sub, "predicates")
        for predicate in sub.predicates
    )


def _evaluate(query: str, resolver, engine: str, use_pushdown: bool,
              use_index: bool = True, optimize: bool = True):
    prolog = "declare variable $v external;\n" if "$v" in query else ""
    return evaluate(prolog + query.format(d='doc("r.xml")'),
                    documents=resolver, variables=VARIABLES, engine=engine,
                    use_pushdown=use_pushdown, use_index=use_index,
                    optimize=optimize, use_cache=False).items


class TestPropertyCrossEngine:
    @pytest.mark.parametrize("doc_seed", range(6))
    @pytest.mark.parametrize("query", PREDICATE_QUERIES)
    def test_all_engines_match_naive_interpreter(self, doc_seed, query):
        resolver = DocumentResolver()
        resolver.register("r.xml", random_document(doc_seed))
        # Ground truth: per-item focus loops over naive axis walks of the
        # query as written (no rewrite).
        expected = _evaluate(query, resolver, "interpreter",
                             use_pushdown=False, use_index=False, optimize=False)
        positional = _has_positional(query)
        # The interpreter without the index (naive kernels) agrees too.
        got = _evaluate(query, resolver, "interpreter", use_pushdown=True,
                        use_index=False)
        assert len(got) == len(expected) and all(
            a is b for a, b in zip(got, expected)), "interpreter, no index"
        for engine in ENGINES:
            for use_pushdown in (True, False):
                if engine == "algebra" and positional and not use_pushdown:
                    # The classical algebra compiler rejects positional
                    # predicates; pushdown is what added the capability.
                    with pytest.raises(AlgebraError):
                        _evaluate(query, resolver, engine, use_pushdown)
                    continue
                got = _evaluate(query, resolver, engine, use_pushdown)
                assert len(got) == len(expected), (
                    f"{engine} pushdown={use_pushdown}: "
                    f"{len(got)} items, expected {len(expected)}")
                assert all(a is b for a, b in zip(got, expected)), (
                    f"{engine} pushdown={use_pushdown}: items differ")


AUCTION = """
declare variable $doc := doc("a.xml");
declare function bidder ($in as node()*) as node()*
{ for $id in $in/@id
  let $b := $doc//open_auction[seller/@person = $id]/bidder/personref
  return $doc//people/person[@id = $b/@person]
};
"""


def auction_document(seed: int, people: int = 12, auctions: int = 18):
    rng = random.Random(seed)
    persons = "".join(f'<person id="p{i}"><name>n{i % 4}</name></person>'
                      for i in range(people))
    def auction(index: int) -> str:
        bidders = "".join(
            f'<bidder><personref person="p{rng.randrange(people)}"/></bidder>'
            for _ in range(rng.randrange(1, 4)))
        return (f'<open_auction id="a{index}"><seller person="p{index % people}"/>'
                f'{bidders}</open_auction>')

    body = "".join(auction(index) for index in range(auctions))
    return parse_xml(f"<site><people>{persons}</people>"
                     f"<open_auctions>{body}</open_auctions></site>")


class TestJoinShapesCrossEngine:
    """The bidder-network join body: ``seller/@person = $id`` (a relative
    path on the left) and ``@id = $b/@person`` (a computed, multi-valued
    right-hand side) — every engine, pushdown and index on and off."""

    QUERIES = [
        AUCTION + 'bidder($doc//person[@id = "p0"])',
        AUCTION + 'with $x seeded by $doc//person[@id = "p1"] recurse bidder($x)',
        AUCTION + 'with $x seeded by $doc//person[@id = "p2"] recurse bidder($x) using naive',
        AUCTION + 'with $x seeded by $doc//person[@id = "p3"] recurse bidder($x) using delta',
        # the recursion variable reaches the step macro through its value input only
        AUCTION + 'with $x seeded by $doc//person[@id = "p1"] recurse '
                  'let $b := $doc//open_auction[seller/@person = $x/@id]/bidder/personref '
                  'return $doc//person[@id = $b/@person]',
        AUCTION + '$doc//open_auction[bidder/personref/@person = "p3"]/@id',
        AUCTION + '$doc//person[name = $doc//person[@id = ("p1", "p6")]/name]',
    ]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("query", QUERIES)
    def test_item_identical(self, seed, query):
        resolver = DocumentResolver()
        resolver.register("a.xml", auction_document(seed))
        run = lambda **settings: evaluate(  # noqa: E731
            query, documents=resolver, use_cache=False, **settings).items
        expected = run(engine="interpreter", use_pushdown=False, use_index=False,
                       optimize=False)
        assert expected, "the join found nothing to compare"
        for engine, backend in ENGINE_BACKENDS:
            for use_pushdown in (True, False):
                for use_index in (True, False):
                    got = run(engine=engine, backend=backend,
                              use_pushdown=use_pushdown, use_index=use_index)
                    assert _same_items(got, expected), (
                        f"{engine}/{backend} pushdown={use_pushdown} index={use_index}")

    @pytest.mark.parametrize("query", QUERIES[1:5])
    def test_the_join_does_not_move_the_fixpoint_decision(self, query):
        """Under the plan-based checker µ or µ∆ is decided on the compiled
        body.  The step macro is the ``step`` template whichever input
        ``$x`` reaches it through, so the decision is the one the classical
        plan (pushdown off: no value input, no value join) gets — and the
        rounds are the interpreter's.  (Figure 5 has no rule for the last
        body: on default settings it runs µ, on every engine.)"""
        resolver = DocumentResolver()
        resolver.register("a.xml", auction_document(1))

        def fixpoint(**settings):
            trace = evaluate(query, documents=resolver, use_cache=False, trace=True,
                             **settings).trace
            (span,) = [span for span in trace.iter_spans() if span.name == "fixpoint"]
            rounds = [(child.attributes["fed"], child.attributes["produced"],
                       child.attributes["new"])
                      for child in span.children if child.name == "round"]
            return span.attributes, rounds

        attributes, rounds = fixpoint(engine="algebra",
                                      distributivity_checker="algebraic")
        expected = "mu" if "using naive" in query else "mu_delta"
        assert attributes["variant"] == expected
        assert fixpoint(engine="algebra", distributivity_checker="algebraic",
                        use_pushdown=False)[0]["variant"] == expected
        _, interpreted = fixpoint(
            engine="interpreter",
            ifp_algorithm="delta" if expected == "mu_delta" else "naive")
        assert len(rounds) > 2 and rounds == interpreted

    def test_join_body_leaves_no_fallbacks(self):
        """Both predicates of the body ride batch kernels: no per-candidate
        predicate evaluation, and the steps are probed from the index."""
        resolver = DocumentResolver()
        resolver.register("a.xml", auction_document(0))
        result = evaluate(self.QUERIES[1], documents=resolver, use_cache=False,
                          trace=True)
        kernels = {span.name[len("kernel:"):]: span.attributes
                   for span in result.trace.children if span.name.startswith("kernel:")}
        assert "pred:fallback" not in kernels
        assert kernels["step:probe"]["batch"] > 0
        assert kernels["step:probe"]["fallback"] == 0


#: Step predicates whose right-hand side is *computed* — a variable, or
#: predicate-free steps from a node-valued one — over :func:`random_document`:
#: the shapes the algebra's step macro takes as value inputs.
COMPUTED_RHS_QUERIES = [
    'for $c in {d}//wrap return {d}//item[@k = $c/@k]',
    'for $c in {d}//item return {d}//wrap[item/@k = $c/@m]',      # path = path
    'for $c in {d}//sub return {d}//item[sub = $c]',              # element content
    'for $c in {d}//sub/@k return {d}//item[$c = @k]',            # reversed operands
    'for $c in {d}//wrap return {d}//*[@k = $c/@k][@m = $c//*/@m]',  # two computed
    'for $c in {d}//wrap return {d}//item[@k = $c/@k][1]',        # a position behind …
    'for $c in {d}//wrap return {d}//wrap/*[1][@k = $c/@k]',      # … and in front
    'for $c in {d}//wrap return {d}//item[@m][@k = $c/@k][last()]/@k',
    'for $c in {d}//wrap return {d}//item[@k = $c//item/@k]',     # several values
    'for $c in {d}//wrap return {d}//item[@k = $c/@none]',        # no value
    'let $w := {d}//wrap return {d}//*[@k = $w/@k][@m]',          # one iteration, many values
    'for $c in ("v1", "v2", "nope") return {d}//item[@k = $c]',   # atomic variable
    'for $c in {d}//wrap return $c/*[@k = $c/*/@m]',              # contexts differ per iteration
    'for $c in {d}//wrap return {d}//item/sub[@k = $c/@k]',       # several context nodes
    'for $c in {d}//wrap return {d}//item/ancestor::wrap[@k = $c/@k]',  # an axis nothing probes
    '{d}//wrap/(for $c in item return ../*[@k = $c/@k])',         # inside a general path map
    'for $c in {d}//wrap[count(item) >= 1] return {d}//item[@k = $c/@k]',  # a filtered variable
]


class TestComputedRhsJoin:
    """The step macro as a join by value: every engine, every switch, both
    table backends must agree item for item — and in order — with the focus
    loop over naive axis walks."""

    @pytest.mark.parametrize("doc_seed", range(4))
    @pytest.mark.parametrize("query", COMPUTED_RHS_QUERIES)
    def test_item_identical(self, doc_seed, query):
        resolver = DocumentResolver()
        resolver.register("r.xml", random_document(doc_seed))
        run = lambda **settings: evaluate(  # noqa: E731
            query.format(d='doc("r.xml")'), documents=resolver, use_cache=False,
            **settings).items
        expected = run(engine="interpreter", use_pushdown=False, use_index=False,
                       optimize=False)
        positional = _has_positional(query)
        for engine, backend in ENGINE_BACKENDS:
            for use_pushdown in (True, False):
                for use_index in (True, False):
                    settings = dict(engine=engine, backend=backend,
                                    use_pushdown=use_pushdown, use_index=use_index)
                    if engine == "algebra" and positional and not use_pushdown:
                        with pytest.raises(AlgebraError):
                            run(**settings)
                        continue
                    assert _same_items(run(**settings), expected), settings

    def test_the_queries_select_something(self):
        sizes = dict.fromkeys(COMPUTED_RHS_QUERIES, 0)
        for doc_seed in range(4):
            documents = {"r.xml": random_document(doc_seed)}
            for query in COMPUTED_RHS_QUERIES:
                sizes[query] += len(evaluate(query.format(d='doc("r.xml")'),
                                             documents=documents, use_cache=False).items)
        assert all(size >= 2 for query, size in sizes.items()
                   if "@none" not in query), sizes

    # -- (c) values that are not strings keep general-comparison semantics

    NUMBERS = ('<r><a n="07" t="u"/><a n="8" t="w"/><a n="7.0"><c>7</c><c>x</c></a>'
               '<a n="9"/></r>')

    @pytest.mark.parametrize("query, expected", [
        ('for $k in (7, 8) return {d}//a[@n = $k]/@n', ["07", "7.0", "8"]),
        ('let $k := (8, "9") return {d}//a[@n = $k]/@n', ["8", "9"]),
        ('for $k in (7, 7.0) return {d}//a[c = $k]/@n', ["7.0", "7.0"]),  # "7" = 7 before "x" = 7
        ('for $k in (7, 8) return {d}//a[@n = $k][1]/@n', ["07", "8"]),
        ('for $k in (7, 8) return {d}//none[@n = $k]', []),
        # one input numeric (compared per candidate), one strings (hashed)
        ('for $k in (7, 8) return for $s in ("u", "w") return {d}//a[@n = $k][@t = $s]/@n',
         ["07", "8"]),
    ])
    def test_numeric_values_promote_like_the_interpreter(self, query, expected):
        documents = {"n.xml": self.NUMBERS}
        for engine, backend in ENGINE_BACKENDS:
            for use_index in (True, False):
                result = evaluate(query.format(d='doc("n.xml")'), documents=documents,
                                  engine=engine, backend=backend, use_index=use_index,
                                  use_cache=False)
                assert result.string_values() == expected, (engine, backend, use_index)

    def test_a_value_that_cannot_be_promoted_is_the_interpreters_error(self):
        from repro.errors import XQueryTypeError

        documents = {"n.xml": '<r><a n="07"/><a n="x"/></r>'}
        for engine, backend in ENGINE_BACKENDS:
            with pytest.raises(XQueryTypeError) as caught:
                evaluate('for $k in (7, 8) return doc("n.xml")//a[@n = $k]',
                         documents=documents, engine=engine, backend=backend,
                         use_cache=False)
            assert caught.value.code == "FORG0001", engine

    # -- (b) a predicate that is never evaluated does not raise

    RAISING = [
        # (right-hand side, the error it raises on the algebra engine)
        ("$v/@n div 0", XQueryDynamicError),
        ("$atomic/@n", AlgebraError),
    ]

    @pytest.mark.parametrize("rhs, error", RAISING)
    def test_a_side_that_may_raise_is_not_an_input(self, rhs, error):
        """The macro evaluates its value inputs for every iteration, with
        or without candidates; a side that can raise therefore stays with
        the value join, which evaluates it only where a candidate exists."""
        documents = {"n.xml": '<r><a n="1"/><w n="2"/></r>'}
        query = ('for $v in doc("n.xml")//w, $atomic in (1, 2) '
                 'return doc("n.xml")//{step}[@n = ' + rhs + ']')
        for backend in ("columnar", "row"):
            run = lambda step: evaluate(  # noqa: E731
                query.format(step=step), documents=documents, engine="algebra",
                backend=backend, use_cache=False).items
            assert run("none") == []
            with pytest.raises(error):
                run("a")
        assert evaluate(query.format(step="none"), documents=documents,
                        use_cache=False).items == []
        plan = _compiled_plans(query.format(step="a"), documents)[0]
        assert any(isinstance(op, ValueEqualJoin) for op in plan.iter_operators())
        assert all(len(op.children) == 1 for op in plan.iter_operators()
                   if isinstance(op, StepJoin))

    def test_a_filtered_node_variable_still_steps_into_an_input(self):
        """Node-ness is handed on by every plan that re-addresses or selects
        a node-valued plan's items — loop lifts, ``for`` item plans, a
        generic predicate's survivors — so a step from such a variable is
        accepted, not sent back to the value join."""
        documents = {"r.xml": random_document(0)}
        (plan,) = _compiled_plans(
            'let $d := doc("r.xml") for $c in $d//wrap[count(item) >= 1] '
            'return for $i in (1, 2) return $d//item[@k = $c/@k]', documents)
        (step,) = [op for op in plan.iter_operators()
                   if isinstance(op, StepJoin) and op.node_test_name == "item" and op.pushed]
        assert len(step.children) == 2
        assert not any(isinstance(op, ValueEqualJoin) for op in plan.iter_operators())

    # -- (d) positional shapes around a computed one

    def test_a_position_in_front_ends_the_pushed_prefix(self):
        documents = {"r.xml": random_document(0)}
        query = 'for $v in doc("r.xml")//wrap return doc("r.xml")//item{predicates}'

        def last_step(predicates):
            plan = _compiled_plans(query.format(predicates=predicates), documents)[0]
            steps = [op for op in plan.iter_operators()
                     if isinstance(op, StepJoin) and op.node_test_name == "item"]
            joins = [op for op in plan.iter_operators() if isinstance(op, ValueEqualJoin)]
            return steps, joins

        (step,), joins = last_step("[@k = $v/@k][2]")
        assert [shape.kind for shape in step.pushed] == ["attr-eq", "positional"]
        assert len(step.children) == 2 and not joins
        (step,), joins = last_step("[2][@k = $v/@k]")
        assert [shape.kind for shape in step.pushed] == ["positional"]
        assert len(step.children) == 1 and len(joins) == 1

    # -- (e) the per-node memo never answers for other values

    def test_the_step_memo_is_not_shared_between_iterations(self):
        from repro.algebra.evaluator import AlgebraEvaluator
        from repro.algebra.operators import LiteralTable
        from repro.algebra.table import Table

        document = parse_xml('<r><a k="x"/><a k="y"/><a k="x"/></r>')
        shape = pushdown.recognize_predicate(parse_expression("@k = $v"))
        contexts = LiteralTable(Table(("iter", "pos", "item"),
                                      [(1, 1, document), (2, 1, document), (3, 1, document)]))
        values = LiteralTable(Table(("iter", "pos", "item"),
                                    [(1, 1, "x"), (2, 1, "y"), (3, 1, "x"), (3, 2, "y")]))
        for axis, pushed in (("descendant", (shape,)),
                             ("descendant", (shape, pushdown.PositionShape("=", 1)))):
            step = StepJoin(contexts, axis, "name", "a", pushed=pushed,
                            values=[values], comparison=lambda a, b: a == b)
            for use_index in (True, False):
                table = AlgebraEvaluator(use_index=use_index).evaluate_plan(step)
                got = [(iteration, item.get_attribute("k").value)
                       for iteration, item in table.iter_item_pairs()]
                if len(pushed) == 1:
                    assert got == [(1, "x"), (1, "x"), (2, "y"),
                                   (3, "x"), (3, "y"), (3, "x")]
                else:
                    assert got == [(1, "x"), (2, "y"), (3, "x")]

    # -- (f) no value in the plan; the value index is invalidated between runs

    def test_a_compiled_plan_reads_fresh_values(self):
        """Re-running one plan object (what a plan-cache hit does) after
        ``set_value`` on either side of the comparison answers from the
        document as it is now."""
        from repro.algebra.evaluator import AlgebraEvaluator

        document = parse_xml('<r><a k="x" id="1"/><a k="y" id="2"/><v j="x"/></r>')
        documents = {"r.xml": document}
        query = 'for $v in doc("r.xml")//v return doc("r.xml")//a[@k = $v/@j]/@id'
        (plan,) = _compiled_plans(query, documents)
        rerun = lambda: [item.value for item in  # noqa: E731
                         AlgebraEvaluator().evaluate_plan(plan).column_values("item")]
        assert rerun() == ["1"]
        first, second, value = document.document_element().children
        second.get_attribute("k").set_value("x")   # a candidate's value
        assert rerun() == ["1", "2"]
        value.get_attribute("j").set_value("y")    # the right-hand side's
        first.get_attribute("k").set_value("y")
        assert rerun() == ["1"]
        assert evaluate(query, documents=documents, use_cache=False).string_values() == ["1"]
        joins = [op for op in plan.iter_operators()
                 if isinstance(op, StepJoin) and len(op.children) == 2]
        assert len(joins) == 1
        assert joins[0].pushed[0].values is None and joins[0]._pushed_values == (None,)

    # -- the bidder network of Table 2, through the macro

    def test_the_bidder_body_probes_and_holds_no_value_join(self, monkeypatch):
        resolver = DocumentResolver()
        resolver.register("a.xml", auction_document(0))
        query = TestJoinShapesCrossEngine.QUERIES[1]
        plans = _capture_plans(monkeypatch)
        result = evaluate(query, documents=resolver, engine="algebra",
                          distributivity_checker="algebraic",
                          use_cache=False, trace=True)
        (fixpoint,) = [op for op in plans[0].iter_operators() if isinstance(op, Fixpoint)]
        body = list(fixpoint.body_plan.iter_operators())
        assert not any(isinstance(op, ValueEqualJoin) for op in body)
        joins = [op for op in body if isinstance(op, StepJoin) and op.pushed]
        assert [len(op.children) for op in joins] == [2, 2]
        # (g) $x reaches both macros through their value inputs; they are
        # crossed as ``step`` templates and nothing blocks the ∪ on its way up
        report = analyze_plan_pushup(fixpoint.body_plan, fixpoint.recursion_input)
        assert all(op.template == "step" for op in joins)
        assert report.distributive and report.big_steps >= 3
        assert fixpoint.variant == "mu_delta"
        kernels = {span.name[len("kernel:"):]: span.attributes
                   for span in result.trace.children if span.name.startswith("kernel:")}
        assert kernels["step:probe"]["batch"] > 0
        assert kernels["step:probe"]["fallback"] == 0
        rounds = lambda trace: [  # noqa: E731
            (span.attributes["fed"], span.attributes["produced"], span.attributes["new"])
            for span in trace.find_all("round")]
        interpreted = evaluate(query, documents=resolver, use_cache=False, trace=True)
        assert len(rounds(result.trace)) > 2
        assert rounds(result.trace) == rounds(interpreted.trace)

    # -- (g) … except behind a position: first(A ∪ B) ≠ first(A) ∪ first(B)

    @staticmethod
    def chain_document(seed: int, count: int = 7):
        """``n`` elements linked by ``@next`` along a random permutation, so
        following the links visits them out of document order."""
        order = list(range(1, count))
        random.Random(seed).shuffle(order)
        successor = dict(zip([0] + order, order))
        return parse_xml("<r>" + "".join(
            f'<n id="n{i}"' + (f' next="n{successor[i]}"' if i in successor else "") + "/>"
            for i in range(count)) + "</r>")

    SLICED = ('declare variable $d := doc("c.xml"); '
              'with $x seeded by $d//n[@id = "n0"] recurse {body}{using}')

    @pytest.mark.parametrize("body", ['$d//n[@id = $x/@next][1]',
                                      '$d//n[@id = $x/@next][last()]/self::n'])
    def test_a_position_behind_a_value_input_blocks_delta(self, body):
        """``$d//n[@id = $x/@next][1]`` keeps the first of what *all* of
        ``$x`` links to: not distributive in the value input, so the macro
        is no ``step`` template there and the algebra engine runs µ — like
        the interpreter, whose syntactic check sees ``$x`` in a predicate."""
        for seed in range(6):
            resolver = DocumentResolver()
            resolver.register("c.xml", self.chain_document(seed))
            for using in ("", " using naive", " using delta"):
                query = self.SLICED.format(body=body, using=using)
                run = lambda **settings: evaluate(  # noqa: E731
                    query, documents=resolver, use_cache=False, **settings)
                expected = run(engine="interpreter", use_pushdown=False,
                               use_index=False).items
                for engine, backend in ENGINE_BACKENDS:
                    for use_index in (True, False):
                        got = run(engine=engine, backend=backend, use_index=use_index,
                                  trace=True)
                        assert _same_items(got.items, expected), (seed, using, engine, backend)
                        if engine == "algebra":
                            (span,) = got.trace.find_all("fixpoint")
                            assert span.attributes["variant"] == (
                                "mu_delta" if "delta" in using else "mu")
                with pytest.raises(AlgebraError):  # as ever without pushdown
                    run(engine="algebra", use_pushdown=False)
        # the counterexample is one: Delta, when forced, answers differently
        naive, delta = (evaluate(self.SLICED.format(body=body, using=using),
                                 documents=resolver, use_cache=False).items
                        for using in (" using naive", " using delta"))
        assert len(delta) > len(naive)

    def test_only_a_position_behind_a_computed_shape_stops_the_template(self):
        document = parse_xml("<r/>")
        from repro.algebra.operators import LiteralTable
        from repro.algebra.table import Table

        table = LiteralTable(Table(("iter", "pos", "item"), [(1, 1, document)]))
        computed = pushdown.recognize_predicate(parse_expression("@k = $v"))
        constant = pushdown.ValueShape("attr", "k", values=("x",))
        first = pushdown.PositionShape("=", 1)

        def macro(*pushed):
            inputs = [table] * sum(shape is computed for shape in pushed)
            return StepJoin(table, "child", "name", "a", pushed=pushed, values=inputs,
                            comparison=lambda a, b: a == b)

        for pushed in ((), (first,), (constant, first), (computed,), (computed, constant),
                       (first, computed)):
            assert macro(*pushed).template == "step" and macro(*pushed).union_pushable
        for pushed in ((computed, first), (constant, computed, constant, first),
                       (first, computed, first)):
            assert macro(*pushed).template is None and not macro(*pushed).union_pushable

    def test_without_pushdown_the_plan_is_the_classical_one(self):
        documents = {"a.xml": auction_document(0)}
        for query in TestJoinShapesCrossEngine.QUERIES:
            (plan,) = _compiled_plans(query, documents, use_pushdown=False)
            for operator in plan.iter_operators():
                if isinstance(operator, StepJoin):
                    assert not operator.pushed and len(operator.children) == 1


def _capture_plans(monkeypatch) -> list:
    """Every plan the algebra evaluator is handed from now on."""
    from repro.algebra.evaluator import AlgebraEvaluator

    plans: list = []
    evaluate_plan = AlgebraEvaluator.evaluate_plan

    def capture(self, plan):
        plans.append(plan)
        return evaluate_plan(self, plan)

    monkeypatch.setattr(AlgebraEvaluator, "evaluate_plan", capture)
    return plans


def _compiled_plans(query: str, documents, **settings) -> list:
    """The plan(s) the algebra engine compiles for *query*."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        plans = _capture_plans(monkeypatch)
        try:
            evaluate(query, documents=documents, engine="algebra", use_cache=False,
                     **settings)
        except ReproError:  # the plan is what is asked for, not the answer
            pass
        return plans


FIXPOINT_QUERY = """
with $x seeded by doc("g.xml")//n[@id = "n0"]
recurse $x/id(./next)/self::n[@kind = "even"]{using}
"""


def linked_document(step: int = 3, count: int = 20):
    xml = "<g>" + "".join(
        f'<n id="n{i}" kind="{"odd" if i % 2 else "even"}">'
        f"<next>n{(i + step) % count}</next></n>"
        for i in range(count)) + "</g>"
    return parse_xml(xml, id_attributes=("id",))


class TestFixpointCrossEngine:
    @pytest.mark.parametrize("using", ["", " using naive", " using delta"])
    def test_predicate_fixpoint_item_identical(self, using):
        resolver = DocumentResolver()
        resolver.register("g.xml", linked_document(step=2))
        query = FIXPOINT_QUERY.format(using=using)
        expected = None
        for engine in ENGINES:
            for use_pushdown in (True, False):
                got = evaluate(query, documents=resolver, engine=engine,
                               use_pushdown=use_pushdown, use_cache=False).items
                if expected is None:
                    expected = got
                    assert got, "closure unexpectedly empty"
                assert len(got) == len(expected)
                assert all(a is b for a, b in zip(got, expected)), (
                    f"{engine} pushdown={use_pushdown} using={using!r}")


# ---------------------------------------------------------------------------
# batch ``id``: E/id(p) set-at-a-time vs the per-item focus loop
# ---------------------------------------------------------------------------


def idref_document(seed: int, prefix: str = "n", count: int = 14):
    """A random link graph whose references exercise ``fn:id``'s tokenizer:
    multi-token IDREFS, leading/trailing/tab/newline whitespace, dangling
    references, references in attributes and behind a filtered child."""
    rng = random.Random(seed)

    def refs(limit: int) -> str:
        tokens = [f"{prefix}{rng.randrange(count)}" for _ in range(rng.randrange(1, limit + 1))]
        if rng.random() < 0.3:
            tokens.append("dangling")
        return rng.choice(["", " ", "\t", "\n "]) + rng.choice([" ", "\t", "  "]).join(tokens) \
            + rng.choice(["", " ", "\t"])

    nodes = []
    for index in range(count):
        groups = "".join(
            f'<grp k="{rng.choice("ab")}"><to>{refs(2)}</to></grp>'
            for _ in range(rng.randrange(1, 4)))
        nexts = "".join(f"<next>{refs(3)}</next>" for _ in range(rng.randrange(1, 3)))
        nodes.append(f'<n id="{prefix}{index}" kind="{"odd" if index % 2 else "even"}" '
                     f'ref="{refs(2).replace(chr(10), " ")}">{nexts}{groups}</n>')
    return parse_xml("<g>" + "".join(nodes) + "</g>", id_attributes=("id",))


ID_PROLOG = 'declare variable $d := doc("g.xml");\n'

#: Paths whose right-hand side is the recognized ``id`` shape (or, marked,
#: a shape that must decline) over :func:`idref_document`.
ID_QUERIES = [
    '$d//n[@kind = "even"]/id(./next)',                 # multi-token IDREFS
    '$d//n/id(next)',                                   # no leading "."
    '$d//n/id(./@ref)',                                 # attribute argument
    '$d//n/fn:id(./grp[@k = "a"]/to)',                  # predicate inside the chain
    '$d//n/id(./grp[@k = $v]/to)',                      # … with a variable right-hand side
    '$d//n/id(.//to)',                                  # descendant step
    '$d//n[@kind = "odd"]/id(.)',                       # the context item itself
    '$d//n/next/id(.)/id(./next)',                      # two hops
    '$d//n/id(./next[1])',                              # positional: declined
    '$d//n/id(./next[last()]/self::next)',              # positional: declined
    'with $x seeded by $d//n[@id = "n0"] recurse $x/id(./next)',
    'with $x seeded by $d//n[@id = "n1"] recurse $x/id(./@ref) using naive',
    'with $x seeded by $d//n[@id = "n2"] recurse $x/id(./grp[@k = "b"]/to) using delta',
    # adhoc's q1-function: the path behind a prolog function …
    'declare function local:pre($c as node()*) as node()* { $c/id(./next) };\n'
    'with $x seeded by $d//n[@id = "n3"] recurse local:pre($x)',
    # … and q2: under a test on the whole of $x (not distributive, Naive)
    'with $x seeded by $d//n[@id = "n0"] recurse '
    'if (count($x) < 4) then $x/id(./next) else ()',
]


def _same_items(got, expected) -> bool:
    return len(got) == len(expected) and all(a is b for a, b in zip(got, expected))


class TestBatchIdCrossEngine:
    @staticmethod
    def _run(query, documents, **settings):
        prolog = "declare variable $v external;\n" if "$v" in query else ""
        return evaluate(prolog + ID_PROLOG + query, documents=documents,
                        variables={"v": ["a"]}, use_cache=False, **settings).items

    @pytest.mark.parametrize("doc_seed", range(4))
    @pytest.mark.parametrize("query", ID_QUERIES)
    def test_kernel_matches_the_per_item_loop(self, doc_seed, query):
        documents = {"g.xml": idref_document(doc_seed)}
        # Ground truth: the per-item focus loop around fn:id.
        expected = self._run(query, documents, engine="interpreter",
                             use_index=False, use_pushdown=False, optimize=False)
        positional = "[1]" in query or "last()" in query
        for engine in ENGINES:
            for use_index in (True, False):
                for use_pushdown in (True, False):
                    if engine == "algebra" and positional and not use_pushdown:
                        # only the step macro gives the algebra positions
                        with pytest.raises(AlgebraError):
                            self._run(query, documents, engine=engine,
                                      use_index=use_index, use_pushdown=False)
                        continue
                    got = self._run(query, documents, engine=engine,
                                    use_index=use_index, use_pushdown=use_pushdown)
                    assert _same_items(got, expected), (
                        f"{engine} index={use_index} pushdown={use_pushdown}: "
                        f"{len(got)} items, expected {len(expected)}")

    @pytest.mark.parametrize("backend", ["columnar", "row"])
    def test_the_general_path_map_orders_nodes_and_keeps_atomic_duplicates(self, backend):
        """``E1/E2`` with a right-hand side that is neither a step nor the
        ``id`` shape: nodes come out in document order without duplicates,
        atomic values as they are, a mix is ``XPTY0018`` — on the algebra
        engine as in the interpreter."""
        from repro.errors import XQueryTypeError

        documents = {"g.xml": idref_document(0)}
        run = lambda query, **settings: self._run(  # noqa: E731
            query, documents, **settings)
        for query in ('$d//n/id(./next[1])',          # map order is not document order
                      '$d//n/(next, @kind)',
                      '$d//n/(if (@kind = "odd") then id(./next) else .)'):
            expected = run(query, engine="interpreter", use_index=False,
                           use_pushdown=False, optimize=False)
            got = run(query, engine="algebra", backend=backend)
            assert len(expected) > 2 and _same_items(got, expected), query
        kinds = run('$d//n/string(@kind)', engine="algebra", backend=backend)
        assert kinds == run('$d//n/string(@kind)', engine="interpreter")
        assert len(kinds) == 14 and set(kinds) == {"even", "odd"}
        nested = 'for $k in ("even", "odd") return $d//n[@kind = $k]/string(@id)'
        assert run(nested, engine="algebra", backend=backend) == run(
            nested, engine="interpreter")
        with pytest.raises(XQueryTypeError) as caught:
            run('$d//n/(@kind, 1)', engine="algebra", backend=backend)
        assert caught.value.code == "XPTY0018"

    def test_the_closures_are_not_trivial(self):
        documents = {"g.xml": idref_document(0)}
        sizes = [len(self._run(query, documents, engine="interpreter"))
                 for query in ID_QUERIES]
        assert min(sizes) >= 2, sizes

    @pytest.mark.parametrize("engine", ["interpreter", "sql"])
    @pytest.mark.parametrize("query", [
        '(doc("a.xml")//n, doc("b.xml")//n)/id(./next)',
        '(doc("b.xml")//n[@kind = "odd"], doc("a.xml")//n)/id(./@ref)',
        'with $x seeded by (doc("a.xml")//n[@id = "n0"], doc("b.xml")//n[@id = "n1"]) '
        'recurse $x/id(./next)',
    ])
    def test_colliding_ids_resolve_in_the_context_nodes_document(self, engine, query):
        """Both documents use the IDs n0…n13: a left column mixing their
        nodes must look each reference up in the referring node's document."""
        documents = {"a.xml": idref_document(1), "b.xml": idref_document(2)}
        run = lambda **settings: evaluate(  # noqa: E731
            query, documents=documents, use_cache=False, **settings).items
        expected = run(engine="interpreter", use_index=False, use_pushdown=False)
        roots = {id(node.root()) for node in expected}
        assert len(roots) == 2, "the answer should span both documents"
        for use_index in (True, False):
            assert _same_items(run(engine=engine, use_index=use_index), expected)

    @pytest.mark.parametrize("engine", ["interpreter", "sql"])
    @pytest.mark.parametrize("use_index", [True, False])
    def test_atomic_left_item_is_a_type_error(self, engine, use_index):
        from repro.errors import XQueryTypeError

        documents = {"g.xml": idref_document(0)}
        with pytest.raises(XQueryTypeError) as caught:
            evaluate(ID_PROLOG + '($d//n, "n1")/id(.)', documents=documents,
                     engine=engine, use_index=use_index, use_cache=False)
        assert caught.value.code == "XPTY0019"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_user_function_called_id_shadows_the_kernel(self, engine):
        documents = {"g.xml": idref_document(0)}
        query = ('declare function id($v as node()*) as node()* { $v/parent::n };\n'
                 + ID_PROLOG + '$d//n/id(./next)')
        expected = evaluate(ID_PROLOG + '$d//n[next]', documents=documents,
                            use_cache=False).items
        for use_index in (True, False):
            got = evaluate(query, documents=documents, engine=engine,
                           use_index=use_index, use_cache=False).items
            assert expected and _same_items(got, expected)

    def test_the_kernel_is_counted(self):
        """One ``step:id`` batch per path application; a recognized shape
        the kernel declines counts as a fallback; an unrecognized one (a
        positional predicate) is not the kernel's to count."""
        documents = {"g.xml": idref_document(0)}

        def kernels(query, **settings):
            result = evaluate(ID_PROLOG + query, documents=documents,
                              use_cache=False, trace=True, **settings)
            return {span.name[len("kernel:"):]: span.attributes
                    for span in result.trace.children if span.name.startswith("kernel:")}

        counted = kernels('with $x seeded by $d//n[@id = "n0"] recurse $x/id(./next)')
        assert counted["step:id"]["batch"] >= 2 and counted["step:id"]["fallback"] == 0
        assert "step:child" not in counted  # the chain runs inside the kernel
        declined = kernels('$d//n/id(./grp[@k = "a"]/to)', use_pushdown=False)
        assert declined["step:id"] == {**declined["step:id"], "batch": 0, "fallback": 1}
        assert "step:id" not in kernels('$d//n/id(./next[1])')
        assert "step:id" not in kernels('$d//n/id(./next)', use_index=False)


class TestIdStepRecognizer:
    @pytest.mark.parametrize("text, steps", [
        ("id(.)", 0), ("id(a)", 1), ("fn:id(./a/@b)", 2), ("id(.//a)", 2),
        ('id(./a[@k = "v"]/b[c])', 2), ("id(a[@k = $v])", 1),
    ])
    def test_recognized(self, text, steps):
        chain = pushdown.recognize_id_step(parse_expression(text), {})
        assert chain is not None and len(chain) == steps

    @pytest.mark.parametrize("text", [
        "id(a[1])", "id(a[last()]/b)", "id(a[position() < 3])",  # positional
        "id(a[b/c > 1])",                                          # not a pushable shape
        "id($x/a)", "id(doc('d')/a)", "id((a, b))", "id(a, .)",    # not a chain from "."
        "idref(a)", "local:id(a)", "count(a)",
    ])
    def test_declined(self, text):
        assert pushdown.recognize_id_step(parse_expression(text), {}) is None

    def test_a_declared_function_shadows_the_builtin(self):
        call = parse_expression("id(a)")
        assert pushdown.recognize_id_step(call, {("id", 2): object()}) is not None
        assert pushdown.recognize_id_step(call, {("id", 1): object()}) is None


# ---------------------------------------------------------------------------
# recognizer and positional kernel units
# ---------------------------------------------------------------------------


class TestRecognizer:
    @pytest.mark.parametrize("source, kind", [
        ('@a = "x"', "attr-eq"),
        ('"x" = @a', "attr-eq"),
        ('name = $v', "child-eq"),
        ("@a", "attr-exists"),
        ("child::name", "child-exists"),
    ])
    def test_value_shapes(self, source, kind):
        shape = pushdown.recognize_predicate(parse_expression(source))
        assert isinstance(shape, pushdown.ValueShape) and shape.kind == kind

    @pytest.mark.parametrize("source, target, name, path", [
        ('a/b/@c = $v', "attr", "c", ("a", "b")),
        ('a/b = "lit"', "child", "b", ("a",)),
        ('$v = seller/@person', "attr", "person", ("seller",)),
        ('@id = $b/@person', "attr", "id", ()),
        ('@id = data($b)', "attr", "id", ()),
        ('name = ($a, local:f($b))', "child", "name", ()),
    ])
    def test_path_and_computed_shapes(self, source, target, name, path):
        shape = pushdown.recognize_predicate(parse_expression(source))
        assert isinstance(shape, pushdown.ValueShape)
        assert (shape.target, shape.name, shape.path) == (target, name, path)
        assert shape.kind == ("path-eq" if path else f"{target}-eq")

    @pytest.mark.parametrize("values, expected", [
        (["a", "b"], ("a", "b")),
        ([], ()),
        ([1], None),          # numeric promotion: not a hash probe
        (["a", 2.5], None),
        ([True], None),       # boolean promotion neither
    ])
    def test_right_hand_side_resolution(self, values, expected):
        shape = pushdown.recognize_predicate(parse_expression("a/@k = $v"))
        assert pushdown.resolve_rhs(shape, lambda rhs: values) == expected

    @pytest.mark.parametrize("source, op, value", [
        ("3", "=", 3),
        ("last()", "=", None),
        ("position() < 4", "<", 4),
        ("2 <= position()", ">=", 2),
    ])
    def test_positional_shapes(self, source, op, value):
        shape = pushdown.recognize_predicate(parse_expression(source))
        assert isinstance(shape, pushdown.PositionShape)
        assert (shape.op, shape.value) == (op, value)

    @pytest.mark.parametrize("source", [
        '@a != "x"',            # existential != is not set membership
        '@a = string()',        # defaults to the context item
        '@a = id("x")',         # anchors at the context node
        '@a = <e>x</e>',        # constructs a node per evaluation
        'a//b = "x"',           # not a child-step path
        'a[1]/b = "x"',         # predicate inside the path
        '@a = .',               # right-hand side reads the focus
        '@a = position()',
        '@a = 1',               # recognized shape, numeric rhs resolved later
        "position() = last()",  # unsupported comparison operand
        ". = 'x'",              # context-item comparison
        "count(a)",             # arbitrary function
    ])
    def test_rejections(self, source):
        shape = pushdown.recognize_predicate(parse_expression(source))
        if source == "@a = 1":
            # Recognized as a shape, but resolution rejects the numeric rhs.
            assert isinstance(shape, pushdown.ValueShape)
            assert pushdown.resolve_rhs(shape, lambda name: None) is None
        else:
            assert shape is None

    def test_positional_filter_matches_enumeration(self):
        items = list(range(1, 8))
        for op in ("=", "!=", "<", "<=", ">", ">="):
            for n in (-1, 0, 1, 3, 7, 9):
                shape = pushdown.PositionShape(op, n)
                expected = [item for position, item in enumerate(items, start=1)
                            if _holds(op, position, n)]
                assert pushdown.positional_filter(items, shape) == expected
        assert pushdown.positional_filter(items, pushdown.PositionShape("=", None)) == [7]
        assert pushdown.positional_filter([], pushdown.PositionShape("=", None)) == []

    @pytest.mark.parametrize("use_index", [True, False])
    def test_a_shape_takes_an_operand_predicate_in_place_of_strings(self, use_index):
        """What string membership cannot answer is asked per candidate: of
        the nodes the shape's left-hand side selects, in document order,
        until one holds — between the other shapes, in their order."""
        root = parse_xml('<r><a m="1"><b k="3"/><b k="8"/></a><a><b k="9"/></a>'
                         '<a m="1"><b k="2"/></a><a m="1"><b k="7"/></a></r>').document_element()
        shapes = [pushdown.ValueShape("attr", "m"),
                  pushdown.ValueShape("attr", "k", rhs=parse_expression("$v"), path=("b",)),
                  pushdown.PositionShape("=", 2)]
        asked: list[str] = []

        def above_five(operand) -> bool:
            asked.append(operand.value)
            return int(operand.value) > 5

        kept = pushdown.apply_shapes(root.children, shapes, [(), above_five, None],
                                     use_index=use_index)
        assert kept == [root.children[3]]
        assert asked == ["3", "8", "2", "7"]  # the element without @m is never asked


def _holds(op: str, position: int, n: int) -> bool:
    return {"=": position == n, "!=": position != n, "<": position < n,
            "<=": position <= n, ">": position > n, ">=": position >= n}[op]


# ---------------------------------------------------------------------------
# value-index invalidation (the mutation hooks)
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _clean_registry():
    xdm_index.clear_index_registry()
    yield
    xdm_index.clear_index_registry()


def _ids(items):
    return [node.get_attribute("id").value for node in items]


class TestValueIndexInvalidation:
    def build(self):
        return parse_xml(
            '<r>'
            '<n id="a" k="x"><t>alpha</t></n>'
            '<n id="b" k="y"><t>beta</t></n>'
            '<n id="c" k="x"><t>alpha</t></n>'
            '</r>')

    def test_attribute_rewrite_invalidates(self):
        doc = self.build()
        resolver = DocumentResolver()
        resolver.register("r.xml", doc)
        query = 'doc("r.xml")//n[@k = "x"]'
        assert _ids(evaluate(query, documents=resolver, use_cache=False).items) == ["a", "c"]
        first = doc.document_element().children[0]
        first.get_attribute("k").set_value("y")
        assert _ids(evaluate(query, documents=resolver, use_cache=False).items) == ["c"]

    def test_text_rewrite_invalidates(self):
        doc = self.build()
        resolver = DocumentResolver()
        resolver.register("r.xml", doc)
        query = 'doc("r.xml")//n[t = "alpha"]'
        assert _ids(evaluate(query, documents=resolver, use_cache=False).items) == ["a", "c"]
        text = doc.document_element().children[2].children[0].children[0]
        assert isinstance(text, TextNode)
        text.set_value("gamma")
        assert _ids(evaluate(query, documents=resolver, use_cache=False).items) == ["a"]

    def test_value_mutation_keeps_structural_arrays(self):
        doc = self.build()
        idx = xdm_index.index_for(doc)
        assert idx.path_value_owners((), "attr", "k")["x"]  # build the value index
        first = doc.document_element().children[0]
        first.get_attribute("k").set_value("z")
        # Same index object (structure untouched), fresh value sets.
        assert xdm_index.index_for(doc) is idx
        k_owners = idx.path_value_owners((), "attr", "k")
        assert k_owners["z"] == {idx.pre(first)}
        assert idx.pre(first) not in k_owners["x"]

    def test_index_level_sets(self):
        doc = self.build()
        idx = xdm_index.index_for(doc)
        root_element = doc.document_element()
        n_pres = {idx.pre(child) for child in root_element.children}
        assert idx.attr_owner_pres("k") == n_pres
        assert idx.child_name_parent_pres("t") == n_pres
        alpha_parents = idx.path_value_owners((), "child", "t")["alpha"]
        assert alpha_parents == {idx.pre(root_element.children[0]),
                                 idx.pre(root_element.children[2])}

    def test_structural_mutation_still_drops_whole_index(self):
        doc = self.build()
        idx = xdm_index.index_for(doc)
        assert idx.path_value_owners((), "attr", "k")["x"]
        doc.document_element().append_child(ElementNode("n"))
        assert xdm_index.cached_index(doc) is None
