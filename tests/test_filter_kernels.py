"""The algebra engine's predicates through the interpreter's kernels.

Three shapes leave the generic per-candidate predicate plan:

* a filter expression's recognized predicate prefix (constant value and
  existence shapes, positions) is one ``ShapeFilter`` macro that applies
  the batch kernels per iteration in sequence order — which also makes
  ``(E)[n]`` and ``(E)[last()]`` answerable on algebra;
* ``[not(C)]`` is the per-iteration anti-join ``loop \\ selected(C)``, and
  the value form ``not(E)`` negates the effective boolean value per
  iteration, not each item;
* a sibling step led by ``[n]`` walks to the n-th match
  (``repro.xdm.index.nth_sibling``), on both engines.

The Hypothesis cases hold algebra ≡ interpreter over random documents, with
pushdown on and off; the ``fn:not`` cases run on all three engines; the
verdict table pins what the ∪ push-up proves of the ledger's bodies (a
verdict may only move towards distributive, and a moved one is checked
Naive ≡ Delta on every engine, Theorem 3.2); the plan-shape test pins the
operators per Table-2 body.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.distributivity import analyze_plan_distributivity
from repro.algebra.evaluator import AlgebraEvaluator
from repro.algebra.operators import Fixpoint, RowTag, ShapeFilter, ValueEqualJoin
from repro.algebra.plan import plan_size
from repro.api import evaluate
from repro.errors import AlgebraError, ReproError, XQueryTypeError
from repro.session import Session
from repro.xdm.index import index_for, nth_sibling
from repro.xdm.items import is_node
from repro.xmlio.parser import parse_xml
from repro.xquery.context import DocumentResolver
from repro.xquery.parser import parse_expression, parse_query
from repro.xquery.pushdown import PositionShape, positional_filter

from tests.conftest import benchmark_modules

ENGINES = ("interpreter", "algebra", "sql")


# ---------------------------------------------------------------------------
# random documents: elements a/b/c with an optional @k, text and comments
# ---------------------------------------------------------------------------

_ATTRIBUTE = st.sampled_from(("", ' k="x"', ' k="y"'))
_NAME = st.sampled_from(("a", "b", "c"))
_leaf = st.one_of(
    st.sampled_from(("t", "u")),
    st.just("<!--m-->"),
    st.builds(lambda name, attribute: f"<{name}{attribute}/>", _NAME, _ATTRIBUTE),
)
_tree = st.recursive(_leaf, lambda children: st.builds(
    lambda name, attribute, content: f"<{name}{attribute}>{''.join(content)}</{name}>",
    _NAME, _ATTRIBUTE, st.lists(children, max_size=5)), max_leaves=24)
_document = st.lists(_tree, min_size=1, max_size=6).map(lambda parts: f"<r>{''.join(parts)}</r>")


def _answer(query: str, resolver, **options):
    """The items — nodes by identity — or the error's type."""
    try:
        items = evaluate(query.replace("D", 'doc("r.xml")'), documents=resolver,
                         use_cache=False, **options).items
    except ReproError as error:
        return type(error)
    return [("node", id(item)) if is_node(item) else (type(item), item) for item in items]


def _assert_engines_agree(xml: str, template: str, n: int | None = None) -> None:
    """Algebra and interpreter, pushdown on and off, against the
    interpreter without index, pushdown or rewrites.  A typed error must
    meet a typed error; the algebra engine without pushdown rejects
    literal positions (``AlgebraError``), as it always has — a computed one
    (``[$n]``) it counts along the candidates."""
    resolver = DocumentResolver()
    resolver.register("r.xml", parse_xml(xml))
    query = template.format(n=n)
    positional = any(literal in template for literal in ("[{n}]", "last()", "position()"))
    expected = _answer(query, resolver, engine="interpreter",
                       use_pushdown=False, use_index=False, optimize=False)
    for engine in ("interpreter", "algebra"):
        for use_pushdown in (True, False):
            got = _answer(query, resolver, engine=engine, use_pushdown=use_pushdown)
            if isinstance(expected, type):
                assert isinstance(got, type), (engine, use_pushdown, got)
            elif engine == "algebra" and not use_pushdown and positional:
                assert got is AlgebraError
            else:
                assert got == expected, (engine, use_pushdown)


# ---------------------------------------------------------------------------
# filter expressions: the shape prefix as one macro
# ---------------------------------------------------------------------------

FILTER_QUERIES = (
    '(D//a)[@k = "x"]',                 # value
    "(D//*)[b]",                        # child existence
    "(D//a)[@k]",                       # attribute existence
    "(D//a)[{n}]",                      # [n]
    "(D//*)[last()]",                   # [last()]
    "(D//a)[position() < {n}]",         # [position() < k]
    '(D//a)[@k = "x"][{n}]',            # a value shape, then a position
    "(D//b, D//a)[{n}]",                # sequence order is not document order
    "(D//b | D//a)[{n}]",               # … and a union's is
    "for $e in D//* return ($e/node())[{n}]",   # per iteration
    "(D//c)[b][last()]",
    '(D//a)[@k = "y"][count(b) = 0]',   # an unrecognized tail keeps the generic plan
    "(1, 2, 3)[{n}]",                   # positions slice atomics
    "(1, D//a)[@k]",                    # a value shape over an atomic: typed error
    "let $n := {n} return (D//a)[$n]",  # a computed position …
    "let $n := {n} return D//a[$n]",    # … counts per context node on a step
    "let $n := {n} return D//b/ancestor::*[$n]",  # … from the nearest on a reverse axis
    'for $n in (1, {n}) return (D//*)[@k = "x"][$n]',
    "let $n := {n} return (D//a)[$n - 1]",
    'let $n := "{n}" return (D//a)[$n]',            # a string: its boolean value
)

NOT_QUERIES = (
    "D//a[not(b)]",                     # a path
    'D//*[not(@k = "x")]',              # a comparison
    "D//a[not(empty(c))]",              # not(empty(…)) keeps its form
    "D//*[not(not(b))]",                # nested not
    "D//a[not(b/c)][not(@k)]",
    "(D//a)[not(c)]",                   # behind a filter expression
    "for $e in D//* return not($e/a)",  # the value form, per iteration
    "for $e in D//a return if (not($e/c)) then 1 else 2",
)

SIBLING_QUERIES = (
    "D//a/following-sibling::b[{n}]",
    "D//a/preceding-sibling::*[{n}]",
    "D//*/following-sibling::node()[{n}]",
    "D//b/preceding-sibling::text()[{n}]",
    "D//*/following-sibling::comment()[{n}]",
    "D//c/preceding-sibling::node()[{n}][self::a]",
    'D//a/following-sibling::*[{n}][@k = "x"]',
)


class TestAlgebraMatchesTheInterpreter:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_document, st.sampled_from(FILTER_QUERIES), st.integers(1, 4))
    def test_filter_expression_shapes(self, xml, template, n):
        _assert_engines_agree(xml, template, n)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_document, st.sampled_from(NOT_QUERIES))
    def test_not_as_an_anti_join(self, xml, query):
        _assert_engines_agree(xml, query)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_document, st.sampled_from(SIBLING_QUERIES), st.sampled_from((1, 2, 9)))
    def test_sibling_steps_led_by_a_position(self, xml, template, n):
        _assert_engines_agree(xml, template, n)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_document, st.sampled_from(("following-sibling", "preceding-sibling")),
           st.sampled_from((("name", "a"), ("name", "*"), ("node", None), ("text", None),
                            ("comment", None), ("element", "b"))),
           st.integers(1, 7))
    def test_the_kernel_is_the_listed_step_sliced(self, xml, axis, test, n):
        """``nth_sibling`` = ``StructuralIndex.step`` then ``[n]``, for every
        node of the tree — attributes and the root included."""
        kind, name = test
        document = parse_xml(xml)
        index = index_for(document)
        nodes = list(index.nodes) + [attribute for node in index.nodes
                                     for attribute in node.attribute_axis()]
        for node in nodes:
            listed = index.step(node, axis, kind, name)
            expected = positional_filter(listed, PositionShape("=", n))
            assert nth_sibling(node, axis, kind, name, n) == expected


# ---------------------------------------------------------------------------
# fn:not per iteration, and positions on filter expressions, on every engine
# ---------------------------------------------------------------------------

NOT_DOCUMENT = "<r><x><z/></x><x/><x><z/><z/></x></r>"


class TestWhatAlgebraUsedToGetWrong:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("query, expected", [
        ('not(doc("d.xml")/r/q)', [True]),
        ('not(doc("d.xml")/r/x)', [False]),
        ('for $v in doc("d.xml")/r/x return not($v/z)', [False, True, False]),
        ('count(doc("d.xml")/r/x[not(z)])', [1]),
        ('for $v in doc("d.xml")/r/x return count($v/z)', [1, 0, 2]),
        ('for $v in (0, 1, "", "a", false()) return not($v)', [True, False, True, False, True]),
        ("not(())", [True]),
        ("count((<a><b/><b/></a>/b)[2])", [1]),
    ])
    def test_fn_not_negates_the_effective_boolean_value_per_iteration(
            self, engine, query, expected):
        """Algebra used to negate each *item* of ``not``'s argument (``()``
        for an empty path, one ``false`` per node) and to list a ``for``'s
        counts in the order the aggregate met their iterations."""
        assert evaluate(query, documents={"d.xml": NOT_DOCUMENT}, engine=engine).items == expected

    @pytest.mark.parametrize("query", [
        '(doc("d.xml")//x)[1]', '(doc("d.xml")//x)[last()]', '(doc("d.xml")//z)[2]',
        '(doc("d.xml")//x)[z][2]', '(doc("d.xml")/r/x/z | doc("d.xml")/r/x)[2]',
    ])
    def test_positions_on_filter_expressions_answer(self, query):
        resolver = DocumentResolver()
        resolver.register("d.xml", parse_xml(NOT_DOCUMENT))
        answers = {engine: [id(node) for node in evaluate(
            query, documents=resolver, engine=engine, use_cache=False).items]
            for engine in ENGINES}
        assert answers["interpreter"] and len(set(map(tuple, answers.values()))) == 1
        with pytest.raises(AlgebraError):  # the generic plan has no positions
            evaluate(query, documents=resolver, engine="algebra", use_pushdown=False)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("query, expected", [
        ("let $n := 2 return <a><b>1</b><b>2</b><b>3</b></a>/b[$n]", ["2"]),
        ("let $n := 2 return (<a><b>1</b><b>2</b><b>3</b></a>/b)[$n]", ["2"]),
        ("for $n in (1, 3) return <a><b>1</b><b>2</b><b>3</b></a>/b[$n]", ["1", "3"]),
        ("let $n := 2 return <r><a><b>1</b><b>2</b></a><a><b>3</b><b>4</b></a></r>//b[$n]",
         ["2", "4"]),
        ('for $n in (1, 3) return <r x="0"><a x="1"><c x="2"><b/></c></a></r>'
         "//b/ancestor::*[$n]/@x", ["2", "0"]),
    ])
    @pytest.mark.parametrize("use_pushdown", [True, False])
    def test_a_number_in_a_variable_selects_by_position(self, engine, query, expected,
                                                        use_pushdown):
        """Algebra took ``[$n]`` for its effective boolean value and kept
        every candidate (``<b>1</b><b>2</b><b>3</b>``, six ``b`` in the loop)."""
        items = evaluate(query, engine=engine, use_pushdown=use_pushdown).items
        assert [item.string_value() for item in items] == expected

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("query, operation", [
        ("(1, 2) | (2, 3)", "union"), ("(1, 2) intersect (2, 3)", "intersect"),
        ("(1, 2) except (2, 3)", "except"), ("() except 1", "except"),
        ("<a/> intersect 1", "intersect"), ("for $i in (1, 2) return ($i | <a/>)", "union"),
    ])
    def test_set_operators_over_atomics_are_a_type_error(self, engine, query, operation):
        """Algebra answered ``(1,2) | (2,3)`` with ``1 2 2 3``."""
        with pytest.raises(XQueryTypeError, match=f"{operation} requires a sequence of nodes") \
                as raised:
            evaluate(query, engine=engine)
        assert raised.value.code == "XPTY0004"


# ---------------------------------------------------------------------------
# the ∪ push-up: what moved, and that it may
# ---------------------------------------------------------------------------


def _verdict_bodies() -> list[str]:
    """The ledger's closure and check bodies (over ``$x``; bidder's
    prolog variable bound by a ``let``) and three filter shapes."""
    _, ops, _ = benchmark_modules()
    bodies = [body if cls != "bidder" else f'let $doc := doc("auction.xml") return {body}'
              for cls, body in ops.BODIES.items()]
    bodies += [body.replace("$V", "$x").replace("N", "3") for body, _ in ops.CHECK_BODIES]
    return bodies + ["$x[not(a)]", "$x/b[not(c = 'q')]", "($x/a)[@b='c']"]


#: The algebraic verdicts before the anti-join and the filter macro (an
#: ``AlgebraError`` counts as not distributive) …
BEFORE = {
    "$x/following-sibling::SPEECH[1][not(SPEAKER = preceding-sibling::SPEECH[1]/SPEAKER)]": False,
    "if (count($x) > 3) then $x/id(./prerequisites/pre_code) else ()": False,
    "$x[3]/id(./prerequisites/pre_code)": False,
    "$x/b[not(c = 'q')]": False,
    "($x/a)[@b='c']": False,
}
#: … and the ones that moved, each from not distributive to distributive.
MOVED = {
    "$x/following-sibling::SPEECH[1][not(SPEAKER = preceding-sibling::SPEECH[1]/SPEAKER)]",
    "$x/b[not(c = 'q')]",
    "($x/a)[@b='c']",
}


def _nested_document(seed: int) -> str:
    """Nested ``a``/``b`` elements with ``@b`` and ``c`` children valued
    ``q`` or ``r``: the recursion walks down through them."""
    rng = random.Random(seed)

    def element(depth: int) -> str:
        name = rng.choice("ab")
        content = "".join(f"<c>{rng.choice('qr')}</c>" for _ in range(rng.randrange(2)))
        if depth < 4:
            content += "".join(element(depth + 1) for _ in range(rng.randrange(4)))
        return f'<{name} b="{rng.choice("cd")}">{content}</{name}>'

    return f"<r>{''.join(element(1) for _ in range(4))}</r>"


class TestTheVerdictTable:
    def test_verdicts_only_move_towards_distributive(self):
        functions = parse_query(benchmark_modules()[1].BIDDER_PROLOG + "()").functions
        now = {}
        for body in _verdict_bodies():
            try:
                now[body] = analyze_plan_distributivity(
                    parse_expression(body), "x", functions).distributive
            except AlgebraError:
                now[body] = False
        before = {body: BEFORE.get(body, True) for body in now}
        moved = {body for body in now if now[body] != before[body]}
        assert moved == MOVED
        assert all(now[body] for body in moved)

    def test_an_anti_join_the_union_reaches_on_one_side_blocks(self):
        """``not`` of the whole recursion variable is no per-iteration
        anti-join: ``f(A ∪ B)`` needs ``(A ∪ B)/a`` empty, ``f(A) ∪ f(B)``
        one of them.  (It read distributive while ``not`` negated per row.)
        Per ``for`` iteration the same ``not`` passes, also in an ``else``."""
        def distributive(body):
            return analyze_plan_distributivity(parse_expression(body), "x").distributive

        assert not distributive('if (not($x/a)) then doc("d.xml")/r else ()')
        assert distributive('if ($x/a) then doc("d.xml")/r else ()')
        assert distributive("for $y in $x return if (not($y/a)) then $y/b else $y/c")

    @pytest.mark.parametrize("body", [
        "$x/b[not(c = 'q')]", "($x/a)[@b='c']", "($x/*)[not(a)]",
        "for $y in $x return if (not($y/c = 'q')) then $y/a else $y/b",
    ])
    def test_a_moved_body_runs_the_same_under_both_algorithms(self, body):
        head = 'with $x seeded by doc("n.xml")/r'
        found = 0
        for seed in range(8):
            with Session(documents={"n.xml": _nested_document(seed)}) as session:
                naive = session.evaluate(f"{head} recurse {body} using naive",
                                         optimize=False).items
                found += len(naive)
                for engine in ENGINES:
                    delta = session.evaluate(f"{head} recurse {body} using delta",
                                             engine=engine).items
                    assert list(map(id, delta)) == list(map(id, naive)), (seed, engine)
        assert found > 8

    def test_the_dialogs_body_runs_the_same_under_both_algorithms(self):
        from repro.bench.queries import get_workload

        dialogs = get_workload("dialogs")
        documents = {dialogs.document_uri: dialogs.size("tiny").build_document()}
        with Session(documents=documents) as session:
            for start in (1, 2, 5, 9):
                head = (f"{dialogs.prolog} declare variable $s := "
                        f"subsequence($doc//SPEECH, {start}, 3); with $x seeded by $s")
                naive = session.evaluate(f"{head} recurse {dialogs.recursion_body} using naive",
                                         optimize=False).items
                assert naive
                for engine in ENGINES:
                    delta = session.evaluate(
                        f"{head} recurse {dialogs.recursion_body} using delta",
                        engine=engine).items
                    assert list(map(id, delta)) == list(map(id, naive)), (start, engine)


# ---------------------------------------------------------------------------
# plan shape: operators per Table-2 body
# ---------------------------------------------------------------------------


class TestPlanShape:
    def test_operators_per_table_2_body(self, monkeypatch):
        """``plan_size`` of each closure's µ body on algebra.  Before the
        one-π constant column, the filter macro and the anti-join they were
        curriculum 2, bidder 26, hospital 2, dialogs 32 — and hospital's
        whole query, whose ``[@diagnosed="yes"]`` ran through the
        per-candidate predicate plan, 34.  Bidder's was 22 until its loop
        became one iteration over the whole ``$in/@id`` table (the
        optimizer's set-at-a-time ``for``): two step macros, no # or ⋈."""
        corpus, ops, _ = benchmark_modules()
        documents, _ = corpus.build("tiny")
        scenarios = ops.Scenarios(documents)
        plans: list = []
        evaluate_plan = AlgebraEvaluator.evaluate_plan
        monkeypatch.setattr(AlgebraEvaluator, "evaluate_plan",
                            lambda self, plan: plans.append(plan) or evaluate_plan(self, plan))
        sizes = {}
        for cls in ops.CLOSURE_CLASSES:
            uri = corpus.DOCUMENT_OF[cls]
            start = scenarios.start_nodes(cls, random.Random(7))[0]
            with Session({uri: documents[uri]}, id_attributes=corpus.ID_ATTRIBUTES) as session:
                session.evaluate(ops.closure_text(cls, start), engine="algebra")
            (fixpoint,) = [op for op in plans[-1].iter_operators() if isinstance(op, Fixpoint)]
            sizes[cls] = plan_size(fixpoint.body_plan)
            if cls == "hospital":
                operators = list(plans[-1].iter_operators())
                assert sum(isinstance(op, ShapeFilter) for op in operators) == 1
                assert not any(isinstance(op, (RowTag, ValueEqualJoin)) for op in operators)
                assert plan_size(plans[-1]) == 10
        assert sizes == {"curriculum": 2, "bidder": 11, "hospital": 2, "dialogs": 19}
