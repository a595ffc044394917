"""Closures over a step relation iterate in pre-space.

A recursion body that Figure 5 proves distributive, that reads nothing but
its node and that node's document and that returns distinct elements is a
relation on the pre ranks of one tree
(:class:`~repro.xdm.index.StepRelation`, Definition 3.1: ``x ↦ e({x})``),
whose images each engine fills with its own body.  The fixpoint driver
then encodes the seed once, runs every round on the images memoised on the
structural index and decodes the fixed point once.  These tests pin which
bodies are relations (one recognizer, on the AST, for every engine), when
a relation declines its seed, that nothing a round records moves, that the
image memo is dropped and kept apart as it must be, and that every engine
still gives the reference mode's answer.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import evaluate
from repro.errors import FixpointError, XQueryTypeError
from repro.session import Session
from repro.settings import EvalSettings
from repro.xdm.index import ImageMemo, StepRelation, index_for
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

D = 'doc("g.xml")'


# ---------------------------------------------------------------------------
# which bodies are step relations
# ---------------------------------------------------------------------------


def canonical_key(body: str) -> tuple:
    """The memo key of a relation whose *body* over ``$x`` reaches no prolog
    variable: the body with ``$x`` renamed."""
    return (ast.substitute_variable(parse_expression(body), "x",
                                    ast.VarRef(pushdown.CANONICAL_VARIABLE)), ())


#: Bodies of test_not_relations that are relations.
RELATION_BODIES = frozenset({
    "$x",
    "$x/m[1]",
    '$x/m[@k = "a"]',
    "$x/*",
    "$x/parent::m",
    "$x//m",
    "$x/id(./p[1]/r)",
    "$x/id(./@ref)",
    "$x/id(.)",
    f"$x/id(./r, {D})",
    "$x/m | $x/id(./r)",
})


#: Bodies of test_not_sibling_relations that are relations.
RELATION_SIBLING_BODIES = frozenset({
    "$x/following-sibling::S",
    "$x/following-sibling::S[0]",
    "$x/following-sibling::S[k][1]",
    f"$x/following-sibling::S[1][k = {D}//k]",
    "$x/following-sibling::S[1][id(k)]",
    "$x/following-sibling::S[1][position() = 1]",
    "$x/following-sibling::S[1][last() = 1]",
    "$x/following-sibling::*[1]",
    "$x/following-sibling::S[1]/k",
    "$x/k/following-sibling::S[1]",
    "$x/m/following-sibling::S[1][k]",
    "$x/following::S[1]",
})


class TestWhichBodies:
    @pytest.mark.parametrize("body, ids", [
        ("$x/m", False),
        ("$x/child::m/m", False),
        ("$x/id(r)", True),
        ("$x/fn:id(./r)", True),
        ("$x/id(./p/r)", True),
        ("$x/m/id(./p/r)/m", True),
    ])
    def test_relations(self, body, ids):
        """Step chains: the key is the body with ``$x`` renamed."""
        relation = pushdown.recognize_step_relation(parse_expression(body), "x", ())
        assert relation == StepRelation(canonical_key(body))
        assert (relation.documents, relation.ids) == ((), ids)

    @pytest.mark.parametrize("body", [
        "$x",
        "$y/m",                     # not the recursion variable
        "$x/m[1]",
        '$x/m[@k = "a"]',
        "$x/@k",                    # attributes: not elements
        "$x/*",
        "$x/parent::m",
        "$x//m",
        "$x/id(./p[1]/r)",
        "$x/id(./@ref)",
        "$x/id(.)",
        f"$x/id(./r, {D})",         # the anchored form
        "id($x/r)",                 # Figure 5 does not trust fn:id
        "$x/m | $x/id(./r)",
        "($x/m)[1]",                # a positional filter over $x
        "for $y in $x return $y/m", # per item: a node may come twice
    ])
    def test_not_relations(self, body):
        """The closed distributive ones are relations."""
        relation = pushdown.recognize_step_relation(parse_expression(body), "x", ())
        assert (relation is not None) == (body in RELATION_BODIES)

    def test_a_user_function_called_id_is_no_relation(self):
        body = parse_expression("$x/id(./r)")
        assert pushdown.recognize_step_relation(body, "x", {("id", 1)}) is None

    @pytest.mark.parametrize("body", [
        "$x/following-sibling::S[1]",
        "$x/preceding-sibling::S[1]",
        "$x/following-sibling::S[3]",
        "$x/following-sibling::S[1][k]",
        "$x/following-sibling::S[1][not(k = preceding-sibling::S[1]/k)]",
        '$x/preceding-sibling::S[2][k = "a"][fn:count(./k) > 1]',
        "$x/following-sibling::S[1][string-length(/r/@v) > 0]",  # its own tree's root
    ])
    def test_sibling_relations(self, body):
        """Sibling steps ``[k]`` with node-local filters (dialogs' shape)."""
        relation = pushdown.recognize_step_relation(parse_expression(body), "x", ())
        assert relation == StepRelation(canonical_key(body))
        assert (relation.documents, relation.ids) == ((), False)

    @pytest.mark.parametrize("body", [
        "$x/following-sibling::S",          # no position
        "$x/following-sibling::S[0]",
        "$x/following-sibling::S[k][1]",    # the filter before the position
        "$x/following-sibling::S[$v]",
        "$x/following-sibling::S[1][$v]",   # a free variable in the filter
        "$x/following-sibling::S[1][k = $x/k]",
        f"$x/following-sibling::S[1][k = {D}//k]",  # another document
        "$x/following-sibling::S[1][id(k)]",  # an ID may name another tree
        "$x/following-sibling::S[1][<k/> = k]",  # a constructor
        "$x/following-sibling::S[1][position() = 1]",
        "$x/following-sibling::S[1][last() = 1]",
        "$x/following-sibling::S[1][trace(k, 'k')]",  # a side effect
        "$x/following-sibling::*[1]",
        "$x/following-sibling::node()[1]",
        "$x/following-sibling::text()[1]",
        "$x/following-sibling::S[1]/k",     # a sibling step in a longer chain
        "$x/k/following-sibling::S[1]",
        "$x/m/following-sibling::S[1][k]",
        "$y/following-sibling::S[1]",
        "$x/following::S[1]",               # not a sibling axis
    ])
    def test_not_sibling_relations(self, body):
        """The closed distributive ones are relations (the filters'
        documents and IDs checked at bind time)."""
        relation = pushdown.recognize_step_relation(parse_expression(body), "x", ())
        assert (relation is not None) == (body in RELATION_SIBLING_BODIES)

    def test_a_user_function_in_the_filter_is_no_relation(self):
        expr = parse_expression("$x/following-sibling::S[1][local:f(k)]")
        assert pushdown.recognize_step_relation(expr, "x", {("local:f", 1)}) is None
        shadowed = parse_expression("$x/following-sibling::S[1][not(k)]")
        assert pushdown.recognize_step_relation(shadowed, "x", ()) is not None
        assert pushdown.recognize_step_relation(shadowed, "x", {("not", 1)}) is None

    def test_each_engine_keys_its_own_images(self):
        expr = parse_expression("$x/following-sibling::S[1][k]")
        interpreter = pushdown.recognize_step_relation(expr, "x", ())
        algebra = pushdown.recognize_step_relation(expr, "x", (), engine="algebra")
        assert interpreter != algebra
        assert interpreter == pushdown.recognize_step_relation(parse_expression(
            "$y/following-sibling::S[1][k]"), "y", ())  # a new parse, the same key


# ---------------------------------------------------------------------------
# random documents: elements with IDs, (multi-token) references and nesting
# ---------------------------------------------------------------------------


def graph_xml(rng: random.Random) -> str:
    """``n`` elements with IDs; each holds ``r`` references (some multi-token,
    some dangling), a ``p`` group of more references and nested ``m``
    elements that reference again."""
    size = rng.randrange(2, 10)

    def refs(count: int) -> str:
        return "".join("<r>" + " ".join(f"n{rng.randrange(size + 1)}"
                                        for _ in range(rng.randrange(1, 3))) + "</r>"
                       for _ in range(count))

    def nested(depth: int) -> str:
        if depth == 0 or rng.random() < 0.4:
            return ""
        return "".join(f"<m>{refs(rng.randrange(0, 2))}{nested(depth - 1)}</m>"
                       for _ in range(rng.randrange(1, 3)))

    parts = [f'<n id="n{index}" k="{rng.choice("ab")}">{refs(rng.randrange(0, 3))}'
             f'<p>{refs(rng.randrange(0, 2))}</p>{nested(3)}</n>'
             for index in range(size)]
    return f"<g>{''.join(parts)}</g>"


def resolver_for(xml: str) -> DocumentResolver:
    resolver = DocumentResolver()
    resolver.register("g.xml", parse_xml(xml))
    return resolver


def items(query: str, resolver: DocumentResolver, **options) -> list:
    """The answer, nodes by identity."""
    result = evaluate(query, documents=resolver, **{"use_cache": False, **options}).items
    return [("node", id(item)) if is_node(item) else (type(item), item) for item in result]


def traced(query: str, resolver: DocumentResolver, **options):
    """(``space`` of the one fixpoint span, its per-round tuples)."""
    result = evaluate(query, documents=resolver, trace=True,
                      **{"use_cache": False, **options})
    (span,) = result.trace.find_all("fixpoint")
    rounds = [tuple(child.attributes[key] for key in ("fed", "produced", "new", "result_size"))
              for child in span.children if child.name == "round"]
    return span.attributes.get("space"), rounds


BODIES = ("$x/id(./r)", "$x/id(./p/r)", "$x/m", "$x/m/m", "$x/id(./r)/m",
          "$x/m/id(./r)", "$x/id(./p/r)/id(./r)", "$x/m/m/id(r)")

SEEDS = ('D//n[@id = "n0"]', 'D//n[@k = "a"]', '(D//n[@id = "n1"], D//n[@id = "n1"])',
         "D//m", "D/g", "D", 'D//n[@k = "c"]', "D//n/r")


def play_xml(rng: random.Random) -> str:
    """Scenes of speeches ``S`` — one or two speakers ``k`` from a cast of
    three — between stage directions ``t`` (some with a ``@v``) and text."""
    def part() -> str:
        draw = rng.random()
        if draw < 0.7:
            return "<S>" + "".join(f"<k>{rng.choice('abc')}</k>"
                                   for _ in range(rng.randrange(1, 3))) + "</S>"
        return '<t v="1"/>' if draw < 0.8 else "<t/>" if draw < 0.9 else "x"
    scenes = ("<p>" + "".join(part() for _ in range(rng.randrange(1, 9))) + "</p>"
              for _ in range(rng.randrange(1, 4)))
    return f"<r>{''.join(scenes)}</r>"


SIBLING_BODIES = (
    "$x/following-sibling::S[1]",
    "$x/preceding-sibling::S[1]",
    "$x/following-sibling::S[2]",
    "$x/following-sibling::S[1][not(k = preceding-sibling::S[1]/k)]",  # dialogs
    '$x/preceding-sibling::S[1][k = "a"]',
    "$x/following-sibling::t[1][@v]",
    '$x/following-sibling::S[1][count(k) = 1][not(k = "c")]',
    "$x/preceding-sibling::S[2][k != following-sibling::S[1]/k]",
)

SIBLING_SEEDS = ("D//S[1]", "D//t", 'D//S[k = "a"]', "D//k", "D/r/p", "D//nothing")


def against_reference_mode(query: str, resolver: DocumentResolver) -> None:
    """Every engine answers *query* as the reference mode does, and the
    rounds are the node path's, in pre-space whenever there is a seed."""
    expected = items(query, resolver, settings=REFERENCE)
    for engine in ENGINES:
        assert items(query, resolver, engine=engine) == expected, engine
    space, rounds = traced(query, resolver)
    assert space == ("pre" if rounds[0][0] else "nodes")
    assert rounds == traced(query, resolver, use_index=False)[1]
    for engine in ("algebra", "sql"):
        assert traced(query, resolver, engine=engine, ifp_algorithm="naive") == (
            traced(query, resolver, ifp_algorithm="naive")), engine


class TestAnswersAndRoundsDoNotMove:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), body=st.sampled_from(BODIES),
           start=st.sampled_from(SEEDS), naive=st.booleans())
    def test_every_engine_against_reference_mode(self, seed, body, start, naive):
        resolver = resolver_for(graph_xml(random.Random(seed)))
        using = " using naive" if naive else ""
        against_reference_mode(
            f"with $x seeded by {start} recurse {body}{using}".replace("D", D), resolver)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), body=st.sampled_from(SIBLING_BODIES),
           start=st.sampled_from(SIBLING_SEEDS), naive=st.booleans())
    def test_sibling_bodies_against_reference_mode(self, seed, body, start, naive):
        """Each query runs on cold verdicts first, then on the ones the
        earlier runs of the same engine filled."""
        resolver = resolver_for(play_xml(random.Random(seed)))
        using = " using naive" if naive else ""
        against_reference_mode(
            f"with $x seeded by {start} recurse {body}{using}".replace("D", D), resolver)


# ---------------------------------------------------------------------------
# what a relation declines
# ---------------------------------------------------------------------------


GRAPH = ('<g><n id="n0"><r>n1</r><m><m/></m></n><n id="n1"><r>n0 n2</r></n>'
         '<n id="n2"><p><r>n0</r></p></n></g>')


class TestDeclines:
    def test_an_attribute_in_the_seed(self):
        resolver = resolver_for(GRAPH)
        query = f'with $x seeded by ({D}//n[@id = "n0"], {D}//n/@id) recurse $x/id(./r)'
        assert traced(query, resolver)[0] == "nodes"
        for engine in ENGINES:
            assert items(query, resolver, engine=engine) == items(query, resolver, settings=REFERENCE)

    @pytest.mark.parametrize("seed, body", [
        ("D", "$x/*"),
        ("D//r/text()", "$x/parent::*"),
        ('(D, D//n[@id = "n1"]/r/text())', "$x/* | $x/parent::*/id(./r)"),
    ])
    def test_a_seed_of_any_kind_but_attributes_is_taken(self, seed, body):
        """A document node or a text node in the seed has a pre, so the
        relation takes it; the rounds and answers are the node path's."""
        resolver = resolver_for(GRAPH)
        query = f"with $x seeded by {seed} recurse {body}".replace("D", D)
        assert traced(query, resolver)[0] == "pre"
        against_reference_mode(query, resolver)

    def test_a_seed_in_two_trees(self):
        resolver = resolver_for(GRAPH)
        resolver.register("h.xml", parse_xml(GRAPH))
        query = ('with $x seeded by (doc("g.xml")//n[@id = "n0"], doc("h.xml")//n[@id = "n1"]) '
                 'recurse $x/id(./r)')
        assert traced(query, resolver)[0] == "nodes"
        expected = items(query, resolver, settings=REFERENCE)
        assert len(expected) == 6  # every n of both documents, each by its own IDs
        for engine in ("interpreter", "sql"):  # algebra resolves IDs in one document
            assert items(query, resolver, engine=engine) == expected

    def test_an_id_that_resolves_outside_the_tree(self):
        document = parse_xml(GRAPH.replace("<r>n1</r>", "<r>n1 n3</r>"))
        elsewhere = parse_xml("<far/>")
        document.register_id("n3", elsewhere.document_element())
        resolver = DocumentResolver()
        resolver.register("g.xml", document)
        assert index_for(document).idref_targets("r") is None
        query = f'with $x seeded by {D}//n[@id = "n0"] recurse $x/id(./r)'
        assert traced(query, resolver)[0] == "nodes"
        expected = items(query, resolver, settings=REFERENCE)
        assert ("node", id(elsewhere.document_element())) in expected
        for engine in ENGINES:
            assert items(query, resolver, engine=engine) == expected, engine
        # sql's id_attr table cannot name the element either: no CTE (this
        # was an untyped KeyError while shredding)
        result = evaluate(query, documents=resolver, engine="sql", trace=True, use_cache=False)
        assert result.trace.find("fixpoint").attributes["path"] == "driver"

    def test_an_empty_seed(self):
        query = f"with $x seeded by {D}//nothing recurse $x/m"
        assert traced(query, resolver_for(GRAPH)) == ("nodes", [(0, 0, 0, 0)])

    def test_no_relation_without_the_index(self):
        resolver = resolver_for(GRAPH)
        result = evaluate(f'with $x seeded by {D}//n[@id = "n0"] recurse $x/id(./r)',
                          documents=resolver, use_index=False, trace=True)
        assert "space" not in result.trace.find("fixpoint").attributes
        assert not [span for span in result.trace.children
                    if span.name == "kernel:fixpoint:pre-space"]

    def test_a_constructed_tree(self):
        """No document, so no IDs: the relation binds, its ID steps map
        nothing, and the child steps answer on the constructed tree."""
        query = ('count(with $x seeded by <a><m><r>n0</r><m><m/></m></m></a> '
                 'recurse ($x/m))')
        for engine in ENGINES:
            assert evaluate(query, engine=engine).items == [3], engine
        query = 'count(with $x seeded by <a><r>x</r></a> recurse $x/id(./r))'
        assert evaluate(query, trace=True).items == [0]

    @pytest.mark.parametrize("query", [
        'count(<r><c id="n0"><r>n1</r></c></r>/c/id(./r))',
        'count(with $x seeded by <r><c id="n0"><r>n1</r></c></r>/c recurse $x/id(./r))',
        'count(with $x seeded by <a><r>n0</r></a> recurse $x/id(./r))',
    ])
    def test_a_constructed_tree_beside_a_registered_document(self, query):
        """A constructed tree has no document node, so its references
        resolve to nothing — not in the registered document (on algebra they
        did: its ID lookup read the compile-time document)."""
        resolver = resolver_for(GRAPH)
        for use_index in (True, False):
            for engine in ENGINES:
                assert evaluate(query, documents=resolver, engine=engine,
                                use_index=use_index).items == [0], (engine, use_index)

    @pytest.mark.xfail(strict=True, reason="algebra resolves a non-path fn:id in the "
                       "compile-time document: it needs the context node as the "
                       "anchor input (ROADMAP item 3)")
    @pytest.mark.parametrize("argument", ["r[1]", '"n1"', "string(r)"])
    def test_a_constructed_tree_and_the_other_id_forms_on_algebra(self, argument):
        query = f'count(<r><c id="n0"><r>n1</r></c></r>/c/id({argument}))'
        resolver = resolver_for(GRAPH)
        assert evaluate(query, documents=resolver, settings=REFERENCE).items == [0]
        assert evaluate(query, documents=resolver, engine="algebra").items == [0]


# ---------------------------------------------------------------------------
# the images: filled by each engine, dropped by edits
# ---------------------------------------------------------------------------


class TestAChainsImages:
    def test_they_are_memoised_once_per_index(self):
        """A chain's images are filled like any body's: the first miss of a
        source is answered set-at-a-time, the second fills it, and a warm
        run evaluates no node."""
        document, resolver = pre_document()
        query = f'with $x seeded by {D}//n[@id = "n2"] recurse $x/id(./p/r)'
        assert [fills(query, resolver) for _ in range(3)] == [[1, 1], [1, 1], [0, 0]]
        idx = index_for(document)
        n0, _, n2 = (idx.pre(node) for node in document.document_element().children)
        (memo,) = image_memos(document)
        assert dict(memo) == {n2: (n0,), n0: ()}

    def test_a_text_edit_changes_the_next_closure_on_every_engine(self):
        document = parse_xml(GRAPH, id_attributes=("id",))
        query = (f'data((with $x seeded by {D}//n[@id = "n2"] '
                 'recurse $x/id(./p/r)/id(./r))/@id)')
        with Session({"g.xml": document}) as session:
            before = {engine: session.evaluate(query, engine=engine).items for engine in ENGINES}
            assert {tuple(map(str, answer)) for answer in before.values()} == {("n1",)}
            reference = document.document_element().children[0].children[0].children[0]
            reference.set_value("n2")  # n0 now references n2
            after = {tuple(map(str, session.evaluate(query, engine=engine).items))
                     for engine in ENGINES}
            assert after == {("n2",)}


PLAY = ("<play><scene><S><k>a</k></S><S><k>b</k></S><S><k>a</k></S><S><k>a</k></S>"
        "<S><k>b</k></S></scene><scene><S><k>c</k></S></scene></play>")

DIALOG = "$x/following-sibling::S[1][not(k = preceding-sibling::S[1]/k)]"

DIALOG_QUERY = f'count(with $x seeded by doc("d.xml")//scene[1]/S[1] recurse {DIALOG})'


def memo_of(document, engine: str, body: str = DIALOG) -> ImageMemo | None:
    """The images *engine* keeps for *body* in *document*'s index, if any."""
    relation = pushdown.recognize_step_relation(parse_expression(body), "x", (),
                                                engine=engine)
    return index_for(document)._memos.get(relation)


def speeches(document) -> list:
    return [node for node in document.iter_tree() if getattr(node, "name", None) == "S"]


class TestImagesPerEngine:
    def test_each_engine_fills_its_own(self):
        """Three sources come up (the first, second and third speech), and
        the second run of an engine fills them; algebra fills them again
        with its own plan, sql's driver reads the interpreter's."""
        document = parse_xml(PLAY)
        with Session({"d.xml": document}) as session:
            for _ in range(2):
                assert session.evaluate(DIALOG_QUERY, engine="interpreter").items == [2]
            assert len(memo_of(document, "interpreter")) == 3
            assert memo_of(document, "algebra") is None
            for _ in range(2):
                assert session.evaluate(DIALOG_QUERY, engine="algebra").items == [2]
            assert len(memo_of(document, "algebra")) == 3
            result = session.evaluate(DIALOG_QUERY, engine="sql", trace=True)
            assert result.items == [2]
            span = result.trace.find("fixpoint")
            assert span.attributes["space"] == "pre"
            assert [round_.attributes["filled"] for round_ in span.children
                    if round_.name == "round"] == [0, 0, 0]
            assert len(memo_of(document, "interpreter")) == 3
            assert dict(memo_of(document, "algebra")) == dict(memo_of(document, "interpreter"))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_an_edit_drops_them(self, engine):
        document = parse_xml(PLAY)
        first, second, third, fourth, fifth, _ = speeches(document)
        key = "algebra" if engine == "algebra" else "interpreter"
        with Session({"d.xml": document}) as session:
            def answer() -> list:
                result = session.evaluate(DIALOG_QUERY, engine=engine).items
                assert result == session.evaluate(DIALOG_QUERY, settings=REFERENCE).items
                return result

            assert answer() == answer() == [2]
            assert memo_of(document, key)
            fourth.children[0].children[0].set_value("c")  # a text edit
            assert memo_of(document, key) is None
            assert answer() == answer() == [4]
            assert memo_of(document, key)
            document.register_id("s1", first)  # a new ID
            assert memo_of(document, key) is None
            assert answer() == [4]
            fifth.parent.append_child(parse_xml("<S><k>a</k></S>").document_element())
            assert answer() == [5]  # a new sibling: a new index

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_filter_that_raises(self, engine):
        """The third speech's speaker is no number: the filter raises when
        that speech first comes up, in round 1 — on every engine, on every
        run, and nothing is stored for its source."""
        document = parse_xml("<p><S><k>1</k></S><S><k>2</k></S><S><k>x</k></S>"
                             "<S><k>3</k></S></p>")
        body = "$x/following-sibling::S[1][k > 0]"
        query = f'count(with $x seeded by doc("d.xml")//S[1] recurse {body})'
        key = "algebra" if engine == "algebra" else "interpreter"
        with Session({"d.xml": document}) as session:
            for _ in range(2):
                with pytest.raises(FixpointError):  # round 1 never starts
                    session.evaluate(query, engine=engine, max_ifp_iterations=0)
                with pytest.raises(XQueryTypeError) as raised:
                    session.evaluate(query, engine=engine, max_ifp_iterations=1)
                assert raised.value.code == "FORG0001"
                with pytest.raises(XQueryTypeError):
                    session.evaluate(query, settings=REFERENCE)
                first, second = (index_for(document).pre(speech)
                                 for speech in speeches(document)[:2])
                memo = memo_of(document, key, body)
                assert dict(memo) == {first: (second,)}
                assert second not in memo.missed


# ---------------------------------------------------------------------------
# image relations: a closed body Figure 5 proves distributive
# ---------------------------------------------------------------------------


#: The prolog of the image bodies below: a document-closed variable.
PROLOG = f"declare variable $d := {D};\n"

#: A user function whose body is a value join, as bidder's is.
JOIN = ("declare function local:join($n as node()*) as node()*\n"
        "{ for $i in $n/r return $d//n[@id = $i] };\n")


def optimized(query: str) -> tuple:
    """(the optimized module, its last ``with`` expression: the innermost
    one of a nest)."""
    module = optimize_module(parse_query(query))
    *_, site = [expr for expr in module.body.iter_subexpressions()
                if isinstance(expr, ast.WithExpr)]
    return module, site


def relation_of(query: str, engine: str = "interpreter") -> StepRelation | None:
    """The relation *engine* recognizes in *query*'s one closure."""
    module, site = optimized(query)
    return pushdown.recognize_step_relation(
        site.body, site.var, module.function_map(), engine=engine,
        variables=pushdown.prolog_variables(module))


def closure(body: str, seed: str = 'D//n[@id = "n0"]', prolog: str = PROLOG,
            var: str = "x") -> str:
    return (f"{prolog}with ${var} seeded by {seed} recurse "
            f"{body.replace('$x', f'${var}')}").replace("D", D)


def image_memos(document) -> list:
    """The image memos on *document*'s index."""
    return [memo for memo in index_for(document)._memos.values()
            if isinstance(memo, ImageMemo)]


def fills(query: str, resolver, **options) -> list[int]:
    """The ``filled`` count of every round of *query*'s one image run."""
    result = evaluate(query, documents=resolver, trace=True,
                      **{"use_cache": False, **options})
    span = result.trace.find("fixpoint")
    assert span.attributes["space"] == "pre"
    return [child.attributes["filled"] for child in span.children if child.name == "round"]


class TestWhichBodiesAreImages:
    @pytest.mark.parametrize("body", [
        "local:join($x)",                               # bidder's shape
        "for $i in $x/@k return $d//n[@k = $i]",
        "let $y := $x/m return $y/m | $y/id(./r)",
        "if ($d//n[@k = 'a']) then $x/m else $x/id(./p/r)",
        "$x/id(./r) | $d//n[@k = 'c']",                 # with a constant part
        "$x//m[r]",
        "$x/following-sibling::n[@k = 'a'][1]",         # the filter before the position
    ])
    def test_positives(self, body):
        relation = relation_of(closure(body, prolog=PROLOG + JOIN))
        assert relation is not None and relation.engine == "interpreter"

    def test_bidder_and_adhocs_function_are_judged_on_their_bodies(self):
        corpus, ops, _ = benchmark_modules()
        bidder = relation_of(ops.closure_text("bidder", "person0"))
        assert (bidder.documents, bidder.ids) == (("auction.xml",), False)
        assert relation_of(ops.closure_text("bidder", "person0", naive=True)) == bidder
        pre = relation_of(ops.adhoc_text("q1-function", 5, "c1", 3))
        assert pre == StepRelation(canonical_key("$x/id(./prerequisites/pre_code)"))

    @pytest.mark.parametrize("body, prolog", [
        # Figure 5 proves nothing: the condition reads all of $x
        ("if (count($x) > 1) then $x/m else ()", PROLOG),
        # a free variable that is no prolog variable
        ("let $v := 'a' return with $y seeded by D//n recurse $y/m[@k = $v]", None),
        # an external prolog variable
        ("$x/m[@k = $e]", "declare variable $e external;\n"),
        # a prolog variable whose initializer is not document-closed
        ("$x/m[@k = $c]", "declare variable $c := count(D//n);\n"),
        ("$x/m[. = $c]", "declare variable $c := <m/>;\n"),
        # constructs a node
        ("$x/m | (<m/>)/m", PROLOG),
        # a side effect, and built-ins that are not known to be closed
        ('$x/m[trace(@k, "k")]', PROLOG),
        ("$x/m[current-date()]", PROLOG),
        ('$x/m[collection("c")]', PROLOG),
        ("$x/m[doc-available('g.xml')]", PROLOG),
        ("$x/m[doc(string(@k))]", PROLOG),              # a computed URI
        # a recursive function
        ("$x/m[local:depth(.) > 1]",
         "declare function local:depth($n) { if ($n/..) then 1 + local:depth($n/..) else 0 };\n"),
        # a parameter type that could reject what the fixpoint feeds
        ("local:one($x)", "declare function local:one($n as element()) as element()* { $n/m };\n"),
        # inlined, the function's prolog variable would be captured
        ('(let $d := "a" return ($x/m[@k = $d] | local:f($x)))',
         PROLOG + "declare function local:f($n as node()*) as node()* "
                  "{ $n/m[@k = string($d)] };\n"),
        # the outer focus
        ("$x/m | ./m", PROLOG),
        # not elements, or not distinct
        ("$x/@k", PROLOG),
        ("$x/text()", PROLOG),
        ("$x/..", PROLOG),
        ("($x/m, $x/m)", PROLOG),
    ])
    def test_declines(self, body, prolog):
        query = (body.replace("D", D) if prolog is None
                 else closure(body, seed="D//n", prolog=prolog))
        assert relation_of(query) is None

    @pytest.mark.parametrize("around", [
        "let $d := 1 return {}",
        "for $d in (1, 2) return {}",
        "some $d in (1, 2) satisfies {}",
        "with $d seeded by D recurse {}",
        "typeswitch (1) case $d as xs:integer return 1 default return {}",
        "declare function local:f($d) {{ $d }};\n({}, local:f(1))",
    ])
    def test_a_prolog_variable_whose_name_is_bound_elsewhere(self, around):
        """A ``let``, ``for``, parameter or other binding of ``$d`` anywhere
        in the module could shadow the prolog variable where the closure
        sits, so the closure reading ``$d`` is no image relation."""
        body = "with $x seeded by D//n recurse $x/m | $d//n[@k = 'c']"
        assert relation_of(PROLOG + body.replace("D", D)) is not None
        query = PROLOG + around.format(f"({body})").replace("D", D)
        module, _ = optimized(query)
        assert "d" not in pushdown.prolog_variables(module)
        assert relation_of(query) is None

    def test_a_loop_per_item_is_declined(self):
        """Unmarked (the optimizer is off), a ``for`` may return a node once
        per item: the node path counts it twice, a round in pre-space once."""
        body = parse_expression("for $y in $x return $y/m")
        assert pushdown.recognize_step_relation(body, "x", ()) is None
        relation = relation_of(closure("for $y in $x return $y/m"))
        assert relation is not None  # marked whole

    def test_alpha_variants_share_one_key_per_engine(self):
        first = relation_of(closure("local:join($x)", prolog=PROLOG + JOIN))
        second = relation_of(closure("local:hop($v9)", var="v9", prolog=PROLOG + JOIN.replace(
            "local:join", "local:hop").replace("$n", "$in")))
        assert first == second and hash(first) == hash(second)
        assert relation_of(closure("local:join($x)", prolog=PROLOG + JOIN),
                           engine="algebra") != first


IMAGE_PARTS = (
    "local:join($x)",                                   # a value join in a function
    "for $i in $x/r return $d//n[@id = $i]",            # the same, inline
    "for $y in $x return $y/id(./p/r)",                 # a loop
    "let $y := $x/m return $y/id(./r) | $y/m",          # a let
    "for $i in $x/@k return $d//n[m][@k = $i]",
    "$x/following-sibling::n[1] | $x/preceding-sibling::n[@k = 'b']",
    "$x//m/id(./r)",
)

IMAGE_SEEDS = ('D//n[@id = "n0"]', 'D//n[@k = "a"]', "D//m", "D/g",
               '(D//n[@id = "n1"], D//n[@id = "n1"])', 'D//n[@k = "c"]', "D")


class TestImageAnswersAndRounds:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), first=st.sampled_from(IMAGE_PARTS),
           second=st.sampled_from((None, *IMAGE_PARTS)),
           start=st.sampled_from(IMAGE_SEEDS), naive=st.booleans())
    def test_every_engine_against_reference_mode(self, seed, first, second, start, naive):
        """Each engine answers as the reference mode does; the rounds are
        those of the node path, in pre-space whenever there is a seed; each
        query runs on cold images first, then on what earlier runs filled."""
        resolver = resolver_for(graph_xml(random.Random(seed)))
        body = first if second is None else f"({first}) | ({second})"
        query = closure(body + (" using naive" if naive else ""), seed=start,
                        prolog=PROLOG + JOIN)
        expected = items(query, resolver, settings=REFERENCE)
        for engine in ENGINES:
            assert items(query, resolver, engine=engine) == expected, engine
            result = evaluate(query, documents=resolver, engine=engine, trace=True,
                              use_cache=False)
            span = result.trace.find("fixpoint")
            if span.attributes.get("path") == "cte":
                continue
            assert span.attributes["space"] == ("pre" if span.attributes["seed"] else "nodes")
        space, rounds = traced(query, resolver)
        assert rounds == traced(query, resolver, use_index=False)[1]


def pre_document(xml: str = GRAPH):
    document = parse_xml(xml)
    resolver = DocumentResolver()
    resolver.register("g.xml", document)
    return document, resolver


JOIN_QUERY = closure("local:join($x)", prolog=PROLOG + JOIN)

#: n0 → n1 → (n2, n0) under :data:`JOIN`.
JOINED = '<g><n id="n0"><r>n1</r></n><n id="n1"><r>n2</r><r>n0</r></n><n id="n2"><m/></n></g>'


#: A closure whose image depends on the prolog variable ``$k``: two nodes
#: under ``$k = "a"``, one under ``$k = "b"``.
KEYED = 'declare variable $k := "a";\n'
KEYED_CLOSURE = f"count(with $x seeded by {D}//n recurse $x/m[@k = $k])"
SHADOWED = '<g><n id="n0"><m k="a"><m k="a"><m k="b"/></m></m><m k="b"/></n></g>'


class TestImageMemo:
    def test_alpha_variant_texts_share_one_memo(self):
        """A source's misses in its first run are answered set-at-a-time
        and noted, a miss in a later run fills the memo; an α-variant text
        is a later run."""
        document, resolver = pre_document(JOINED)
        variant = closure("local:hop($v7)", var="v7",
                          prolog=PROLOG + JOIN.replace("local:join", "local:hop"))
        assert fills(JOIN_QUERY, resolver) == [1, 1, 2]  # n0 misses twice
        assert fills(variant, resolver) == [1, 1, 1]
        assert fills(JOIN_QUERY, resolver) == [0, 0, 0]
        assert items(variant, resolver) == items(JOIN_QUERY, resolver, settings=REFERENCE)
        assert fills(variant, resolver, engine="sql") == [0, 0, 0]  # the interpreter's
        for expected in ([1, 1, 2], [1, 1, 1], [0, 0, 0]):  # algebra fills its own
            assert fills(JOIN_QUERY, resolver, engine="algebra") == expected
        (interpreter, algebra) = image_memos(document)
        assert dict(interpreter) == dict(algebra) and interpreter.stored == 3

    def test_a_naive_run_once_stores_nothing(self):
        """Naive feeds a source again every round; within its first run it
        stays set-at-a-time, as on the node path, so that run stores no
        image and the next one fills them."""
        document, resolver = pre_document(JOINED)
        query = JOIN_QUERY + " using naive"
        assert all(fills(query, resolver))
        assert [dict(memo) for memo in image_memos(document)] == [{}]
        assert all(fills(query, resolver))
        (memo,) = image_memos(document)
        assert len(memo) == 3
        assert set(fills(query, resolver)) == {0}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_edits_drop_it(self, engine):
        document = parse_xml(JOINED)
        with Session({"g.xml": document}) as session:
            def answer() -> list:
                result = session.evaluate(JOIN_QUERY, engine=engine, trace=True)
                assert result.trace.find("fixpoint").attributes["space"] == "pre"
                expected = session.evaluate(JOIN_QUERY, settings=REFERENCE).items
                assert list(map(id, result.items)) == list(map(id, expected))
                return [node.get_attribute("id").value for node in result.items]

            assert answer() == ["n0", "n1", "n2"]
            assert image_memos(document)
            n1, n2 = document.document_element().children[1:]
            n1.children[0].children[0].set_value("n1")  # a text edit: n1 → (n1, n0)
            assert not image_memos(document)
            assert answer() == ["n0", "n1"]
            assert image_memos(document)
            document.register_id("n9", n2)  # a new ID
            assert not image_memos(document)
            assert answer() == ["n0", "n1"]
            n2.parent.append_child(parse_xml('<n id="n3"/>').document_element())
            assert not image_memos(document)  # a new element: a new index
            assert answer() == ["n0", "n1"]

    def test_a_uri_registered_to_another_tree_while_the_old_one_is_seeded(self):
        """The seed comes from ``h.xml``, the body reads ``g.xml``: one tree,
        until ``g.xml`` names a copy — then the relation declines."""
        document, resolver = pre_document(JOINED)
        resolver.register("h.xml", document)
        query = JOIN_QUERY.replace(f'seeded by {D}', 'seeded by doc("h.xml")')
        assert fills(query, resolver) == [1, 1, 2]
        assert fills(query, resolver) == [1, 1, 1]
        resolver.register("g.xml", parse_xml(JOINED))
        for engine in ENGINES:
            assert items(query, resolver, engine=engine) == items(query, resolver, settings=REFERENCE)
            result = evaluate(query, documents=resolver, engine=engine, trace=True,
                              use_cache=False)
            assert result.trace.find("fixpoint").attributes["space"] == "nodes", engine
        assert sum(map(len, image_memos(document))) == 3  # nothing filled since

    def test_an_id_bound_outside_the_tree(self):
        document, resolver = pre_document()
        query = closure("$x/id(./r) | $x/m")
        assert fills(query, resolver)[0] == 1
        document.register_id("n9", parse_xml("<far/>").document_element())
        assert traced(query, resolver)[0] == "nodes"
        for engine in ENGINES:
            assert items(query, resolver, engine=engine) == items(query, resolver, settings=REFERENCE)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_body_that_raises(self, engine):
        """The third speech's speaker is no number: the body raises when
        that speech first comes up — on every engine, with the same code,
        on every run — and nothing is stored for any node."""
        document = parse_xml("<p><S><k>1</k></S><S><k>2</k></S><S><k>x</k></S>"
                             "<S><k>3</k></S></p>")
        query = ('count(with $x seeded by doc("d.xml")//S[1] '
                 'recurse $x/following-sibling::S[1][k > 0] | ())')
        with Session({"d.xml": document}) as session:
            with pytest.raises(XQueryTypeError) as expected:
                session.evaluate(query, settings=REFERENCE)
            for _ in range(2):
                with pytest.raises(XQueryTypeError) as raised:
                    session.evaluate(query, engine=engine)
                assert raised.value.code == expected.value.code == "FORG0001"
                # at most the first speech's image, filled on the second run
                # by round 0; for the second speech nothing, ever
                first, second = (index_for(document).pre(speech) for speech in
                                 speeches(document)[:2])
                (memo,) = image_memos(document)
                assert dict(memo).items() <= {first: (second,)}.items()
                assert second not in memo.missed

    @pytest.mark.parametrize("query, engines", [
        (KEYED + 'let $k := "b" return ' + KEYED_CLOSURE, ENGINES),
        (KEYED + "declare function local:f($k) { " + KEYED_CLOSURE + ' };\nlocal:f("b")',
         ENGINES),
        (KEYED + 'for $k in ("b", "a", "b") return ' + KEYED_CLOSURE,
         ("interpreter", "sql")),  # algebra runs no closure under a loop
    ])
    def test_a_local_binding_that_shadows_a_prolog_variable(self, query, engines):
        """The images the unshadowed closure filled hold ``$k = "a"``; under
        a binding of ``$k`` the same body reads another value, so it must
        not read them — on a warm memo, on every engine, on every run."""
        document, resolver = pre_document(SHADOWED)
        for engine in ENGINES:
            for _ in range(3):
                assert items(KEYED + KEYED_CLOSURE, resolver, engine=engine) == [(int, 2)]
        assert any(len(memo) for memo in image_memos(document))
        expected = items(query, resolver, settings=REFERENCE)
        assert expected[0] == (int, 1)
        for engine in engines:
            for _ in range(3):
                assert items(query, resolver, engine=engine) == expected, engine

    def test_a_closure_in_a_prolog_initializer(self):
        """Algebra evaluates it while it compiles, through the plan's
        recording view of the documents."""
        document, resolver = pre_document(JOINED)
        query = (PROLOG + JOIN + "declare variable $c := "
                 + JOIN_QUERY.split("\n")[-1] + ";\ndata($c/@id)")
        for engine in ENGINES:
            result = evaluate(query, documents=resolver, engine=engine, trace=True)
            assert list(map(str, result.items)) == ["n0", "n1", "n2"], engine
            assert result.trace.find("fixpoint").attributes["space"] == "pre", engine

    def test_past_the_budget(self):
        """A full memo answers every miss with one set-at-a-time call,
        stores nothing, and the answers and rounds do not move."""
        document, resolver = pre_document(graph_xml(random.Random(5)))
        relation = relation_of(JOIN_QUERY)
        idx = index_for(document)
        for engine in ("interpreter", "algebra"):
            memo = idx.memo(relation if engine == "interpreter" else relation_of(
                JOIN_QUERY, engine="algebra"))
            memo.stored = len(idx)
        expected = items(JOIN_QUERY, resolver, settings=REFERENCE)
        for engine in ENGINES:
            assert items(JOIN_QUERY, resolver, engine=engine) == expected, engine
        filled = fills(JOIN_QUERY, resolver)
        assert filled[0] == 1 and all(filled)
        assert traced(JOIN_QUERY, resolver)[1] == traced(JOIN_QUERY, resolver,
                                                         use_index=False)[1]
        assert [dict(memo) for memo in image_memos(document)] == [{}, {}]


# ---------------------------------------------------------------------------
# sql's own images: filled by the recursive CTE with its image join
# ---------------------------------------------------------------------------


def workload_closure(name: str, var: str = "x") -> tuple[dict, str]:
    """The tiny corpus of Table 2's *name* workload and a closure over its
    first four seeds — a body sql emits and every engine takes as a
    relation — written with the recursion variable *var*."""
    from repro.bench.queries import get_workload

    workload = get_workload(name)
    body = workload.recursion_body.replace("$x", f"${var}")
    query = (f"{workload.prolog}\ndeclare variable $seeds := "
             f"subsequence({workload.seeds_expression}, 1, 4);\n"
             f"with ${var} seeded by $seeds recurse {body}")
    return {workload.document_uri: workload.size("tiny").build_document()}, query


def memos_by_engine(document) -> dict[str, ImageMemo]:
    return {relation.engine: memo for relation, memo in index_for(document)._memos.items()
            if isinstance(memo, ImageMemo)}


def sql_run(session, query: str) -> tuple:
    """(the answer by identity, the ``fixpoint`` span, its round tuples) of
    a traced sql run."""
    result = session.evaluate(query, engine="sql", trace=True)
    (span,) = result.trace.find_all("fixpoint")
    return list(map(id, result.items)), span, round_tuples(span)


def round_tuples(span) -> list[tuple]:
    return [tuple(child.attributes[key] for key in
                  ("iteration", "fed", "produced", "new", "result_size"))
            for child in span.children if child.name == "round"]


SQL_WORKLOADS = ("curriculum", "hospital")


class TestSqlImages:
    @pytest.mark.parametrize("name", SQL_WORKLOADS)
    def test_cold_then_filling_then_warm(self, name):
        """A seed's first miss runs the plain statement (its answer, no
        rounds) and notes the seed; the next run's first round runs the
        statement with its image join, which fills the images of every
        source it reaches; a warm run runs none and its rounds are probes."""
        documents, query = workload_closure(name)
        (document,) = documents.values()
        with Session(documents=documents, id_attributes=("id", "code")) as session:
            expected = [id(item) for item in session.evaluate(query, settings=REFERENCE).items]
            cold_answer, cold, cold_rounds = sql_run(session, query)
            assert dict(memos_by_engine(document)["sql"]) == {}
            _, filling, _ = sql_run(session, query)
            _, warm, rounds = sql_run(session, query)
        assert cold_answer == expected and cold_rounds == []
        assert (cold.attributes["path"], cold.attributes["rounds"]) == ("cte", 0)
        assert "space" not in cold.attributes
        (statement,) = [span for span in cold.find_all("sql") if "build" not in span.attributes]
        assert statement.attributes["rows"] == cold.attributes["result_size"]
        assert (filling.attributes["path"], filling.attributes["space"]) == ("cte", "pre")
        (statement,) = [span for span in filling.find_all("sql")
                        if "build" not in span.attributes]
        # a row per source, and one per further image pre
        assert statement.attributes["rows"] >= filling.attributes["result_size"]
        assert [child.attributes["filled"] for child in filling.children
                if child.name == "round"][0] == 4
        assert warm.find_all("sql") == [] and warm.attributes["space"] == "pre"
        assert not {"path", "guards", "edges"} & set(warm.attributes)
        assert {child.attributes["filled"] for child in warm.children
                if child.name == "round"} == {0}
        assert len(rounds) > 1

    @pytest.mark.parametrize("name", SQL_WORKLOADS)
    def test_the_sql_memo_is_the_interpreters(self, name):
        """After warming, sql's images — from SQLite — equal the images the
        interpreter filled on nodes, source by source."""
        documents, query = workload_closure(name)
        (document,) = documents.values()
        with Session(documents=documents, id_attributes=("id", "code")) as session:
            for _ in range(2):  # each engine fills on a seed's second miss
                session.evaluate(query)
                sql_run(session, query)
        memos = memos_by_engine(document)
        interpreter, sql = memos["interpreter"], memos["sql"]
        assert len(sql) > 4
        assert {pre: set(image) for pre, image in sql.items()} == {
            pre: set(image) for pre, image in interpreter.items()}
        assert sql.stored == interpreter.stored

    @pytest.mark.parametrize("name", SQL_WORKLOADS)
    def test_no_engine_reads_another_engines_images(self, name):
        """Emptying one engine's images (a wrong memo) changes that engine's
        next answer and no other's."""
        documents, query = workload_closure(name)
        (document,) = documents.values()
        with Session(documents=documents, id_attributes=("id", "code")) as session:
            expected = [id(item) for item in session.evaluate(query, settings=REFERENCE).items]
            for engine in ENGINES:
                for _ in range(2):
                    assert [id(item) for item in session.evaluate(
                        query, engine=engine).items] == expected, engine
            for wronged in ENGINES:
                memo = memos_by_engine(document)[wronged]
                kept = dict(memo)
                memo.update(dict.fromkeys(kept, ()))
                for engine in ENGINES:
                    answer = [id(item) for item in session.evaluate(query, engine=engine).items]
                    assert (answer == expected) == (engine != wronged), (wronged, engine)
                memo.update(kept)

    def test_an_edit_or_a_registered_id_drops_them(self):
        documents, query = workload_closure("curriculum")
        (document,) = documents.values()
        with Session(documents=documents, id_attributes=("id", "code")) as session:
            def answer(space) -> list:
                """The sql answer of a run whose span says *space*."""
                expected = [id(item) for item in session.evaluate(query, settings=REFERENCE).items]
                got, span, _ = sql_run(session, query)
                assert got == expected and span.attributes.get("space") == space
                return got

            def images() -> dict:
                return dict(memos_by_engine(document).get("sql", {}))

            before = answer(None)  # the plain statement
            assert answer("pre") == before and images()  # fills
            courses = [node for node in document.iter_tree()
                       if getattr(node, "name", None) == "course"]
            outside = next(course for course in courses if id(course) not in before
                           and course is not courses[-1])
            reference = next(node for node in courses[-1].iter_tree()  # the first seed's
                             if getattr(node, "name", None) == "pre_code")
            reference.children[0].set_value(outside.get_attribute("code").value)  # a text edit
            assert "sql" not in memos_by_engine(document)
            after = answer(None)
            assert id(outside) in after and images() == {}
            assert answer("pre") == after and images()
            course = next(node for node in document.iter_tree()
                          if getattr(node, "name", None) == "course")
            document.register_id("late", course)  # a new ID
            assert "sql" not in memos_by_engine(document)
            assert answer(None) == after and images() == {}

    def test_a_tripped_multi_token_guard_runs_the_driver(self):
        """A store that holds multi-token references (another document's)
        trips the ``fn:id`` guard: the closure runs the driver on the
        interpreter's images and leaves sql's as they were."""
        query = ('with $x seeded by doc("a.xml")/r/a[@id = "y1"] '
                 "recurse $x/id(./ref)")
        with Session({"a.xml": "<r><a id='y1'><ref>y2</ref></a><a id='y2'><ref/></a></r>",
                      "b.xml": "<r><a id='x1'><ref>x1 x2</ref></a><a id='x2'/></r>"}
                     ) as session:
            document = session.snapshot().resolve("a.xml")
            for space in (None, "pre"):  # the plain statement, then the fill
                assert sql_run(session, query)[1].attributes.get("space") == space
            memo = memos_by_engine(document)["sql"]
            images, stored = dict(memo), memo.stored
            multi = query.replace("a.xml", "b.xml").replace("y1", "x1")
            assert sql_run(session, multi)[1].attributes["path"] == "driver"  # shreds b.xml
            got, span, _ = sql_run(session, query)
            assert (span.attributes["path"], span.attributes["space"]) == ("driver", "pre")
            assert got == [id(item) for item in session.evaluate(query, settings=REFERENCE).items]
            assert memos_by_engine(document)["sql"] is memo
            assert (dict(memo), memo.stored) == (images, stored)

    def test_a_foreign_id_runs_the_driver_and_fills_nothing(self):
        document, _ = pre_document(JOINED)
        query = closure("$x/id(./r)").replace(PROLOG, "")
        with Session({"g.xml": document}) as session:
            sql_run(session, query)
            assert "sql" in memos_by_engine(document)
            document.register_id("n9", parse_xml("<far/>").document_element())
            got, span, _ = sql_run(session, query)
            assert span.attributes["path"] == "driver"
            assert got == [id(item) for item in session.evaluate(query, settings=REFERENCE).items]
            assert "sql" not in memos_by_engine(document)

    def test_a_full_sql_memo_runs_the_driver(self):
        documents, query = workload_closure("curriculum")
        (document,) = documents.values()
        with Session(documents=documents, id_attributes=("id", "code")) as session:
            expected = [id(item) for item in session.evaluate(query, settings=REFERENCE).items]
            sql_run(session, query)
            memo = memos_by_engine(document)["sql"]
            memo.clear()
            memo.stored = len(index_for(document))
            got, span, _ = sql_run(session, query)
        assert got == expected
        assert (span.attributes["path"], span.attributes["space"]) == ("driver", "pre")
        assert span.find_all("sql") == [] and dict(memo) == {}

    @pytest.mark.parametrize("name", SQL_WORKLOADS)
    def test_cold_warm_and_alpha_variant_runs_agree_on_every_engine(self, name):
        documents, query = workload_closure(name)
        _, variant = workload_closure(name, var="v7")
        with Session(documents=documents, id_attributes=("id", "code")) as session:
            runs = []
            for engine in ENGINES:
                for text in (query, query, variant, query):  # cold, filling, α, warm
                    result = session.evaluate(text, engine=engine, trace=True)
                    (span,) = result.trace.find_all("fixpoint")
                    runs.append((engine, list(map(id, result.items)), round_tuples(span)))
        (_, answer, rounds), *rest = runs
        assert len(rounds) > 1
        for index, (engine, other_answer, other_rounds) in enumerate(rest, 1):
            if (engine, index % 4) == ("sql", 0):  # the plain statement: no rounds
                assert (other_answer, other_rounds) == (answer, []), engine
            else:
                assert (other_answer, other_rounds) == (answer, rounds), engine
