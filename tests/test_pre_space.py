"""Closures over a step relation iterate in pre-space.

A recursion body ``$x/s1/…/sk`` whose steps are predicate-free
``child::name`` steps and ``id(n1/…/nk)`` over such a chain is a relation
on the pre ranks of one tree (:class:`~repro.xdm.index.StepRelation`), and
so is one sibling step ``$x/following-sibling::n[k]`` followed by
node-local predicates, whose verdicts each engine fills with its own body.
The fixpoint driver then encodes the seed once, runs every round on the
structural index's integer maps and decodes the fixed point once.  These
tests pin which bodies are relations (one recognizer, on the AST, for every
engine), when a relation declines its seed, that nothing a round records
moves, that the verdict memo is dropped and kept apart as it must be, and
that every engine still gives the reference mode's answer.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import evaluate
from repro.errors import FixpointError, XQueryTypeError
from repro.session import Session
from repro.xdm.index import StepRelation, index_for
from repro.xdm.items import is_node
from repro.xmlio.parser import parse_xml
from repro.xquery import pushdown
from repro.xquery.context import DocumentResolver
from repro.xquery.parser import parse_expression

ENGINES = ("interpreter", "algebra", "sql")

#: The reference mode: no rewrite, no index (so no relation is offered), no
#: pushdown, no cache, and Naive for every fixpoint.
REFERENCE = {"engine": "interpreter", "optimize": False, "analyze": False,
             "use_index": False, "use_pushdown": False, "use_cache": False,
             "ifp_algorithm": "naive"}

D = 'doc("g.xml")'


# ---------------------------------------------------------------------------
# which bodies are step relations
# ---------------------------------------------------------------------------


class TestWhichBodies:
    @pytest.mark.parametrize("body, steps", [
        ("$x/m", (("child", "m"),)),
        ("$x/child::m/m", (("child", "m"), ("child", "m"))),
        ("$x/id(r)", (("idref", "r"),)),
        ("$x/fn:id(./r)", (("idref", "r"),)),
        ("$x/id(./p/r)", (("child", "p"), ("idref", "r"))),
        ("$x/m/id(./p/r)/m", (("child", "m"), ("child", "p"), ("idref", "r"),
                              ("child", "m"))),
    ])
    def test_relations(self, body, steps):
        relation = pushdown.recognize_step_relation(parse_expression(body), "x", ())
        assert relation == StepRelation(steps)

    @pytest.mark.parametrize("body", [
        "$x",                       # no step
        "$y/m",                     # not the recursion variable
        "$x/m[1]",                  # a predicate
        '$x/m[@k = "a"]',
        "$x/@k",                    # not a named child step
        "$x/*",
        "$x/parent::m",
        "$x//m",
        "$x/id(./p[1]/r)",          # a predicate in the chain
        "$x/id(./@ref)",
        "$x/id(.)",                 # the context's own value
        f"$x/id(./r, {D})",         # the anchored form
        "id($x/r)",                 # a call, not a step
        "$x/m | $x/id(./r)",
        "($x/m)[1]",
        "for $y in $x return $y/m",
    ])
    def test_not_relations(self, body):
        assert pushdown.recognize_step_relation(parse_expression(body), "x", ()) is None

    def test_a_user_function_called_id_is_no_relation(self):
        body = parse_expression("$x/id(./r)")
        assert pushdown.recognize_step_relation(body, "x", {("id", 1)}) is None

    @pytest.mark.parametrize("body, step, filters", [
        ("$x/following-sibling::S[1]", ("following-sibling", "S", 1), 0),
        ("$x/preceding-sibling::S[1]", ("preceding-sibling", "S", 1), 0),
        ("$x/following-sibling::S[3]", ("following-sibling", "S", 3), 0),
        ("$x/following-sibling::S[1][k]", ("following-sibling", "S", 1), 1),
        ("$x/following-sibling::S[1][not(k = preceding-sibling::S[1]/k)]",
         ("following-sibling", "S", 1), 1),
        ('$x/preceding-sibling::S[2][k = "a"][fn:count(./k) > 1]',
         ("preceding-sibling", "S", 2), 2),
        ("$x/following-sibling::S[1][string-length(/r/@v) > 0]",  # its own tree's root
         ("following-sibling", "S", 1), 1),
    ])
    def test_sibling_relations(self, body, step, filters):
        expr = parse_expression(body)
        relation = pushdown.recognize_step_relation(expr, "x", ())
        assert relation == StepRelation((step,), expr.right.predicates[1:])
        assert len(relation.filters) == filters

    @pytest.mark.parametrize("body", [
        "$x/following-sibling::S",              # no position
        "$x/following-sibling::S[0]",
        "$x/following-sibling::S[k][1]",        # the filter before the position
        "$x/following-sibling::S[$v]",
        "$x/following-sibling::S[1][$v]",       # a free variable in the filter
        "$x/following-sibling::S[1][k = $x/k]",
        f"$x/following-sibling::S[1][k = {D}//k]",  # another document
        "$x/following-sibling::S[1][id(k)]",    # an ID may name another tree
        "$x/following-sibling::S[1][<k/> = k]",  # a constructor
        "$x/following-sibling::S[1][position() = 1]",
        "$x/following-sibling::S[1][last() = 1]",
        "$x/following-sibling::S[1][trace(k, 'k')]",  # a side effect
        "$x/following-sibling::*[1]",
        "$x/following-sibling::node()[1]",
        "$x/following-sibling::text()[1]",
        "$x/following-sibling::S[1]/k",         # a sibling step in a longer chain
        "$x/k/following-sibling::S[1]",
        "$x/m/following-sibling::S[1][k]",
        "$y/following-sibling::S[1]",
        "$x/following::S[1]",                   # not a sibling axis
    ])
    def test_not_sibling_relations(self, body):
        assert pushdown.recognize_step_relation(parse_expression(body), "x", ()) is None

    def test_a_user_function_in_the_filter_is_no_relation(self):
        expr = parse_expression("$x/following-sibling::S[1][local:f(k)]")
        assert pushdown.recognize_step_relation(expr, "x", {("local:f", 1)}) is None
        shadowed = parse_expression("$x/following-sibling::S[1][not(k)]")
        assert pushdown.recognize_step_relation(shadowed, "x", ()) is not None
        assert pushdown.recognize_step_relation(shadowed, "x", {("not", 1)}) is None

    def test_each_engine_keys_its_own_verdicts(self):
        expr = parse_expression("$x/following-sibling::S[1][k]")
        interpreter = pushdown.recognize_step_relation(expr, "x", ())
        algebra = pushdown.recognize_step_relation(expr, "x", (), engine="algebra")
        assert interpreter != algebra
        assert interpreter == pushdown.recognize_step_relation(parse_expression(
            "$x/following-sibling::S[1][k]"), "x", ())  # a new parse, the same key


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
    expected = items(query, resolver, **REFERENCE)
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
            assert items(query, resolver, engine=engine) == items(query, resolver, **REFERENCE)

    def test_a_seed_in_two_trees(self):
        resolver = resolver_for(GRAPH)
        resolver.register("h.xml", parse_xml(GRAPH))
        query = ('with $x seeded by (doc("g.xml")//n[@id = "n0"], doc("h.xml")//n[@id = "n1"]) '
                 'recurse $x/id(./r)')
        assert traced(query, resolver)[0] == "nodes"
        expected = items(query, resolver, **REFERENCE)
        assert len(expected) == 6  # every n of both documents, each by its own IDs
        for engine in ("interpreter", "sql"):  # algebra resolves IDs in one document
            assert items(query, resolver, engine=engine) == expected

    def test_an_id_that_resolves_outside_the_tree(self):
        document = parse_xml(GRAPH.replace("<r>n1</r>", "<r>n1 n3</r>"))
        elsewhere = parse_xml("<far/>")
        document.register_id("n3", elsewhere.document_element())
        resolver = DocumentResolver()
        resolver.register("g.xml", document)
        assert index_for(document).relation_edges((("idref", "r"),)) is None
        query = f'with $x seeded by {D}//n[@id = "n0"] recurse $x/id(./r)'
        assert traced(query, resolver)[0] == "nodes"
        expected = items(query, resolver, **REFERENCE)
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
        assert evaluate(query, documents=resolver, **REFERENCE).items == [0]
        assert evaluate(query, documents=resolver, engine="algebra").items == [0]


# ---------------------------------------------------------------------------
# the composed edge map is a value index
# ---------------------------------------------------------------------------


class TestTheEdgeMap:
    def test_a_one_step_relation_reads_the_index_map_itself(self):
        idx = index_for(parse_xml(GRAPH))
        assert idx.relation_edges((("child", "m"),)) is idx.child_pres_named("m")
        assert idx.relation_edges((("idref", "r"),)) is idx.idref_targets("r")

    def test_a_chain_is_composed_once_per_index(self):
        idx = index_for(parse_xml(GRAPH))
        steps = (("child", "p"), ("idref", "r"))
        edges = idx.relation_edges(steps)
        assert idx.relation_edges(steps) is edges
        (n2,) = [pre for pre, node in enumerate(idx.nodes)
                 if getattr(node, "name", None) == "n" and node.get_attribute("id").value == "n2"]
        (n0,) = edges[n2]
        assert idx.nodes[n0].get_attribute("id").value == "n0"

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


# ---------------------------------------------------------------------------
# a sibling relation's verdicts: filled by each engine, dropped by edits
# ---------------------------------------------------------------------------


PLAY = ("<play><scene><S><k>a</k></S><S><k>b</k></S><S><k>a</k></S><S><k>a</k></S>"
        "<S><k>b</k></S></scene><scene><S><k>c</k></S></scene></play>")

DIALOG = "$x/following-sibling::S[1][not(k = preceding-sibling::S[1]/k)]"

DIALOG_QUERY = f'count(with $x seeded by doc("d.xml")//scene[1]/S[1] recurse {DIALOG})'


def verdicts(document, engine: str, body: str = DIALOG) -> dict:
    """The verdicts *engine* filled for *body* in *document*'s index."""
    relation = pushdown.recognize_step_relation(parse_expression(body), "x", (),
                                                engine=engine)
    return index_for(document).verdicts(relation)


def speeches(document) -> list:
    return [node for node in document.iter_tree() if getattr(node, "name", None) == "S"]


class TestVerdicts:
    def test_each_engine_fills_its_own(self):
        """Three targets come up (the second, third and fourth speech);
        algebra decides them again with its own plan, sql's driver reads
        the interpreter's."""
        document = parse_xml(PLAY)
        with Session({"d.xml": document}) as session:
            assert session.evaluate(DIALOG_QUERY, engine="interpreter").items == [2]
            assert len(verdicts(document, "interpreter")) == 3
            assert len(verdicts(document, "algebra")) == 0
            assert session.evaluate(DIALOG_QUERY, engine="algebra").items == [2]
            assert len(verdicts(document, "algebra")) == 3
            assert session.evaluate(DIALOG_QUERY, engine="sql").items == [2]
            assert session.evaluate(DIALOG_QUERY, engine="sql", trace=True).trace.find(
                "fixpoint").attributes["space"] == "pre"
            assert len(verdicts(document, "interpreter")) == 3
            assert sorted(verdicts(document, "algebra").items()) == sorted(
                verdicts(document, "interpreter").items())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_an_edit_drops_them(self, engine):
        document = parse_xml(PLAY)
        first, second, third, fourth, fifth, _ = speeches(document)
        key = "algebra" if engine == "algebra" else "interpreter"
        with Session({"d.xml": document}) as session:
            def answer() -> list:
                result = session.evaluate(DIALOG_QUERY, engine=engine).items
                assert result == session.evaluate(DIALOG_QUERY, **REFERENCE).items
                return result

            assert answer() == [2]
            assert verdicts(document, key)
            fourth.children[0].children[0].set_value("c")  # a text edit
            assert not verdicts(document, key)
            assert answer() == [4]
            assert verdicts(document, key)
            document.register_id("s1", first)  # a new ID
            assert not verdicts(document, key)
            assert answer() == [4]
            fifth.parent.append_child(parse_xml("<S><k>a</k></S>").document_element())
            assert answer() == [5]  # a new sibling: a new index

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_filter_that_raises(self, engine):
        """The third speech's speaker is no number: the filter raises when
        that speech first comes up, in round 1 — on every engine, on every
        run, and nothing is decided for it."""
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
                    session.evaluate(query, **REFERENCE)
                idx = index_for(document)
                assert verdicts(document, key, body) == {
                    idx.pre(speeches(document)[1]): True}
