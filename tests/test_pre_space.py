"""Closures over a step relation iterate in pre-space.

A recursion body ``$x/s1/…/sk`` whose steps are predicate-free
``child::name`` steps and ``id(n1/…/nk)`` over such a chain is a relation
on the pre ranks of one tree (:class:`~repro.xdm.index.StepRelation`).  The
fixpoint driver then encodes the seed once, runs every round on the
structural index's integer maps and decodes the fixed point once.  These
tests pin which bodies are relations (on the AST and on the algebra plan),
when a relation declines its seed, that nothing a round records moves, and
that every engine still gives the reference mode's answer.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import evaluate
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


class TestAnswersAndRoundsDoNotMove:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), body=st.sampled_from(BODIES),
           start=st.sampled_from(SEEDS), naive=st.booleans())
    def test_every_engine_against_reference_mode(self, seed, body, start, naive):
        resolver = resolver_for(graph_xml(random.Random(seed)))
        using = " using naive" if naive else ""
        query = f"with $x seeded by {start} recurse {body}{using}".replace("D", D)
        expected = items(query, resolver, **REFERENCE)
        for engine in ENGINES:
            assert items(query, resolver, engine=engine) == expected, engine
        # the rounds are the node path's, in pre-space whenever there is a seed
        space, rounds = traced(query, resolver)
        assert space == ("pre" if rounds[0][0] else "nodes")
        assert rounds == traced(query, resolver, use_index=False)[1]
        for engine in ("algebra", "sql"):
            assert traced(query, resolver, engine=engine, ifp_algorithm="naive") == (
                traced(query, resolver, ifp_algorithm="naive")), engine


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
