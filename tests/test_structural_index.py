"""Tests for the per-document structural index (:mod:`repro.xdm.index`).

The heart of the suite is property-style: randomized documents are walked
with every (axis, node test) combination through the indexed kernels and
cross-checked, node for node and order for order, against the naive axis
methods of :mod:`repro.xdm.node` — the semantics baseline the index must
never drift from.  On top: cache-invalidation behaviour around the
mutators (``append_child``, ``copy_node``, ``_renumber_subtree``), the
deep-document regression for the iterative traversals, and cross-engine
equivalence with the index switched on and off.

The pre-space kernels (``child::name`` on the child-by-name map,
:func:`~repro.xdm.index.batch_id_path` on the ID-reference index) are
checked against the node-object composition they replaced, kept verbatim
below as the oracle, and against everything that must invalidate them.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import evaluate
from repro.errors import AlgebraError
from repro.session import Session
from repro.xdm import index as xdm_index
from repro.xdm.document import _renumber_subtree, copy_node, document, element, text
from repro.xdm.index import (
    IndexSet,
    StructuralIndex,
    batch_id_path,
    batch_probe,
    batch_step,
    cached_index,
    clear_index_registry,
    index_for,
    indexed_step,
)
from repro.xdm.items import string_value_of_item
from repro.xdm.node import AttributeNode, ElementNode
from repro.xdm.sequence import ddo
from repro.xmlio.parser import parse_xml
from repro.xquery import ast
from repro.xquery.evaluator import Evaluator

AXES = [
    "child", "descendant", "descendant-or-self", "self", "attribute",
    "parent", "ancestor", "ancestor-or-self", "following-sibling",
    "preceding-sibling", "following", "preceding",
]

NODE_TESTS = [
    ("name", "a"), ("name", "b"), ("name", "*"), ("node", None),
    ("text", None), ("comment", None), ("element", None), ("element", "b"),
    ("attribute", None), ("attribute", "x"), ("document-node", None),
    ("processing-instruction", None), ("processing-instruction", "pi"),
]


def random_document_text(rng: random.Random) -> str:
    """A random small document with mixed node kinds and attributes."""

    def subtree(depth: int) -> str:
        name = rng.choice("abcde")
        if depth > 4 or rng.random() < 0.3:
            return f"<{name}>t{rng.randint(0, 9)}</{name}>"
        inner = "".join(subtree(depth + 1) for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.2:
            inner += "<!--c-->"
        if rng.random() < 0.1:
            inner += "<?pi data?>"
        attrs = f' x="{rng.randint(0, 3)}"' if rng.random() < 0.5 else ""
        return f"<{name}{attrs}>{inner}</{name}>"

    return subtree(0)


def naive_step(evaluator, node, axis, kind, name):
    test = ast.NodeTest(kind, name)
    return [candidate for candidate in evaluator._axis_nodes(node, axis)
            if evaluator._node_test(candidate, test, axis)]


def all_nodes_and_attributes(doc):
    nodes = []
    for node in doc.iter_tree():
        nodes.append(node)
        nodes.extend(node.attribute_axis())
    return nodes


class TestKernelsAgainstNaiveAxes:
    """Property tests: indexed kernels == naive axis methods, everywhere."""

    def test_single_node_kernels_match_naive_axes(self):
        rng = random.Random(20260729)
        evaluator = Evaluator()
        for _ in range(15):
            doc = parse_xml(random_document_text(rng))
            index_set = IndexSet()
            for node in all_nodes_and_attributes(doc):
                for axis in AXES:
                    for kind, name in NODE_TESTS:
                        expected = naive_step(evaluator, node, axis, kind, name)
                        got = indexed_step(node, axis, kind, name)
                        if got is not None:
                            assert [id(n) for n in got] == [id(n) for n in expected], \
                                (axis, kind, name)
                        # The IndexSet covers every axis; check it too.
                        via_set = index_set.step(node, axis, kind, name)
                        if via_set is not None:
                            assert [id(n) for n in via_set] == [id(n) for n in expected], \
                                (axis, kind, name, "IndexSet")

    def test_batch_kernels_match_per_node_ddo(self):
        rng = random.Random(42)
        evaluator = Evaluator()
        for _ in range(15):
            doc = parse_xml(random_document_text(rng))
            population = all_nodes_and_attributes(doc)
            for axis in AXES:
                for kind, name in NODE_TESTS:
                    contexts = rng.sample(
                        population, min(len(population), rng.randint(1, 6)))
                    contexts = contexts + contexts[:1]  # duplicate context node
                    merged = []
                    for node in contexts:
                        merged.extend(naive_step(evaluator, node, axis, kind, name))
                    expected = ddo(merged)
                    got = batch_step(contexts, axis, kind, name)
                    if got is None:
                        continue
                    assert [id(n) for n in got] == [id(n) for n in expected], \
                        (axis, kind, name)

    def test_batch_step_across_two_documents(self):
        left = parse_xml("<r><a/><a/><b><a/></b></r>")
        right = parse_xml("<r><a/><b/></r>")
        contexts = [left.document_element(), right.document_element()]
        result = batch_step(contexts, "descendant", "name", "a")
        assert [n.name for n in result] == ["a", "a", "a", "a"]
        # Document order across trees == ascending order key.
        keys = [n.order_key for n in result]
        assert keys == sorted(keys)

    def test_pre_post_plane_invariants(self):
        rng = random.Random(7)
        doc = parse_xml(random_document_text(rng))
        index = StructuralIndex(doc)
        n = len(index.nodes)
        for pre in range(n):
            # Descendants are exactly the contiguous slice (pre, pre+size].
            subtree = index.nodes[pre + 1: pre + index.size[pre] + 1]
            assert subtree == index.nodes[pre].descendant_axis()
            # pre < post, and the ancestor test matches the parent chain.
            assert pre < index.post[pre]
        for pre in range(1, n):
            parent = index.parent_pre[pre]
            assert index.is_ancestor(index.nodes[parent], index.nodes[pre])
            assert index.level[pre] == index.level[parent] + 1


class TestPathValueIndex:
    """The lazy path-value index and the index-side probe kernel."""

    XML = ('<r id="r">'
           '<g id="g1"><n k="x"><t>alpha</t></n><n k="y"><t>beta</t></n></g>'
           '<g id="g2"><n k="x"><t>beta</t></n><m k="x"/></g>'
           '<n k="x"><t>alpha</t></n>'
           '</r>')

    def setup_method(self):
        clear_index_registry()

    def _ids(self, idx, pres):
        return sorted(idx.nodes[p].get_attribute("id").value for p in pres)

    def test_path_generalizes_the_single_step_sets(self):
        doc = parse_xml(self.XML)
        idx = index_for(doc)
        # the empty path is the attribute / child value index: the owner
        # elements of @k = "x", the parents of a <t>alpha</t>
        x_owners = idx.path_value_owners((), "attr", "k")["x"]
        assert ([idx.nodes[p].name for p in sorted(x_owners)] == ["n", "n", "m", "n"])
        alpha_parents = idx.path_value_owners((), "child", "t")["alpha"]
        assert ([idx.nodes[idx.parent_pre[p]].get_attribute("id").value
                 for p in sorted(alpha_parents)] == ["g1", "r"])
        # one child step in front lifts the owners to the grandparent
        assert self._ids(idx, idx.path_value_owners(("n",), "attr", "k")["x"]) == ["g1", "g2", "r"]
        assert self._ids(idx, idx.path_value_owners(("n",), "attr", "k")["y"]) == ["g1"]
        assert self._ids(idx, idx.path_value_owners(("n",), "child", "t")["beta"]) == ["g1", "g2"]
        # <m k="x"/> is not an n: only the step name given lifts
        assert self._ids(idx, idx.path_value_owners(("m",), "attr", "k")["x"]) == ["g2"]
        # two steps: r/g/n/@k, owned by the root element only
        root = doc.document_element()
        assert idx.path_value_owners(("g", "n"), "attr", "k")["x"] == {idx.pre(root)}
        assert "z" not in idx.path_value_owners(("n",), "attr", "k")

    def test_value_mutation_drops_the_path_index(self):
        doc = parse_xml(self.XML)
        idx = index_for(doc)
        assert self._ids(idx, idx.path_value_owners(("n",), "attr", "k")["y"]) == ["g1"]
        generation = idx.value_generation
        g2_n = doc.document_element().children[1].children[0]
        g2_n.get_attribute("k").set_value("y")
        assert index_for(doc) is idx and idx.value_generation == generation + 1
        assert self._ids(idx, idx.path_value_owners(("n",), "attr", "k")["y"]) == ["g1", "g2"]
        g2_n.children[0].children[0].set_value("gamma")
        assert self._ids(idx, idx.path_value_owners(("n",), "child", "t")["gamma"]) == ["g2"]
        assert self._ids(idx, idx.path_value_owners(("n",), "child", "t")["beta"]) == ["g1"]

    def test_probe_matches_enumeration_in_document_order(self):
        """Descendant and child probes from overlapping, duplicated and
        shuffled context nodes: same nodes, document order, no duplicates."""
        rng = random.Random(5)
        for _ in range(30):
            doc = parse_xml(random_document_text(rng))
            idx = index_for(doc)
            elements = [n for n in doc.iter_tree() if n.children] or [doc]
            contexts = [rng.choice(elements) for _ in range(rng.randint(1, 5))]
            contexts += [doc] * rng.randint(0, 1)  # overlaps everything
            rng.shuffle(contexts)
            value = str(rng.randint(0, 3))
            owners = idx.path_value_owners((), "attr", "x").get(value, set())
            for axis in ("child", "descendant"):
                for name in "abc":
                    expected = [node for node in batch_step(contexts, axis, "name", name)
                                if idx.pre(node) in owners]
                    probed = batch_probe(contexts, axis, name, lambda _idx: owners)
                    if probed is None:  # declined: owners outnumber candidates
                        continue
                    assert len(probed) == len(expected)
                    assert all(a is b for a, b in zip(probed, expected))

    def test_probe_declines_what_it_cannot_answer(self):
        doc = parse_xml(self.XML)
        idx = index_for(doc)
        root = doc.document_element()
        owners = idx.path_value_owners((), "attr", "k")["x"]
        assert batch_probe([root], "parent", "n", lambda _idx: owners) is None
        # one candidate, three owners: enumerating is the cheaper side
        g1 = root.children[0]
        assert batch_probe([g1.children[0]], "child", "t", lambda _idx: owners) is None
        # no candidate at all: answered without asking for the owners
        def never(_idx):
            raise AssertionError("owners resolved although the step is empty")
        assert batch_probe([g1.children[0]], "descendant", "zzz", never) == []

    def test_probe_across_two_documents(self):
        one, two = parse_xml(self.XML), parse_xml(self.XML)
        probed = batch_probe([two, one], "descendant", "n",
                             lambda idx: idx.path_value_owners((), "attr", "k")["y"])
        assert [node.root() for node in probed] == [one, two]


class TestRegistryAndInvalidation:
    def setup_method(self):
        clear_index_registry()

    def test_index_is_cached_per_root(self):
        doc = parse_xml("<r><a/></r>")
        first = index_for(doc)
        assert index_for(doc.document_element()) is first
        assert cached_index(doc) is first

    def test_append_child_invalidates_the_tree(self):
        doc = parse_xml("<r><a/></r>")
        index_for(doc)
        assert cached_index(doc) is not None
        doc.document_element().append_child(element("b"))
        assert cached_index(doc) is None
        rebuilt = index_for(doc)
        assert [n.name for n in rebuilt.step(doc, "descendant", "name", "b")] == ["b"]

    def test_moving_a_node_invalidates_its_old_tree(self):
        doc = parse_xml("<r><a/></r>")
        index_for(doc)
        moved = doc.document_element().children[0]
        element("host", moved)  # reparents <a/> out of doc
        assert cached_index(doc) is None

    def test_renumber_subtree_invalidates(self):
        root = element("r", element("a"))
        index_for(root)
        assert cached_index(root) is not None
        _renumber_subtree(root)
        assert cached_index(root) is None

    def test_copy_node_gets_its_own_index(self):
        doc = parse_xml("<r><a/><b/></r>")
        original = index_for(doc)
        copy = copy_node(doc)
        # Copying builds a brand-new tree: the original index survives...
        assert cached_index(doc) is original
        copy_index = index_for(copy)
        # ...and the copy gets a separate one covering the fresh identities.
        assert copy_index is not original
        assert copy_index.pre(copy.document_element()) == 1
        assert original.pre(copy.document_element()) is None

    def test_registry_is_bounded(self):
        documents = [document(element("r", text(i))) for i in range(xdm_index.REGISTRY_LIMIT + 8)]
        for doc in documents:
            index_for(doc)
        assert xdm_index.registry_size() <= xdm_index.REGISTRY_LIMIT


class TestDeepDocuments:
    def test_deep_document_traversals_are_iterative(self):
        """Regression: deep trees must not hit Python's recursion limit."""
        depth = 3000
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)
            node = element("leaf")
            for _ in range(depth):
                node = element("n", node)
            root = document(node)
            assert sum(1 for _ in root.iter_tree()) == depth + 2
            assert len(root.descendant_axis()) == depth + 1
            index = index_for(root)
            assert index.size[0] == depth + 1
            assert len(index.step(root, "descendant", "name", "leaf")) == 1
        finally:
            sys.setrecursionlimit(limit)
            clear_index_registry()


class TestEngineEquivalenceWithIndex:
    QUERIES = [
        'count(doc("curriculum.xml")//pre_code)',
        'doc("curriculum.xml")//course[@code = "c1"]/prerequisites/pre_code',
        '(with $x seeded by doc("curriculum.xml")//course[@code = "c1"]'
        ' recurse $x/id (./prerequisites/pre_code))',
        'doc("curriculum.xml")//course[@code = "c3"]/preceding-sibling::course/@code',
    ]

    @pytest.mark.parametrize("engine", ["interpreter", "algebra", "sql"])
    def test_results_identical_with_and_without_index(self, engine, curriculum_resolver):
        for query in self.QUERIES:
            baseline = evaluate(query, documents=curriculum_resolver, engine=engine,
                                use_index=False, use_cache=False)
            indexed = evaluate(query, documents=curriculum_resolver, engine=engine,
                               use_index=True, use_cache=False)
            assert baseline.string_values() == indexed.string_values(), (engine, query)
            base_nodes = [id(i) for i in baseline.items]
            indexed_nodes = [id(i) for i in indexed.items]
            assert base_nodes == indexed_nodes, (engine, query)

    def test_cross_engine_items_identical_with_index(self, curriculum_resolver):
        for query in self.QUERIES:
            reference = None
            for engine in ("interpreter", "algebra", "sql"):
                result = evaluate(query, documents=curriculum_resolver, engine=engine,
                                  use_index=True, use_cache=False)
                snapshot = [id(i) for i in result.items]
                if reference is None:
                    reference = snapshot
                else:
                    assert snapshot == reference, engine


# ---------------------------------------------------------------------------
# the pre-space kernels against the composition they replaced
# ---------------------------------------------------------------------------
#
# The oracle is the code of the commit before the kernels moved to pre-space,
# kept verbatim but for what it called on the index object (the per-node
# child-by-name maps, here computed from ``node.children`` on every call):
# ``batch_step``'s preamble, child case and final ddo, ``batch_id``, ``ddo``
# and the document grouping of ``Evaluator._batch_id``.


def oracle_ddo(sequence):
    seen = set()
    unique = []
    for item in sequence:
        if id(item) not in seen:
            seen.add(id(item))
            unique.append(item)
    unique.sort(key=lambda node: node.order_key)
    return unique


def oracle_batch_child_step(nodes, name):
    """The former ``batch_step(nodes, "child", "name" | "element", name)``."""
    if not nodes:
        return []
    distinct = nodes
    if len(nodes) > 1:
        seen = set()
        distinct = []
        for node in nodes:
            if id(node) not in seen:
                seen.add(id(node))
                distinct.append(node)
    collected = []
    indexes = IndexSet()
    for node in distinct:
        if isinstance(node, AttributeNode):
            continue
        idx = indexes.for_node(node)
        pre = idx.pre_of.get(id(node))
        if pre is None:
            return None
        by_name = {}
        for child in node.children:
            if isinstance(child, ElementNode):
                by_name.setdefault(child.name, []).append(child)
        collected.extend(list(by_name.get(name, ())))
    if len(distinct) == 1:
        return collected
    return oracle_ddo(collected)


def oracle_batch_id(document, items):
    tokens = set()
    for item in items:
        tokens.update(string_value_of_item(item).split())
    lookup = document.lookup_id
    return [element for token in tokens if (element := lookup(token)) is not None]


def oracle_id_chain(nodes, names):
    """The former ``Evaluator._batch_id`` for a predicate-free child chain."""
    by_document = {}
    for node in nodes:
        if not hasattr(node, "node_kind"):
            return None
        document = node.document()
        if document is not None:
            by_document.setdefault(id(document), (document, []))[1].append(node)
    found = []
    for document, column in by_document.values():
        for name in names:
            column = oracle_batch_child_step(column, name)
            if column is None:
                return None
        found.extend(oracle_batch_id(document, column))
    return oracle_ddo(found)


IDS = ["i0", "i1", "i2", "i3"]
NAMES = ["course", "prerequisites", "pre_code", "x"]

_references = st.lists(st.sampled_from(IDS + ["dangling"]), max_size=3).map(" ".join)
_pre_code = st.one_of(
    _references,
    # mixed content: the string value runs across the inner element
    st.builds(lambda a, b, c: f"{a}<em>{b}</em> {c}", _references, _references,
              _references),
).map(lambda content: f"<pre_code>{content}</pre_code>")


def _element(name, code, children):
    attribute = f' code="{code}"' if code else ""
    return f"<{name}{attribute}>{''.join(children)}</{name}>"


#: Random trees over the curriculum's names: IDs repeat (the first bearer
#: wins), references are multi-token and sometimes dangling, ``pre_code``
#: turns up at every level and nests.
_tree = st.recursive(
    _pre_code,
    lambda children: st.builds(_element, st.sampled_from(NAMES),
                               st.sampled_from(IDS + [""]),
                               st.lists(children, max_size=4)),
    max_leaves=20)
_corpus = st.lists(_tree.map(lambda body: f"<root>{body}</root>"), min_size=1, max_size=3)
_chain = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map(tuple)


def _identities(nodes):
    return None if nodes is None else [id(node) for node in nodes]


class TestPreSpaceKernelsAgainstTheOracle:
    @settings(max_examples=120, deadline=None)
    @given(_corpus, _chain, st.lists(st.integers(0, 10_000), max_size=12), st.booleans())
    def test_same_nodes_same_order_same_declines(self, texts, names, picks, atomic):
        documents = [parse_xml(text, id_attributes=("code",)) for text in texts]
        population = [node for document in documents
                      for node in all_nodes_and_attributes(document)]
        # contexts repeat, nest, mix documents and include attributes
        contexts = [population[pick % len(population)] for pick in picks]
        for name in names:
            for kind in ("name", "element"):
                assert _identities(batch_step(contexts, "child", kind, name)) == \
                    _identities(oracle_batch_child_step(contexts, name)), name
        if atomic:
            contexts.insert(len(contexts) // 2, "i0")  # both decline: not a node
        assert _identities(batch_id_path(contexts, names)) == \
            _identities(oracle_id_chain(contexts, names))
        if atomic:
            assert batch_id_path(contexts, names) is None

    @settings(max_examples=40, deadline=None)
    @given(_corpus, st.lists(st.sampled_from(NAMES), max_size=3))
    def test_the_engines_agree_with_the_reference(self, texts, names):
        """``E/id(chain)`` for chains of length 0–3: every engine, index on
        and off, item-identical to the interpreter without the index (the
        algebra engine's ``fn:id`` wants a corpus of one document)."""
        documents = {f"d{position}.xml": text for position, text in enumerate(texts)}
        everything = ", ".join(f'doc("{uri}")//*' for uri in documents)
        query = f"({everything})/id({'/'.join(names) or '.'})"
        with Session(documents, id_attributes=("code",)) as session:
            expected = _identities(session.evaluate(
                query, engine="interpreter", use_index=False).items)
            for engine in ("interpreter", "algebra", "sql"):
                for use_index in (True, False):
                    try:
                        got = session.evaluate(query, engine=engine,
                                               use_index=use_index).items
                    except AlgebraError:
                        assert engine == "algebra" and len(documents) > 1
                        continue
                    assert _identities(got) == expected, (engine, use_index)

    def test_an_id_outside_the_tree_declines(self):
        """An ID map may name an element of another tree; pres cannot, so
        the kernel hands the chain back — and never answers stale."""
        document = parse_xml('<r><c code="a"><p>b</p></c><c code="b"/></r>',
                             id_attributes=("code",))
        contexts = list(document.document_element().children)
        assert [node.get_attribute("code").value
                for node in batch_id_path(contexts, ("p",))] == ["b"]
        stranger = element("stranger")
        document.register_id("s", stranger)
        contexts[0].children[0].children[0].set_value("b s")
        assert batch_id_path(contexts, ("p",)) is None
        assert oracle_id_chain(contexts, ("p",))[-1] is stranger

    def test_a_tree_without_a_document_has_no_ids(self):
        tree = element("r", element("p", "a"), attrs={"code": "a"})
        assert batch_id_path([tree], ("p",)) == []
        assert oracle_id_chain([tree], ("p",)) == []


CURRICULUM = (
    '<curriculum>'
    '<course code="c1"><prerequisites><pre_code>c2</pre_code></prerequisites></course>'
    '<course code="c2"><prerequisites/></course>'
    '<course code="c3"><prerequisites><pre_code>late</pre_code></prerequisites></course>'
    '<course code="c4"><prerequisites/></course>'
    '</curriculum>')

#: The chain as a path step and inside both fixpoint algorithms.
REFERENCED = [
    'data(doc("c.xml")//course/id(./prerequisites/pre_code)/@code)',
    'data((with $x seeded by doc("c.xml")//course[@code = ("c1", "c3")] '
    'recurse $x/id(./prerequisites/pre_code))/@code)',
    'data((with $x seeded by doc("c.xml")//course[@code = ("c1", "c3")] '
    'recurse $x/id(./prerequisites/pre_code) using naive)/@code)',
]


class TestWhatInvalidatesTheIdReferenceIndex:
    """Each of the four ways a reference can change changes the next
    answer, on every engine, with the maps already built."""

    @staticmethod
    def answers(session):
        found = {tuple(sorted(str(item) for item in
                              session.evaluate(query, engine=engine).items))
                 for query in REFERENCED for engine in ("interpreter", "algebra", "sql")}
        assert len(found) == 1, found
        return found.pop()

    @pytest.fixture()
    def session(self):
        document = parse_xml(CURRICULUM, id_attributes=("code",))
        with Session({"c.xml": document}, id_attributes=("code",)) as session:
            assert self.answers(session) == ("c2",)
            assert index_for(document).idref_targets("pre_code")  # built, and used
            yield session, document

    def test_a_text_edit(self, session):
        session, document = session
        pre_code = document.document_element().children[0].children[0].children[0]
        pre_code.children[0].set_value("c4 c1")
        assert self.answers(session) == ("c1", "c4")

    def test_a_new_reference(self, session):
        session, document = session
        prerequisites = document.document_element().children[1].children[0]
        prerequisites.append_child(element("pre_code", "c4 c1"))
        assert self.answers(session) == ("c1", "c2", "c4")

    def test_a_late_id(self, session):
        session, document = session
        document.register_id("late", document.document_element().children[3])
        assert self.answers(session) == ("c2", "c4")

    def test_a_document_registered_again(self, session):
        session, _ = session
        session.register_document("c.xml", CURRICULUM.replace(">c2<", ">c3 c4<"))
        assert self.answers(session) == ("c3", "c4")


def test_the_ledgers_curriculum_closure_is_answered_by_the_kernel(monkeypatch):
    """A kernel that quietly declines still answers right, only slowly.
    Written so that no step relation takes it (a free variable that is no
    prolog variable), the benchmark's own curriculum body must be answered
    by the ``step:id`` kernel, with no fallback, under both algorithms, on
    the engines that iterate the body; as written, its rounds run in
    pre-space — one ``fixpoint:pre-space`` hit, no fallback — and, with
    its images filled, apply no path at all."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    from ledger import corpus, ops

    documents, _ = corpus.build("tiny")
    start = ops.Scenarios(documents).start_nodes("curriculum", random.Random(7))[0]
    uri = corpus.DOCUMENT_OF["curriculum"]
    body = ops.BODIES["curriculum"]
    with Session({uri: documents[uri]}, id_attributes=corpus.ID_ATTRIBUTES) as session:
        def traced(query: str, engine: str) -> tuple:
            result = session.evaluate(query, engine=engine, trace=True)
            assert len(result.trace.find_all("round")) > 1, engine
            return result, {span.name: span.attributes for span in result.trace.children
                            if span.name.startswith("kernel:")}

        for engine, naive in (("interpreter", False), ("interpreter", True),
                              ("algebra", False), ("algebra", True), ("sql", True)):
            text = ops.closure_text("curriculum", start, naive=naive)
            _, kernels = traced("let $none := () return "
                                + text.replace(body, f"{body} | $none"), engine)
            assert "kernel:fixpoint:pre-space" not in kernels, (engine, naive)
            if engine != "algebra":  # whose plan has its own ID lookup
                step = kernels["kernel:step:id"]
                assert step["batch"] and not step["fallback"], (engine, naive)
            for _ in range(3):  # cold, filling, warm
                result, kernels = traced(text, engine)
                kernel = kernels["kernel:fixpoint:pre-space"]
                assert (kernel["batch"], kernel["fallback"]) == (1, 0), (engine, naive)
                assert result.trace.find("fixpoint").attributes["space"] == "pre"
            assert "kernel:step:id" not in kernels, (engine, naive)
