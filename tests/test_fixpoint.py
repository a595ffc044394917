"""Tests for the IFP engine: Naive, Delta, statistics, divergence, properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FixpointError
from repro.fixpoint import FixpointEngine, delta_fixpoint, naive_fixpoint
from repro.fixpoint.stats import FixpointStatistics, StatisticsCollector
from repro.xdm import document, element, node_union


def make_chain(length):
    """A document holding a chain root -> n1 -> n2 -> ... of *length* elements."""
    nodes = None
    for index in range(length, 0, -1):
        nodes = element("n", {"i": str(index)}, *([nodes] if nodes is not None else []))
    content = [nodes] if nodes is not None else []
    return document(element("root", *content))


def children_body(nodes):
    """The recursion body: all element children of the input nodes."""
    result = []
    for node in nodes:
        result.extend(child for child in node.children if child.name)
    return result


class TestAlgorithms:
    def test_naive_and_delta_agree_on_distributive_body(self):
        doc = make_chain(6)
        seed = [doc.document_element()]
        engine = FixpointEngine()
        runs = engine.run_both(children_body, seed)
        naive_ids = {id(n) for n in runs["naive"].value}
        delta_ids = {id(n) for n in runs["delta"].value}
        assert naive_ids == delta_ids
        assert len(runs["naive"].value) == 6

    def test_delta_feeds_no_more_nodes_than_naive(self):
        doc = make_chain(8)
        seed = [doc.document_element()]
        runs = FixpointEngine().run_both(children_body, seed)
        assert runs["delta"].statistics.total_nodes_fed_back <= \
            runs["naive"].statistics.total_nodes_fed_back
        assert runs["delta"].statistics.recursion_depth == \
            runs["naive"].statistics.recursion_depth

    def test_result_is_in_document_order_without_duplicates(self):
        doc = make_chain(5)
        root = doc.document_element()
        seed = [root]

        def body(nodes):
            # return children twice and in reverse to stress normalisation
            found = children_body(nodes)
            return list(reversed(found)) + found

        result = FixpointEngine().run(body, seed, algorithm="delta").value
        keys = [node.order_key for node in result]
        assert keys == sorted(keys)
        assert len(set(map(id, result))) == len(result)

    def test_seed_must_contain_nodes(self):
        from repro.errors import XQueryTypeError

        with pytest.raises(XQueryTypeError):
            naive_fixpoint(children_body, [1, 2])
        with pytest.raises(XQueryTypeError):
            delta_fixpoint(children_body, ["x"])

    def test_body_must_return_nodes(self):
        from repro.errors import XQueryTypeError

        doc = make_chain(2)
        with pytest.raises(XQueryTypeError):
            naive_fixpoint(lambda nodes: [42], [doc.document_element()])

    def test_unknown_algorithm_rejected(self):
        doc = make_chain(2)
        with pytest.raises(FixpointError):
            FixpointEngine().run(children_body, [doc.document_element()], algorithm="magic")

    def test_divergence_raises_fixpoint_error(self):
        doc = make_chain(1)

        def fresh_nodes(nodes):
            # constructs a new node each round: the IFP is undefined
            return node_union(nodes, [element("fresh")])

        with pytest.raises(FixpointError):
            FixpointEngine(max_iterations=25).run(fresh_nodes, [doc.document_element()],
                                                  algorithm="naive")
        with pytest.raises(FixpointError):
            FixpointEngine(max_iterations=25).run(fresh_nodes, [doc.document_element()],
                                                  algorithm="delta")

    def test_empty_seed_yields_empty_result(self):
        result = FixpointEngine().run(children_body, [], algorithm="delta")
        assert result.value == []


class TestStatistics:
    def test_iteration_records(self):
        doc = make_chain(4)
        statistics = FixpointStatistics()
        naive_fixpoint(children_body, [doc.document_element()], statistics=statistics)
        assert statistics.algorithm == "naive"
        assert statistics.recursion_depth == len(statistics.iterations)
        assert statistics.total_nodes_fed_back == sum(r.fed_back for r in statistics.iterations)
        assert statistics.result_size == 4
        summary = statistics.summary()
        assert summary["algorithm"] == "naive" and summary["result_size"] == 4

    def test_merge_concatenates_iterations(self):
        doc = make_chain(3)
        first, second = FixpointStatistics(), FixpointStatistics()
        naive_fixpoint(children_body, [doc.document_element()], statistics=first)
        naive_fixpoint(children_body, [doc.document_element()], statistics=second)
        total = first.total_nodes_fed_back + second.total_nodes_fed_back
        first.merge(second)
        assert first.total_nodes_fed_back == total

    def test_collector_aggregates_runs(self):
        collector = StatisticsCollector()
        doc = make_chain(3)
        for _ in range(3):
            statistics = FixpointStatistics()
            delta_fixpoint(children_body, [doc.document_element()], statistics=statistics)
            collector.record_ifp(statistics)
        assert collector.ifp_evaluations == 3
        assert collector.total_nodes_fed_back > 0
        assert collector.max_recursion_depth >= 1
        assert collector.summary()["ifp_evaluations"] == 3


class TestTheoremThreeTwo:
    """Property test of Theorem 3.2 on randomly generated graph-shaped bodies.

    Bodies derived from a fixed successor relation are distributive (they
    are per-node lookups), so Naive and Delta must compute the same IFP.
    """

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_naive_equals_delta_for_edge_lookup_bodies(self, data):
        node_count = data.draw(st.integers(2, 12))
        doc = document(element("g", *[element("v", {"i": str(i)}) for i in range(node_count)]))
        vertices = list(doc.document_element().children)
        edges = {
            i: data.draw(st.lists(st.integers(0, node_count - 1), max_size=3))
            for i in range(node_count)
        }

        def body(nodes):
            result = []
            for node in nodes:
                index = int(node.get_attribute("i").value)
                result.extend(vertices[target] for target in edges[index])
            return result

        seeds = data.draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=3))
        runs = FixpointEngine().run_both(body, seeds)
        assert {id(n) for n in runs["naive"].value} == {id(n) for n in runs["delta"].value}
        assert runs["delta"].statistics.total_nodes_fed_back <= \
            runs["naive"].statistics.total_nodes_fed_back


class TestSeedAsInitialResult:
    def test_example_2_4_reading(self):
        # Under the Example 2.4 reading the seed itself is res_0, so it is
        # always contained in the result.
        doc = make_chain(3)
        root = doc.document_element()
        result = FixpointEngine().run(children_body, [root], algorithm="naive",
                                      seed_is_initial_result=True)
        assert any(node is root for node in result.value)

    def test_definition_2_1_reading_excludes_seed(self):
        doc = make_chain(3)
        root = doc.document_element()
        result = FixpointEngine().run(children_body, [root], algorithm="naive")
        assert all(node is not root for node in result.value)
