"""Tests for the IFP engine: Naive, Delta, statistics, divergence, properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FixpointError
from repro.fixpoint import FixpointEngine
from repro.fixpoint.stats import StatisticsCollector
from repro.xdm import document, element, node_union
from repro.xdm.sequence import ddo
from repro.xquery.parser import parse_expression
from repro.xquery.pushdown import recognize_step_relation


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
            FixpointEngine().run(children_body, [1, 2], algorithm="naive")
        with pytest.raises(XQueryTypeError):
            FixpointEngine().run(children_body, ["x"], algorithm="delta")

    def test_body_must_return_nodes(self):
        from repro.errors import XQueryTypeError

        doc = make_chain(2)
        with pytest.raises(XQueryTypeError):
            FixpointEngine().run(lambda nodes: [42], [doc.document_element()],
                                 algorithm="naive")

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
        statistics = FixpointEngine().run(children_body, [doc.document_element()],
                                          algorithm="naive").statistics
        assert statistics.algorithm == "naive"
        assert statistics.recursion_depth == len(statistics.iterations)
        assert statistics.total_nodes_fed_back == sum(r.fed_back for r in statistics.iterations)
        assert statistics.result_size == 4
        summary = statistics.summary()
        assert summary["algorithm"] == "naive" and summary["result_size"] == 4

    def test_collector_aggregates_runs(self):
        collector = StatisticsCollector()
        doc = make_chain(3)
        for _ in range(3):
            collector.record_ifp(FixpointEngine().run(
                children_body, [doc.document_element()], algorithm="delta").statistics)
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


# ---------------------------------------------------------------------------
# the accumulating Delta driver: same numbers, same inputs, same trip points
# ---------------------------------------------------------------------------


def _prerequisites_body(doc, fed_log=None):
    """``$x/id(./prerequisites/pre_code)`` as a Python body that returns its
    nodes with duplicates and in *reverse* feed order, and logs what it is fed."""
    def body(nodes):
        if fed_log is not None:
            fed_log.append([node.get_attribute("code").value for node in nodes])
        found = []
        for node in reversed(nodes):
            for pre_code in node.children[0].children:
                found.append(doc.lookup_id(pre_code.string_value()))
        return found
    return body


#: The same body as a step relation (what the engines recognize it as).
PREREQUISITES = recognize_step_relation(
    parse_expression("$x/id(./prerequisites/pre_code)"), "x", ())

#: Per-round (iteration, fed, produced, new, result_size) of Delta on the tiny
#: curriculum seeded by (c36, c40), recorded at the commit *before* the driver
#: kept ``res`` as a set: the rewrite may change what a round costs, never
#: what it feeds or records.
GOLDEN_ROUNDS = [(0, 2, 2, 2, 2), (1, 2, 6, 4, 6), (2, 4, 9, 6, 12), (3, 6, 11, 4, 16),
                 (4, 4, 9, 4, 20), (5, 4, 8, 5, 25), (6, 5, 11, 4, 29), (7, 4, 0, 0, 29)]
GOLDEN_FED = [["c36", "c40"], ["c32", "c35"], ["c26", "c27", "c29", "c30"],
              ["c21", "c22", "c23", "c24", "c25", "c40"], ["c16", "c18", "c19", "c20"],
              ["c12", "c13", "c14", "c15"], ["c6", "c7", "c8", "c9", "c10"],
              ["c1", "c2", "c3", "c4"]]
#: The same under ``seed_is_initial_result=True`` (round 0 is the seed itself
#: and has no span; c40 is then already known when c25 names it).
GOLDEN_ROUNDS_SEED_FIRST = [(0, 0, 2, 2, 2), (1, 2, 2, 2, 4), (2, 2, 6, 4, 8),
                            (3, 4, 9, 5, 13), (4, 5, 10, 4, 17), (5, 4, 9, 4, 21),
                            (6, 4, 8, 5, 26), (7, 5, 11, 4, 30), (8, 4, 0, 0, 30)]


class TestDeltaDriver:
    @pytest.fixture()
    def curriculum(self):
        from repro.datagen.curriculum import CurriculumConfig, generate_curriculum

        return generate_curriculum(CurriculumConfig.tiny())

    def _run(self, doc, **options):
        from repro.observability.tracing import TraceContext

        fed_log = []
        trace = TraceContext("query")
        seed = [doc.lookup_id("c36"), doc.lookup_id("c40")]
        result = FixpointEngine().run(_prerequisites_body(doc, fed_log), seed,
                                      algorithm="delta", trace=trace, **options)
        spans = [span.attributes for span in trace.root.iter_spans()
                 if span.name in ("fixpoint", "round")]
        return result, spans, fed_log

    def test_rounds_and_spans_match_the_golden_run(self, curriculum):
        result, spans, fed_log = self._run(curriculum)
        records = [(r.iteration, r.fed_back, r.produced, r.new_nodes, r.result_size)
                   for r in result.statistics.iterations]
        assert records == GOLDEN_ROUNDS
        assert spans[0] == {"algorithm": "delta", "seed": 2, "result_size": 29, "rounds": 8}
        assert spans[1:] == [
            {"iteration": i, "fed": fed, "produced": produced, "new": new,
             "result_size": size}
            for i, fed, produced, new, size in GOLDEN_ROUNDS]
        assert fed_log == GOLDEN_FED

    @pytest.mark.parametrize("seed_first", [False, True])
    def test_the_rounds_in_pre_space_match_the_golden_run(self, curriculum, seed_first):
        """The same body as a step relation, whose images the body callable
        fills: once warm (the third run) it is not called at all.  The rounds, spans and fixed point are
        those of the node run of the body as an engine delivers it —
        duplicate-free, so only ``produced`` differs from the golden run's
        duplicating body."""
        golden = GOLDEN_ROUNDS_SEED_FIRST if seed_first else GOLDEN_ROUNDS
        body = _prerequisites_body(curriculum)
        seed = [curriculum.lookup_id("c36"), curriculum.lookup_id("c40")]
        on_nodes = FixpointEngine().run(lambda nodes: ddo(body(nodes)), seed,
                                        algorithm="delta", seed_is_initial_result=seed_first)
        for run in range(3):
            result, spans, fed_log = self._run(curriculum, relation=PREREQUISITES,
                                               seed_is_initial_result=seed_first)
            records = [(r.iteration, r.fed_back, r.new_nodes, r.result_size)
                       for r in result.statistics.iterations]
            assert records == [(i, fed, new, size) for i, fed, _, new, size in golden]
            assert spans[0]["space"] == "pre"
            assert result.statistics.iterations == on_nodes.statistics.iterations
            assert list(map(id, result.value)) == list(map(id, on_nodes.value))
        assert fed_log == []

    @pytest.mark.parametrize("limits, budget, observed", [
        ({"max_fixpoint_rounds": 3}, "max_fixpoint_rounds", 4),
        ({"max_frontier_nodes": 5}, "max_frontier_nodes", 6),
        ({"max_result_items": 15}, "max_result_items", 16),
    ])
    def test_budgets_trip_in_the_same_round_in_pre_space(self, curriculum, limits,
                                                         budget, observed):
        from repro.errors import BudgetExceeded
        from repro.limits import Governor, ResourceLimits

        seed = [curriculum.lookup_id("c36"), curriculum.lookup_id("c40")]
        with pytest.raises(BudgetExceeded) as caught:
            FixpointEngine().run(_prerequisites_body(curriculum), seed, algorithm="delta",
                                 relation=PREREQUISITES,
                                 governor=Governor(ResourceLimits(**limits)))
        assert (caught.value.budget, caught.value.observed) == (budget, observed)

    def test_the_iteration_bound_holds_in_pre_space(self, curriculum):
        seed = [curriculum.lookup_id("c36"), curriculum.lookup_id("c40")]
        body = _prerequisites_body(curriculum)
        with pytest.raises(FixpointError):
            FixpointEngine(max_iterations=6).run(body, seed, algorithm="delta",
                                                 relation=PREREQUISITES)
        assert len(FixpointEngine(max_iterations=7).run(
            body, seed, algorithm="delta", relation=PREREQUISITES).value) == 29

    def test_body_is_fed_in_document_order_without_duplicates(self, curriculum):
        # The body returns duplicates in reverse order; what comes back as
        # the next frontier is what ``e_rec(Δ) except res`` delivers.
        fed = []

        def body(nodes):
            fed.append(list(nodes))
            return _prerequisites_body(curriculum)(nodes)

        result = FixpointEngine().run(body, [curriculum.lookup_id("c36")],
                                      algorithm="delta").value
        for frontier in fed[1:]:
            keys = [node.order_key for node in frontier]
            assert keys == sorted(set(keys))
        keys = [node.order_key for node in result]
        assert keys == sorted(set(keys))

    def test_seed_as_initial_result_is_unchanged(self, curriculum):
        result, spans, fed_log = self._run(curriculum, seed_is_initial_result=True)
        records = [(r.iteration, r.fed_back, r.produced, r.new_nodes, r.result_size)
                   for r in result.statistics.iterations]
        assert records == GOLDEN_ROUNDS_SEED_FIRST
        assert [span["iteration"] for span in spans[1:]] == list(range(1, 9))
        assert fed_log[3] == ["c21", "c22", "c23", "c24", "c25"]
        codes = [node.get_attribute("code").value for node in result.value]
        assert "c36" in codes and "c40" in codes and len(codes) == 30

    @pytest.mark.parametrize("limits, budget, observed, body_calls", [
        # the check of round N runs before its body: rounds 0..3 ran
        ({"max_fixpoint_rounds": 3}, "max_fixpoint_rounds", 4, 4),
        # round 3 would feed six nodes
        ({"max_frontier_nodes": 5}, "max_frontier_nodes", 6, 3),
        # 16 nodes are known when round 4 is about to start
        ({"max_result_items": 15}, "max_result_items", 16, 4),
    ])
    def test_budgets_trip_in_the_same_round(self, curriculum, limits, budget,
                                            observed, body_calls):
        from repro.errors import BudgetExceeded
        from repro.limits import Governor, ResourceLimits

        fed_log = []
        seed = [curriculum.lookup_id("c36"), curriculum.lookup_id("c40")]
        with pytest.raises(BudgetExceeded) as caught:
            FixpointEngine().run(_prerequisites_body(curriculum, fed_log), seed,
                                 algorithm="delta",
                                 governor=Governor(ResourceLimits(**limits)))
        assert caught.value.budget == budget
        assert caught.value.observed == observed
        assert len(fed_log) == body_calls

    def test_atomic_body_result_is_a_type_error(self, curriculum):
        from repro.errors import XQueryTypeError

        seed = [curriculum.lookup_id("c36")]
        with pytest.raises(XQueryTypeError):
            FixpointEngine().run(lambda nodes: [curriculum.lookup_id("c1"), "c2"],
                                 seed, algorithm="delta")

    @pytest.mark.parametrize("name", ["curriculum", "hospital", "bidder-network", "dialogs"])
    def test_naive_equals_delta_on_the_benchmark_bodies(self, name):
        from repro import evaluate
        from repro.bench.queries import get_workload
        from repro.xmlio.serializer import serialize_sequence

        workload = get_workload(name)
        documents = {workload.document_uri: workload.size("tiny").build_document()}
        answers = {
            algorithm: serialize_sequence(evaluate(
                workload.ifp_query(algorithm, seed_limit=12), documents=documents,
                id_attributes=("id", "code")).items)
            for algorithm in ("naive", "delta")
        }
        assert answers["naive"] == answers["delta"]

    # -- the same driver under every engine ---------------------------------

    @staticmethod
    def _closure(workload, algorithm, body=None):
        """One top-level fixpoint over the workload's first seeds (the algebra
        engine compiles no fixpoint under a ``for``, and no ``subsequence``
        outside the prolog)."""
        return (f"{workload.prolog}\ndeclare variable $seeds := "
                f"subsequence({workload.seeds_expression}, 1, 4);\n"
                f"with $x seeded by $seeds "
                f"recurse {body or workload.recursion_body} using {algorithm}")

    @staticmethod
    def _traced(session, query, engine):
        """(items, fixpoint span attributes, per-round tuples, run labels)."""
        result = session.evaluate(query, engine=engine, trace=True)
        (span,) = result.trace.find_all("fixpoint")
        rounds = [tuple(child.attributes[key] for key in
                        ("iteration", "fed", "produced", "new", "result_size"))
                  for child in span.children if child.name == "round"]
        recorded = [[(r.iteration, r.fed_back, r.produced, r.new_nodes, r.result_size)
                     for r in run.iterations] for run in result.statistics.runs]
        assert recorded == [rounds]
        return (result.items, span.attributes, rounds,
                [run.algorithm for run in result.statistics.runs])

    @pytest.mark.parametrize("algorithm", ["naive", "delta"])
    @pytest.mark.parametrize("name", ["curriculum", "hospital", "bidder-network", "dialogs"])
    def test_every_engine_runs_the_interpreters_rounds(self, name, algorithm):
        from repro.bench.queries import get_workload
        from repro.session import Session

        workload = get_workload(name)
        # The sql engine cannot emit a union, so its Delta runs take the
        # fallback (and show their rounds) too.  (Not a filter: that would
        # take bidder's loop out of its set context, and the loop would
        # produce one node per fed node again.)  The union is a step
        # relation, as every body here is: every run's rounds are in
        # pre-space.
        bodies = {"interpreter": None, "algebra": None,
                  "sql": f"({workload.recursion_body}) | ()" if algorithm == "delta" else None}
        extra = {"interpreter": {},
                 "algebra": {"variant": "mu_delta" if algorithm == "delta" else "mu"},
                 "sql": {"path": "driver"}}
        for engine in bodies:
            extra[engine].update(space="pre")
        documents = {workload.document_uri: workload.size("tiny").build_document()}
        with Session(documents=documents, id_attributes=("id", "code")) as session:
            runs = {engine: self._traced(session, self._closure(workload, algorithm, body), engine)
                    for engine, body in bodies.items()}
        items, _, rounds, _ = runs["interpreter"]
        assert items and len(rounds) > 1
        # what is fed: all of res under Naive, the last round's new nodes under Delta
        previous = {"naive": 4, "delta": 3}[algorithm]
        assert [fed for _, fed, *_ in rounds[1:]] == [r[previous] for r in rounds[:-1]]
        for engine, (engine_items, attributes, engine_rounds, labels) in runs.items():
            assert engine_rounds == rounds, engine
            assert list(map(id, engine_items)) == list(map(id, items)), engine
            assert labels == [algorithm], engine
            assert attributes == {"algorithm": algorithm, "seed": 4,
                                  "result_size": len(items), "rounds": len(rounds),
                                  **extra[engine]}, engine

    @pytest.mark.parametrize("name", ["curriculum", "hospital"])
    def test_an_emittable_delta_body_still_runs_as_one_cte(self, name):
        """The body is emittable and a step relation.  The cold run is one
        statement, whose rounds SQLite does not show; the next run's first
        round runs it with the image join, which fills sql's images of every
        source it reaches, and the warm run runs none.  Those two run the
        interpreter's rounds in pre-space."""
        from repro.bench.queries import get_workload
        from repro.session import Session

        workload = get_workload(name)
        query = self._closure(workload, "delta")
        documents = {workload.document_uri: workload.size("tiny").build_document()}
        with Session(documents=documents, id_attributes=("id", "code")) as session:
            items, _, expected, _ = self._traced(session, query, "interpreter")
            cold, filling, warm = (self._traced(session, query, "sql") for _ in range(3))
            again = session.evaluate(query, engine="sql", trace=True).trace
        for sql_items, _, rounds, labels in (cold, filling, warm):
            assert list(map(id, sql_items)) == list(map(id, items))
        assert cold[2] == [] and cold[3] == ["cte"]
        for _, _, rounds, labels in (filling, warm):
            assert rounds == expected and len(rounds) > 1 and labels == ["delta"]
        # curriculum's fn:id hop carries the multi-token probe, run once here,
        # and its three joins read a step relation built here; hospital's
        # one join is read as it is
        guards, edges = ("probed", "built") if name == "curriculum" else ("none", "none")
        assert cold[1] == {"algorithm": "delta", "path": "cte", "seed": 4,
                           "result_size": len(items), "rounds": 0, "guards": guards,
                           "edges": edges}
        warm_attributes = {"algorithm": "delta", "seed": 4, "space": "pre",
                           "result_size": len(items), "rounds": len(expected)}
        guards, edges = ("cached", "cached") if name == "curriculum" else ("none", "none")
        assert filling[1] == {**warm_attributes, "path": "cte", "guards": guards,
                              "edges": edges}
        assert warm[1] == warm_attributes
        assert again.find_all("sql") == []  # warm: no statement, no probe

    def test_the_sql_fallback_never_touches_the_store(self, curriculum):
        from repro.sqlbackend import SQLEvaluator
        from repro.xquery.context import DocumentResolver, DynamicContext
        from repro.xquery.parser import parse_query

        resolver = DocumentResolver()
        resolver.register("curriculum.xml", curriculum)
        evaluator = SQLEvaluator()
        query = ('with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c36"] '
                 "recurse $x/id(./prerequisites/pre_code) using naive")
        items = evaluator.evaluate_module(parse_query(query), DynamicContext(documents=resolver))
        assert len(items) == 29
        assert evaluator.executor.executed_statements == []
        assert evaluator.store.version == 0 and evaluator.store.node_count() == 0


# ---------------------------------------------------------------------------
# one decision: Naive or Delta is decide_fixpoint's answer, on every engine
# ---------------------------------------------------------------------------


ENGINES = ("interpreter", "algebra", "sql")
CHECKERS = ("syntactic", "analysis", "algebraic", "never")


def linked_document(seed, count=8):
    """*count* flat ``n`` elements with join attributes from a three-letter
    pool and one ``next`` link each (parsed XML; ``id`` is the ID attribute)."""
    import random

    from repro import parse_xml

    rng = random.Random(seed)
    return parse_xml("<r>" + "".join(
        f'<n id="n{i}" a="{rng.choice("uvw")}" b="{rng.choice("uvw")}" '
        f'p="{rng.choice("uvw")}" q="{rng.choice("uvw")}" '
        f'next="n{rng.randrange(count)}"><c k="{rng.choice("uvw")}"/></n>'
        for i in range(count)) + "</r>")


def _same_nodes(left, right):
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


def _decisions(query, **settings):
    """What :func:`decide_fixpoint` says of each ``with`` of *query* when it
    has only the query text to go by (no report, no plan)."""
    from repro import EvalSettings
    from repro.fixpoint import decide_fixpoint
    from repro.xquery import ast
    from repro.xquery.optimizer import optimize_module
    from repro.xquery.parser import parse_query

    module = optimize_module(parse_query(query))
    roots = [f.body for f in module.functions] + [module.body]
    sites = [sub for root in roots for sub in root.iter_subexpressions()
             if isinstance(sub, ast.WithExpr)]
    return [decide_fixpoint(site, EvalSettings(**settings), module.function_map())
            for site in sites]


def _cases():
    """The six bodies of the decision table: (name, documents, prolog + seed,
    body).  Figure 5 proves the first, the third and the sixth, the ∪
    push-up the first four (dialogs since its ``[not(…)]`` is an anti-join
    per iteration; the count in the sixth's predicate still blocks it), the
    strengthened rules the first three and the sixth; nothing the fifth."""
    from repro.bench.queries import get_workload
    from tests.test_predicate_pushdown import auction_document

    curriculum = get_workload("curriculum")
    dialogs = get_workload("dialogs")
    tiny = lambda workload: {  # noqa: E731
        workload.document_uri: workload.size("tiny").build_document()}
    return [
        ("child", {"g.xml": linked_document(0)},
         'declare variable $d := doc("g.xml"); with $x seeded by $d/r', "$x/child::*"),
        ("id", tiny(curriculum),
         'with $x seeded by doc("curriculum.xml")/curriculum/course[@code = "c36"]',
         'id($x/prerequisites/pre_code, doc("curriculum.xml"))'),
        ("dialogs", tiny(dialogs),
         f'{dialogs.prolog} declare variable $s := subsequence($doc//SPEECH, 2, 1); '
         'with $x seeded by $s', dialogs.recursion_body),
        ("value-join", {"a.xml": auction_document(1)},
         'declare variable $doc := doc("a.xml"); with $x seeded by $doc//person[@id = "p1"]',
         'let $b := $doc//open_auction[seller/@person = $x/@id]/bidder/personref '
         'return $doc//person[@id = $b/@person]'),
        ("q2", {"q.xml": "<r><a><e/></a><b><c><d/></c></b></r>"},
         'with $x seeded by doc("q.xml")/r/*', "if (count($x/self::a)) then $x/* else ()"),
        ("count-predicate", tiny(dialogs),
         f'{dialogs.prolog} declare variable $s := subsequence($doc//SPEECH, 2, 1); '
         'with $x seeded by $s', "$x/following-sibling::SPEECH[1][count(LINE) > 1]"),
    ]


class TestOneDecision:
    @pytest.mark.parametrize("case", _cases(), ids=lambda case: case[0])
    def test_every_engine_runs_what_the_decision_says(self, case):
        """using clause × ifp_algorithm × checker × engine: the ``fixpoint``
        span, the report on the result and ``decide_fixpoint`` say the same
        thing, and the three engines agree with each other."""
        from repro.session import Session

        _, documents, head, body = case
        disagreements = []
        with Session(documents=documents, id_attributes=("id", "code")) as session:
            for using in ("", " using naive", " using delta"):
                query = f"{head} recurse {body}{using}"
                for policy in ("auto", "naive", "delta"):
                    for checker in CHECKERS:
                        settings = {"ifp_algorithm": policy,
                                    "distributivity_checker": checker}
                        (expected,) = _decisions(query, **settings)
                        if using:
                            assert (expected.algorithm, expected.checker) == (
                                using.split()[-1], "using")
                        elif policy != "auto":
                            assert (expected.algorithm, expected.checker) == (
                                policy, "ifp_algorithm")
                        else:
                            assert expected.checker == checker
                        for engine in ENGINES:
                            result = session.evaluate(query, engine=engine, trace=True,
                                                      **settings)
                            (span,) = result.trace.find_all("fixpoint")
                            (fact,) = result.analysis.fixpoints
                            ran = span.attributes["algorithm"]
                            if (ran, fact.algorithm_hint) != (expected.algorithm,) * 2:
                                disagreements.append(
                                    (using, policy, checker, engine, ran,
                                     fact.algorithm_hint, expected.algorithm))
                            assert fact.decision.checker == expected.checker
                            if engine == "algebra":
                                assert span.attributes["variant"] == (
                                    "mu_delta" if ran == "delta" else "mu")
                            if engine == "sql" and "path" in span.attributes:
                                assert span.attributes["path"] in (
                                    ("cte", "driver") if ran == "delta" else ("driver",))
                            elif engine == "sql":  # a warm relation: no statement
                                assert (ran, span.attributes["space"]) == ("delta", "pre")
        assert not disagreements, disagreements

    def test_the_checkers_are_incomparable_and_the_table_shows_it(self):
        """What each checker proves of the six bodies (the default settings'
        answer is the ``syntactic`` row, on every engine)."""
        proved = {checker: [name for name, _, head, body in _cases()
                            if _decisions(f"{head} recurse {body}",
                                          distributivity_checker=checker)[0].algorithm == "delta"]
                  for checker in CHECKERS}
        assert proved == {"syntactic": ["child", "dialogs", "count-predicate"],
                          "analysis": ["child", "id", "dialogs", "count-predicate"],
                          "algebraic": ["child", "id", "dialogs", "value-join"],
                          "never": []}

    def test_the_plan_cache_keys_on_what_decides_the_variant(self):
        """A cached µ∆ plan is not served to ``ifp_algorithm="naive"``."""
        from repro.session import Session

        _, documents, head, body = _cases()[0]
        query = f"{head} recurse {body}"
        with Session(documents=documents) as session:
            seen = []
            for overrides in ({}, {"ifp_algorithm": "naive"}, {}):
                result = session.evaluate(query, engine="algebra", trace=True, **overrides)
                (span,) = result.trace.find_all("fixpoint")
                (compiled,) = result.trace.find_all("compile")
                seen.append((span.attributes["variant"], compiled.attributes["plan_cache"]))
            assert seen == [("mu_delta", "miss"), ("mu", "miss"), ("mu_delta", "hit")]
            assert session.cache_stats()["plan"]["size"] == 2

    TWO_SITES = """
declare variable $d := doc("g.xml");
declare function local:below($n as node()*) as node()*
{ with $y seeded by $n recurse $y/child::* };
with $x seeded by local:below($d/r/n[1])
recurse if (count($x) < 3) then $d//n[@id = $x/../@next] else ()
"""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_each_site_finds_its_own_fact(self, engine, monkeypatch):
        """Two fixpoints in one query (one inside a prolog function), the
        module evicted and parsed again in between: every decision reads the
        verdict of *its* site off the report — no checker runs at evaluation
        time — and the two sites get the two different answers."""
        import repro.distributivity.syntactic as figure5
        from repro.session import Session

        def decided_without_the_fact(*args, **kwargs):
            raise AssertionError("the decision derived a verdict the report holds")

        with Session(documents={"g.xml": linked_document(3)}, module_cache_size=1) as session:
            reference = session.evaluate(self.TWO_SITES, optimize=False,
                                         ifp_algorithm="naive").items
            # from here on only the analyzer's own reference to Figure 5 works
            monkeypatch.setattr(figure5, "analyze_distributivity", decided_without_the_fact)
            for _ in range(2):
                result = session.evaluate(self.TWO_SITES, engine=engine, trace=True)
                assert _same_nodes(result.items, reference)
                assert sorted(span.attributes["algorithm"]
                              for span in result.trace.find_all("fixpoint")) == [
                    "delta", "naive"]
                assert {fact.variable: fact.algorithm_hint
                        for fact in result.analysis.fixpoints} == {"y": "delta", "x": "naive"}
                session.evaluate("1 + 1")  # evicts the module: parsed anew next time
            assert session.cache_stats()["module"]["hits"] == 0

    def test_without_a_report_the_verdict_is_derived_on_the_spot(self):
        from repro import evaluate

        _, documents, head, body = _cases()[1]  # id($x/…): only the strengthened rules
        for checker, expected in (("syntactic", "naive"), ("analysis", "delta")):
            result = evaluate(f"{head} recurse {body}", documents=documents,
                              id_attributes=("code",), analyze=False, trace=True,
                              distributivity_checker=checker)
            assert result.analysis is None
            (span,) = result.trace.find_all("fixpoint")
            assert span.attributes["algorithm"] == expected

    # -- soundness: whenever a checker says distributive, Naive ≡ Delta ------

    #: Recursion bodies over :func:`linked_document` (``$d`` is its root).
    SHAPES = [
        "$x/child::*",
        "$x/id(./@next)",
        "id($x/@next, $d)",
        "$x/c/..",
        "$d//n[@a = $x/@p]",                         # one value input
        "$d//n[@a = $x/@p][@b = $x/@q]",             # two of them: not linear
        "$x/../n[@a = $x/@p]",                       # context and value input
        "$d//n[@id = $x/@next][1]",                  # a position behind a value input
        "$d//n[@a = data($x/@p)][@b = data($x/@q)]",  # the same through value joins
        "for $y in $x return $d//n[@a = $y/@p][@b = $y/@q]",   # linear: per $y
        "for $y in $x return $d//n[@a = $y/@p][@b = $x/@q]",
        "for $e in $d//c return $e/..[@a = $x/@p][@b = $x/@q]",
        "if ($x/c[@k = 'u']) then $d//n[@a = $x/@p] else ()",
        "$d//n[@a = $x/@p] intersect $d//n[@b = $x/@q]",
        "if (count($x) >= 1) then $x/id(./@next) else ()",
        "let $b := $d//n[@a = $x/@p] return $d//n[@id = $b/@next]",
    ]

    @pytest.mark.parametrize("checker", ["syntactic", "analysis", "algebraic"])
    def test_a_body_judged_distributive_runs_the_same_under_both_algorithms(self, checker):
        from repro.session import Session

        head = ('declare variable $d := doc("g.xml"); '
                'with $x seeded by ($d//n[@id = "n0"] | $d//n[@id = "n1"])')
        trusted = [body for body in self.SHAPES
                   if _decisions(f"{head} recurse {body}",
                                 distributivity_checker=checker)[0].algorithm == "delta"]
        assert "$x/child::*" in trusted and "$d//n[@a = $x/@p][@b = $x/@q]" not in trusted
        if checker == "algebraic":  # what only the plan proves stays proved
            assert {"$d//n[@a = $x/@p]", "id($x/@next, $d)",
                    "for $y in $x return $d//n[@a = $y/@p][@b = $y/@q]",
                    "let $b := $d//n[@a = $x/@p] return $d//n[@id = $b/@next]"} <= set(trusted)
        for seed in range(10):
            with Session(documents={"g.xml": linked_document(seed)}) as session:
                for body in trusted:
                    naive = session.evaluate(f"{head} recurse {body} using naive",
                                             optimize=False).items
                    for engine in ENGINES:
                        delta = session.evaluate(f"{head} recurse {body} using delta",
                                                 engine=engine).items
                        assert _same_nodes(delta, naive), (checker, seed, body, engine)

    # -- ROADMAP 1(b): the ∪ push-up's linearity condition --------------------

    NOT_LINEAR = ('declare variable $d := doc("g.xml"); '
                  'with $x seeded by ($d//n[@id = "n0"] | $d//n[@id = "n1"]) '
                  'recurse $d//n[@a = $x/@p][@b = $x/@q]')

    @pytest.mark.parametrize("engine, checker",
                             [(engine, "algebraic") for engine in ENGINES]
                             + [("algebra", "syntactic")])
    def test_two_value_inputs_are_not_linear(self, engine, checker):
        """``(A ∪ B) ⋈ (A ∪ B) ≠ (A ⋈ A) ∪ (B ⋈ B)``: Delta loses the nodes
        only a pair from different rounds selects.  Wrong on 7 of these 40
        documents before the push-up had the condition (under the plan-based
        checker) and before the algebra engine read the configured one (on
        default settings)."""
        from repro import evaluate

        lost = 0
        for seed in range(40):
            documents = {"g.xml": linked_document(seed)}
            run = lambda **settings: evaluate(  # noqa: E731
                self.NOT_LINEAR, documents=documents, use_cache=False, **settings).items
            expected = run(optimize=False)
            assert _same_nodes(run(engine=engine, distributivity_checker=checker), expected), seed
            lost += len(run(ifp_algorithm="delta")) < len(expected)
        assert lost >= 5, "the documents no longer tell Naive from Delta"

    def test_the_pushup_names_the_operator_that_is_not_linear(self):
        from repro.algebra.distributivity import analyze_plan_distributivity
        from repro.xquery.parser import parse_expression

        def report(body):
            return analyze_plan_distributivity(parse_expression(body), "x")

        blocked = report("$d//n[@a = $x/@p][@b = $x/@q]")
        assert not blocked.distributive
        (label,) = blocked.blocking_labels()
        assert label.endswith("::n[2 pushed]⋈2")  # the step macro, two value inputs
        assert not report("$x/n[@a = $x/@p]").distributive        # context + value input
        assert not report("if ($x/a) then $x/b else ()").distributive
        assert not report("for $y in $x return $x/a").distributive
        for linear in ("$d//n[@a = $x/@p]", "$x/n[@a = $v]", "$x/a | $x/b",
                       "for $y in $x return if ($y/a) then $y/b else ()",
                       "for $y in $x/.. return $d//n[@a = $y/@p][@b = $y/@q]"):
            assert report(linear).distributive, linear
