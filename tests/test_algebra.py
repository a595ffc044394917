"""Tests for the Relational XQuery backend: tables, operators, compiler,
plan evaluation (µ/µ∆) and the algebraic distributivity check."""

import pytest

from repro import EvalSettings
from repro.errors import AlgebraError
from repro.algebra.columnar import ColumnarTable, Constant
from repro.algebra.compiler import AlgebraCompiler, compile_recursion_body
from repro.algebra.distributivity import (
    analyze_plan_distributivity,
    analyze_plan_pushup,
    is_distributive_algebraic,
)
from repro.algebra.evaluator import AlgebraEvaluator
from repro.algebra.operators import (
    Aggregate,
    AtomizeValue,
    Distinct,
    Fixpoint,
    Join,
    LiteralTable,
    Project,
    RecursionInput,
    RowNumber,
    ScalarOp,
    Select,
    StepJoin,
    UnionAll,
)
from repro.algebra.plan import find_recursion_inputs, plan_size, render_dot, render_plan
from repro.xquery.context import DocumentResolver
from repro.xquery.parser import parse_expression, parse_query
from tests.conftest import course_codes


# ---------------------------------------------------------------------------
# tables and operators
# ---------------------------------------------------------------------------


class TestTable:
    def test_schema_validation(self):
        with pytest.raises(AlgebraError):
            ColumnarTable(("a", "b"), [(1,)])

    def test_project_select_extend(self):
        table = ColumnarTable(("a", "b"), [(1, 10), (2, 20)])
        assert table.project([("b", "b")]).rows == ((10,), (20,))
        assert len(table.select_computed(["a"], lambda a: a == 2)) == 1
        extended = table.extend_computed("c", ["a", "b"], lambda a, b: a + b)
        assert extended.column_values("c") == [11, 22]

    def test_distinct_union_difference(self):
        table = ColumnarTable(("a",), [(1,), (1,), (2,)])
        assert len(table.distinct()) == 2
        other = ColumnarTable(("a",), [(2,), (3,)])
        assert len(table.union_all(other)) == 5
        assert sorted(table.difference(other).column_values("a")) == [1, 1]
        with pytest.raises(AlgebraError):
            table.union_all(ColumnarTable(("x", "y")))

    def test_unknown_column_error(self):
        with pytest.raises(AlgebraError):
            ColumnarTable(("a",), [(1,)]).column_index("nope")


class TestOperators:
    def test_join_and_scalar_op(self):
        left = LiteralTable(ColumnarTable(("iter", "item"), [(1, "a"), (2, "b")]))
        right = LiteralTable(ColumnarTable(("iter", "val"), [(1, 10), (1, 11), (3, 30)]))
        joined = Join(left, right, [("iter", "iter")])
        engine = AlgebraEvaluator()
        result = engine.evaluate_plan(joined)
        assert sorted(result.column_values("val")) == [10, 11]
        flagged = ScalarOp(joined, "big", ["val"], lambda v: v > 10, name=">")
        selected = Select(flagged, "big")
        assert engine.evaluate_plan(selected).column_values("val") == [11]

    def test_aggregate_with_loop_produces_zero_groups(self):
        data = LiteralTable(ColumnarTable(("iter", "item"), [(1, "x"), (1, "y")]))
        loop = LiteralTable(ColumnarTable(("iter",), [(1,), (2,)]))
        count = Aggregate(data, "count", ("iter",), "item", "n", loop=loop)
        result = AlgebraEvaluator().evaluate_plan(count)
        assert dict(result.rows) == {1: 2, 2: 0}

    def test_aggregate_with_loop_answers_in_loop_order(self):
        data = LiteralTable(ColumnarTable(("iter", "item"), [(3, "x"), (1, "y")]))
        loop = LiteralTable(ColumnarTable(("iter",), [(1,), (2,), (3,)]))
        count = Aggregate(data, "count", ("iter",), "item", "n", loop=loop)
        assert AlgebraEvaluator().evaluate_plan(count).rows == ((1, 1), (2, 0), (3, 1))

    def test_project_fills_a_constant_column(self):
        data = LiteralTable(ColumnarTable(("iter", "item"), [(1, "a"), (2, "b")]))
        plan = Project(data, [("iter", "iter"), ("pos", Constant(1)), ("item", "item")])
        assert AlgebraEvaluator().evaluate_plan(plan).rows == ((1, 1, "a"), (2, 1, "b"))
        assert plan.label() == "π_{iter,pos:=1,item}"

    def test_row_number_orders_within_partitions(self):
        data = LiteralTable(ColumnarTable(("iter", "v"), [(1, 30), (1, 10), (2, 5)]))
        numbered = RowNumber(data, "pos", order_by=("v",), partition_by=("iter",))
        result = AlgebraEvaluator().evaluate_plan(numbered)
        positions = {(iteration, v): pos for iteration, v, pos in result.iter_rows()}
        assert positions == {(1, 10): 1, (1, 30): 2, (2, 5): 1}

    def test_union_pushable_flags_follow_table_1(self):
        dummy = LiteralTable(ColumnarTable(("iter",), []))
        assert Project(dummy, [("iter", "iter")]).union_pushable
        assert Join(dummy, dummy, []).union_pushable
        assert UnionAll([dummy, dummy]).union_pushable
        assert StepJoin(dummy, "child", "name", "a").union_pushable
        assert not Distinct([dummy]).union_pushable
        assert not Aggregate(dummy, "count", ("iter",), None, "n").union_pushable
        assert not RowNumber(dummy, "pos", ("iter",)).union_pushable
        assert Distinct([dummy]).order_or_duplicates_only
        assert RowNumber(dummy, "pos", ("iter",)).order_or_duplicates_only

    def test_plan_utilities(self):
        recursion = RecursionInput("x")
        step = StepJoin(recursion, "child", "name", "a")
        plan = Project(step, [("iter", "iter"), ("item", "item")])
        assert plan_size(plan) == 3
        assert find_recursion_inputs(plan) == [recursion]
        assert "child::a" in render_plan(plan)
        assert "digraph" in render_dot(plan)


# ---------------------------------------------------------------------------
# the algebraic distributivity check (Section 4.1)
# ---------------------------------------------------------------------------


class TestAlgebraicDistributivity:
    def test_q1_body_is_distributive(self, curriculum_document):
        body = parse_expression("$x/id (./prerequisites/pre_code)")
        report = analyze_plan_distributivity(body, "x", document=curriculum_document)
        assert report.distributive
        assert report.big_steps >= 1
        assert report.blocking_operators == []

    def test_q2_body_blocked_at_count_aggregate(self, curriculum_document):
        body = parse_expression("if (count($x/self::a)) then $x/* else ()")
        report = analyze_plan_distributivity(body, "x", document=curriculum_document)
        assert not report.distributive
        assert any("count" in label for label in report.blocking_labels())

    def test_unfolded_id_variant_only_algebraic_check_accepts(self, curriculum_document,
                                                              curriculum_resolver):
        body = parse_expression(
            'for $c in doc("curriculum.xml")/curriculum/course '
            "where $c/@code = $x/prerequisites/pre_code return $c"
        )
        from repro.distributivity import is_distributivity_safe

        assert not is_distributivity_safe(body, "x")
        assert is_distributive_algebraic(body, "x", documents=curriculum_resolver,
                                         document=curriculum_document)

    def test_node_constructor_blocks(self, curriculum_document):
        body = parse_expression("for $y in $x return <seen/>")
        report = analyze_plan_distributivity(body, "x", document=curriculum_document)
        assert not report.distributive

    def test_order_strip_ablation(self, curriculum_document):
        # Without Section 4.1's stripping, the δ of the explicit union in the
        # body blocks the push-up even though the body is distributive.
        body = parse_expression("$x/child::a union $x/child::b")
        strict = analyze_plan_distributivity(body, "x", document=curriculum_document,
                                             ignore_order_and_duplicates=False)
        relaxed = analyze_plan_distributivity(body, "x", document=curriculum_document,
                                              ignore_order_and_duplicates=True)
        assert relaxed.distributive and not strict.distributive

    def test_big_step_toggle(self, curriculum_document):
        body = parse_expression("$x/id (./prerequisites/pre_code)")
        with_templates = analyze_plan_distributivity(body, "x", document=curriculum_document,
                                                     use_templates=True)
        without_templates = analyze_plan_distributivity(body, "x", document=curriculum_document,
                                                        use_templates=False)
        assert with_templates.distributive and without_templates.distributive
        assert with_templates.big_steps > 0
        assert without_templates.big_steps == 0
        assert without_templates.operators_checked > with_templates.operators_checked

    def test_unsupported_body_strict_and_lenient(self):
        body = parse_expression("some $y in $x satisfies $y = 1")
        with pytest.raises(AlgebraError):
            is_distributive_algebraic(body, "x", strict=True)
        assert is_distributive_algebraic(body, "x", strict=False) is False

    def test_pushup_over_hand_built_plan(self):
        recursion = RecursionInput("x")
        blocked = Aggregate(recursion, "count", ("iter",), None, "n")
        report = analyze_plan_pushup(blocked, recursion)
        assert not report.distributive
        clear = Project(StepJoin(recursion, "child", "name", "a"),
                        [("iter", "iter"), ("item", "item")])
        assert analyze_plan_pushup(clear, recursion).distributive


# ---------------------------------------------------------------------------
# compilation and µ/µ∆ evaluation
# ---------------------------------------------------------------------------


class TestCompilerAndFixpoint:
    def _compile(self, text, curriculum_document, algorithm, **settings):
        resolver = DocumentResolver()
        resolver.register("curriculum.xml", curriculum_document)
        compiler = AlgebraCompiler(documents=resolver, document=curriculum_document,
                                   settings=EvalSettings(**settings))
        query = (
            f'with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"] '
            f"recurse {text} using {algorithm}"
        )
        return compiler.compile(parse_expression(query))

    @pytest.mark.parametrize("algorithm,variant", [("naive", "mu"), ("delta", "mu_delta")])
    def test_q1_compiles_and_evaluates(self, curriculum_document, algorithm, variant):
        plan = self._compile("$x/id (./prerequisites/pre_code)", curriculum_document, algorithm)
        assert isinstance(plan, Fixpoint)
        assert plan.variant == variant
        engine = AlgebraEvaluator()
        table = engine.evaluate_plan(plan)
        assert course_codes(table.column_values("item")) == ["c2", "c3", "c4", "c5"]
        assert engine.statistics.max_recursion_depth >= 2

    def test_mu_delta_feeds_fewer_rows(self, curriculum_document):
        naive_plan = self._compile("$x/id (./prerequisites/pre_code)", curriculum_document, "naive")
        delta_plan = self._compile("$x/id (./prerequisites/pre_code)", curriculum_document, "delta")
        naive_engine, delta_engine = AlgebraEvaluator(), AlgebraEvaluator()
        naive_engine.evaluate_plan(naive_plan)
        delta_engine.evaluate_plan(delta_plan)
        assert delta_engine.statistics.total_rows_fed_back < \
            naive_engine.statistics.total_rows_fed_back

    def test_auto_variant_uses_pushup_check(self, curriculum_document):
        pushup = {"distributivity_checker": "algebraic"}
        distributive = self._compile("$x/id (./prerequisites/pre_code)", curriculum_document,
                                     "auto", **pushup)
        assert distributive.variant == "mu_delta"
        blocked = self._compile("if (count($x/self::a)) then $x/* else ()",
                                curriculum_document, "auto", **pushup)
        assert blocked.variant == "mu"
        # a body only the plan proves: µ∆ under the plan-based checker, µ
        # under the default one (Figure 5) — and what the settings force
        plan_only = "id($x/prerequisites/pre_code)"
        assert self._compile(plan_only, curriculum_document, "auto", **pushup).variant == "mu_delta"
        assert self._compile(plan_only, curriculum_document, "auto").variant == "mu"
        assert self._compile(plan_only, curriculum_document, "auto",
                             ifp_algorithm="delta").variant == "mu_delta"
        assert self._compile("$x/id (./prerequisites/pre_code)", curriculum_document, "auto",
                             ifp_algorithm="naive", **pushup).variant == "mu"

    def test_compile_recursion_body_returns_input_leaf(self, curriculum_document):
        plan, recursion_input = compile_recursion_body(
            parse_expression("$x/child::prerequisites"), "x", document=curriculum_document
        )
        assert isinstance(recursion_input, RecursionInput)
        assert recursion_input in list(plan.iter_operators())

    def test_unsupported_constructs_raise_algebra_errors(self, curriculum_document):
        compiler = AlgebraCompiler(document=curriculum_document)
        with pytest.raises(AlgebraError):
            compiler.compile(parse_expression("some $y in (1,2) satisfies $y = 1"))
        with pytest.raises(AlgebraError):
            compiler.compile(parse_expression("$missing"))
        # Positional predicates compile via pushdown (attached to the step
        # macro); without pushdown they still hit the classical rejection.
        compiler.compile(parse_expression("$doc/a[3]"),
                         compiler.initial_context({"doc": RecursionInput("doc")}))
        no_push = AlgebraCompiler(document=curriculum_document, push_predicates=False)
        with pytest.raises(AlgebraError):
            no_push.compile(parse_expression("$doc/a[3]"),
                            no_push.initial_context({"doc": RecursionInput("doc")}))

    def test_fixpoint_under_iteration_is_rejected(self, curriculum_document, curriculum_resolver):
        compiler = AlgebraCompiler(documents=curriculum_resolver, document=curriculum_document)
        query = parse_expression(
            'for $c in doc("curriculum.xml")/curriculum/course '
            "return with $x seeded by $c recurse $x/id(./prerequisites/pre_code)"
        )
        with pytest.raises(AlgebraError):
            compiler.compile(query)

    def test_user_function_inlining(self, curriculum_document, curriculum_resolver):
        module = parse_query(
            "declare function prereqs ($c) { $c/id(./prerequisites/pre_code) }; "
            'with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"] '
            "recurse prereqs($x) using delta"
        )
        compiler = AlgebraCompiler(documents=curriculum_resolver, document=curriculum_document,
                                   functions=module.function_map())
        plan = compiler.compile(module.body)
        table = AlgebraEvaluator().evaluate_plan(plan)
        assert course_codes(table.column_values("item")) == ["c2", "c3", "c4", "c5"]


class TestNodeConstructionPerIteration:
    """``ε`` builds one node per iteration of its *loop*, not of its content:
    the algebra engine used to build none for empty content (``count(<a/>)``
    was 0, ``<a><b/></a>`` lost both elements)."""

    @pytest.mark.parametrize("engine", ["interpreter", "sql", "algebra"])
    @pytest.mark.parametrize("query, expected", [
        ("count(<a/>)", [1]),
        ("count(<a>{()}</a>)", [1]),
        ("count(<a><b/></a>//b)", [1]),
        ("count((<a/>, <b/>))", [2]),
        ("count(element e {})", [1]),
        ("for $i in (1, 2, 3) return count(<a/>)", [1, 1, 1]),
        ("count(for $i in () return <a/>)", [0]),
    ])
    def test_empty_content_still_constructs(self, engine, query, expected):
        from repro import evaluate

        assert evaluate(query, engine=engine).items == expected

    @pytest.mark.parametrize("engine", ["interpreter", "sql", "algebra"])
    def test_one_fresh_element_per_iteration(self, engine):
        from repro import evaluate

        items = evaluate("for $i in (1, 2, 3) return <a/>", engine=engine).items
        assert [item.name for item in items] == ["a", "a", "a"]
        assert len({id(item) for item in items}) == 3
        mixed = evaluate("for $i in (1, 2, 3) return <a>{ if ($i > 2) then $i else () }</a>",
                         engine=engine).items
        assert [item.string_value() for item in mixed] == ["", "", "3"]


class TestConstructorContent:
    """Atomics are space-joined within one enclosed expression only, and
    attribute constructors are inputs of ``ε``: the algebra engine used to
    read ``<a>{1, 2}{3}</a>`` as ``123`` and drop ``<a b="x"/>/@b``."""

    @pytest.mark.parametrize("engine", ["interpreter", "sql", "algebra"])
    @pytest.mark.parametrize("query, expected", [
        ("<a>{1, 2}{3}</a>", ["<a>1 23</a>"]),
        ("<a>{1}{2}</a>", ["<a>12</a>"]),
        ("<a>x{1}</a>", ["<a>x1</a>"]),
        ("count(<a b=\"x\"/>/@b)", ["1"]),
        ("<p>{ attribute id {\"x\"} }{ (\"a\",\"b\") }</p>", ['<p id="x">a b</p>']),
    ])
    def test_enclosed_expression_boundaries(self, engine, query, expected):
        from repro import evaluate
        from repro.xmlio.serializer import serialize_sequence

        items = evaluate(query, engine=engine).items
        assert [serialize_sequence([item]) for item in items] == expected


class TestIdOverAMultiDocumentCorpus:
    """``fn:id`` on the algebra engine resolves IDs in one compile-time
    document.  A corpus of several documents does not name it, and the
    engine says so with a typed error — it used to search whichever URI
    sorts first and answer with nothing (the ledger's cell
    ``algebra/curriculum/four-document``)."""

    #: Sorts before ``curriculum.xml`` and reuses its ID values, so a
    #: lookup against the wrong document is visible either way.
    DECOY_XML = '<decoys><course code="c2"/><course code="c4"/></decoys>'
    CLOSURE = ('with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"] '
               'recurse $x/id(./prerequisites/pre_code)')

    @pytest.fixture()
    def session(self):
        from repro import Session
        from tests.conftest import CURRICULUM_XML

        with Session({"a.xml": self.DECOY_XML, "curriculum.xml": CURRICULUM_XML},
                     id_attributes=("code",)) as session:
            yield session

    @pytest.mark.parametrize("engine", ["interpreter", "sql"])
    def test_interpreter_and_sql_resolve_in_the_context_nodes_document(self, session, engine):
        result = session.evaluate(self.CLOSURE, engine=engine)
        assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]
        assert {node.document() for node in result.items} == {
            session.snapshot().resolve("curriculum.xml")}

    def test_algebra_raises_a_typed_error_not_an_empty_answer(self, session):
        with pytest.raises(AlgebraError, match="fn:id"):
            session.evaluate(self.CLOSURE, engine="algebra")

    def test_algebra_still_answers_over_the_one_document_corpus(self):
        from repro import Session
        from tests.conftest import CURRICULUM_XML

        with Session({"curriculum.xml": CURRICULUM_XML}, id_attributes=("code",)) as session:
            result = session.evaluate(self.CLOSURE, engine="algebra")
        assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]


class TestIdStepPlanAndSecondArgument:
    DOCUMENTS = {"c.xml": '<r><c code="c1"><p><q>c2</q></p></c><c code="c2"/></r>',
                 "d.xml": '<r><d code="c1"/></r>'}

    def test_a_child_chain_compiles_to_one_id_macro(self, curriculum_document):
        """``E/id(a/b)`` is one ``IdLookup`` over the node column — no step
        joins, no atomization — and still a distributive template; a chain
        the pre-space kernel does not take keeps its step joins."""
        compiler = AlgebraCompiler(document=curriculum_document)
        body, recursion_input = compile_recursion_body(
            parse_expression("$x/id(./prerequisites/pre_code)"), "x",
            document=curriculum_document)
        assert render_plan(body).splitlines()[0].strip().startswith(
            "id[prerequisites/pre_code]")
        assert not any(isinstance(operator, (StepJoin, AtomizeValue))
                       for operator in body.iter_operators())
        assert body.template == "id" and body.children == (recursion_input,)
        assert analyze_plan_pushup(body, recursion_input).distributive
        general = compiler.compile(parse_expression(
            'doc("curriculum.xml")//course/id(./prerequisites/@none)'))
        assert any(isinstance(operator, StepJoin) for operator in general.iter_operators())

    @pytest.mark.parametrize("engine", ["interpreter", "sql", "algebra"])
    def test_the_second_argument_names_the_document(self, engine):
        """``fn:id($values, $node)`` searches ``$node``'s document.  The
        algebra engine used to drop the argument and search its compile-time
        document: ``count(id("c1", <a>x</a>))`` was 1."""
        from repro import Session

        def run(query, documents):
            with Session(documents, id_attributes=("code",)) as session:
                return session.evaluate(query, engine=engine).items

        one = {"c.xml": self.DOCUMENTS["c.xml"]}
        assert run('count(id("c1", <a>x</a>))', one) == [0]
        assert run('count(id("c1 c2", doc("c.xml")))', one) == [2]
        # per iteration, and over a corpus that names no single document
        assert run('for $d in (doc("c.xml"), doc("d.xml")) '
                   'return count(id("c1", $d)/self::c)', self.DOCUMENTS) == [1, 0]
        assert run('count(id("c1", <a/>))', one) == [0]

    def test_an_anchor_that_reads_the_recursion_variable_blocks_the_union(
            self, curriculum_document):
        """``fn:id`` does not distribute over its second argument (it wants
        exactly one node there)."""
        body, recursion_input = compile_recursion_body(
            parse_expression('id("c1", $x)'), "x", document=curriculum_document)
        assert not analyze_plan_pushup(body, recursion_input).distributive
        body, recursion_input = compile_recursion_body(
            parse_expression('id($x/prerequisites/pre_code, doc("curriculum.xml"))'),
            "x", document=curriculum_document)
        assert analyze_plan_pushup(body, recursion_input).distributive
