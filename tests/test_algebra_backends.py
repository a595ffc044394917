"""Backend equivalence, plan memoisation and per-run evaluator state.

The storage protocol (``repro.algebra.storage``) promises that every
backend computes identical relations.  These tests hold the row and
columnar backends to that promise three ways:

* property-style kernel tests over randomly generated tables,
* end-to-end runs of the four benchmark workloads' answer templates
  (:mod:`repro.bench.table2`), asserting answers and fixpoint statistics
  agree with each other and with the interpreter,
* regression tests for the per-run evaluation state (fresh memo cache,
  recursion binding and statistics per ``evaluate_plan`` call).
"""

import random

import pytest

from repro.errors import AlgebraError
from repro.algebra.columnar import ColumnarTable
from repro.algebra.compiler import AlgebraCompiler
from repro.algebra.evaluator import AlgebraEvaluator
from repro.algebra.operators import (
    LiteralTable,
    Operator,
    Project,
    RecursionInput,
    ScalarOp,
    StepJoin,
    UnionAll,
)
from repro.algebra.storage import available_backends, resolve_backend
from repro.algebra.table import Table
from repro.bench.queries import WORKLOADS, get_workload
from repro.bench.table2 import run_cell, seeds_of
from repro.session import Session
from repro.xmlio.parser import parse_xml
from repro.xquery.context import DocumentResolver
from repro.xquery.parser import parse_expression

BACKENDS = ("row", "columnar")


# ---------------------------------------------------------------------------
# backend registry
# ---------------------------------------------------------------------------


class TestBackendRegistry:
    def test_both_backends_registered(self):
        assert set(BACKENDS) <= set(available_backends())
        assert resolve_backend("row") is Table
        assert resolve_backend("columnar") is ColumnarTable
        assert resolve_backend(Table) is Table
        assert resolve_backend(None).backend_name in available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(AlgebraError):
            resolve_backend("parquet")
        with pytest.raises(AlgebraError):
            AlgebraEvaluator(backend="parquet")


# ---------------------------------------------------------------------------
# property-style kernel equivalence over random tables
# ---------------------------------------------------------------------------


def _random_table(rng: random.Random, columns, size):
    pool = [0, 1, 2, 7, True, False, "a", "b", "xy", 3.5]
    return [tuple(rng.choice(pool) for _ in columns) for _ in range(size)]


def _pair(columns, rows):
    return Table(columns, rows), ColumnarTable(columns, rows)


def _assert_same(row_result, col_result, ordered=False):
    assert row_result.columns == col_result.columns
    if ordered:
        assert list(row_result.iter_rows()) == list(col_result.iter_rows())
    else:
        assert row_result == col_result  # order-insensitive TableStorage.__eq__
    assert len(row_result) == len(col_result)


class TestKernelEquivalence:
    """Each storage kernel computes the same relation on both backends."""

    @pytest.mark.parametrize("seed", range(5))
    def test_unary_kernels(self, seed):
        rng = random.Random(seed)
        columns = ("iter", "pos", "item")
        rows = _random_table(rng, columns, rng.randrange(0, 25))
        row_t, col_t = _pair(columns, rows)

        _assert_same(row_t.project([("item", "item"), ("i2", "iter")]),
                     col_t.project([("item", "item"), ("i2", "iter")]), ordered=True)
        _assert_same(row_t.select_flag("item"), col_t.select_flag("item"), ordered=True)
        _assert_same(row_t.distinct(), col_t.distinct(), ordered=True)
        _assert_same(row_t.sort_by(("item", "pos")), col_t.sort_by(("item", "pos")))
        _assert_same(row_t.extend_computed("n", ("pos",), lambda p: p if p is True else 0),
                     col_t.extend_computed("n", ("pos",), lambda p: p if p is True else 0),
                     ordered=True)
        _assert_same(row_t.map_column("item", str), col_t.map_column("item", str),
                     ordered=True)
        _assert_same(row_t.tag_rows("tag", 1000), col_t.tag_rows("tag", 1000),
                     ordered=True)
        _assert_same(row_t.row_number("rn", ("pos",), ("iter",)),
                     col_t.row_number("rn", ("pos",), ("iter",)))
        _assert_same(row_t.aggregate("count", ("iter",), "item", "n", loop_iters=[0, 99]),
                     col_t.aggregate("count", ("iter",), "item", "n", loop_iters=[0, 99]))

    @pytest.mark.parametrize("seed", range(5))
    def test_binary_kernels(self, seed):
        rng = random.Random(100 + seed)
        columns = ("iter", "item")
        left_rows = _random_table(rng, columns, rng.randrange(0, 20))
        right_rows = _random_table(rng, ("iter", "other"), rng.randrange(0, 20))
        row_l, col_l = _pair(columns, left_rows)
        row_r, col_r = _pair(("iter", "other"), right_rows)

        _assert_same(row_l.hash_join(row_r, [("iter", "iter")]),
                     col_l.hash_join(col_r, [("iter", "iter")]))
        _assert_same(row_l.theta_join(row_r, [("iter", "iter")], lambda a, b: a == b),
                     col_l.theta_join(col_r, [("iter", "iter")], lambda a, b: a == b))
        _assert_same(row_l.cross(row_r), col_l.cross(col_r))

        same_schema_rows = _random_table(rng, columns, rng.randrange(0, 20))
        row_s, col_s = _pair(columns, same_schema_rows)
        _assert_same(row_l.union_all(row_s), col_l.union_all(col_s), ordered=True)
        _assert_same(row_l.difference(row_s), col_l.difference(col_s), ordered=True)

    def test_multi_column_join_keys(self):
        columns = ("a", "b", "v")
        rows = [(1, "x", 10), (1, "y", 11), (2, "x", 12), (1, "x", 13)]
        row_t, col_t = _pair(columns, rows)
        other = [(1, "x", "p"), (2, "x", "q"), (3, "z", "r")]
        row_o, col_o = _pair(("a", "b", "w"), other)
        _assert_same(row_t.hash_join(row_o, [("a", "a"), ("b", "b")]),
                     col_t.hash_join(col_o, [("a", "a"), ("b", "b")]))

    def test_schema_mismatch_raises_on_both(self):
        for cls in (Table, ColumnarTable):
            with pytest.raises(AlgebraError):
                cls(("a", "b"), [(1,)])
            with pytest.raises(AlgebraError):
                cls(("a",), [(1,)]).union_all(cls(("b",), [(1,)]))
            with pytest.raises(AlgebraError):
                cls(("a",), [(1,)]).column_index("nope")

    def test_unhashable_items_fall_back_to_identity(self):
        payload = [1, 2]  # lists are unhashable
        for cls in (Table, ColumnarTable):
            table = cls(("item",), [(payload,), (payload,), ([1, 2],)])
            assert len(table.distinct()) == 2  # same object deduped, equal list kept


# ---------------------------------------------------------------------------
# end-to-end equivalence across the benchmark workloads
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_sessions():
    """Per workload: its tiny document in one session per backend, 4 seeds."""
    result = {}
    for name in WORKLOADS:
        workload = get_workload(name)
        document = workload.size("tiny").build_document()
        sessions = {backend: Session({workload.document_uri: document},
                                     settings={"backend": backend})
                    for backend in BACKENDS}
        result[name] = (workload, sessions, seeds_of(sessions["row"], workload, 4))
    yield result
    for _, sessions, _ in result.values():
        for session in sessions.values():
            session.close()


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("algorithm", ["naive", "delta"])
    def test_backends_agree_on_workloads(self, tiny_sessions, workload, algorithm):
        spec, sessions, seeds = tiny_sessions[workload]
        row, columnar = (run_cell(sessions[backend], spec, seeds, "algebra", algorithm)
                         for backend in BACKENDS)
        assert row.answers == columnar.answers
        assert row.nodes_fed_back == columnar.nodes_fed_back
        assert row.recursion_depth == columnar.recursion_depth

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("algorithm", ["naive", "delta"])
    def test_algebra_matches_the_interpreter(self, tiny_sessions, workload, algorithm):
        spec, sessions, seeds = tiny_sessions[workload]
        algebra = run_cell(sessions["columnar"], spec, seeds, "algebra", algorithm)
        interpreter = run_cell(sessions["columnar"], spec, seeds, "interpreter", algorithm)
        assert algebra.answers == interpreter.answers
        assert algebra.nodes_fed_back == interpreter.nodes_fed_back
        assert algebra.recursion_depth == interpreter.recursion_depth

    def test_dialogs_runs_via_positional_pushdown(self, tiny_sessions):
        # The dialogs body carries positional predicates, which the classic
        # materialize-then-filter plan rejects; since predicate pushdown the
        # compiler attaches them to the step macro, so the workload runs —
        # and both backends/algorithms agree.
        spec, sessions, seeds = tiny_sessions["dialogs"]
        answers = {tuple(run_cell(sessions[backend], spec, seeds, "algebra", algorithm).answers)
                   for backend in BACKENDS for algorithm in ("naive", "delta")}
        assert len(answers) == 1

    def test_dialogs_still_rejected_without_pushdown(self):
        from repro.algebra.compiler import AlgebraCompiler
        from repro.algebra.operators import RecursionInput
        from repro.xquery.parser import parse_expression

        compiler = AlgebraCompiler(push_predicates=False)
        with pytest.raises(AlgebraError):
            compiler.compile(
                parse_expression("$x/following-sibling::SPEECH[1]"),
                compiler.initial_context({"x": RecursionInput("x")}),
            )


# ---------------------------------------------------------------------------
# plan memoisation
# ---------------------------------------------------------------------------


class TestPlanMemoisation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shared_subplans_computed_once(self, backend):
        shared = LiteralTable(Table(("iter", "item"), [(1, 1), (1, 2)]))
        doubled = ScalarOp(shared, "d", ["item"], lambda v: v * 2, name="x2")
        left = Project(doubled, [("iter", "iter"), ("item", "d")])
        right = Project(doubled, [("iter", "iter"), ("item", "item")])
        plan = UnionAll([left, right])
        engine = AlgebraEvaluator(backend=backend)
        table = engine.evaluate_plan(plan)
        assert sorted(table.column_values("item")) == [1, 2, 2, 4]
        # 5 distinct operators in the DAG → exactly 5 invocations, the
        # shared ScalarOp/LiteralTable pair is not recomputed per parent.
        assert engine.statistics.operator_invocations == 5

    def test_memo_cache_does_not_leak_between_runs(self):
        calls = []
        source = LiteralTable(Table(("iter", "item"), [(1, "a")]))
        traced = ScalarOp(source, "t", ["item"], lambda v: calls.append(v) or v,
                          name="trace")
        engine = AlgebraEvaluator()
        engine.evaluate_plan(traced)
        engine.evaluate_plan(traced)
        # A fresh run re-evaluates the plan (no cross-run result cache) …
        assert len(calls) == 2
        # … and each run's statistics are recorded separately.
        assert len(engine.run_history) == 2
        assert engine.run_history[0].operator_invocations == 2


# ---------------------------------------------------------------------------
# per-run evaluator state (regression: bindings/statistics must not leak)
# ---------------------------------------------------------------------------


DOCUMENT_XML = """
<r>
  <n id="n1"><next>n2</next></n>
  <n id="n2"><next>n3</next></n>
  <n id="n3"></n>
</r>
"""


def _fixpoint_plan(compiler, algorithm="delta"):
    expression = parse_expression(
        f'with $x seeded by doc("d.xml")/r/n[@id = "n1"] '
        f"recurse $x/id (./next) using {algorithm}"
    )
    return compiler.compile(expression)


@pytest.fixture()
def fixpoint_setup():
    document = parse_xml(DOCUMENT_XML)
    resolver = DocumentResolver()
    resolver.register("d.xml", document)
    compiler = AlgebraCompiler(documents=resolver, document=document)
    return document, compiler


class TestPerRunState:
    def test_repeated_evaluations_have_fresh_statistics(self, fixpoint_setup):
        _document, compiler = fixpoint_setup
        plan = _fixpoint_plan(compiler)
        engine = AlgebraEvaluator()
        first = engine.evaluate_plan(plan)
        assert len(engine.last_run_statistics.fixpoint_runs) == 1
        second = engine.evaluate_plan(plan)
        assert first == second
        # The latest run reports exactly its own fixpoint, while the
        # cumulative view has both.
        assert len(engine.last_run_statistics.fixpoint_runs) == 1
        assert len(engine.statistics.fixpoint_runs) == 2

    def test_recursion_binding_does_not_leak_into_nested_runs(self, fixpoint_setup):
        document, compiler = fixpoint_setup
        observed = {}
        bare_recursion = RecursionInput("y")

        class Probe(Operator):
            """Inside a fixpoint round, evaluate a *nested* plan containing a
            bare recursion input: it must see a fresh run (and fail), not the
            enclosing fixpoint's binding."""

            union_pushable = True

            def compute(self, inputs, engine):
                try:
                    engine.evaluate_plan(bare_recursion)
                    observed["nested"] = "leaked enclosing binding"
                except AlgebraError:
                    observed["nested"] = "fresh"
                return inputs[0]

        body = Probe([StepJoin(RecursionInput("x"), "child", "name", "n")])
        seed = LiteralTable(Table(("iter", "pos", "item"),
                                  [(1, 1, document.children[0])]))
        from repro.algebra.operators import Fixpoint

        plan = Fixpoint(seed, body, bare_recursion, variant="mu")
        AlgebraEvaluator().evaluate_plan(plan)
        assert observed["nested"] == "fresh"

    def test_recursion_input_outside_fixpoint_raises(self):
        engine = AlgebraEvaluator()
        with pytest.raises(AlgebraError):
            engine.evaluate_plan(RecursionInput("x"))
        # …including after a successful fixpoint evaluation on the same engine.
        document = parse_xml(DOCUMENT_XML)
        resolver = DocumentResolver()
        resolver.register("d.xml", document)
        compiler = AlgebraCompiler(documents=resolver, document=document)
        engine.evaluate_plan(_fixpoint_plan(compiler))
        with pytest.raises(AlgebraError):
            engine.evaluate_plan(RecursionInput("x"))

    def test_macro_cache_is_per_run(self, fixpoint_setup):
        document, compiler = fixpoint_setup
        plan = _fixpoint_plan(compiler)
        engine = AlgebraEvaluator()
        engine.evaluate_plan(plan)
        engine.evaluate_plan(plan)
        # Cache state must not persist on the engine between runs.
        assert not hasattr(engine, "macro_cache")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fixpoint_results_identical_across_backends(self, fixpoint_setup, backend):
        _document, compiler = fixpoint_setup
        for algorithm in ("naive", "delta"):
            plan = _fixpoint_plan(compiler, algorithm)
            engine = AlgebraEvaluator(backend=backend)
            table = engine.evaluate_plan(plan)
            ids = sorted(node.get_attribute("id").value
                         for node in table.column_values("item"))
            assert ids == ["n2", "n3"]
            assert engine.statistics.max_recursion_depth >= 2
