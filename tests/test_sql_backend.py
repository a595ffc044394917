"""Tests for the SQLite execution backend (``repro.sqlbackend``).

Covers the shredder's pre/post encoding, the ``WITH RECURSIVE`` emitter,
the CTE-vs-driver-loop decision, cross-engine equivalence (interpreter vs.
algebra vs. sql) on the paper examples and the datagen workloads, the CLI
flags, and the shared result-table decoding helper.
"""

import re

import pytest

from repro import Engine, EvalSettings, Session, evaluate, parse_xml
from repro.bench.table2 import run_row
from repro.cli import main as cli_main
from repro.errors import AlgebraError, SqlBackendError
from repro.sqlbackend import (
    ResultTable,
    SQLEvaluator,
    SqlDocumentStore,
    decode_result_table,
    emit_fixpoint_sql,
    fixpoint_statements,
)
from repro.sqlbackend.schema import CHILD_INDEX, ID_INDEX
from repro.xquery.context import DocumentResolver, DynamicContext
from repro.xquery.parser import parse_expression, parse_query
from tests.conftest import CURRICULUM_XML, course_codes
from tests.test_paper_examples import DELTA_QUERY, FIX_QUERY, QUERY_Q1

UNFOLDED_Q1 = """
with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
recurse (
  for $c in doc("curriculum.xml")/curriculum/course
  where $c/@code = $x/prerequisites/pre_code
  return $c
)
"""

QUERY_Q2 = """
let $seed := (<a/>,<b><c><d/></c></b>)
return with $x seeded by $seed
recurse if (count($x/self::a)) then $x/* else ()
"""


#: The axis/predicate matrix of bodies the emitter translates, plus the
#: ledger's curriculum and hospital bodies.
EMITTABLE_BODIES = [
    "$x/parent",                       # hospital: child step, name test
    "$x/child::*",                     # wildcard
    "$x/descendant::a/child::b",       # descendant range join
    "$x/ancestor::a",                  # ancestor range join
    "$x/id(./pre_code)",               # id hop
    "$x/child::a[@id = 'x']",          # pushed attribute comparison
    "$x/descendant::a[name = 'v']",    # pushed child-value comparison
    "$x/child::a[@id][b]",             # pushed existence tests
    "$x/id(./prerequisites/pre_code)",             # curriculum
    "$x/descendant-or-self::course/self::course",  # the remaining axes
    "$x/ancestor-or-self::*/parent::node()",
    "$x/following-sibling::course",
    "$x/preceding-sibling::*[@code]",
    "$x/child::text()",
    "$x/id(./prerequisites/pre_code)/child::prerequisites[pre_code = 'c1']",
]


@pytest.fixture()
def curriculum():
    return parse_xml(CURRICULUM_XML)


@pytest.fixture()
def documents(curriculum):
    return {"curriculum.xml": curriculum}


def _identical(left, right) -> bool:
    """Item-identical sequences: same length, same objects, same order."""
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


# ---------------------------------------------------------------------------
# shredding
# ---------------------------------------------------------------------------


class TestShredder:
    def test_node_counts_and_id_table(self, curriculum):
        store = SqlDocumentStore()
        store.shred(curriculum, uri="curriculum.xml")
        assert store.node_count() == sum(1 for _ in curriculum.iter_tree())
        id_rows = store.connection.execute(
            "SELECT value FROM id_attr ORDER BY value").fetchall()
        assert [row[0] for row in id_rows] == curriculum.id_values()

    def test_pre_post_descendant_ranges(self, curriculum):
        store = SqlDocumentStore()
        store.shred(curriculum)
        root_element = curriculum.document_element()
        (pre,) = store.encode([root_element])
        count = store.connection.execute(
            "SELECT count(*) FROM node WHERE pre > ? AND post < "
            "(SELECT post FROM node WHERE pre = ?)", (pre, pre)).fetchone()[0]
        assert count == len(root_element.descendant_axis())

    def test_element_string_values_are_materialised(self, curriculum):
        store = SqlDocumentStore()
        store.shred(curriculum)
        values = dict(store.connection.execute(
            "SELECT pre, value FROM node WHERE name = 'course'").fetchall())
        courses = [n for n in curriculum.iter_tree() if n.name == "course"]
        assert len(values) == len(courses)
        for course in courses:
            (pre,) = store.encode([course])
            assert values[pre] == course.string_value()

    def test_encode_decode_roundtrip_preserves_identity(self, curriculum):
        store = SqlDocumentStore()
        nodes = [n for n in curriculum.iter_tree() if n.name == "pre_code"]
        decoded = store.decode(store.encode(nodes))
        assert _identical(nodes, decoded)

    def test_constructed_trees_are_shredded_on_demand(self):
        from repro.xquery.evaluator import Evaluator

        seed = Evaluator().evaluate(parse_expression("(<a/>,<b><c/></b>)"),
                                    DynamicContext())
        store = SqlDocumentStore()
        pres = store.encode(seed)
        assert len(pres) == 2
        assert store.connection.execute("SELECT count(*) FROM doc").fetchone()[0] == 2

    def test_shredding_twice_is_idempotent(self, curriculum):
        store = SqlDocumentStore()
        assert store.shred(curriculum) == store.shred(curriculum)

    def test_unknown_pre_raises(self):
        store = SqlDocumentStore()
        with pytest.raises(SqlBackendError):
            store.decode([42])

    @staticmethod
    def _row_counts(store):
        return tuple(store.connection.execute(f"SELECT count(*) FROM {table}").fetchone()[0]
                     for table in ("doc", "node", "attr", "id_attr"))

    def test_retain_forgets_what_is_not_wanted_and_only_that(self, curriculum):
        other = parse_xml('<o><p id="x" k="1"/><p id="y"/></o>')
        store = SqlDocumentStore()
        store.shred(other)
        alone = self._row_counts(store)
        store.shred(curriculum)
        version = store.version
        assert store.retain([curriculum, other]) == 0 and store.version == version
        assert store.retain([other]) == 1 and store.version == version + 1
        # The curriculum's rows went by its rank range and doc_id; the other
        # tree's rows, mappings and ranks are untouched.
        assert self._row_counts(store) == alone
        assert store.doc_id_of(curriculum) is None and store.doc_id_of(other) is not None
        with pytest.raises(SqlBackendError):
            store.decode([max(store._node_of) + 1])
        assert _identical(store.decode(store.encode(list(other.iter_tree()))),
                          list(other.iter_tree()))
        # Reached again, the forgotten tree is shredded afresh.
        courses = [n for n in curriculum.iter_tree() if n.name == "course"]
        assert _identical(store.decode(store.encode(courses)), courses)
        assert self._row_counts(store)[0] == 2

    def test_retain_forgets_a_tree_mutated_since_it_was_shredded(self, curriculum):
        other = parse_xml("<o><p/></o>")
        store = SqlDocumentStore()
        store.shred(curriculum)
        store.shred(other)
        assert store.retain([curriculum, other]) == 0
        course = next(n for n in curriculum.iter_tree() if n.name == "course")
        course.get_attribute("code").set_value("renamed")          # a value …
        assert store.retain([curriculum, other]) == 1
        assert store.doc_id_of(curriculum) is None and store.doc_id_of(other) is not None
        store.shred(curriculum)
        assert store.connection.execute(
            "SELECT count(*) FROM attr WHERE value = 'renamed'").fetchone()[0] == 1
        other.document_element().append_child(parse_xml("<q/>").document_element())
        assert store.retain([curriculum, other]) == 1               # … or the structure
        assert store.doc_id_of(other) is None and store.doc_id_of(curriculum) is not None


# ---------------------------------------------------------------------------
# the WITH RECURSIVE emitter
# ---------------------------------------------------------------------------


class TestEmitter:
    def test_q1_body_is_a_single_recursive_statement(self):
        emitted = emit_fixpoint_sql(
            parse_expression("$x/id(./prerequisites/pre_code)"), "x")
        assert emitted is not None
        statement = emitted.statement(seed_count=2)
        assert statement.count("WITH RECURSIVE") == 1
        assert statement.count("UNION") == 1      # the inflationary accumulation
        assert "UNION ALL" not in statement       # set semantics, terminates on cycles
        assert statement.count("(?)") == 2        # parameterized seed
        assert "id_attr" in statement

    def test_emitted_statement_executes_in_sqlite(self, curriculum):
        store = SqlDocumentStore()
        store.shred(curriculum)
        emitted = emit_fixpoint_sql(
            parse_expression("$x/id(./prerequisites/pre_code)"), "x")
        seed = store.encode([curriculum.lookup_id("c1")])
        rows = store.connection.execute(emitted.statement(len(seed)), seed).fetchall()
        closure = store.decode([row[0] for row in rows])
        assert course_codes(closure) == ["c2", "c3", "c4", "c5"]

    def test_emitted_statement_terminates_on_cycles(self, curriculum):
        store = SqlDocumentStore()
        store.shred(curriculum)
        emitted = emit_fixpoint_sql(
            parse_expression("$x/id(./prerequisites/pre_code)"), "x")
        seed = store.encode([curriculum.lookup_id("c6")])
        rows = store.connection.execute(emitted.statement(len(seed)), seed).fetchall()
        assert course_codes(store.decode([r[0] for r in rows])) == ["c6", "c7"]

    @pytest.mark.parametrize("body", EMITTABLE_BODIES)
    def test_linear_step_chains_are_emittable(self, body):
        assert emit_fixpoint_sql(parse_expression(body), "x") is not None

    @pytest.mark.parametrize("body", [
        "bidder($x)",                                    # user-defined function
        "if (count($x/self::a)) then $x/* else ()",      # conditional (Q2)
        "$x/child::a[1]",                                # positional predicate
        "$x/child::a[@id != 'x']",                       # unsupported operator
        "$x/child::a[b/c = 'v']",                        # nested path predicate
        "($x/a, $x/b)",                                  # sequence body
        "count($x)",                                     # aggregate
        "$y/child::a",                                   # wrong variable
        "$x",                                            # no step: nothing to iterate
    ])
    def test_non_chain_bodies_fall_back(self, body):
        assert emit_fixpoint_sql(parse_expression(body), "x") is None

    def test_predicates_not_pushed_without_pushdown(self):
        body = parse_expression("$x/child::a[@id = 'x']")
        assert emit_fixpoint_sql(body, "x", push_predicates=False) is None

    def test_braces_in_literals_stay_literal(self):
        documents = {"d.xml": parse_xml('<r><a k="{x}"><a k="{x}"/><a k="y"/></a></r>')}
        query = 'with $x seeded by doc("d.xml")/r recurse $x/child::a[@k = "{x}"]'
        reference = evaluate(query, documents=documents).items
        items = evaluate(query, documents=documents, engine=Engine.SQL).items
        assert len(reference) == 2 and _identical(reference, items)

    def test_variable_rhs_inlined_from_bindings(self):
        body = parse_expression("$x/child::a[@id = $v]")
        assert emit_fixpoint_sql(body, "x") is None  # binding unknown
        emitted = emit_fixpoint_sql(body, "x", variables={"v": ["k1", "k2"]})
        assert emitted is not None
        assert "IN ('k1', 'k2')" in emitted.member("seed")
        assert emit_fixpoint_sql(body, "x", variables={"v": [7]}) is None

    # -- plan shape: the access paths are pinned, not left to statistics ------

    @staticmethod
    def _plan(store, body):
        """The emitted statement for *body* and its query plan lines."""
        statement = emit_fixpoint_sql(parse_expression(body), "x").statement(1)
        return statement, [row[3] for row in store.connection.execute(
            "EXPLAIN QUERY PLAN " + statement, (1,))]

    @classmethod
    def _assert_plan_is_pinned(cls, store, body):
        statement, plan = cls._plan(store, body)
        text = "\n".join(plan)
        assert "BLOOM FILTER" not in text, text
        assert "AUTOMATIC" not in text, text
        for detail in plan:
            # Only the seed, the fixpoint queue and constant rows are scanned;
            # every node/attr/id_attr alias (c0…, p) is searched.
            if detail.startswith("SCAN"):
                assert not re.search(r"\b(c\d+|p|node|attr|id_attr)\b", detail), text
        # A child step reads the frontier's pre (s.pre) or a step's.
        child_steps = re.findall(
            rf"node AS (c\d+) INDEXED BY {CHILD_INDEX} ON \1\.parent = (?:c\d+|s)\.pre",
            statement)
        for alias in set(child_steps):
            searches = [detail for detail in plan
                        if re.match(rf"SEARCH (TABLE node AS )?{alias} USING "
                                    rf"(COVERING )?INDEX {CHILD_INDEX} ", detail)]
            assert len(searches) == 2, text  # anchor member + recursive member
        if "child::" in body or body in ("$x/parent", "$x/id(./prerequisites/pre_code)"):
            assert child_steps, statement

    @pytest.fixture(scope="class")
    def big_curriculum(self):
        from repro.datagen.curriculum import CurriculumConfig, generate_curriculum

        document = generate_curriculum(CurriculumConfig(courses=300))
        assert sum(1 for _ in document.iter_tree()) >= 1000
        return document

    @pytest.fixture(scope="class")
    def big_store(self, big_curriculum):
        store = SqlDocumentStore()
        store.shred(big_curriculum)
        yield store
        store.close()

    @pytest.mark.parametrize("body", EMITTABLE_BODIES)
    def test_plan_is_pinned_as_shredded(self, big_store, body):
        self._assert_plan_is_pinned(big_store, body)

    def test_shredding_gathers_no_statistics(self, big_store):
        tables = [row[0] for row in big_store.connection.execute(
            "SELECT name FROM sqlite_master WHERE name LIKE 'sqlite_stat%'")]
        assert tables == []

    def test_plan_is_pinned_on_a_reopened_analyzed_store(self, big_curriculum, tmp_path):
        """With ``node`` statistics present SQLite >= 3.38 puts a Bloom
        filter over the whole table into every recursive member, whatever
        the join names as its index — so opening a store clears them."""
        path = str(tmp_path / "store.db")
        store = SqlDocumentStore(path)
        store.shred(big_curriculum)
        store.connection.execute("ANALYZE")
        store.connection.commit()
        assert store.connection.execute(
            "SELECT count(*) FROM sqlite_stat1").fetchone()[0] > 0
        store.close()
        reopened = SqlDocumentStore(path)
        try:
            assert reopened.node_count() >= 1000
            assert reopened.connection.execute(
                "SELECT count(*) FROM sqlite_stat1").fetchone()[0] == 0
            for body in EMITTABLE_BODIES:
                self._assert_plan_is_pinned(reopened, body)
        finally:
            reopened.close()

    def test_q1_member_reads_index_entries_and_the_argument_row_only(self, big_store):
        """Q1's member: a covering search for the ``prerequisites`` child, an
        index search for ``pre_code`` (whose value and document the ID join
        reads), a covering ``id_attr`` search — and no ``pre`` lookup of
        ``node``, neither for the frontier nor for the ID's target."""
        _, plan = self._plan(big_store, "$x/id(./prerequisites/pre_code)")
        searches = [re.sub(r"^SEARCH TABLE \w+ AS ", "SEARCH ", detail)
                    for detail in plan if detail.startswith("SEARCH")]
        member = [
            f"SEARCH c1 USING COVERING INDEX {CHILD_INDEX} (parent=? AND name=? AND kind=?)",
            f"SEARCH c2 USING INDEX {CHILD_INDEX} (parent=? AND name=? AND kind=?)",
            f"SEARCH c3 USING COVERING INDEX {ID_INDEX} (doc_id=? AND value=?)",
        ]
        assert searches == member * 2, "\n".join(plan)  # anchor + recursive member

    @pytest.mark.parametrize("body, row", [
        ("$x/parent", None),                      # a child step named parent
        ("$x/parent::*", "c0.pre = s.pre"),       # reads the frontier's parent
        ("$x/descendant::*", "c0.pre = s.pre"),   # … its post and document
        ("$x/following-sibling::*", "c0.pre = s.pre"),
        ("$x/id(./prerequisites/pre_code)/child::prerequisites", None),
        ("$x/id(./prerequisites/pre_code)/descendant::pre_code", "c4.pre = c3.pre"),
    ])
    def test_a_node_row_is_joined_only_when_a_clause_reads_it(self, big_store, body, row):
        statement, plan = self._plan(big_store, body)
        rows = re.findall(r"NOT INDEXED ON (c\d+\.pre = (?:s|c\d+)\.pre)$", statement, re.M)
        assert rows == ([row] * 2 if row else []), statement  # both members
        if row:
            alias = row.split(".")[0]
            lookups = [detail for detail in plan if re.match(
                rf"SEARCH (TABLE node AS )?{alias} USING INTEGER PRIMARY KEY \(rowid=\?\)",
                detail)]
            assert len(lookups) == 2, "\n".join(plan)

    def test_fixpoint_statements_lists_every_fixpoint(self, documents):
        triples = fixpoint_statements(parse_query(QUERY_Q1))
        assert len(triples) == 1
        expr, decision, emitted = triples[0]
        assert expr.var == "x" and emitted is not None
        assert (decision.algorithm, decision.checker) == ("delta", "syntactic")
        triples = fixpoint_statements(parse_query(QUERY_Q2))
        assert len(triples) == 1 and triples[0][2] is None
        assert triples[0][1].rejected
        # the checker decides here as it does in the engine
        (_, decision, emitted), = fixpoint_statements(
            parse_query(QUERY_Q1), EvalSettings(distributivity_checker="never"))
        assert decision.algorithm == "naive" and emitted is None


# ---------------------------------------------------------------------------
# CTE vs. driver loop decision and statistics
# ---------------------------------------------------------------------------


class TestExecutionPaths:
    def _run(self, query, documents, **options):
        resolver = DocumentResolver()
        for uri, doc in documents.items():
            resolver.register(uri, doc)
        evaluator = SQLEvaluator()
        module = parse_query(query)
        items = evaluator.evaluate_module(module, DynamicContext(documents=resolver))
        return items, evaluator

    def test_distributive_recursion_runs_as_one_cte(self, documents):
        items, evaluator = self._run(QUERY_Q1, documents)
        assert course_codes(items) == ["c2", "c3", "c4", "c5"]
        statements = evaluator.executor.executed_statements
        assert len(statements) == 1
        assert statements[0].lstrip().startswith("WITH RECURSIVE")

    def test_forced_naive_uses_the_driver_loop(self, documents):
        query = QUERY_Q1.rstrip() + " using naive"
        items, evaluator = self._run(query, documents)
        assert course_codes(items) == ["c2", "c3", "c4", "c5"]
        assert evaluator.executor.executed_statements == []

    def test_non_distributive_body_uses_the_driver_loop(self, documents):
        items, evaluator = self._run(QUERY_Q2, documents)
        assert [n.name for n in items] == ["c"]
        assert evaluator.executor.executed_statements == []

    def test_driver_loop_statistics_match_the_interpreter(self, documents):
        query = QUERY_Q1.rstrip() + " using naive"
        interpreter = evaluate(query, documents=documents)
        sql = evaluate(query, documents=documents, engine=Engine.SQL)
        assert sql.nodes_fed_back == interpreter.nodes_fed_back
        assert sql.recursion_depth == interpreter.recursion_depth
        assert [run.algorithm for run in sql.statistics.runs] == ["naive"]

    def test_cte_runs_report_the_cte_algorithm(self, documents):
        result = evaluate(QUERY_Q1, documents=documents, engine=Engine.SQL)
        assert [run.algorithm for run in result.statistics.runs] == ["cte"]


class TestGuardVerdictsLiveWithTheData:
    """The multi-token probes run once per store version: a session builds
    a new evaluator per query, but its thread's pooled store keeps the
    verdicts until a shred or a forgotten tree changes what it holds."""

    @staticmethod
    def _statements(session):
        """Every statement this thread's pooled store runs from now on."""
        statements = []
        store = session._sql_pool.store(session.snapshot())
        store.connection.set_trace_callback(statements.append)
        return statements

    @staticmethod
    def _probes(statements):
        return [text for text in statements if text.startswith("SELECT EXISTS(")]

    @staticmethod
    def _ctes(statements):
        return [text for text in statements if text.lstrip().startswith("WITH RECURSIVE")]

    def test_ten_evaluations_probe_once(self, documents):
        with Session(documents) as session:
            statements = self._statements(session)
            first = session.evaluate(QUERY_Q1, engine="sql", trace=True)
            for _ in range(8):
                session.evaluate(QUERY_Q1, engine="sql")
            last = session.evaluate(QUERY_Q1, engine="sql", trace=True)
        assert len(self._probes(statements)) == 1
        assert len(self._ctes(statements)) == 10
        assert course_codes(first.items) == ["c2", "c3", "c4", "c5"]
        assert _identical(first.items, last.items)
        # The probe is its own span, and the CTE's span says how it was decided.
        (probe,) = [span for span in first.trace.find_all("sql")
                    if span.attributes.get("probe") == "multi-token"]
        assert "GLOB" in probe.attributes["statement"]
        assert first.trace.find("fixpoint").attributes["guards"] == "probed"
        assert last.trace.find("fixpoint").attributes["guards"] == "cached"
        assert not any("probe" in span.attributes for span in last.trace.find_all("sql"))

    def test_a_shred_or_a_forgotten_tree_probes_again(self):
        query = ('with $x seeded by doc("{uri}")/r/a[@id="{start}"] '
                 "recurse $x/id(./ref) using delta")
        single = query.format(uri="a.xml", start="y1")
        multi = query.format(uri="d.xml", start="x1")
        with Session({"a.xml": '<r><a id="y1"><ref>y2</ref></a><a id="y2"><ref/></a></r>'}
                     ) as session:
            statements = self._statements(session)
            session.evaluate(single, engine="sql")
            session.evaluate(single, engine="sql")
            assert (len(self._probes(statements)), len(self._ctes(statements))) == (1, 2)
            # Shredding d.xml changes the store: the same probe runs again,
            # finds the multi-token IDREFS and hands the fixpoint to the driver.
            session.register_document(
                "d.xml", '<r><a id="x1"><ref>x1 x3</ref></a><a id="x2"><ref/></a>'
                         '<a id="x3"><ref>x2</ref></a></r>')
            driven = session.evaluate(multi, engine="sql", trace=True)
            reference = session.evaluate(multi, engine="interpreter")
            assert (len(self._probes(statements)), len(self._ctes(statements))) == (2, 2)
            assert driven.trace.find("fixpoint").attributes["path"] == "driver"
            assert [a.get_attribute("id").value for a in reference.items] == ["x1", "x2", "x3"]
            assert _identical(reference.items, driven.items)
            # Forgetting d.xml changes it again: re-probed, and the CTE is back.
            session.remove_document("d.xml")
            result = session.evaluate(single, engine="sql", trace=True)
            assert (len(self._probes(statements)), len(self._ctes(statements))) == (3, 3)
            assert result.trace.find("fixpoint").attributes["guards"] == "probed"
            assert session.stats()["sql_pool"]["trees_dropped"] == 1


# ---------------------------------------------------------------------------
# cross-engine equivalence: paper examples
# ---------------------------------------------------------------------------


ALL_ENGINES = (Engine.INTERPRETER, Engine.ALGEBRA, Engine.SQL)


class TestPaperExampleEquivalence:
    @pytest.mark.parametrize("query", [
        QUERY_Q1,
        QUERY_Q1.replace('"c1"', '"c6"'),    # cyclic closure
        UNFOLDED_Q1,                         # Section 4's unfolded variant
    ])
    def test_all_three_engines_are_item_identical(self, query, documents):
        reference = evaluate(query, documents=documents).items
        for engine in (Engine.ALGEBRA, Engine.SQL):
            items = evaluate(query, documents=documents, engine=engine).items
            assert _identical(reference, items), engine

    @pytest.mark.parametrize("query", [FIX_QUERY, DELTA_QUERY])
    def test_recursive_udf_queries_match_where_supported(self, query, documents):
        """fix()/delta() are recursive UDFs: the algebra compiler cannot
        inline them (documented limitation); interpreter and sql agree."""
        reference = evaluate(query, documents=documents).items
        assert _identical(
            reference, evaluate(query, documents=documents, engine=Engine.SQL).items)
        with pytest.raises(AlgebraError):
            evaluate(query, documents=documents, engine=Engine.ALGEBRA)

    def test_q2_constructed_seed_matches_the_interpreter(self, documents):
        module = parse_query(QUERY_Q2)
        from repro.api import evaluate_query

        reference = evaluate_query(module, documents=documents).items
        items = evaluate_query(module, documents=documents, engine=Engine.SQL).items
        # Constructors mint fresh identities per evaluation; compare shape.
        assert [n.name for n in items] == [n.name for n in reference] == ["c"]

    @pytest.mark.parametrize("algorithm", ["naive", "delta", "auto"])
    def test_all_algorithms_agree_under_the_sql_engine(self, documents, algorithm):
        result = evaluate(QUERY_Q1, documents=documents, engine=Engine.SQL,
                          ifp_algorithm=algorithm)
        assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]

    def test_whitespace_padded_id_references_resolve_on_the_cte_path(self):
        """fn:id trims surrounding whitespace; the emitted join must too."""
        xml = ('<curriculum>'
               '<course code="c1"><prerequisites><pre_code> c2\n</pre_code>'
               "</prerequisites></course>"
               '<course code="c2"><prerequisites/></course>'
               "</curriculum>")
        documents = {"c.xml": parse_xml(xml, id_attributes=("code",))}
        query = ('with $x seeded by doc("c.xml")/curriculum/course[@code="c1"] '
                 "recurse $x/id(./prerequisites/pre_code) using delta")
        reference = evaluate(query, documents=documents).items
        items = evaluate(query, documents=documents, engine=Engine.SQL).items
        assert course_codes(reference) == ["c2"]
        assert _identical(reference, items)

    def test_multi_token_idrefs_fall_back_to_the_driver_loop(self):
        """The CTE's id join resolves one token per node; the emitted guard
        must detect multi-token IDREFS content and hand the fixpoint to the
        driver loop, whose interpreter body tokenizes correctly."""
        xml = ('<r><a id="x1"><ref> x2 </ref></a>'
               '<a id="x2"><ref>x1 x3</ref></a>'
               '<a id="x3"><ref/></a></r>')
        documents = {"d.xml": parse_xml(xml)}
        query = ('with $x seeded by doc("d.xml")/r/a[@id="x1"] '
                 "recurse $x/id(./ref) using delta")
        reference = evaluate(query, documents=documents).items
        items = evaluate(query, documents=documents, engine=Engine.SQL).items
        assert [n.get_attribute("id").value for n in reference] == ["x1", "x2", "x3"]
        assert _identical(reference, items)

    def test_large_seed_sets_bind_through_a_temp_table(self):
        """Seed sets beyond the host-parameter budget must not crash."""
        xml = "<r>" + "".join(f'<a id="n{i}"><ref>n{i + 1}</ref></a>'
                              for i in range(700)) + "</r>"
        documents = {"b.xml": parse_xml(xml)}
        query = 'with $x seeded by doc("b.xml")/r/a recurse $x/id(./ref)'
        reference = evaluate(query, documents=documents).items
        items = evaluate(query, documents=documents, engine=Engine.SQL).items
        assert len(items) == 699
        assert _identical(reference, items)

    def test_attribute_seeds_take_the_driver_loop(self):
        """Attribute pre ranks live in the attr table, which the emitted
        chain never reads — attribute-seeded recursions must fall back."""
        documents = {"d.xml": parse_xml('<r><a id="a1"><b code="x"/></a></r>')}
        query = 'with $x seeded by doc("d.xml")//b/@code recurse $x/..'
        reference = evaluate(query, documents=documents).items
        items = evaluate(query, documents=documents, engine=Engine.SQL).items
        assert reference and _identical(reference, items)

    def test_context_item_bodies_keep_interpreter_semantics(self, documents):
        """'.' in a recursion body is the outer context item, not $x; the
        emitter must not claim such bodies (the interpreter raises here)."""
        from repro.errors import XQueryDynamicError

        query = ('with $x seeded by doc("curriculum.xml")//course '
                 "recurse ./course")
        for engine in (Engine.INTERPRETER, Engine.SQL):
            with pytest.raises(XQueryDynamicError):
                evaluate(query, documents=documents, engine=engine)

    def test_driver_loop_feeds_the_seed_in_sequence_order(self):
        """Round 0 feeds the seed as written (not document-sorted); an
        order-sensitive fallback body can observe the difference."""
        documents = {"d.xml": parse_xml("<r><a><c1/></a><b><c2/></b></r>")}
        query = ('with $x seeded by (doc("d.xml")//b, doc("d.xml")//a) '
                 "recurse $x[1]/*")
        reference = evaluate(query, documents=documents).items
        items = evaluate(query, documents=documents, engine=Engine.SQL).items
        assert [n.name for n in reference] == ["c2"]
        assert _identical(reference, items)


# ---------------------------------------------------------------------------
# cross-engine equivalence: datagen workloads
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_cells():
    """Interpreter and sql cells of every workload's tiny Table 2 row."""
    return {(cell.workload, cell.engine, cell.algorithm): cell
            for workload in ("curriculum", "hospital", "bidder-network", "dialogs")
            for cell in run_row(workload, "tiny", engines=("interpreter", "sql"))}


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("workload", ["curriculum", "hospital",
                                          "bidder-network", "dialogs"])
    @pytest.mark.parametrize("algorithm", ["naive", "delta"])
    def test_sql_engine_matches_the_interpreter(self, tiny_cells, workload, algorithm):
        sql = tiny_cells[workload, "sql", algorithm]
        interpreter = tiny_cells[workload, "interpreter", algorithm]
        assert sql.answers == interpreter.answers
        if sql.nodes_fed_back is not None:
            assert sql.nodes_fed_back == interpreter.nodes_fed_back

    def test_sql_engine_matches_the_algebra_engine(self):
        """Whole-catalogue closure on the generated curriculum, all engines."""
        from repro.datagen.curriculum import CurriculumConfig, generate_curriculum

        documents = {"curriculum.xml": generate_curriculum(CurriculumConfig.tiny())}
        query = ('with $x seeded by doc("curriculum.xml")/curriculum/course '
                 "recurse $x/id(./prerequisites/pre_code) using delta")
        reference = evaluate(query, documents=documents).items
        for engine in (Engine.ALGEBRA, Engine.SQL):
            items = evaluate(query, documents=documents, engine=engine).items
            assert _identical(reference, items), engine

    def test_cte_cells_report_no_counts(self):
        naive, delta = run_row("curriculum", "tiny", engines=("sql",), seed_limit=3)
        assert naive.nodes_fed_back > 0
        assert delta.nodes_fed_back is None and delta.recursion_depth is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def _write_curriculum(self, tmp_path):
        path = tmp_path / "curriculum.xml"
        path.write_text(CURRICULUM_XML)
        return path

    def test_engine_sql_evaluates_queries(self, capsys, tmp_path):
        path = self._write_curriculum(tmp_path)
        exit_code = cli_main([
            "-e", 'count(with $x seeded by doc("curriculum.xml")'
                  '/curriculum/course[@code="c1"] '
                  "recurse $x/id(./prerequisites/pre_code))",
            "--doc", f"curriculum.xml={path}",
            "--engine", "sql",
        ])
        assert exit_code == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_emit_sql_prints_the_recursive_cte(self, capsys):
        exit_code = cli_main(["--emit-sql", "-e", QUERY_Q1])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert output.count("WITH RECURSIVE") == 1
        assert "id_attr" in output

    def test_emit_sql_notes_the_driver_loop_fallback(self, capsys):
        exit_code = cli_main(["--emit-sql", "-e", QUERY_Q2])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "driver loop" in output
        assert "WITH RECURSIVE" not in output

    def test_emit_sql_without_fixpoints(self, capsys):
        assert cli_main(["--emit-sql", "-e", "1 + 1"]) == 0
        assert "no with" in capsys.readouterr().out

    def test_emit_sql_reports_naive_forced_fixpoints_as_driver_loop(self, capsys):
        query = QUERY_Q1.rstrip() + " using naive"
        assert cli_main(["--emit-sql", "-e", query]) == 0
        output = capsys.readouterr().out
        assert "forced Naive" in output and "WITH RECURSIVE" not in output
        assert cli_main(["--emit-sql", "--algorithm", "naive", "-e", QUERY_Q1]) == 0
        output = capsys.readouterr().out
        assert "forced Naive" in output and "WITH RECURSIVE" not in output

    @pytest.mark.parametrize("engine", ["interpreter", "sql"])
    def test_backend_flag_rejected_outside_the_algebra_engine(self, capsys, engine):
        with pytest.raises(SystemExit):
            cli_main(["-e", "1 + 1", "--engine", engine, "--backend", "row"])
        assert "--backend" in capsys.readouterr().err

    def test_backend_flag_accepted_by_the_algebra_engine(self, capsys):
        exit_code = cli_main(["-e", "1 + 1", "--engine", "algebra",
                              "--backend", "row"])
        assert exit_code == 0
        assert capsys.readouterr().out.strip() == "2"


# ---------------------------------------------------------------------------
# shared result decoding and the Section 2 listing
# ---------------------------------------------------------------------------


class TestDecodeResultTable:
    def test_item_column_is_used(self):
        table = ResultTable(("iter", "pos", "item"), [(1, 1, "a"), (1, 2, "b")])
        assert decode_result_table(table) == ["a", "b"]

    def test_last_column_fallback(self):
        table = ResultTable(("iter", "payload"), [(1, 10), (2, 20)])
        assert decode_result_table(table) == [10, 20]

    def test_works_with_algebra_tables(self):
        from repro.algebra.table import Table

        table = Table(("iter", "pos", "item"), [(1, 1, 42)])
        assert decode_result_table(table) == [42]


class TestSectionTwoListing:
    """Section 2's SQL:1999 example, printed by the emitter's formatter."""

    def test_formatter_prints_the_listing_and_sqlite_runs_it(self):
        import sqlite3

        from repro.sqlbackend.emitter import format_with_recursive

        text = format_with_recursive(
            "P", ("course_code",),
            "SELECT prerequisite FROM C WHERE course = :course",
            "SELECT C.prerequisite FROM P, C WHERE P.course_code = C.course")
        assert text == (
            "WITH RECURSIVE P(course_code) AS (\n"
            "  SELECT prerequisite FROM C WHERE course = :course\n"
            "  UNION ALL\n"
            "  SELECT C.prerequisite FROM P, C WHERE P.course_code = C.course\n"
            ")\n"
            "SELECT DISTINCT * FROM P"
        )
        connection = sqlite3.connect(":memory:")
        try:
            connection.execute("CREATE TABLE C (course TEXT, prerequisite TEXT)")
            connection.executemany("INSERT INTO C VALUES (?, ?)", [
                ("c1", "c2"), ("c1", "c3"), ("c2", "c4"), ("c4", "c5")])
            rows = connection.execute(text, {"course": "c1"}).fetchall()
        finally:
            connection.close()
        assert sorted(row[0] for row in rows) == ["c2", "c3", "c4", "c5"]

