"""The static analysis framework: scopes, cardinality, distributivity,
the --check lint mode, POST /analyze and the analysis cache."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_query
from repro.analysis.cardinality import (
    EMPTY,
    ONE,
    OPT,
    PLUS,
    STAR,
    infer_cardinality,
)
from repro.analysis.distributivity import (
    analyze_distributivity_static,
    condition_verdict,
)
from repro.api import evaluate
from repro.errors import (
    DuplicateDeclarationError,
    UndefinedFunctionError,
    UndefinedVariableError,
    WrongArityError,
    XQueryDynamicError,
    XQueryStaticError,
)
from repro.service.server import QueryService
from repro.session import Session
from repro.settings import EvalSettings
from repro.xquery.parser import parse_expression

from tests.conftest import course_codes

ENGINES = ("interpreter", "algebra", "sql")


# ---------------------------------------------------------------------------
# pass 1: binding/scope resolution
# ---------------------------------------------------------------------------


class TestScopeErrors:
    def test_undefined_variable_with_position(self):
        report = analyze_query("let $a := 1 return $a + $b")
        (diagnostic,) = report.errors()
        assert diagnostic.code == "XPST0008"
        assert diagnostic.rule == "undefined-variable"
        assert "undefined variable $b" in diagnostic.message
        assert diagnostic.line == 1
        assert diagnostic.column == 25
        assert isinstance(diagnostic.error, UndefinedVariableError)

    def test_position_spans_lines(self):
        report = analyze_query("let $a := 1\nreturn\n  $nope")
        (diagnostic,) = report.errors()
        assert (diagnostic.line, diagnostic.column) == (3, 3)

    def test_undefined_function(self):
        report = analyze_query("no-such-function(1)")
        (diagnostic,) = report.errors()
        assert diagnostic.code == "XPST0017"
        assert diagnostic.rule == "undefined-function"
        assert "no-such-function#1" in diagnostic.message

    def test_builtin_wrong_arity(self):
        report = analyze_query("count(1, 2, 3)")
        (diagnostic,) = report.errors()
        assert diagnostic.rule == "wrong-arity"
        assert isinstance(diagnostic.error, WrongArityError)

    def test_user_function_wrong_arity(self):
        report = analyze_query(
            "declare function local:f($a) { $a }; local:f(1, 2)")
        (diagnostic,) = report.errors()
        assert diagnostic.rule == "wrong-arity"
        assert "expected 1" in diagnostic.message

    def test_duplicate_function_declaration(self):
        report = analyze_query(
            "declare function local:f() { 1 }; "
            "declare function local:f() { 2 }; local:f()")
        (diagnostic,) = report.errors()
        assert diagnostic.rule == "duplicate-function"
        assert diagnostic.code == "XQST0034"
        assert isinstance(diagnostic.error, DuplicateDeclarationError)

    def test_duplicate_variable_declaration(self):
        report = analyze_query(
            "declare variable $v := 1; declare variable $v := 2; $v")
        (diagnostic,) = report.errors()
        assert diagnostic.rule == "duplicate-variable"
        assert diagnostic.code == "XQST0049"

    def test_scoping_mirrors_runtime(self):
        # params, prior globals, bound FLWOR/quantifier variables all count
        report = analyze_query(
            "declare variable $g := 2; "
            "declare function local:f($p) { $p + $g }; "
            "for $i in 1 to 3 let $j := $i return local:f($j)")
        assert report.ok()

    def test_declared_external_is_in_scope(self):
        # missing-at-runtime stays a dynamic error; statically it is bound
        report = analyze_query("declare variable $limit external; $limit")
        assert report.ok()

    def test_caller_bound_variables(self):
        assert not analyze_query("$n").ok()
        assert analyze_query("$n", bound_variables=("n",)).ok()

    def test_later_global_not_visible_to_earlier_initializer(self):
        report = analyze_query(
            "declare variable $a := $b; declare variable $b := 1; $a")
        (diagnostic,) = report.errors()
        assert "undefined variable $b" in diagnostic.message


class TestEngineErrorMatrix:
    """Static errors are identical (class, code, message) across engines."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_undefined_variable(self, engine):
        with pytest.raises(UndefinedVariableError) as excinfo:
            evaluate("$unbound", settings=EvalSettings(engine=engine))
        assert excinfo.value.code == "XPST0008"
        assert "undefined variable $unbound" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (1, 1)
        # the dual inheritance keeps legacy dynamic-error handlers working
        assert isinstance(excinfo.value, XQueryStaticError)
        assert isinstance(excinfo.value, XQueryDynamicError)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_undefined_function(self, engine):
        with pytest.raises(UndefinedFunctionError) as excinfo:
            evaluate("nope(1)", settings=EvalSettings(engine=engine))
        assert excinfo.value.code == "XPST0017"
        assert "unknown function nope#1" in str(excinfo.value)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_wrong_arity(self, engine):
        with pytest.raises(WrongArityError) as excinfo:
            evaluate("count(1, 2, 3)", settings=EvalSettings(engine=engine))
        assert "expected 1" in str(excinfo.value)

    def test_messages_identical_across_engines(self):
        messages = set()
        for engine in ENGINES:
            with pytest.raises(XQueryStaticError) as excinfo:
                evaluate("let $a := $missing return nope($a)",
                         settings=EvalSettings(engine=engine))
            messages.add(str(excinfo.value))
        assert len(messages) == 1

    def test_error_raised_before_evaluation(self, curriculum_resolver):
        # the body would diverge/do work; the static error preempts it
        with pytest.raises(UndefinedVariableError):
            evaluate("for $c in doc('curriculum.xml')//course return $undefined",
                     documents=curriculum_resolver)

    def test_analyze_off_restores_dynamic_backstop(self):
        with pytest.raises(XQueryDynamicError):
            evaluate("$unbound", settings=EvalSettings(analyze=False))


# ---------------------------------------------------------------------------
# pass 2: cardinality inference
# ---------------------------------------------------------------------------


class TestCardinality:
    @pytest.mark.parametrize("expression, expected", [
        ("1", ONE),
        ("()", EMPTY),
        ("(1, 2)", PLUS),
        ("(1, ())", ONE),
        ("if (true()) then 1 else ()", OPT),
        ("if (true()) then (1, 2) else 3", PLUS),
        ("for $i in (1, 2, 3) return ($i, $i)", PLUS),
        ("let $v := (1, 2) return $v", PLUS),
        ("count((1, 2))", ONE),
        ("exactly-one((1))", ONE),
        ("zero-or-one(())", OPT),
        ("one-or-more((1, 2))", PLUS),
        ("1 to 3", PLUS),
        ("string-length('abc')", ONE),
    ])
    def test_inference(self, expression, expected):
        assert infer_cardinality(parse_expression(expression), {}) is expected

    def test_variable_environment(self):
        expr = parse_expression("($x, $x)")
        assert infer_cardinality(expr, {"x": EMPTY}) is EMPTY
        assert infer_cardinality(expr, {"x": PLUS}) is PLUS
        assert infer_cardinality(expr, {"x": STAR}) is STAR

    def test_path_from_empty_is_empty(self):
        expr = parse_expression("$x/child::a")
        assert infer_cardinality(expr, {"x": EMPTY}) is EMPTY
        assert infer_cardinality(expr, {"x": PLUS}) is STAR

    def test_report_body_cardinality(self):
        assert analyze_query("(1, 2)").body_cardinality == "+"
        assert analyze_query("()").body_cardinality == "empty"


# ---------------------------------------------------------------------------
# pass 3: strengthened distributivity
# ---------------------------------------------------------------------------


def _judge(body: str, seed: str | None = None):
    seed_expr = parse_expression(seed) if seed is not None else None
    return analyze_distributivity_static(
        parse_expression(body), "x", functions=None, seed=seed_expr, env=None)


class TestStaticDistributivity:
    def test_syntactic_bodies_pass_through(self):
        judgment = _judge("$x/child::a")
        assert judgment.safe and judgment.rule == "SYNTACTIC"
        assert judgment.syntactic.safe

    def test_trusted_builtin_id(self):
        # Figure 5 rejects id($x/...) (FUNCALL-BUILTIN); the analysis
        # trusts fn:id to distribute over union.
        judgment = _judge("id($x/prerequisites/pre_code)")
        assert judgment.safe
        assert judgment.rule == "TRUSTED-BUILTIN"
        assert not judgment.syntactic.safe

    def test_card_empty_base(self):
        judgment = _judge("if (count($x) >= 1) then $x/child::a else ()")
        assert judgment.safe
        assert judgment.rule == "CARD-EMPTY-BASE"
        assert judgment.facts  # the proof names the facts it consumed

    def test_card_seed_nonempty(self):
        # the body preserves non-emptiness ($x | ... yields >= 1 items when
        # $x does) and the seed is provably non-empty
        judgment = _judge("if (exists($x)) then ($x | $x/child::a) else (1, 2)",
                          seed="(1, 2, 3)")
        assert judgment.safe
        assert judgment.rule == "CARD-SEED-NONEMPTY"

    def test_seed_nonempty_requires_nonempty_seed(self):
        # without a provably non-empty seed the same body is rejected:
        # naive's round-1 B(empty) would produce the else branch
        judgment = _judge("if (exists($x)) then ($x | $x/child::a) else (1, 2)")
        assert not judgment.safe
        assert judgment.rule == "CARD-UNJUSTIFIED"

    def test_q2_style_count_guard_rejected(self):
        judgment = _judge("if (count($x) < 3) then $x/child::a else ()")
        assert not judgment.safe

    def test_rejection_becomes_named_warning(self):
        report = analyze_query(
            'with $x seeded by doc("c.xml")//a '
            "recurse (if (count($x) < 3) then $x/b else ())")
        (warning,) = report.warnings()
        assert warning.rule.startswith("rejected-distributivity:")
        assert report.ok()  # warnings do not block evaluation

    @pytest.mark.parametrize("condition, nonempty", [
        ("$x", True),
        ("exists($x)", True),
        ("boolean($x)", True),
        ("empty($x)", False),
        ("not(empty($x))", True),
        ("count($x) >= 1", True),
        ("count($x) > 0", True),
        ("1 <= count($x)", True),
        ("count($x) != 0", True),
        ("count($x) = 0", False),
        ("count($x) < 1", False),
    ])
    def test_condition_verdicts_nonempty(self, condition, nonempty):
        verdict = condition_verdict(parse_expression(condition), "x",
                                    nonempty=True)
        assert verdict is nonempty

    @pytest.mark.parametrize("condition", [
        "count($x) >= 2",       # not decidable from non-emptiness alone
        "count($y) >= 1",       # different variable
        "position() = 1",
    ])
    def test_undecidable_conditions(self, condition):
        assert condition_verdict(parse_expression(condition), "x",
                                 nonempty=True) is None


class TestCteAcceptance:
    """The headline case: a body Figure 5 rejects, proved by analysis,
    executed as a recursive CTE, item-identical across all engines."""

    QUERY = ('with $x seeded by '
             'doc("curriculum.xml")/curriculum/course[@code="c1"] '
             "recurse id($x/prerequisites/pre_code)")

    def test_cte_path_and_item_identity(self, curriculum_resolver,
                                        curriculum_document):
        outcomes = {}
        for engine in ENGINES:
            settings = EvalSettings(engine=engine,
                                    distributivity_checker="analysis")
            result = evaluate(self.QUERY, documents=curriculum_resolver,
                              context_item=curriculum_document,
                              settings=settings)
            outcomes[engine] = course_codes(result.items)
            if engine == "sql":
                assert [run.algorithm for run in result.statistics.runs] == ["cte"]
            else:
                assert [run.algorithm for run in result.statistics.runs] == ["delta"]
        assert outcomes["interpreter"] == outcomes["algebra"] == outcomes["sql"]
        assert outcomes["interpreter"] == ["c2", "c3", "c4", "c5"]

    def test_syntactic_checker_stays_naive(self, curriculum_resolver,
                                           curriculum_document):
        settings = EvalSettings(engine="sql",
                                distributivity_checker="syntactic")
        result = evaluate(self.QUERY, documents=curriculum_resolver,
                          context_item=curriculum_document, settings=settings)
        assert [run.algorithm for run in result.statistics.runs] == ["naive"]
        assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]

    def test_analysis_fact_attached_to_result(self, curriculum_resolver,
                                              curriculum_document):
        result = evaluate(self.QUERY, documents=curriculum_resolver,
                          context_item=curriculum_document,
                          settings=EvalSettings(distributivity_checker="analysis"))
        (fact,) = result.analysis.fixpoints
        assert fact.rule == "TRUSTED-BUILTIN"
        assert fact.safe and not fact.syntactic_safe
        assert fact.algorithm_hint == "delta"


# ---------------------------------------------------------------------------
# surfaces: CLI --check, POST /analyze, the analysis cache
# ---------------------------------------------------------------------------


class TestCheckCli:
    def test_check_reports_error_and_exits_nonzero(self, capsys):
        from repro.cli import main

        assert main(["--check", "-e", "let $a := 1 return $b"]) == 1
        err = capsys.readouterr().err
        assert "undefined variable $b" in err
        assert "1:20" in err
        assert "[XPST0008]" in err

    def test_check_ok_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["--check", "-e", "count((1, 2))"]) == 0
        assert "no static errors" in capsys.readouterr().out

    def test_check_never_evaluates(self, capsys):
        from repro.cli import main

        # evaluating this without documents would raise FODC0002
        assert main(["--check", "-e", 'doc("missing.xml")//a']) == 0

    def test_check_reports_parse_errors(self, capsys):
        from repro.cli import main

        assert main(["--check", "-e", "1 +"]) == 1
        assert "error" in capsys.readouterr().err

    def test_check_warns_on_rejected_distributivity(self, capsys):
        from repro.cli import main

        query = ('with $x seeded by doc("c.xml")//a '
                 "recurse (if (count($x) < 3) then $x/b else ())")
        assert main(["--check", "-e", query]) == 0
        err = capsys.readouterr().err
        assert "rejected-distributivity" in err

    def test_explain_analysis(self, capsys):
        from repro.cli import main

        assert main(["--explain-analysis", "-e", "1 + 1"]) == 0
        err = capsys.readouterr().err
        assert "body cardinality: 1" in err


class TestAnalyzeEndpoint:
    def test_analyze_reports_static_errors(self):
        service = QueryService(session=Session())
        response = service.handle_analyze({"query": "let $a := 1 return $b"})
        assert response["ok"] is True
        analysis = response["analysis"]
        assert analysis["ok"] is False
        (diagnostic,) = analysis["diagnostics"]
        assert diagnostic["severity"] == "error"
        assert diagnostic["line"] == 1 and diagnostic["column"] == 20
        # the lint path never evaluates, and the counters record it
        rendered = service.metrics_text()
        assert "repro_analyze_requests_total 1" in rendered
        assert "repro_static_errors_total 1" in rendered

    def test_analyze_reports_fixpoint_facts(self):
        service = QueryService(session=Session())
        response = service.handle_analyze(
            {"query": 'with $x seeded by doc("c.xml")//a recurse id($x/b)'})
        (fact,) = response["analysis"]["fixpoints"]
        assert fact["rule"] == "TRUSTED-BUILTIN"
        # the lint speaks for default settings, where Figure 5 decides and
        # has no rule for id(): every engine runs this site Naive
        assert fact["safe"] and not fact["syntactic_safe"]
        assert fact["algorithm"] == "naive"

    def test_analyze_accepts_variable_names(self):
        service = QueryService(session=Session())
        response = service.handle_analyze(
            {"query": "$n + 1", "variables": {"n": 5}})
        assert response["analysis"]["ok"] is True

    def test_analyze_rejects_bad_payloads(self):
        from repro.service.server import ServiceError

        service = QueryService(session=Session())
        with pytest.raises(ServiceError):
            service.handle_analyze({"query": ""})
        with pytest.raises(ServiceError):
            service.handle_analyze({"query": "1", "bogus": True})


class TestAnalysisCache:
    def test_repeat_evaluations_hit_the_cache(self):
        session = Session()
        session.evaluate("1 + 1")
        before = session.cache_stats()["analysis"]
        session.evaluate("1 + 1")
        after = session.cache_stats()["analysis"]
        assert after["hits"] == before["hits"] + 1
        session.close()

    def test_analyze_flag_gates_the_pass(self):
        session = Session()
        result = session.evaluate("1", settings=EvalSettings(analyze=False))
        assert result.analysis is None
        result = session.evaluate("1")
        assert result.analysis is not None
        session.close()
