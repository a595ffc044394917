"""Tests for the public convenience API, the CLI and the AST optimizer."""

import pytest

from repro import (
    Engine,
    evaluate,
    ifp,
    is_distributive_algebraic,
    is_distributive_syntactic,
    parse_query_text,
    parse_xml,
    transitive_closure,
)
from repro.cli import main as cli_main
from repro.bench.table2 import main as table2_main
from repro.xquery import ast
from repro.xquery.optimizer import optimize, optimize_module
from repro.xquery.parser import parse_expression, parse_query
from tests.conftest import CURRICULUM_XML, course_codes


@pytest.fixture()
def documents():
    return {"curriculum.xml": parse_xml(CURRICULUM_XML)}


class TestEvaluateApi:
    def test_evaluate_with_xml_text_documents(self):
        result = evaluate('count(doc("c.xml")//course)', documents={"c.xml": CURRICULUM_XML})
        assert result.items == [7]

    def test_query_result_helpers(self, documents):
        result = evaluate('doc("curriculum.xml")//pre_code', documents=documents)
        assert len(result) == 6
        assert "c2" in result.string_values()
        assert list(iter(result))  # iterable

    def test_variables_and_context_item(self, documents):
        doc = documents["curriculum.xml"]
        result = evaluate("count($nodes) + count(//course)", documents=documents,
                          variables={"nodes": [doc, doc]}, context_item=doc)
        assert result.items == [9]

    def test_statistics_exposed(self, documents):
        result = evaluate(
            'with $x seeded by doc("curriculum.xml")//course[@code="c1"] '
            "recurse $x/id(./prerequisites/pre_code)",
            documents=documents,
        )
        assert result.nodes_fed_back > 0
        assert result.recursion_depth >= 2

    def test_algebra_engine_via_api(self, documents):
        result = evaluate(
            'with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"] '
            "recurse $x/id(./prerequisites/pre_code) using delta",
            documents=documents,
            engine=Engine.ALGEBRA,
        )
        assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]

    @pytest.mark.parametrize("optimize_flag", [True, False])
    @pytest.mark.parametrize("engine", ["interpreter", "algebra", "sql"])
    def test_prolog_variables_see_earlier_declarations(self, documents, engine,
                                                       optimize_flag):
        """An initializer may read the variables declared before it, the
        caller's bindings and the declared functions — on every engine (the
        algebra engine used to evaluate each one in an empty context)."""
        result = evaluate(
            'declare variable $doc := doc("curriculum.xml"); '
            "declare variable $wanted external; "
            "declare function local:codes($c) { $c/@code }; "
            "declare variable $courses := $doc//course; "
            "declare variable $codes := local:codes($courses[@code = $wanted]); "
            "(count($courses), data($codes))",
            documents=documents, variables={"wanted": ["c1", "c3"]},
            engine=engine, optimize=optimize_flag)
        assert result.items == [7, "c1", "c3"]

    def test_cached_plan_sees_value_mutations(self):
        """A prolog variable (here: one the optimizer hoists out of the
        loop) holds the result of a value predicate; the algebra plan cache
        must not serve it after the value changed."""
        from repro import Session

        doc = parse_xml('<r><n k="x"/><n k="y"/><n k="x"/></r>')
        query = ('declare variable $d := doc("r.xml"); '
                 'for $i in (1, 2) return count($d//n[@k = "x"])')
        with Session({"r.xml": doc}) as session:
            assert session.evaluate(query, engine="algebra").items == [2, 2]
            doc.document_element().children[0].get_attribute("k").set_value("y")
            assert session.evaluate(query, engine="algebra").items == [1, 1]

    def test_parse_query_text(self):
        module = parse_query_text("declare variable $x := 1; $x")
        assert module.variables[0].name == "x"


#: Names that used to pick an algorithm silently: asked for Naive, got Delta;
#: asked for the plan-based checker (twice), got Figure 5.
MISSPELT = [{"ifp_algorithm": "nave"}, {"distributivity_checker": "algebric"},
            {"distributivity_checker": "algebra"}]


class TestDecisionSettingsAreValidated:
    """An unknown ``ifp_algorithm`` / ``distributivity_checker`` is an error
    where the settings are built — before any evaluation, on every entry."""

    @pytest.mark.parametrize("misspelt", MISSPELT)
    def test_construction_and_replace(self, misspelt):
        from repro import EvalSettings
        from repro.settings import coerce_settings

        (name, value), = misspelt.items()
        for build in (lambda: EvalSettings(**misspelt),
                      lambda: EvalSettings().replace(**misspelt),
                      lambda: coerce_settings(misspelt),
                      lambda: coerce_settings(None, **misspelt)):
            with pytest.raises(ValueError, match=f"{name} must be one of .*{value!r}"):
                build()

    @pytest.mark.parametrize("misspelt", MISSPELT)
    def test_every_entry_point_refuses_before_evaluating(self, misspelt, documents,
                                                         monkeypatch):
        from repro import Session
        from repro.xquery.evaluator import Evaluator

        def evaluated(*args, **kwargs):
            raise AssertionError("evaluated under settings that name nothing")

        monkeypatch.setattr(Evaluator, "evaluate_module", evaluated)
        with pytest.raises(ValueError):
            evaluate("1 + 1", documents=documents, **misspelt)
        with pytest.raises(ValueError):
            evaluate("1 + 1", documents=documents, settings=misspelt)
        with pytest.raises(ValueError):
            Session(settings=misspelt)
        with Session(documents=documents) as session:
            with pytest.raises(ValueError):
                session.evaluate("1 + 1", **misspelt)
            with pytest.raises(ValueError):
                session.prepare("1 + 1", settings=misspelt)
            with pytest.raises(ValueError):
                session.prepare("1 + 1").run(**misspelt)

    def test_the_cli_restricts_the_choices(self, capsys):
        for arguments in (["--algorithm", "nave"], ["--checker", "algebric"]):
            with pytest.raises(SystemExit):
                cli_main(["-e", "1 + 1", *arguments])
            assert "invalid choice" in capsys.readouterr().err

    def test_the_names_are_the_decisions(self):
        from repro.fixpoint.decision import ALGORITHM_POLICIES, CHECKERS

        assert ALGORITHM_POLICIES == ("auto", "naive", "delta")
        assert list(CHECKERS) == ["syntactic", "analysis", "algebraic", "never"]


class TestIfpAndClosureApi:
    def test_ifp_with_xquery_body(self, documents):
        doc = documents["curriculum.xml"]
        seed = [doc.lookup_id("c1")]
        result = ifp("$x/id(./prerequisites/pre_code)", seed, algorithm="delta",
                     documents=documents)
        assert course_codes(result.value) == ["c2", "c3", "c4", "c5"]

    def test_ifp_with_python_body(self, documents):
        doc = documents["curriculum.xml"]

        def body(nodes):
            found = []
            for node in nodes:
                for pre in node.iter_tree():
                    if pre.name == "pre_code":
                        target = doc.lookup_id(pre.string_value())
                        if target is not None:
                            found.append(target)
            return found

        result = ifp(body, doc.lookup_id("c1"), algorithm="naive")
        assert course_codes(result.value) == ["c2", "c3", "c4", "c5"]

    def test_transitive_closure_helper(self, documents):
        doc = documents["curriculum.xml"]
        closure = transitive_closure("(child::course/child::prerequisites)", doc.document_element())
        assert len(closure) == 7

    def test_distributivity_helpers(self, documents):
        assert is_distributive_syntactic("$x/child::a")
        assert not is_distributive_syntactic("count($x)")
        assert is_distributive_algebraic("$x/child::a")
        assert not is_distributive_algebraic("count($x)")


class TestOptimizer:
    def test_descendant_fusion(self):
        expr = parse_expression("$d//person")
        optimized = optimize(expr)
        assert isinstance(optimized, ast.PathExpr)
        assert isinstance(optimized.right, ast.AxisStep)
        assert optimized.right.axis == "descendant"
        assert isinstance(optimized.left, ast.VarRef)

    def test_fusion_preserves_predicates(self):
        optimized = optimize(parse_expression('$d//person[@id = "p1"]'))
        assert optimized.right.axis == "descendant"
        assert len(optimized.right.predicates) == 1

    def test_fusion_preserves_semantics(self, documents):
        with_optimizer = evaluate('count(doc("curriculum.xml")//pre_code)', documents=documents,
                                  optimize=True)
        without_optimizer = evaluate('count(doc("curriculum.xml")//pre_code)', documents=documents,
                                     optimize=False)
        assert with_optimizer.items == without_optimizer.items

    def test_module_optimization_covers_functions_and_variables(self):
        module = parse_query(
            "declare variable $v := $d//a; "
            "declare function f ($d) { $d//b }; f($v)"
        )
        optimized = optimize_module(module)
        assert optimized.functions[0].body.right.axis == "descendant"
        assert optimized.variables[0].value.right.axis == "descendant"

    def test_non_matching_expressions_untouched(self):
        expr = parse_expression("$d/child::a")
        assert optimize(expr) == expr


class TestCli:
    def test_inline_expression(self, capsys, tmp_path, documents):
        xml_path = tmp_path / "curriculum.xml"
        xml_path.write_text(CURRICULUM_XML)
        exit_code = cli_main([
            "-e", 'count(doc("curriculum.xml")//course)',
            "--doc", f"curriculum.xml={xml_path}",
        ])
        assert exit_code == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_query_file_with_stats(self, capsys, tmp_path):
        xml_path = tmp_path / "curriculum.xml"
        xml_path.write_text(CURRICULUM_XML)
        query_path = tmp_path / "query.xq"
        query_path.write_text(
            'with $x seeded by doc("curriculum.xml")//course[@code="c1"] '
            "recurse $x/id(./prerequisites/pre_code)"
        )
        exit_code = cli_main([str(query_path), "--doc", f"curriculum.xml={xml_path}",
                              "--stats", "--algorithm", "delta"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "course" in captured.out
        assert "nodes fed back" in captured.err

    def test_check_distributivity_mode(self, capsys):
        exit_code = cli_main(["--check-distributivity", "$x/child::a"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "syntactic" in output and "algebraic" in output

    def test_bad_doc_argument(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["-e", "1", "--doc", "missing-equals-sign"])


class TestTable2Cli:
    def test_quick_preset_single_workload(self, capsys):
        exit_code = table2_main([
            "--preset", "quick", "--workloads", "hospital",
            "--engines", "interpreter", "sql", "--seed-limit", "3",
        ])
        assert exit_code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "ratio" in lines[0] and "naive fed" in lines[0]
        assert [line.split()[:4] for line in lines[1:]] == [
            ["hospital", "tiny", "interpreter", "3"], ["hospital", "tiny", "sql", "3"]]
        # SQL's Delta run is one recursive CTE: its count is not observable.
        assert lines[2].split()[8] == "-"

    def test_removed_flags_are_rejected(self):
        for flag in ("--repeat", "--warmup", "--csv", "--report", "--json"):
            with pytest.raises(SystemExit):
                table2_main(["--workloads", "hospital", flag])
