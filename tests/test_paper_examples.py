"""The paper's own running examples, reproduced end to end (experiments E6-E8).

* Example 1.1 / Query Q1 — prerequisites of course "c1" via the IFP form and
  via the ``fix``/``delta`` user-defined functions of Figures 2 and 4.
* Example 2.4 / Query Q2 — the Naive/Delta divergence for a non-distributive
  body, including the exact iteration table.
* Section 3 / Section 4 — the distributivity verdicts for Q1, Q2 and the
  id-unfolded variant of Q1.
"""

import pytest

from repro import evaluate, parse_xml
from repro.fixpoint import FixpointEngine
from repro.xquery.evaluator import Evaluator
from repro.xquery.context import DynamicContext
from repro.xquery.parser import parse_expression
from tests.conftest import CURRICULUM_XML, course_codes


@pytest.fixture()
def documents():
    return {"curriculum.xml": parse_xml(CURRICULUM_XML)}


QUERY_Q1 = """
with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
recurse $x/id (./prerequisites/pre_code)
"""

FIX_QUERY = """
declare function rec ($cs) as node()*
{ $cs/id (./prerequisites/pre_code)
};
declare function fix ($x) as node()*
{ let $res := rec ($x)
  return if (empty ($res except $x))
         then $x
         else fix ($res union $x)
};
let $seed := doc("curriculum.xml")/curriculum/course[@code="c1"]
return fix (rec ($seed))
"""

DELTA_QUERY = """
declare function rec ($cs) as node()*
{ $cs/id (./prerequisites/pre_code)
};
declare function delta ($x, $res) as node()*
{ let $delta := rec ($x) except $res
  return if (empty ($delta))
         then $res
         else delta ($delta, $delta union $res)
};
let $seed := doc("curriculum.xml")/curriculum/course[@code="c1"]
return delta (rec ($seed), rec ($seed))
"""


class TestExample11AndQueryQ1:
    def test_ifp_form_finds_all_prerequisites(self, documents):
        result = evaluate(QUERY_Q1, documents=documents)
        assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]

    @pytest.mark.parametrize("algorithm", ["naive", "delta", "auto"])
    def test_all_algorithms_agree_on_q1(self, documents, algorithm):
        result = evaluate(QUERY_Q1, documents=documents, ifp_algorithm=algorithm)
        assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]

    def test_fix_and_delta_udfs_match_the_ifp_form(self, documents):
        ifp = course_codes(evaluate(QUERY_Q1, documents=documents).items)
        assert course_codes(evaluate(FIX_QUERY, documents=documents).items) == ifp
        assert course_codes(evaluate(DELTA_QUERY, documents=documents).items) == ifp

    def test_cyclic_course_is_its_own_prerequisite(self, documents):
        query = QUERY_Q1.replace('"c1"', '"c6"')
        result = evaluate(query, documents=documents)
        assert course_codes(result.items) == ["c6", "c7"]

    def test_auto_mode_picks_delta_for_q1(self, documents):
        result = evaluate(QUERY_Q1, documents=documents, ifp_algorithm="auto")
        assert all(run.algorithm == "delta" for run in result.statistics.runs)

    def test_never_checker_falls_back_to_naive(self, documents):
        result = evaluate(QUERY_Q1, documents=documents, distributivity_checker="never")
        assert all(run.algorithm == "naive" for run in result.statistics.runs)

    def test_algebraic_checker_also_picks_delta(self, documents):
        result = evaluate(QUERY_Q1, documents=documents, distributivity_checker="algebraic")
        assert all(run.algorithm == "delta" for run in result.statistics.runs)

    def test_algebraic_checker_runs_naive_on_a_body_the_compiler_rejects(self, documents):
        from repro import is_distributive_algebraic
        from repro.errors import AlgebraError

        body = "$x/id (./prerequisites/pre_code)[some $c in . satisfies true()]"
        with pytest.raises(AlgebraError):  # no quantifiers in the algebra compiler
            is_distributive_algebraic(body, strict=True)
        query = QUERY_Q1.replace("$x/id (./prerequisites/pre_code)", body)
        assert query != QUERY_Q1
        result = evaluate(query, documents=documents, distributivity_checker="algebraic")
        assert [run.algorithm for run in result.statistics.runs] == ["naive"]
        assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]

    def test_a_bug_in_the_algebraic_checker_is_not_swallowed(self, documents, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("checker bug")

        monkeypatch.setattr("repro.algebra.distributivity.analyze_plan_distributivity", broken)
        with pytest.raises(RuntimeError, match="checker bug"):
            evaluate(QUERY_Q1, documents=documents, distributivity_checker="algebraic")


class TestExample24QueryQ2:
    """The Naive/Delta divergence table of Example 2.4."""

    def _setup(self):
        evaluator = Evaluator()
        context = DynamicContext()
        seed = evaluator.evaluate(parse_expression("(<a/>,<b><c><d/></c></b>)"), context)
        body_expr = parse_expression("if (count($x/self::a)) then $x/* else ()")

        def body(nodes):
            return evaluator.evaluate(body_expr, context.bind("x", nodes))

        return seed, body

    def test_naive_and_delta_diverge(self):
        seed, body = self._setup()
        runs = FixpointEngine().run_both(body, seed, seed_is_initial_result=True)
        assert [n.name for n in runs["naive"].value] == ["a", "b", "c", "d"]
        assert [n.name for n in runs["delta"].value] == ["a", "b", "c"]

    def test_iteration_table_matches_the_paper(self):
        seed, body = self._setup()
        naive = FixpointEngine().run(body, seed, algorithm="naive", seed_is_initial_result=True)
        sizes = [record.result_size for record in naive.statistics.iterations]
        # res grows (a,b) -> (a,b,c) -> (a,b,c,d) -> (a,b,c,d)
        assert sizes == [2, 3, 4, 4]
        delta = FixpointEngine().run(body, seed, algorithm="delta", seed_is_initial_result=True)
        delta_sizes = [record.new_nodes for record in delta.statistics.iterations]
        # ∆ shrinks (a,b) -> (c) -> ()
        assert delta_sizes == [2, 1, 0]

    def test_engine_auto_mode_refuses_delta_for_q2(self, documents):
        query = """
        let $seed := (<a/>,<b><c><d/></c></b>)
        return with $x seeded by $seed
        recurse if (count($x/self::a)) then $x/* else ()
        """
        result = evaluate(query, documents=documents, ifp_algorithm="auto")
        assert all(run.algorithm == "naive" for run in result.statistics.runs)


class TestSection4UnfoldedVariant:
    def test_syntactic_rejects_algebraic_accepts(self, documents):
        from repro import is_distributive_algebraic, is_distributive_syntactic

        body = (
            'for $c in doc("curriculum.xml")/curriculum/course '
            "where $c/@code = $x/prerequisites/pre_code return $c"
        )
        assert not is_distributive_syntactic(body)
        assert is_distributive_algebraic(
            body, documents=documents, document=documents["curriculum.xml"]
        )

    def test_unfolded_variant_computes_the_same_closure(self, documents):
        query = """
        with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
        recurse (
          for $c in doc("curriculum.xml")/curriculum/course
          where $c/@code = $x/prerequisites/pre_code
          return $c
        )
        """
        result = evaluate(query, documents=documents)
        assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]
