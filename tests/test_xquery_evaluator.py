"""Tests for the tree-walking evaluator: paths, FLWOR, comparisons, constructors."""

import pytest

from repro import evaluate, parse_xml
from repro.errors import XQueryDynamicError, XQueryStaticError, XQueryTypeError
from repro.xdm.node import AttributeNode, ElementNode, TextNode

DOC = parse_xml(
    """
    <library>
      <book year="2001" id="b1"><title>Algebra</title><price>30</price></book>
      <book year="1999" id="b2"><title>Trees</title><price>45</price></book>
      <book year="2005" id="b3"><title>Recursion</title><price>10</price></book>
      <journal year="2001"><title>Fixpoints</title></journal>
    </library>
    """
)


def run(query, **kwargs):
    kwargs.setdefault("documents", {"lib.xml": DOC})
    kwargs.setdefault("context_item", DOC)
    return evaluate(query, **kwargs).items


class TestPathsAndPredicates:
    def test_child_steps_and_text(self):
        assert [n.string_value() for n in run("/library/book/title")] == \
            ["Algebra", "Trees", "Recursion"]

    def test_descendant_abbreviation(self):
        assert len(run("//title")) == 4

    def test_attribute_step_and_comparison(self):
        assert [n.string_value() for n in run('//book[@year = 2001]/title')] == ["Algebra"]

    def test_positional_predicates(self):
        assert run("count(//book[2]/title)") == [1]
        assert [n.string_value() for n in run("(//book)[last()]/title")] == ["Recursion"]

    def test_wildcard_and_kind_tests(self):
        assert run("count(/library/*)") == [4]
        assert run("count(//book/title/text())") == [3]

    def test_parent_and_ancestor_axes(self):
        assert [n.name for n in run("(//title)[1]/parent::*")] == ["book"]
        assert run("count((//price)[1]/ancestor::library)") == [1]

    def test_following_sibling(self):
        assert [n.name for n in run("(//book)[1]/following-sibling::*")] == \
            ["book", "book", "journal"]

    def test_results_are_in_document_order_without_duplicates(self):
        result = run("(//book/title | //title)")
        assert [n.string_value() for n in result] == ["Algebra", "Trees", "Recursion", "Fixpoints"]

    def test_path_over_atomic_value_is_an_error(self):
        with pytest.raises(XQueryTypeError):
            run("(1, 2)/a")

    def test_mixed_node_atomic_path_result_is_an_error(self):
        with pytest.raises(XQueryTypeError):
            run("//book/(title, 1)")


class TestFlworAndConditionals:
    def test_for_let_where_return(self):
        result = run(
            "for $b in //book let $p := number($b/price) "
            "where $p < 40 return $b/title/text()"
        )
        assert sorted(n.string_value() for n in result) == ["Algebra", "Recursion"]

    def test_for_with_positional_variable(self):
        assert run("for $b at $i in //book return $i") == [1, 2, 3]

    def test_nested_iteration_order(self):
        assert run("for $i in (1, 2) return for $j in (10, 20) return $i + $j") == \
            [11, 21, 12, 22]

    def test_if_branches(self):
        assert run("if (//book) then 'yes' else 'no'") == ["yes"]
        assert run("if (//missing) then 'yes' else 'no'") == ["no"]

    def test_quantifiers(self):
        assert run("some $b in //book satisfies number($b/price) > 40") == [True]
        assert run("every $b in //book satisfies number($b/price) > 40") == [False]
        assert run("every $b in () satisfies false()") == [True]

    def test_typeswitch_dispatch(self):
        query = (
            "for $n in (//book)[1]/node() return "
            "typeswitch ($n) case element(title) return 'T' "
            "case element(price) return 'P' default return '?'"
        )
        assert run(query) == ["T", "P"]


class TestComparisonsAndArithmetic:
    def test_general_comparison_is_existential(self):
        assert run("(1, 2, 3) = (3, 4)") == [True]
        assert run("(1, 2) = (5, 6)") == [False]
        assert run("() = 1") == [False]

    def test_untyped_attribute_compares_numerically(self):
        assert run("(//book)[1]/@year = 2001") == [True]

    def test_value_comparison_requires_singletons(self):
        assert run("2 eq 2") == [True]
        assert run("() eq 2") == []
        with pytest.raises(XQueryTypeError):
            run("(1, 2) eq 2")

    def test_node_comparisons(self):
        assert run("(//book)[1] is (//book)[1]") == [True]
        assert run("(//book)[1] << (//book)[2]") == [True]
        assert run("(//book)[2] >> (//book)[1]") == [True]

    def test_arithmetic(self):
        assert run("1 + 2 * 3") == [7]
        assert run("7 idiv 2") == [3]
        assert run("7 mod 2") == [1]
        assert run("10 div 4") == [2.5]
        assert run("1 + ()") == []
        assert run("-(3)") == [-3]

    def test_division_by_zero(self):
        with pytest.raises(XQueryDynamicError):
            run("1 div 0")

    def test_range_expression(self):
        assert run("2 to 5") == [2, 3, 4, 5]
        assert run("5 to 2") == []

    def test_logic_short_circuits(self):
        assert run("true() or (1 div 0 = 1)") == [True]
        assert run("false() and (1 div 0 = 1)") == [False]


class TestConstructorsAndCasts:
    def test_direct_constructor_copies_content(self):
        result = run('<wrap id="{count(//book)}">{ //book[1]/title }</wrap>')
        element = result[0]
        assert isinstance(element, ElementNode)
        assert element.get_attribute("id").value == "3"
        assert element.children[0].name == "title"
        # copies, not the originals
        original = run("//book[1]/title")[0]
        assert not element.children[0].is_same_node(original)

    def test_atomic_content_becomes_text(self):
        element = run("<n>{ 1 + 1 }</n>")[0]
        assert isinstance(element.children[0], TextNode)
        assert element.string_value() == "2"

    def test_computed_constructors(self):
        element = run('element note { "x" }')[0]
        assert element.name == "note" and element.string_value() == "x"
        attr = run('attribute lang { "en" }')[0]
        assert isinstance(attr, AttributeNode) and attr.value == "en"
        assert run("text {()}") == []
        assert run('text {"t"}')[0].string_value() == "t"

    def test_constructed_nodes_have_fresh_identity_each_evaluation(self):
        result = run("for $i in (1, 2) return <x/>")
        assert len(result) == 2
        assert not result[0].is_same_node(result[1])

    def test_casts_and_instance_of(self):
        assert run('"42" cast as xs:integer') == [42]
        assert run("3 instance of xs:integer") == [True]
        assert run("(1, 2) instance of xs:integer") == [False]
        assert run("(1, 2) instance of xs:integer+") == [True]
        assert run("//book instance of element(book)*") == [True]
        assert run("() instance of empty-sequence()") == [True]

    def test_cast_of_empty_requires_question_mark(self):
        assert run("() cast as xs:integer?") == []
        with pytest.raises(XQueryTypeError):
            run("() cast as xs:integer")


class TestFunctionsAndVariables:
    def test_user_defined_functions_and_recursion(self):
        query = (
            "declare function fact ($n) { if ($n <= 1) then 1 else $n * fact($n - 1) }; "
            "fact(6)"
        )
        assert run(query) == [720]

    def test_unknown_function_and_variable_errors(self):
        with pytest.raises(XQueryStaticError):
            run("no-such-function(1)")
        with pytest.raises(XQueryDynamicError):
            run("$unbound")

    def test_external_variables_supplied_by_caller(self):
        result = run("declare variable $limit external; //book[number(price) < $limit]/title",
                     variables={"limit": 40})
        assert len(result) == 2

    def test_missing_external_variable_raises(self):
        with pytest.raises(XQueryDynamicError):
            run("declare variable $limit external; $limit")

    def test_recursion_depth_bound(self):
        query = "declare function loop ($n) { loop($n + 1) }; loop(1)"
        with pytest.raises(XQueryDynamicError):
            run(query)

    def test_prolog_variables_visible_in_body(self):
        assert run('declare variable $two := 2; $two * 3') == [6]


class TestNoCyclicGarbage:
    """An evaluator is made per query: it must be freed by reference
    counting alone, not wait for a full garbage collection."""

    @pytest.fixture()
    def no_gc(self):
        import gc

        gc.collect()
        gc.disable()
        try:
            yield gc
        finally:
            gc.enable()

    def test_an_evaluator_is_not_a_reference_cycle(self, no_gc):
        import weakref

        from repro.sqlbackend.executor import SQLEvaluator
        from repro.xquery.evaluator import Evaluator

        for factory in (Evaluator, SQLEvaluator):
            evaluator = factory()
            reference = weakref.ref(evaluator)
            del evaluator
            assert reference() is None, factory.__name__

    @pytest.mark.parametrize("engine", ["interpreter", "algebra", "sql"])
    def test_queries_leave_nothing_for_the_collector(self, engine, no_gc):
        from repro import Session

        session = Session(documents={"lib.xml": DOC})
        queries = ['doc("lib.xml")//book[@year = "2001"]/title',
                   'for $b in doc("lib.xml")//book return doc("lib.xml")//*[@year = $b/@year]',
                   'with $x seeded by doc("lib.xml")//title recurse $x/parent::*']
        for query in queries:  # warm-up: caches, indexes, the SQLite shred
            session.evaluate(query, engine=engine)
        no_gc.collect()
        for _ in range(7):
            for query in queries:
                session.evaluate(query, engine=engine)
        assert no_gc.collect() == 0
        session.close()

    def test_a_subclass_override_is_dispatched_to(self):
        from repro.xquery.context import DynamicContext
        from repro.xquery.evaluator import Evaluator
        from repro.xquery.parser import parse_expression

        class Shouting(Evaluator):
            def _eval_literal(self, expr, context):
                return [str(expr.value).upper()]

        expr = parse_expression('("a", "b")')
        assert Shouting().evaluate(expr, DynamicContext()) == ["A", "B"]
        assert Evaluator().evaluate(expr, DynamicContext()) == ["a", "b"]
