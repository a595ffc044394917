"""Tests for the Figure 5 syntactic distributivity rules and the hint rewriting."""

import pytest

from repro.distributivity import (
    FIGURE5,
    STRENGTHENED,
    analyze_distributivity,
    apply_distributivity_hint,
    has_distributivity_hint,
    is_distributivity_safe,
)
from repro.xquery.parser import parse_expression, parse_query


def safe(text, var="x", functions=None, rules=FIGURE5):
    return is_distributivity_safe(parse_expression(text), var, functions=functions,
                                  rules=rules)


class TestPositiveCases:
    """Expressions the Figure 5 rules must accept."""

    @pytest.mark.parametrize("body", [
        "$x",                                        # VAR
        "42",                                        # CONST
        "$y/child::a",                               # independent of $x
        "$x/child::a",                               # STEP2
        "$x/descendant::b/child::c",                 # nested steps
        "$x/id(./prerequisites/pre_code)",           # Query Q1's body
        "$x/following-sibling::SPEECH[1][not(SPEAKER = preceding-sibling::SPEECH[1]/SPEAKER)]",
        "($x/a, $x/b)",                              # CONCAT (comma)
        "$x/a union $x/b",                           # CONCAT (union)
        "if ($switch) then $x/a else $x/b",          # IF with independent condition
        "for $y in $x return $y/a",                  # FOR2 (the hint shape)
        "for $y in $doc/item return $x/a",           # FOR1
        "let $d := $doc/a return $x/id($d)",         # LET1 (value independent of $x)
        "let $d := $x/a return $d/b",                # LET2
        "typeswitch ($flag) case xs:integer return $x/a default return $x/b",
        "ordered { $x/a }",
    ])
    def test_accepted(self, body):
        assert safe(body)

    def test_funcall_rule_with_user_function(self):
        module = parse_query(
            "declare function bidder ($in) { for $id in $in/@id return $id/.. }; "
            "bidder($x)"
        )
        assert is_distributivity_safe(module.body, "x", functions=module.function_map())

    def test_trusted_builtins_extension(self):
        assert not safe("id($x)")
        assert safe("id($x)", rules=STRENGTHENED)


class TestNegativeCases:
    """Expressions that must be (conservatively) rejected."""

    @pytest.mark.parametrize("body", [
        "$x[1]",                                     # positional filter (paper's example)
        "count($x)",                                 # aggregation
        "count($x) >= 1",                            # distributive but not inferable
        "$x = 10",                                   # general comparison (paper's example)
        "$x eq 10",
        "$x + 1",
        "-$x",
        "1 to count($x)",
        "empty($x)",
        "some $y in $x satisfies $y = 1",
        "$x intersect $y",
        "$x except $y",
        "if (count($x/self::a)) then $x/* else ()",  # Query Q2's body
        "for $y in $x return count($x)",             # $x free in range and body
        "let $d := $x/a return $x/b",                # $x on both sides of let
        "$x/a[count($x) = 1]",                       # $x inside a predicate
        "text { \"c\" }",                            # node constructor (paper's example)
        "for $y in $x return <seen/>",               # constructor in the body
        "<wrap>{ $y }</wrap>",                       # constructor, even if $x-free
        "with $z seeded by $x recurse $z/a",         # nested IFP over $x
        "id($x/prerequisites/pre_code)",             # builtin receiving $x (Section 4.1)
        "$x cast as xs:string",
        "$x instance of node()*",
        "typeswitch ($x) case node() return $x default return ()",
    ])
    def test_rejected(self, body):
        assert not safe(body)

    def test_recursive_user_function_is_rejected(self):
        module = parse_query(
            "declare function walk ($n) { $n union walk($n/child::a) }; walk($x)"
        )
        assert not is_distributivity_safe(module.body, "x", functions=module.function_map())

    def test_position_variable_over_recursion_variable_is_rejected(self):
        assert not safe("for $y at $p in $x return $doc/item[$p]")


class TestJudgmentTree:
    def test_judgment_records_rules_and_failures(self):
        body = parse_expression("if (count($x/self::a)) then $x/* else ()")
        judgment = analyze_distributivity(body, "x")
        assert not judgment.safe
        assert judgment.rule == "IF"
        assert judgment.failures()
        assert "IF" in judgment.format()

    def test_successful_derivation_tree(self):
        body = parse_expression("$x/a union $x/b")
        judgment = analyze_distributivity(body, "x")
        assert judgment.safe
        assert judgment.rule == "CONCAT"
        assert all(child.safe for child in judgment.children)
        assert judgment.failures() == []

    def test_for2_and_for1_rule_names(self):
        assert analyze_distributivity(parse_expression("for $y in $x return $y/a"), "x").rule == "FOR2"
        assert analyze_distributivity(parse_expression("for $y in $d return $x/a"), "x").rule == "FOR1"
        assert analyze_distributivity(parse_expression("let $d := $x/a return $d/b"), "x").rule == "LET2"


class TestHints:
    def test_hint_rewrites_to_for_loop(self):
        body = parse_expression("count($x) >= 1")
        hinted = apply_distributivity_hint(body, "x")
        assert has_distributivity_hint(hinted, "x")
        assert is_distributivity_safe(hinted, "x")
        # the original stays rejected
        assert not is_distributivity_safe(body, "x")

    def test_hint_uses_fresh_variable(self):
        body = parse_expression("for $y in $z return count($x union $y)")
        hinted = apply_distributivity_hint(body, "x")
        assert hinted.var not in body.free_variables()

    def test_hint_detection_is_structural(self):
        assert has_distributivity_hint(parse_expression("for $y in $x return $y/a"), "x")
        assert not has_distributivity_hint(parse_expression("for $y in $x return $x/a"), "x")
        assert not has_distributivity_hint(parse_expression("$x/a"), "x")
        assert not has_distributivity_hint(
            parse_expression("for $y at $p in $x return $y/a"), "x"
        )
