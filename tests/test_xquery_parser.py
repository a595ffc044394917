"""Tests for the XQuery lexer/parser: AST shapes, desugarings, errors."""

import bisect
import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import XQuerySyntaxError
from repro.xquery import ast
from repro.xquery.lexer import Lexer
from repro.xquery.optimizer import optimize_module
from repro.xquery.parser import AXES, KIND_TESTS, Parser, parse_expression, parse_query
from repro.xquery.tokens import MULTI_CHAR_SYMBOLS, SINGLE_CHAR_SYMBOLS, Token, TokenKind
from tests.conftest import benchmark_modules, count_calls, front_end_corpus


class TestLiteralsAndPrimaries:
    def test_literals(self):
        assert parse_expression("42") == ast.Literal(42)
        assert parse_expression("3.5") == ast.Literal(3.5)
        assert parse_expression("1.5e2") == ast.Literal(150.0)
        assert parse_expression('"a""b"') == ast.Literal('a"b')
        assert parse_expression("'it''s'") == ast.Literal("it's")
        assert parse_expression('"&lt;&amp;"') == ast.Literal("<&")

    @pytest.mark.parametrize("text, column", [
        ("1\u00b2", 2), ("\u00b2", 1), ("1.5\u00b2", 4), ("\u0663", 1), ("12\u0663", 3),
        (".\u0663", 2), ("1 + \u0663", 5)])
    def test_a_number_has_ascii_digits_only(self, text, column):
        """(``1²`` was a ``ValueError`` out of ``int``, ``٣`` the integer 3.)"""
        for parse in (parse_query, parse_expression):
            with pytest.raises(XQuerySyntaxError, match="XPST0003") as error:
                parse(text)
            assert str(error.value).endswith(f"unexpected character {text[column - 1]!r} "
                                             f"at line 1, column {column}")

    @pytest.mark.parametrize("text, value", [
        ("1.", 1.0), ("1.e2", 100.0), ("1.E+2", 100.0), ("(1.)", 1.0), ("12.", 12.0),
        ("1.5", 1.5), (".5", 0.5), ("1.5e2", 150.0), ("1.e-1", 0.1)])
    def test_a_number_may_end_in_its_point(self, text, value):
        """XQuery's ``DecimalLiteral ::= "." Digits | Digits "." [0-9]*``
        and the ``DoubleLiteral`` built on it, through both lexer paths
        (the pattern, and the scanners a non-ASCII text hands over to)."""
        kind = TokenKind.DOUBLE if "e" in text.lower() else TokenKind.DECIMAL
        for suffix in ("", " (:\u00e9:)"):
            assert parse_expression(text + suffix) == ast.Literal(value)
            token = Lexer(text.strip("()") + suffix).next_token()
            assert (token.kind, token.value) == (kind, text.strip("()"))
        assert parse_expression("1. + 1") == ast.ArithmeticExpr("+", ast.Literal(1.0), ast.Literal(1))

    def test_non_ascii_digits_stay_in_names_and_strings(self):
        assert parse_expression('"1\u0663"') == ast.Literal("1\u0663")
        assert parse_expression("a\u00b2").node_test.name == "a\u00b2"

    def test_empty_sequence_and_context_item(self):
        assert parse_expression("()") == ast.EmptySequence()
        assert parse_expression(".") == ast.ContextItem()
        assert parse_expression("$foo") == ast.VarRef("foo")

    def test_comments_are_skipped(self):
        assert parse_expression("(: a (: nested :) comment :) 7") == ast.Literal(7)

    def test_sequence_expression(self):
        expr = parse_expression("1, 2, 3")
        assert isinstance(expr, ast.SequenceExpr)
        assert len(expr.items) == 3


class TestOperatorsAndPrecedence:
    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.ArithmeticExpr) and expr.op == "+"
        assert isinstance(expr.right, ast.ArithmeticExpr) and expr.right.op == "*"

    def test_comparisons(self):
        assert isinstance(parse_expression("$a = $b"), ast.GeneralComparison)
        assert isinstance(parse_expression("$a eq $b"), ast.ValueComparison)
        assert isinstance(parse_expression("$a is $b"), ast.NodeComparison)
        assert parse_expression("$a << $b").op == "<<"

    def test_logic_binds_weaker_than_comparison(self):
        expr = parse_expression("$a = 1 or $b = 2 and $c = 3")
        assert isinstance(expr, ast.OrExpr)
        assert isinstance(expr.right, ast.AndExpr)

    def test_set_operators(self):
        assert isinstance(parse_expression("$a union $b"), ast.UnionExpr)
        assert isinstance(parse_expression("$a | $b"), ast.UnionExpr)
        assert isinstance(parse_expression("$a except $b"), ast.ExceptExpr)
        assert isinstance(parse_expression("$a intersect $b"), ast.IntersectExpr)

    def test_range_and_unary(self):
        assert isinstance(parse_expression("1 to 5"), ast.RangeExpr)
        unary = parse_expression("-$x")
        assert isinstance(unary, ast.UnaryExpr) and unary.op == "-"

    def test_instance_of_and_cast(self):
        expr = parse_expression("$x instance of element()*")
        assert isinstance(expr, ast.InstanceOfExpr)
        assert expr.sequence_type.item_type == "element"
        assert expr.sequence_type.occurrence == "*"
        cast = parse_expression('"3" cast as xs:integer')
        assert isinstance(cast, ast.CastExpr) and cast.target_type == "xs:integer"


class TestPathsAndSteps:
    def test_relative_path_is_left_nested(self):
        expr = parse_expression("a/b/c")
        assert isinstance(expr, ast.PathExpr)
        assert isinstance(expr.left, ast.PathExpr)
        assert expr.right.node_test.name == "c"

    def test_double_slash_desugars_to_descendant_or_self(self):
        expr = parse_expression("$d//person")
        assert isinstance(expr, ast.PathExpr)
        middle = expr.left
        assert isinstance(middle.right, ast.AxisStep)
        assert middle.right.axis == "descendant-or-self"
        assert middle.right.node_test.kind == "node"

    def test_leading_slash_becomes_root(self):
        expr = parse_expression("/curriculum")
        assert isinstance(expr.left, ast.RootExpr)
        assert parse_expression("/") == ast.RootExpr()

    def test_axes_and_node_tests(self):
        step = parse_expression("following-sibling::SPEECH")
        assert step.axis == "following-sibling"
        attr = parse_expression("@code")
        assert attr.axis == "attribute" and attr.node_test.name == "code"
        wildcard = parse_expression("child::*")
        assert wildcard.node_test.name == "*"
        text_test = parse_expression("text()")
        assert text_test.node_test.kind == "text"
        parent = parse_expression("..")
        assert parent.axis == "parent"

    def test_predicates_attach_to_steps(self):
        step = parse_expression('course[@code="c1"][2]')
        assert isinstance(step, ast.AxisStep)
        assert len(step.predicates) == 2

    def test_filter_expression_on_parenthesized_primary(self):
        expr = parse_expression("(1, 2, 3)[2]")
        assert isinstance(expr, ast.FilterExpr)

    def test_star_is_multiplication_after_operand(self):
        expr = parse_expression("$x * 3")
        assert isinstance(expr, ast.ArithmeticExpr) and expr.op == "*"


class TestFlworAndFriends:
    def test_flwor_desugars_to_nested_for_let_if(self):
        expr = parse_expression(
            "for $a in (1,2), $b in (3,4) let $c := $a + $b "
            "where $c > 4 return $c"
        )
        assert isinstance(expr, ast.ForExpr) and expr.var == "a"
        assert isinstance(expr.body, ast.ForExpr) and expr.body.var == "b"
        let = expr.body.body
        assert isinstance(let, ast.LetExpr) and let.var == "c"
        conditional = let.body
        assert isinstance(conditional, ast.IfExpr)
        assert conditional.else_branch == ast.EmptySequence()

    def test_positional_variable(self):
        expr = parse_expression("for $x at $i in $seq return $i")
        assert expr.position_var == "i"

    def test_order_by_is_rejected_with_clear_error(self):
        with pytest.raises(XQuerySyntaxError, match="order by"):
            parse_expression("for $x in $s order by $x return $x")

    def test_quantified_expressions(self):
        some = parse_expression("some $x in $s satisfies $x = 1")
        assert isinstance(some, ast.QuantifiedExpr) and some.quantifier == "some"
        every = parse_expression("every $x in $s, $y in $t satisfies $x = $y")
        assert isinstance(every, ast.QuantifiedExpr)
        assert isinstance(every.satisfies, ast.QuantifiedExpr)

    def test_typeswitch(self):
        expr = parse_expression(
            "typeswitch ($v) case element() return 1 "
            "case $t as xs:integer return $t default $d return 0"
        )
        assert isinstance(expr, ast.TypeswitchExpr)
        assert len(expr.cases) == 2
        assert expr.cases[1].var == "t"
        assert expr.default_var == "d"

    def test_if_requires_else(self):
        with pytest.raises(XQuerySyntaxError):
            parse_expression("if ($x) then 1")


class TestWithExpr:
    def test_with_seeded_by_recurse(self):
        expr = parse_expression("with $x seeded by $seed recurse $x/child::a")
        assert isinstance(expr, ast.WithExpr)
        assert expr.var == "x"
        assert expr.algorithm == "auto"
        assert isinstance(expr.body, ast.PathExpr)

    @pytest.mark.parametrize("algorithm", ["naive", "delta", "auto"])
    def test_using_clause(self, algorithm):
        expr = parse_expression(f"with $x seeded by $s recurse $x/a using {algorithm}")
        assert expr.algorithm == algorithm

    def test_with_as_plain_variable_still_parses(self):
        # "with" is only special when followed by "$... seeded by".
        expr = parse_expression("$with + 1")
        assert isinstance(expr, ast.ArithmeticExpr)


class TestConstructors:
    def test_direct_constructor_with_attributes_and_enclosed_exprs(self):
        expr = parse_expression('<person id="{$p}" role="x">{ $p/name } text</person>')
        assert isinstance(expr, ast.DirectElementConstructor)
        assert [a.name for a in expr.attributes] == ["id", "role"]
        assert isinstance(expr.attributes[0].value_parts[0], ast.VarRef)
        assert any(isinstance(part, ast.PathExpr) for part in expr.content)

    def test_nested_direct_constructors(self):
        expr = parse_expression("<a><b/><c>text</c></a>")
        assert [child.name for child in expr.content] == ["b", "c"]

    def test_curly_brace_escapes(self):
        expr = parse_expression("<a>{{literal}}</a>")
        assert expr.content == (ast.Literal("{literal}"),)

    def test_computed_constructors(self):
        element = parse_expression("element person { $x }")
        assert isinstance(element, ast.ComputedConstructor) and element.kind == "element"
        text = parse_expression('text { "c" }')
        assert text.kind == "text"
        named = parse_expression("element { $name } { $content }")
        assert isinstance(named.name, ast.VarRef)

    def test_mismatched_constructor_tags_raise(self):
        with pytest.raises(XQuerySyntaxError):
            parse_expression("<a></b>")


MALFORMED_CHARACTER_REFERENCES = ("&#xZZ;", "&#;", "&#x110000;", "&#-5;", "&#99999999999;")


class TestCharacterAndEntityReferences:
    """One decoder (``Lexer.scan_entity_reference``) behind string literals,
    attribute values and element content."""

    POSITIONS = ('"{}"', '<a b="{}"/>', "<a>{}</a>")

    @pytest.mark.parametrize("position", POSITIONS)
    @pytest.mark.parametrize("reference", MALFORMED_CHARACTER_REFERENCES)
    def test_a_malformed_character_reference_is_a_syntax_error(self, position, reference):
        """(``ValueError`` from ``int``/``chr``, ``OverflowError`` for the
        last one, before — an HTTP 500 "internal error".)"""
        text = position.format(reference)
        with pytest.raises(XQuerySyntaxError) as error:
            parse_query(text)
        column = text.index("&") + 1
        assert f"invalid character reference '{reference}'" in str(error.value)
        assert str(error.value).endswith(f"at line 1, column {column}")

    @pytest.mark.parametrize("position", POSITIONS)
    def test_well_formed_references_decode_everywhere(self, position):
        module = parse_query(position.format("&#65;&#x42;&#X43;&amp;&lt;&gt;&quot;&apos;&#x10FFFF;"))
        (literal,) = [node for node in module.body.iter_subexpressions()
                      if isinstance(node, ast.Literal)]
        assert literal.value == "ABC&<>\"'\U0010ffff"

    @pytest.mark.parametrize("reference, message", [
        ("&bogus;", "unknown entity reference '&bogus;'"),
        ("&amp", "unterminated entity reference"),
        ("&# 65;", "invalid character reference '&# 65;'"),
        ("&#x0x41;", "invalid character reference '&#x0x41;'"),
        ("&#6_5;", "invalid character reference '&#6_5;'"),
    ])
    def test_other_malformed_references(self, reference, message):
        for position in self.POSITIONS:
            text = position.format(reference).replace('"/>', "").replace("</a>", "")
            with pytest.raises(XQuerySyntaxError, match=message) as error:
                parse_query(text)
            assert str(error.value).endswith(f"column {text.index('&') + 1}")


class TestPrologAndModules:
    def test_function_and_variable_declarations(self):
        module = parse_query(
            """
            declare variable $doc := 42;
            declare function rec ($cs as node()*) as node()*
            { $cs/child::a };
            declare function depth ($n, $d) { $d };
            rec($doc)
            """
        )
        assert [f.name for f in module.functions] == ["rec", "depth"]
        assert module.functions[0].arity == 1
        assert module.functions[0].return_type.item_type == "node"
        assert module.variables[0].name == "doc"
        assert module.function_map()[("depth", 2)].params[1].name == "d"

    def test_external_variable(self):
        module = parse_query("declare variable $input external; $input")
        assert module.variables[0].external

    def test_trailing_garbage_is_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_query("1 + 1 extra")

    def test_unknown_declaration_is_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_query("declare option x 'y'; 1")


class TestAstHelpers:
    def test_free_variables(self):
        expr = parse_expression("for $a in $src return $a/b[$c = 1]")
        assert expr.free_variables() == {"src", "c"}

    def test_bound_variables_are_not_free(self):
        expr = parse_expression("let $a := 1 return $a + $b")
        assert expr.free_variables() == {"b"}

    def test_with_binds_its_variable(self):
        expr = parse_expression("with $x seeded by $s recurse $x/a")
        assert expr.free_variables() == {"s"}

    def test_substitute_variable(self):
        expr = parse_expression("$x union count($x)")
        replaced = ast.substitute_variable(expr, "x", ast.VarRef("y"))
        assert replaced.free_variables() == {"y"}

    def test_substitution_respects_shadowing(self):
        expr = parse_expression("for $x in $x return $x")
        replaced = ast.substitute_variable(expr, "x", ast.VarRef("z"))
        # the range expression is rewritten, the shadowed body occurrence is not
        assert isinstance(replaced.sequence, ast.VarRef) and replaced.sequence.name == "z"
        assert isinstance(replaced.body, ast.VarRef) and replaced.body.name == "x"

    @pytest.mark.parametrize("body", [
        "$x/id(./r)",
        "let $x := $x/m return $x/id(n)",          # shadowed in the return
        "some $x in $x/n satisfies count($x/@k)",  # in the condition
        "for $x at $i in $x return ($x, $i)",
        "typeswitch ($x) case $x as element() return $x/m default $d return ($x, $d)",
        "$x/m[some $x in ./n satisfies $x/@k]",    # no free $x below the step
    ])
    def test_substitution_collects_every_call(self, body):
        """Given a list, the substitution also collects every call, shadowed
        or not, and substitutes as it does without one."""
        expr = parse_expression(body)
        calls: list = []
        replaced = ast.substitute_variable(expr, "x", ast.VarRef("z"), calls)
        assert replaced == ast.substitute_variable(expr, "x", ast.VarRef("z"))
        assert sorted(map(id, calls)) == sorted(
            id(sub) for sub in expr.iter_subexpressions() if isinstance(sub, ast.FunctionCall))

    def test_contains_node_constructor(self):
        assert parse_expression("<a/>").contains_node_constructor()
        assert parse_expression("for $y in $x return text {'c'}").contains_node_constructor()
        assert not parse_expression("$x/a").contains_node_constructor()


# ---------------------------------------------------------------------------
# The front end against the one it replaced
# ---------------------------------------------------------------------------
#
# ``OracleLexer`` and ``OracleParser`` hold the previous implementation
# verbatim: the character-at-a-time ``next_token`` with its scanners, the
# ``list.pop(0)`` look-ahead buffer, and the ladder of twelve precedence
# methods with the ``is_name``/``is_symbol`` probes below it.  What they do
# not override (the prolog, FLWOR, typeswitch, constructors) is the code under
# test on both sides.  The token stream, the AST, every position stamp and
# every error message must be the same — with one announced exception: a
# malformed character reference, on which the old decoder leaked
# ``ValueError``/``OverflowError`` (or let ``int`` accept ``&# 65;``), is an
# ``XQuerySyntaxError`` now.

_PREDEFINED_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char == "_"


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in "_-."


class OracleLexer(Lexer):
    def skip_ignorable(self) -> None:
        """Skip whitespace and (nested) XQuery comments."""
        while self.pos < len(self.text):
            char = self.text[self.pos]
            if char in " \t\r\n":
                self.pos += 1
            elif char == "(" and self.peek_char(1) == ":":
                self._skip_comment()
            else:
                return

    def _skip_comment(self) -> None:
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            if self.text.startswith("(:", self.pos):
                depth += 1
                self.pos += 2
            elif self.text.startswith(":)", self.pos):
                depth -= 1
                self.pos += 2
                if depth == 0:
                    return
            else:
                self.pos += 1
        raise self.error("unterminated comment", start)

    def next_token(self) -> Token:
        """Scan and return the next token (EOF token at end of input)."""
        self.skip_ignorable()
        if self.at_end():
            return Token(TokenKind.EOF, "", self.pos, self.pos)
        start = self.pos
        char = self.text[self.pos]

        if char in "\"'":
            return self._scan_string(char)
        if char.isdigit() or (char == "." and self.peek_char(1).isdigit()):
            return self._scan_number()
        if _is_name_start(char):
            return self._scan_name()
        for symbol in MULTI_CHAR_SYMBOLS:
            if self.text.startswith(symbol, self.pos):
                self.pos += len(symbol)
                return Token(TokenKind.SYMBOL, symbol, start, self.pos)
        if char in SINGLE_CHAR_SYMBOLS:
            self.pos += 1
            return Token(TokenKind.SYMBOL, char, start, self.pos)
        raise self.error(f"unexpected character {char!r}")

    def _scan_string(self, quote: str) -> Token:
        start = self.pos
        self.pos += 1
        parts: list[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated string literal", start)
            char = self.text[self.pos]
            if char == quote:
                if self.peek_char(1) == quote:  # doubled quote escape
                    parts.append(quote)
                    self.pos += 2
                    continue
                self.pos += 1
                return Token(TokenKind.STRING, "".join(parts), start, self.pos)
            if char == "&":
                parts.append(self._scan_entity_reference())
                continue
            parts.append(char)
            self.pos += 1

    def _scan_entity_reference(self) -> str:
        start = self.pos
        end = self.text.find(";", self.pos)
        if end < 0:
            raise self.error("unterminated entity reference", start)
        entity = self.text[self.pos + 1:end]
        self.pos = end + 1
        if entity.startswith("#x") or entity.startswith("#X"):
            return chr(int(entity[2:], 16))
        if entity.startswith("#"):
            return chr(int(entity[1:]))
        if entity in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[entity]
        raise self.error(f"unknown entity reference '&{entity};'", start)

    def _scan_number(self) -> Token:
        start = self.pos
        kind = TokenKind.INTEGER
        while self.peek_char().isdigit():
            self.pos += 1
        if self.peek_char() == "." and self.peek_char(1).isdigit():
            kind = TokenKind.DECIMAL
            self.pos += 1
            while self.peek_char().isdigit():
                self.pos += 1
        if self.peek_char() in "eE" and (
            self.peek_char(1).isdigit()
            or (self.peek_char(1) in "+-" and self.peek_char(2).isdigit())
        ):
            kind = TokenKind.DOUBLE
            self.pos += 1
            if self.peek_char() in "+-":
                self.pos += 1
            while self.peek_char().isdigit():
                self.pos += 1
        return Token(kind, self.text[start:self.pos], start, self.pos)

    def _scan_name(self) -> Token:
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text) and _is_name_char(self.text[self.pos]):
            self.pos += 1
        # QName: prefix:local — only if the colon is immediately followed by a
        # name start character and not part of '::' (axis separator).
        if (
            self.peek_char() == ":"
            and self.peek_char(1) != ":"
            and _is_name_start(self.peek_char(1))
            and not self.text.startswith(":=", self.pos)
        ):
            self.pos += 1
            while self.pos < len(self.text) and _is_name_char(self.text[self.pos]):
                self.pos += 1
        return Token(TokenKind.NAME, self.text[start:self.pos], start, self.pos)


class OracleParser(Parser):
    def __init__(self, text: str):
        super().__init__(text)
        self.lexer = OracleLexer(text)
        self._buffer: list[Token] = []

    # -- token plumbing ---------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        while len(self._buffer) <= offset:
            self._buffer.append(self.lexer.next_token())
        return self._buffer[offset]

    def _advance(self) -> Token:
        token = self._peek()
        self._buffer.pop(0)
        return token

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._peek()
        if not token.is_symbol(symbol):
            raise self._error(f"expected '{symbol}', found {token.value!r}", token)
        return self._advance()

    def _expect_name(self, *names: str) -> Token:
        token = self._peek()
        if not token.is_name(*names):
            expected = " or ".join(repr(n) for n in names) if names else "a name"
            raise self._error(f"expected {expected}, found {token.value!r}", token)
        return self._advance()

    def _accept_symbol(self, symbol: str) -> bool:
        if self._peek().is_symbol(symbol):
            self._advance()
            return True
        return False

    def _accept_name(self, *names: str) -> bool:
        if self._peek().is_name(*names):
            self._advance()
            return True
        return False

    def _enter_char_mode(self, position: int) -> None:
        """Discard pending lookahead and continue scanning at *position*."""
        self._buffer.clear()
        self.lexer.pos = position

    def _key_body(self, *arguments) -> None:
        """(The old parser keyed no ``with`` body.)"""

    def _parse_enclosed_expr(self) -> ast.Expr:
        # positioned at '{': switch to token mode for the enclosed expression
        self.lexer.pos += 1
        self._buffer.clear()
        expr = self.parse_expr()
        closing = self._expect_symbol("}")
        self._enter_char_mode(closing.end)
        return expr

    # -- expressions ------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        items = [self.parse_expr_single()]
        while self._accept_symbol(","):
            items.append(self.parse_expr_single())
        if len(items) == 1:
            return items[0]
        return ast.SequenceExpr(tuple(items))

    def parse_expr_single(self) -> ast.Expr:
        token = self._peek()
        if token.is_name("for", "let") and self._peek(1).is_symbol("$"):
            return self._parse_flwor()
        if token.is_name("some", "every") and self._peek(1).is_symbol("$"):
            return self._parse_quantified()
        if token.is_name("typeswitch") and self._peek(1).is_symbol("("):
            return self._parse_typeswitch()
        if token.is_name("if") and self._peek(1).is_symbol("("):
            return self._parse_if()
        if token.is_name("with") and self._peek(1).is_symbol("$"):
            return self._parse_with()
        return self._parse_or()

    # -- operator precedence chain ------------------------------------------------

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._peek().is_name("or"):
            self._advance()
            left = ast.OrExpr(left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_comparison()
        while self._peek().is_name("and"):
            self._advance()
            left = ast.AndExpr(left, self._parse_comparison())
        return left

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_range()
        token = self._peek()
        if token.is_symbol("=", "!=", "<", "<=", ">", ">="):
            op = self._advance().value
            return ast.GeneralComparison(op, left, self._parse_range())
        if token.is_name("eq", "ne", "lt", "le", "gt", "ge"):
            op = self._advance().value
            return ast.ValueComparison(op, left, self._parse_range())
        if token.is_name("is") or token.is_symbol("<<", ">>"):
            op = self._advance().value
            return ast.NodeComparison(op, left, self._parse_range())
        return left

    def _parse_range(self) -> ast.Expr:
        left = self._parse_additive()
        if self._peek().is_name("to"):
            self._advance()
            return ast.RangeExpr(left, self._parse_additive())
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._peek().is_symbol("+", "-"):
            op = self._advance().value
            left = ast.ArithmeticExpr(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_union()
        while True:
            token = self._peek()
            if token.is_symbol("*") or token.is_name("div", "idiv", "mod"):
                op = self._advance().value
                left = ast.ArithmeticExpr(op, left, self._parse_union())
            else:
                return left

    def _parse_union(self) -> ast.Expr:
        left = self._parse_intersect_except()
        while self._peek().is_name("union") or self._peek().is_symbol("|"):
            self._advance()
            left = ast.UnionExpr(left, self._parse_intersect_except())
        return left

    def _parse_intersect_except(self) -> ast.Expr:
        left = self._parse_instance_of()
        while self._peek().is_name("intersect", "except"):
            op = self._advance().value
            right = self._parse_instance_of()
            if op == "intersect":
                left = ast.IntersectExpr(left, right)
            else:
                left = ast.ExceptExpr(left, right)
        return left

    def _parse_instance_of(self) -> ast.Expr:
        left = self._parse_cast()
        if self._peek().is_name("instance") and self._peek(1).is_name("of"):
            self._advance()
            self._advance()
            sequence_type = self._parse_sequence_type()
            return ast.InstanceOfExpr(left, sequence_type)
        return left

    def _parse_cast(self) -> ast.Expr:
        left = self._parse_unary()
        if self._peek().is_name("cast") and self._peek(1).is_name("as"):
            self._advance()
            self._advance()
            target = self._expect_name().value
            optional = self._accept_symbol("?")
            return ast.CastExpr(left, target, optional)
        return left

    def _parse_unary(self) -> ast.Expr:
        if self._peek().is_symbol("-", "+"):
            op = self._advance().value
            return ast.UnaryExpr(op, self._parse_unary())
        return self._parse_path()

    # -- paths ---------------------------------------------------------------------

    def _parse_path(self) -> ast.Expr:
        token = self._peek()
        if token.is_symbol("//"):
            self._advance()
            left = ast.PathExpr(
                ast.RootExpr(),
                ast.AxisStep("descendant-or-self", ast.NodeTest("node")),
            )
            return self._parse_relative_path(left)
        if token.is_symbol("/"):
            self._advance()
            if self._starts_step():
                return self._parse_relative_path(ast.RootExpr())
            return ast.RootExpr()
        return self._parse_relative_path(None)

    def _starts_step(self) -> bool:
        token = self._peek()
        if token.kind in (TokenKind.NAME, TokenKind.STRING, TokenKind.INTEGER,
                          TokenKind.DECIMAL, TokenKind.DOUBLE):
            return True
        return token.is_symbol("$", "(", ".", "..", "@", "*", "<")

    def _parse_relative_path(self, left: ast.Expr | None) -> ast.Expr:
        expr = self._parse_step() if left is None else ast.PathExpr(left, self._parse_step())
        while True:
            if self._peek().is_symbol("/"):
                self._advance()
                expr = ast.PathExpr(expr, self._parse_step())
            elif self._peek().is_symbol("//"):
                self._advance()
                expr = ast.PathExpr(
                    expr, ast.AxisStep("descendant-or-self", ast.NodeTest("node"))
                )
                expr = ast.PathExpr(expr, self._parse_step())
            else:
                return expr

    def _parse_step(self) -> ast.Expr:
        token = self._peek()
        if token.is_symbol(".."):
            self._advance()
            return ast.AxisStep("parent", ast.NodeTest("node"), tuple(self._parse_predicates()))
        if token.is_symbol("@"):
            self._advance()
            node_test = self._parse_node_test(default_kind="attribute-name")
            return ast.AxisStep("attribute", node_test, tuple(self._parse_predicates()))
        if token.kind == TokenKind.NAME and self._peek(1).is_symbol("::"):
            axis = token.value
            if axis not in AXES:
                raise self._error(f"unknown axis '{axis}'", token)
            self._advance()
            self._advance()
            node_test = self._parse_node_test()
            return ast.AxisStep(axis, node_test, tuple(self._parse_predicates()))
        if token.is_symbol("*"):
            self._advance()
            return ast.AxisStep("child", ast.NodeTest("name", "*"), tuple(self._parse_predicates()))
        if token.kind == TokenKind.NAME:
            name = token.value
            follows_paren = self._peek(1).is_symbol("(")
            if follows_paren and name in KIND_TESTS:
                node_test = self._parse_node_test()
                return ast.AxisStep("child", node_test, tuple(self._parse_predicates()))
            if not follows_paren and not self._is_constructor_keyword(token):
                self._advance()
                return ast.AxisStep("child", ast.NodeTest("name", name), tuple(self._parse_predicates()))
        primary = self._parse_primary()
        predicates = self._parse_predicates()
        if predicates:
            return ast.FilterExpr(primary, tuple(predicates))
        return primary

    def _is_constructor_keyword(self, token: Token) -> bool:
        """Computed-constructor keywords used *as* constructors (not as names)."""
        if token.value not in ("element", "attribute", "text", "comment", "document", "ordered", "unordered"):
            return False
        nxt = self._peek(1)
        if nxt.is_symbol("{"):
            return True
        if token.value in ("element", "attribute") and nxt.kind == TokenKind.NAME and self._peek(2).is_symbol("{"):
            return True
        return False

    def _parse_node_test(self, default_kind: str = "name") -> ast.NodeTest:
        token = self._peek()
        if token.is_symbol("*"):
            self._advance()
            return ast.NodeTest("name", "*")
        name_token = self._expect_name()
        name = name_token.value
        if self._peek().is_symbol("(") and name in KIND_TESTS:
            self._advance()
            inner: str | None = None
            if not self._peek().is_symbol(")"):
                if self._peek().is_symbol("*"):
                    self._advance()
                else:
                    inner = self._expect_name().value
            self._expect_symbol(")")
            return ast.NodeTest(name, inner)
        return ast.NodeTest("name", name)

    def _parse_predicates(self) -> list[ast.Expr]:
        predicates: list[ast.Expr] = []
        while self._peek().is_symbol("["):
            self._advance()
            predicates.append(self.parse_expr())
            self._expect_symbol("]")
        return predicates

    # -- primary expressions ---------------------------------------------------------

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == TokenKind.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.kind == TokenKind.INTEGER:
            self._advance()
            return ast.Literal(int(token.value))
        if token.kind in (TokenKind.DECIMAL, TokenKind.DOUBLE):
            self._advance()
            return ast.Literal(float(token.value))
        if token.is_symbol("$"):
            self._advance()
            name = self._expect_name().value
            return self._stamp(ast.VarRef(name), token)
        if token.is_symbol("("):
            self._advance()
            if self._accept_symbol(")"):
                return ast.EmptySequence()
            expr = self.parse_expr()
            self._expect_symbol(")")
            return expr
        if token.is_symbol("."):
            self._advance()
            return ast.ContextItem()
        if token.is_symbol("<"):
            return self._parse_direct_constructor()
        if token.kind == TokenKind.NAME:
            if self._is_constructor_keyword(token):
                return self._parse_computed_constructor()
            if self._peek(1).is_symbol("("):
                return self._parse_function_call()
        raise self._error(f"unexpected token {token.value!r}", token)


def _tokens(lexer_class, text: str):
    """The token stream of *text* up to EOF, or up to the error that ends it."""
    lexer = lexer_class(text)
    stream: list = []
    try:
        while not stream or stream[-1][0] is not TokenKind.EOF:
            stream.append(tuple(lexer.next_token()))
    except XQuerySyntaxError as error:
        stream.append(str(error))
    except (ValueError, OverflowError):
        stream.append("malformed character reference")
    return stream


def _nodes(module: ast.Module) -> list:
    """The declarations and every expression node of *module*, in document order."""
    nodes: list = []
    for function in module.functions:
        nodes.append(function)
        nodes.extend(function.body.iter_subexpressions())
    for declaration in module.variables:
        nodes.append(declaration)
        if declaration.value is not None:
            nodes.extend(declaration.value.iter_subexpressions())
    nodes.extend(module.body.iter_subexpressions())
    return nodes


def _stamps(module: ast.Module) -> list:
    """Every position the parser stamped."""
    return [(type(node).__name__, ast.get_position(node)) for node in _nodes(module)]


def _parsed(parser) -> object:
    """What *parser* makes of its text as a module: the AST with its
    stamps, or the error message."""
    try:
        module = parser.parse_module()
    except XQuerySyntaxError as error:
        return str(error)
    except (ValueError, OverflowError):
        return "malformed character reference"
    return module, _stamps(module)


_NUMBERS = (TokenKind.INTEGER, TokenKind.DECIMAL, TokenKind.DOUBLE)


def _non_ascii_number(tokens) -> int | None:
    """The index of the first number token holding a non-ASCII character."""
    return next((index for index, token in enumerate(tokens)
                 if token[0] in _NUMBERS and not token[1].isascii()), None)


#: A number that ends in its point (``1.``, ``1.e2``), which XQuery reads
#: as one literal and the old lexer as an integer and a ``.``.
_POINT_ENDED = re.compile(r"[0-9]+\.(?![0-9])").match


class _PointNotingLexer(Lexer):
    """The lexer, noting by start offset each point-ended number it makes."""

    def __init__(self, text: str):
        super().__init__(text)
        self.point_numbers: dict[int, str] = {}

    def next_token(self) -> Token:
        token = super().next_token()
        self._note(token)
        return token

    def tokens_ahead(self) -> list[Token]:
        tokens = super().tokens_ahead()
        for token in tokens:
            self._note(token)
        return tokens

    def _note(self, token: Token) -> None:
        if token.kind in (TokenKind.DECIMAL, TokenKind.DOUBLE) and _POINT_ENDED(token.value):
            self.point_numbers[token.start] = token.value


def _oracle_parsed_with_point_zeros(text: str, numbers: dict[int, str]):
    """What the old parser makes of *text* once each point-ended number of
    *numbers* reads ``N.0`` (``1.`` → ``1.0``, ``1.e2`` → ``1.0e2``), with
    its stamps and error position mapped back onto *text* and an error
    that quotes such a number quoting it as written."""
    pieces, zeros, last = [], [], 0
    for start in sorted(numbers):
        point = start + numbers[start].index(".") + 1
        pieces += [text[last:point], "0"]
        zeros.append(point + len(zeros))
        last = point
    rewritten = "".join(pieces) + text[last:]
    line_starts = [0] + [index + 1 for index, char in enumerate(rewritten) if char == "\n"]

    def offset(line: int, column: int) -> int:
        at = line_starts[line - 1] + column - 1
        return at - bisect.bisect_left(zeros, at)

    def position(line: int, column: int) -> tuple[int, int]:
        return Lexer(text).line_column(offset(line, column))

    old = _parsed(OracleParser(rewritten))
    if not isinstance(old, str):
        module, stamps = old
        return module, [(name, stamp and position(*stamp)) for name, stamp in stamps]
    located = re.fullmatch(r"(.*) at line (\d+), column (\d+)", old, re.DOTALL)
    if located is None:
        return old
    message, line, column = located[1], int(located[2]), int(located[3])
    written = numbers.get(offset(line, column))
    if written is not None:
        message = message.replace(repr(written.replace(".", ".0", 1)), repr(written))
    return "{} at line {}, column {}".format(message, *position(line, column))


def _integer_before_point(tokens) -> int | None:
    """The index of the first integer token followed right behind it by a
    ``.`` or ``..`` symbol: ``1.`` and ``1.e2``, which XQuery reads as one
    number and the old lexer did not."""
    return next((index for index, (token, after) in enumerate(zip(tokens, tokens[1:]))
                 if token[0] is TokenKind.INTEGER and isinstance(after, tuple)
                 and after[0] is TokenKind.SYMBOL and after[1] in (".", "..")
                 and after[2] == token[3]), None)


def assert_same_front_end(text: str) -> None:
    """Same tokens, same module (or the same error).  The announced exceptions:
    where the new front end reports an invalid character reference, the old
    decoder crashed, or let ``int`` take what is none (``&# 65;``) and went on;
    where the old lexer took a digit ASCII does not have (``²``, ``٣``) into a
    number, the tokens before that number must agree, the new lexer makes no
    such number, and a text with such a digit that the new parser rejects is
    not compared (``int`` read ``٣`` as 3 and crashed on ``²``); where the old
    lexer ended an integer at the point right behind it (``1.``, ``1.e2``),
    the tokens before it must agree, the new lexer makes one decimal or double
    of the digits and the point there, and the new parser's module (or error)
    must be the old parser's on the text with each point-ended number the new
    parser read written ``N.0``."""
    old_tokens, new_tokens = _tokens(OracleLexer, text), _tokens(Lexer, text)
    digit = _non_ascii_number(old_tokens)
    point = _integer_before_point(old_tokens)
    if digit is not None and (point is None or digit <= point):
        assert new_tokens[:digit] == old_tokens[:digit]
        assert _non_ascii_number(new_tokens[:-1]) is None
    elif point is not None:
        assert new_tokens[:point] == old_tokens[:point]
        kind, value, start, _end = new_tokens[point]
        assert kind in (TokenKind.DECIMAL, TokenKind.DOUBLE)
        assert start == old_tokens[point][2]
        assert value.startswith(old_tokens[point][1] + ".")
    elif "invalid character reference" in str(new_tokens[-1]):
        assert new_tokens[:-1] == old_tokens[:len(new_tokens) - 1]
    else:
        assert new_tokens == old_tokens
    parser = Parser(text)
    parser.lexer = _PointNotingLexer(text)
    new = _parsed(parser)
    if isinstance(new, str) and ("invalid character reference" in new or any(
            char.isdigit() and not char.isascii() for char in text)):
        return
    numbers = parser.lexer.point_numbers
    if numbers:
        assert new == _oracle_parsed_with_point_zeros(text, numbers)
    else:
        assert new == _parsed(OracleParser(text))


class TestAgainstThePreviousFrontEnd:
    def test_every_query_text_of_the_repository(self):
        for text in front_end_corpus():
            assert_same_front_end(text)

    @pytest.mark.parametrize("text", [
        "1. + 1", "<a b='{1.}'>{ 2. }</a>\n3. 4.", "for 1. in", "let $x := 1. return $x 2.",
        "1.\n 2.", "declare variable 1.e2 := 1;", "a1.b", '"v1."', "(: 1. :) 2", "<a>1.</a>"])
    def test_point_ended_numbers_against_the_old_parser(self, text):
        """Modules, error texts and positions after a ``1.``, and the names,
        strings, comments and content holding ``1.`` that are no number."""
        assert_same_front_end(text)

    def test_parse_expression_too(self):
        def oracle(text: str):
            parser = OracleParser(text)
            expr = parser.parse_expr()
            trailing = parser._peek()
            if trailing.kind != TokenKind.EOF:
                raise parser._error(
                    f"unexpected content after expression: {trailing.value!r}", trailing)
            return expr

        for text in front_end_corpus():
            outcomes = []
            for parse in (oracle, parse_expression):
                try:
                    outcomes.append(parse(text))
                except XQuerySyntaxError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]

    #: Every binary operator with its level, loosest first.
    LEVELS = (
        ("or",), ("and",),
        ("=", "!=", "<", "<=", ">", ">=", "eq", "ne", "lt", "le", "gt", "ge", "is", "<<", ">>"),
        ("to",), ("+", "-"), ("*", "div", "idiv", "mod"), ("union", "|"),
        ("intersect", "except"), ("instance of xs:integer",), ("cast as xs:integer?",),
    )
    OPERATORS = tuple(itertools.chain.from_iterable(LEVELS))

    def test_every_pair_of_operators(self):
        """``a op1 b op2 c`` for all 33 × 33 pairs — every pair of adjacent
        levels in both orders, every level against itself (where the
        non-associative ones must fail, at the same column) — bare, signed,
        and with the type operators' missing second keyword."""
        def operand(operator: str, name: str) -> str:
            return "" if operator.startswith(("instance", "cast")) else name
        for first, second in itertools.product(self.OPERATORS, repeat=2):
            text = f"$a {first} {operand(first, '$b')} {second} {operand(second, 'c/d')}"
            assert_same_front_end(text)
            assert_same_front_end("- " + text.replace("$b", "+ - 1"))
        for broken in ("1 instance 2", "1 cast 2", "1 instance of", "1 cast as",
                       "$a instance of T instance of U", "1 = 2 = 3", "1 to 2 to 3",
                       "1 cast as T cast as U", "- - 1 cast as xs:integer? + 2",
                       '1 "or" 2', "1 or", "or 1", "a or or b", "1 instance of T cast as U"):
            assert_same_front_end(broken)

    OPERANDS = ("1", "$a", "b/c", '"s"', "(1, 2)", "f($x)", ".", "@k", "//n[1]", "-2", "<e/>",
                "a:b", "1.5", "()", "/", "x[. = 1]/y")

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.lists(st.tuples(st.sampled_from(OPERATORS), st.sampled_from(OPERANDS),
                              st.sampled_from(("", "-", "+ -"))), max_size=6),
           st.sampled_from(OPERANDS))
    def test_operator_chains(self, chain, last):
        parts = []
        for operator, operand, sign in chain:
            parts.append(f"{sign}{operand} {operator}" if " " not in operator
                         else f"{sign}{operand} {operator} and $t")
        assert_same_front_end(" ".join([*parts, last]))

    #: Token soup: everything the lexer has an opinion on, and what surrounds
    #: the character-mode switches of the parser.
    SOUP = (
        "1.", ".5", "1e", "1.e3", "1.2.3", "12abc", "1e+5", "1E-2", "1e+", "3.14", "..", ".",
        "12\u0663", "\u0663", "1.\u0663", "1e+\u0663", ".\u0663", "caf\u00e9", "\u00e9a", "a\u00b2", "\u00b2",
        "a:b", "a::b", "a:=1", "a: b", "a:\u00e9", "a:1", ":", "::", ":=", "child::a", "x-y.z", "_u",
        '"a""b"', "'it''s'", '"&amp;"', '"&lt;&#65;&#x41;"', '"&bogus;"', '"&amp"', "'&#xZZ;'",
        '"&#;"', '"&#x110000;"', '"&#-5;"', '"&#99999999999;"', '"unterminated', "'", '"',
        '"caf\u00e9"', "(: c :)", "(: a (: b :) c :)", "(: open", ":)", "(:", "(",
        "<a>it's #1</a>", "<a b='{1}' c=\"x{{y}}\">{{ {$v} }}&amp;<!-- - --><b/></a>",
        "<a>{", "}</a>", "<a b=\"&#99999999999;\"/>", "<a>&#xZZ;</a>", "<a>&nope;</a>", "<a>&amp</a>",
        "<a", "</a>", "<!-- -->", "{{", "}}", "{", "}", "&amp;", "&", ";", "#", "~", "!", "!=",
        "$x", "$", "for $i in", "return", "let $v :=", "if (", ") then", "else", "with $x seeded by",
        "recurse", "using naive", "some $q in", "satisfies", "instance of", "cast as", "element",
        "element a {", "text {", "declare variable $g :=", "declare function f($p) {", "};",
        "typeswitch (", "case", "default return", "node()", "text()", "@", "*", "/", "//", "[", "]",
        ",", "+", "-", "=", "<", "<=", "<<", ">", "?", "|", "or", "and", "div", "to", "union", "f(", ")",
        *MULTI_CHAR_SYMBOLS, *sorted(SINGLE_CHAR_SYMBOLS),
    )

    #: … and the same a character at a time.
    CHARACTERS = "a1.eE+-:\"'&;#() \n<>{}/*=\u00e9\u0663\u00b2_$x|!?@[],"

    @settings(derandomize=True, deadline=None, max_examples=350)
    @given(st.lists(st.tuples(st.sampled_from(SOUP) | st.text(CHARACTERS, min_size=1, max_size=5),
                              st.sampled_from(("", " ", " ", "\n"))),
                    min_size=1, max_size=9))
    @example([("$a", " "), ("instance", " "), ("of", " "), ("T", " "), ("instance", " "), ("~", "")])
    @example([("1", " "), ("cast", " "), ("as", " "), ("T", " "), ("cast", " "), ("~", "")])
    @example([("<a>", ""), ("it's #1", ""), ("{", ""), ("'}'", ""), ("}", ""), ("</a>", " "), ("'", "")])
    def test_token_soup(self, pieces):
        assert_same_front_end("".join(piece + blank for piece, blank in pieces))


class TestFrontEndBudget:
    """What a never-seen query text costs before anything runs, as counts
    under ``sys.setprofile`` (Python-level and built-in calls) on the
    ledger's bidder module.  The front end this one replaced made 47 calls
    per token — ``_peek`` six times per token, a fourteen-frame descent per
    operand — and 64 per AST node in ``optimize_module``; until the parser
    applied the local rewrites, ``optimize_module`` made 31 per node (and
    the bound was 35), the optimizing walk included."""

    @pytest.fixture()
    def bidder_text(self):
        _, ops, _ = benchmark_modules()
        return ops.closure_text("bidder", "person7")

    @pytest.mark.parametrize("optimize", (False, True))
    def test_parsing_costs_at_most_15_calls_per_token(self, bidder_text, optimize):
        parser = Parser(bidder_text, optimize)
        parser.parse_module()
        lexed = parser._tokens
        tokens = len(lexed) - 1
        assert tokens == 108 and lexed[-1].kind is TokenKind.EOF  # once each: no re-lexing
        assert [token.start for token in lexed] == sorted({token.start for token in lexed})
        assert count_calls(lambda: parse_query(bidder_text, optimize)) <= 15 * tokens

    def test_optimizing_costs_at_most_20_calls_per_node(self, bidder_text):
        module = parse_query(bidder_text, optimize=True)
        nodes = sum(isinstance(node, ast.Expr) for node in _nodes(parse_query(bidder_text)))
        assert nodes == 49
        assert count_calls(lambda: optimize_module(module)) <= 20 * nodes
