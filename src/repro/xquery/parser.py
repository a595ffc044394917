"""Recursive-descent parser for the XQuery subset.

The grammar follows XQuery 1.0 operator precedence for the constructs the
engine supports, plus the paper's ``with $x seeded by e recurse e`` form.
Several surface conveniences are desugared at parse time so that the
evaluator and the distributivity analyses only ever see a small core:

* multi-clause FLWORs become nested single-variable ``for``/``let`` nodes;
* ``where c return e`` becomes ``return if (c) then e else ()``;
* ``e1//e2`` becomes ``e1/descendant-or-self::node()/e2``;
* a leading ``/`` becomes an explicit :class:`~repro.xquery.ast.RootExpr`
  left operand of the binary path operator.

Direct element constructors switch the parser into character mode (see
:mod:`repro.xquery.lexer`), because inside ``<a>...</a>`` the input is
character content interleaved with ``{ enclosed expressions }``.
"""

from __future__ import annotations

from repro.errors import XQuerySyntaxError
from repro.xquery import ast
from repro.xquery.lexer import Lexer
from repro.xquery.tokens import Token, TokenKind

#: Axis names accepted in axis steps.
AXES = {
    "child", "descendant", "descendant-or-self", "self", "attribute",
    "parent", "ancestor", "ancestor-or-self",
    "following-sibling", "preceding-sibling", "following", "preceding",
}

#: Node-kind test names (reserved function names in step position).
KIND_TESTS = {
    "node", "text", "comment", "processing-instruction",
    "element", "attribute", "document-node",
}

#: Names that may not be used as (unprefixed) function names.
RESERVED_FUNCTION_NAMES = KIND_TESTS | {"if", "typeswitch", "item", "empty-sequence"}

#: Computed-constructor keywords (constructors only in front of a ``{``).
CONSTRUCTOR_KEYWORDS = {"element", "attribute", "text", "comment", "document",
                        "ordered", "unordered"}

_NAME, _STRING, _SYMBOL, _EOF = (TokenKind.NAME, TokenKind.STRING, TokenKind.SYMBOL,
                                 TokenKind.EOF)

#: Precedence levels of the binary operators and the two postfix type
#: operators, loosest first (XQuery 1.0, A.4).
(_OR, _AND, _COMPARISON, _RANGE, _ADDITIVE, _MULTIPLICATIVE, _UNION, _INTERSECT,
 _INSTANCE_OF, _CAST) = range(1, 11)

#: ``1 = 2 = 3``, ``1 to 2 to 3``, ``… instance of T instance of U`` and
#: ``… cast as T cast as U`` are syntax errors: behind one of these, only
#: looser operators may follow.
_NON_ASSOCIATIVE = frozenset({_COMPARISON, _RANGE, _INSTANCE_OF, _CAST})

#: The one operator table: token value → (level, AST class, whether the
#: class takes the operator as its first field).  ``instance``/``cast`` are
#: operators only in front of ``of``/``as`` and build their nodes themselves.
_OPERATORS: dict[str, tuple[int, type[ast.Expr] | None, bool]] = {
    "or": (_OR, ast.OrExpr, False),
    "and": (_AND, ast.AndExpr, False),
    **{op: (_COMPARISON, ast.GeneralComparison, True)
       for op in ("=", "!=", "<", "<=", ">", ">=")},
    **{op: (_COMPARISON, ast.ValueComparison, True)
       for op in ("eq", "ne", "lt", "le", "gt", "ge")},
    **{op: (_COMPARISON, ast.NodeComparison, True) for op in ("is", "<<", ">>")},
    "to": (_RANGE, ast.RangeExpr, False),
    "+": (_ADDITIVE, ast.ArithmeticExpr, True),
    "-": (_ADDITIVE, ast.ArithmeticExpr, True),
    **{op: (_MULTIPLICATIVE, ast.ArithmeticExpr, True) for op in ("*", "div", "idiv", "mod")},
    "union": (_UNION, ast.UnionExpr, False),
    "|": (_UNION, ast.UnionExpr, False),
    "intersect": (_INTERSECT, ast.IntersectExpr, False),
    "except": (_INTERSECT, ast.ExceptExpr, False),
    "instance": (_INSTANCE_OF, None, False),
    "cast": (_CAST, None, False),
}


class Parser:
    """Parses one query module (prolog + body expression)."""

    def __init__(self, text: str):
        self.lexer = Lexer(text)
        #: The tokens lexed so far and the cursor into them.  The list is
        #: filled on demand (see :mod:`repro.xquery.lexer` for why not up
        #: front); what lies at or after the cursor is look-ahead.
        self._tokens: list[Token] = []
        self._index = 0

    # ------------------------------------------------------------------ token plumbing

    def _peek(self, offset: int = 0) -> Token:
        index = self._index + offset
        tokens = self._tokens
        while index >= len(tokens):
            tokens.append(self.lexer.next_token())
        return tokens[index]

    def _advance(self) -> Token:
        token = self._peek()
        self._index += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> XQuerySyntaxError:
        position = token.start if token is not None else self._peek().start
        return self.lexer.error(message, position)

    def _stamp(self, node, token: Token):
        """Record *token*'s source position on *node* (see ast.set_position).

        The static analyzer (:mod:`repro.analysis`) reads these stamps to
        report undefined variables/functions with line/column information.
        """
        line, column = self.lexer.line_column(token.start)
        ast.set_position(node, line, column)
        return node

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._peek()
        if token.kind is not _SYMBOL or token.value != symbol:
            raise self._error(f"expected '{symbol}', found {token.value!r}", token)
        self._index += 1
        return token

    def _expect_name(self, *names: str) -> Token:
        token = self._peek()
        if token.kind is not _NAME or (names and token.value not in names):
            expected = " or ".join(repr(n) for n in names) if names else "a name"
            raise self._error(f"expected {expected}, found {token.value!r}", token)
        self._index += 1
        return token

    def _accept_symbol(self, symbol: str) -> bool:
        token = self._peek()
        if token.kind is _SYMBOL and token.value == symbol:
            self._index += 1
            return True
        return False

    def _accept_name(self, name: str) -> bool:
        token = self._peek()
        if token.kind is _NAME and token.value == name:
            self._index += 1
            return True
        return False

    def _enter_char_mode(self, position: int) -> None:
        """Discard pending lookahead and continue scanning at *position*."""
        del self._tokens[self._index:]
        self.lexer.pos = position

    # ------------------------------------------------------------------ module / prolog

    def parse_module(self) -> ast.Module:
        functions: list[ast.FunctionDecl] = []
        variables: list[ast.VariableDecl] = []
        while self._peek().is_name("declare"):
            keyword = self._peek(1)
            if keyword.is_name("function"):
                functions.append(self._parse_function_decl())
            elif keyword.is_name("variable"):
                variables.append(self._parse_variable_decl())
            else:
                raise self._error(
                    f"unsupported declaration 'declare {keyword.value}'", keyword
                )
        body = self.parse_expr()
        end = self._peek()
        if end.kind != TokenKind.EOF:
            raise self._error(f"unexpected content after query body: {end.value!r}", end)
        return ast.Module(functions=tuple(functions), variables=tuple(variables), body=body)

    def _parse_function_decl(self) -> ast.FunctionDecl:
        self._expect_name("declare")
        self._expect_name("function")
        name_token = self._expect_name()
        name = name_token.value
        self._expect_symbol("(")
        params: list[ast.Param] = []
        if not self._peek().is_symbol(")"):
            while True:
                self._expect_symbol("$")
                param_name = self._expect_name().value
                declared_type = None
                if self._accept_name("as"):
                    declared_type = self._parse_sequence_type()
                params.append(ast.Param(param_name, declared_type))
                if not self._accept_symbol(","):
                    break
        self._expect_symbol(")")
        return_type = None
        if self._accept_name("as"):
            return_type = self._parse_sequence_type()
        self._expect_symbol("{")
        body = self.parse_expr()
        self._expect_symbol("}")
        self._expect_symbol(";")
        return self._stamp(ast.FunctionDecl(name=name, params=tuple(params), body=body,
                                            return_type=return_type), name_token)

    def _parse_variable_decl(self) -> ast.VariableDecl:
        self._expect_name("declare")
        self._expect_name("variable")
        self._expect_symbol("$")
        name_token = self._expect_name()
        name = name_token.value
        declared_type = None
        if self._accept_name("as"):
            declared_type = self._parse_sequence_type()
        if self._accept_name("external"):
            self._expect_symbol(";")
            declaration = ast.VariableDecl(name=name, value=None, external=True,
                                           declared_type=declared_type)
        else:
            self._expect_symbol(":=")
            value = self.parse_expr_single()
            self._expect_symbol(";")
            declaration = ast.VariableDecl(name=name, value=value, declared_type=declared_type)
        return self._stamp(declaration, name_token)

    def _parse_sequence_type(self) -> ast.SequenceType:
        token = self._expect_name()
        type_name = token.value
        if type_name == "empty-sequence":
            self._expect_symbol("(")
            self._expect_symbol(")")
            return ast.SequenceType("empty-sequence")
        name: str | None = None
        if type_name in KIND_TESTS or type_name == "item":
            self._expect_symbol("(")
            name = self._parse_kind_test_name()
        occurrence = ""
        if self._peek().is_symbol("?", "*", "+"):
            occurrence = self._advance().value
        return ast.SequenceType(type_name, occurrence, name)

    def _parse_kind_test_name(self) -> str | None:
        """Behind the ``(`` of a kind test: ``)``, ``*)`` or ``name)``."""
        name = None
        if not self._accept_symbol(")"):
            if not self._accept_symbol("*"):
                name = self._expect_name().value
            self._expect_symbol(")")
        return name

    # ------------------------------------------------------------------ expressions

    def parse_expr(self) -> ast.Expr:
        first = self.parse_expr_single()
        if not self._peek().is_symbol(","):
            return first
        items = [first]
        while self._accept_symbol(","):
            items.append(self.parse_expr_single())
        return ast.SequenceExpr(tuple(items))

    def parse_expr_single(self) -> ast.Expr:
        token = self._peek()
        if token.kind is _NAME and token.value in _KEYWORD_EXPRESSIONS:
            # a keyword only in front of its symbol: ``for`` is also an element name
            symbol, parse = _KEYWORD_EXPRESSIONS[token.value]
            follower = self._peek(1)
            if follower.kind is _SYMBOL and follower.value == symbol:
                return parse(self)
        return self._parse_binary(_OR, token)

    # -- FLWOR ------------------------------------------------------------------

    def _parse_flwor(self) -> ast.Expr:
        clauses: list[tuple] = []
        while True:
            keyword = self._peek()
            if not (keyword.is_name("for", "let") and self._peek(1).is_symbol("$")):
                break
            self._advance()
            while True:
                self._expect_symbol("$")
                var_token = self._expect_name()
                position_var = None
                if keyword.value == "let":
                    self._expect_symbol(":=")
                else:
                    if self._accept_name("at"):
                        self._expect_symbol("$")
                        position_var = self._expect_name().value
                    self._expect_name("in")
                clauses.append((keyword.value, var_token, position_var, self.parse_expr_single()))
                if not self._accept_symbol(","):
                    break
        where: ast.Expr | None = None
        if self._accept_name("where"):
            where = self.parse_expr_single()
        if self._peek().is_name("order") or self._peek().is_name("stable"):
            raise self._error("'order by' is not supported by this XQuery subset")
        self._expect_name("return")
        body = self.parse_expr_single()
        if where is not None:
            body = ast.IfExpr(where, body, ast.EmptySequence())
        for kind, var_token, position_var, expr in reversed(clauses):
            if kind == "for":
                body = ast.ForExpr(var=var_token.value, sequence=expr, body=body,
                                   position_var=position_var)
            else:
                body = ast.LetExpr(var=var_token.value, value=expr, body=body)
            self._stamp(body, var_token)
        return body

    def _parse_quantified(self) -> ast.Expr:
        quantifier = self._expect_name("some", "every").value
        bindings: list[tuple[str, ast.Expr]] = []
        while True:
            self._expect_symbol("$")
            var = self._expect_name().value
            self._expect_name("in")
            sequence = self.parse_expr_single()
            bindings.append((var, sequence))
            if not self._accept_symbol(","):
                break
        self._expect_name("satisfies")
        satisfies = self.parse_expr_single()
        expr = satisfies
        for var, sequence in reversed(bindings):
            expr = ast.QuantifiedExpr(quantifier=quantifier, var=var, sequence=sequence, satisfies=expr)
        return expr

    def _parse_typeswitch(self) -> ast.Expr:
        self._expect_name("typeswitch")
        self._expect_symbol("(")
        operand = self.parse_expr()
        self._expect_symbol(")")
        cases: list[ast.TypeswitchCase] = []
        while self._peek().is_name("case"):
            self._advance()
            case_var = None
            if self._peek().is_symbol("$"):
                self._advance()
                case_var = self._expect_name().value
                self._expect_name("as")
            sequence_type = self._parse_sequence_type()
            self._expect_name("return")
            body = self.parse_expr_single()
            cases.append(ast.TypeswitchCase(sequence_type=sequence_type, body=body, var=case_var))
        if not cases:
            raise self._error("typeswitch requires at least one case clause")
        self._expect_name("default")
        default_var = None
        if self._peek().is_symbol("$"):
            self._advance()
            default_var = self._expect_name().value
        self._expect_name("return")
        default = self.parse_expr_single()
        return ast.TypeswitchExpr(operand=operand, cases=tuple(cases), default=default, default_var=default_var)

    def _parse_if(self) -> ast.Expr:
        self._expect_name("if")
        self._expect_symbol("(")
        condition = self.parse_expr()
        self._expect_symbol(")")
        self._expect_name("then")
        then_branch = self.parse_expr_single()
        self._expect_name("else")
        else_branch = self.parse_expr_single()
        return ast.IfExpr(condition, then_branch, else_branch)

    def _parse_with(self) -> ast.Expr:
        with_token = self._expect_name("with")
        self._expect_symbol("$")
        var = self._expect_name().value
        self._expect_name("seeded")
        self._expect_name("by")
        seed = self.parse_expr_single()
        self._expect_name("recurse")
        body = self.parse_expr_single()
        algorithm = "auto"
        if self._peek().is_name("using"):
            self._advance()
            algorithm = self._expect_name("naive", "delta", "auto").value
        return self._stamp(
            ast.WithExpr(var=var, seed=seed, body=body, algorithm=algorithm), with_token)

    # -- operator precedence ---------------------------------------------------------

    def _parse_binary(self, floor: int, token: Token) -> ast.Expr:
        """An operand and every operator behind it that binds at least as
        tightly as *floor* — precedence climbing over :data:`_OPERATORS`.
        (Here and down to :meth:`_parse_primary`, *token* is the next token,
        which the caller has looked at already.)

        The right operand of a level-``n`` operator is parsed with floor
        ``n + 1``, so what comes back to this loop can only be followed by
        level ``n`` or looser: the *ceiling*.  A non-associative operator
        lowers it to ``n - 1``, and its second occurrence is then nobody's
        to take — it is left for the caller to reject as trailing content.
        """
        left = self._parse_unary(token)
        ceiling = _CAST
        while True:
            token = self._peek()
            value = token.value
            if value not in _OPERATORS or token.kind is _STRING:
                return left
            level, node, takes_operator = _OPERATORS[value]
            if level < floor or level > ceiling:
                return left
            if node is not None:
                self._index += 1
                right = self._parse_binary(level + 1, self._peek())
                left = node(value, left, right) if takes_operator else node(left, right)
            elif level == _INSTANCE_OF:
                if not self._peek(1).is_name("of"):
                    return left
                self._index += 2
                left = ast.InstanceOfExpr(left, self._parse_sequence_type())
            else:
                if not self._peek(1).is_name("as"):
                    return left
                self._index += 2
                target = self._expect_name().value
                left = ast.CastExpr(left, target, self._accept_symbol("?"))
            ceiling = level - 1 if level in _NON_ASSOCIATIVE else level

    def _parse_unary(self, token: Token) -> ast.Expr:
        """Signs, then a path: an operand of :meth:`_parse_binary`."""
        if token.kind is _SYMBOL:
            value = token.value
            if value == "-" or value == "+":
                self._index += 1
                return ast.UnaryExpr(value, self._parse_unary(self._peek()))
            if value == "//":
                self._index += 1
                return self._parse_relative_path(ast.PathExpr(
                    ast.RootExpr(),
                    ast.AxisStep("descendant-or-self", ast.NodeTest("node")),
                ), self._peek())
            if value == "/":
                self._index += 1
                token = self._peek()
                if _starts_step(token):
                    return self._parse_relative_path(ast.RootExpr(), token)
                return ast.RootExpr()
        return self._parse_relative_path(None, token)

    # -- paths ---------------------------------------------------------------------

    def _parse_relative_path(self, left: ast.Expr | None, token: Token) -> ast.Expr:
        expr = self._parse_step(token)
        if left is not None:
            expr = ast.PathExpr(left, expr)
        while True:
            token = self._peek()
            if token.kind is not _SYMBOL:
                return expr
            if token.value == "/":
                self._index += 1
                expr = ast.PathExpr(expr, self._parse_step(self._peek()))
            elif token.value == "//":
                self._index += 1
                expr = ast.PathExpr(
                    expr, ast.AxisStep("descendant-or-self", ast.NodeTest("node"))
                )
                expr = ast.PathExpr(expr, self._parse_step(self._peek()))
            else:
                return expr

    def _parse_step(self, token: Token) -> ast.Expr:
        if token.kind is _NAME:
            name = token.value
            follower = self._peek(1)
            follower_symbol = follower.value if follower.kind is _SYMBOL else None
            if follower_symbol == "::":
                if name not in AXES:
                    raise self._error(f"unknown axis '{name}'", token)
                self._index += 2
                return ast.AxisStep(name, self._parse_node_test(), self._parse_predicates())
            if follower_symbol == "(":
                if name in KIND_TESTS:
                    return ast.AxisStep("child", self._parse_node_test(), self._parse_predicates())
            elif not (name in CONSTRUCTOR_KEYWORDS and self._is_constructor_keyword(token)):
                self._index += 1
                return ast.AxisStep("child", ast.NodeTest("name", name), self._parse_predicates())
        elif token.kind is _SYMBOL:
            symbol = token.value
            if symbol == "..":
                self._index += 1
                return ast.AxisStep("parent", ast.NodeTest("node"), self._parse_predicates())
            if symbol == "@":
                self._index += 1
                return ast.AxisStep("attribute", self._parse_node_test(), self._parse_predicates())
            if symbol == "*":
                self._index += 1
                return ast.AxisStep("child", ast.NodeTest("name", "*"), self._parse_predicates())
        primary = self._parse_primary(token)
        predicates = self._parse_predicates()
        if predicates:
            return ast.FilterExpr(primary, predicates)
        return primary

    def _is_constructor_keyword(self, token: Token) -> bool:
        """Is *token*, one of :data:`CONSTRUCTOR_KEYWORDS`, used *as* a
        constructor (in front of a ``{``), not as an element name?"""
        follower = self._peek(1)
        if follower.kind is _SYMBOL:
            return follower.value == "{"
        return (token.value in ("element", "attribute") and follower.kind is _NAME
                and self._peek(2).is_symbol("{"))

    def _parse_node_test(self) -> ast.NodeTest:
        token = self._peek()
        if token.is_symbol("*"):
            self._index += 1
            return ast.NodeTest("name", "*")
        name = self._expect_name().value
        if name in KIND_TESTS and self._accept_symbol("("):
            return ast.NodeTest(name, self._parse_kind_test_name())
        return ast.NodeTest("name", name)

    def _parse_predicates(self) -> tuple[ast.Expr, ...]:
        predicates: list[ast.Expr] = []
        while True:
            token = self._peek()
            if token.kind is not _SYMBOL or token.value != "[":
                return tuple(predicates) if predicates else ()
            self._index += 1
            predicates.append(self.parse_expr())
            self._expect_symbol("]")

    # -- primary expressions ---------------------------------------------------------

    def _parse_primary(self, token: Token) -> ast.Expr:
        """The primary expression that starts with *token*, the next one."""
        kind = token.kind
        if kind is _SYMBOL:
            symbol = token.value
            if symbol == "$":
                self._index += 1
                return self._stamp(ast.VarRef(self._expect_name().value), token)
            if symbol == "(":
                self._index += 1
                if self._accept_symbol(")"):
                    return ast.EmptySequence()
                expr = self.parse_expr()
                self._expect_symbol(")")
                return expr
            if symbol == ".":
                self._index += 1
                return ast.ContextItem()
            if symbol == "<":
                return self._parse_direct_constructor()
        elif kind is _NAME:
            if token.value in CONSTRUCTOR_KEYWORDS and self._is_constructor_keyword(token):
                return self._parse_computed_constructor()
            follower = self._peek(1)
            if follower.kind is _SYMBOL and follower.value == "(":
                return self._parse_function_call()
        elif kind is not _EOF:
            self._index += 1
            if kind is _STRING:
                return ast.Literal(token.value)
            return ast.Literal(int(token.value) if kind is TokenKind.INTEGER
                               else float(token.value))
        raise self._error(f"unexpected token {token.value!r}", token)

    def _parse_function_call(self) -> ast.Expr:
        name_token = self._expect_name()
        name = name_token.value
        if name in RESERVED_FUNCTION_NAMES:
            raise self._error(f"'{name}' may not be used as a function name", name_token)
        self._expect_symbol("(")
        args: list[ast.Expr] = []
        if not self._peek().is_symbol(")"):
            while True:
                args.append(self.parse_expr_single())
                if not self._accept_symbol(","):
                    break
        self._expect_symbol(")")
        return self._stamp(ast.FunctionCall(name, tuple(args)), name_token)

    def _parse_computed_constructor(self) -> ast.Expr:
        keyword = self._expect_name().value
        if keyword in ("ordered", "unordered"):
            self._expect_symbol("{")
            body = self.parse_expr()
            self._expect_symbol("}")
            return ast.OrderedExpr(keyword, body)
        name_expr: ast.Expr | None = None
        if keyword in ("element", "attribute"):
            if self._peek().kind == TokenKind.NAME:
                name_expr = ast.Literal(self._advance().value)
            else:
                self._expect_symbol("{")
                name_expr = self.parse_expr()
                self._expect_symbol("}")
        self._expect_symbol("{")
        content: ast.Expr | None = None
        if not self._peek().is_symbol("}"):
            content = self.parse_expr()
        self._expect_symbol("}")
        return ast.ComputedConstructor(kind=keyword, name=name_expr, content=content)

    # -- direct element constructors (character mode) ----------------------------------

    def _parse_direct_constructor(self) -> ast.Expr:
        self._enter_char_mode(self._expect_symbol("<").end)
        return self._parse_direct_element()

    def _char(self, offset: int = 0) -> str:
        return self.lexer.peek_char(offset)

    def _parse_direct_element(self) -> ast.DirectElementConstructor:
        name = self._scan_xml_name()
        attributes: list[ast.AttributeConstructor] = []
        while True:
            self._skip_xml_space()
            char = self._char()
            if char in ("/", ">") or not char:
                break
            attributes.append(self._parse_direct_attribute())
        if self._char() == "/" and self._char(1) == ">":
            self.lexer.pos += 2
            return ast.DirectElementConstructor(name, tuple(attributes), ())
        if self._char() != ">":
            raise self.lexer.error(f"malformed start tag for <{name}>")
        self.lexer.pos += 1
        content = self._parse_direct_content(name)
        return ast.DirectElementConstructor(name, tuple(attributes), tuple(content))

    def _parse_direct_attribute(self) -> ast.AttributeConstructor:
        name = self._scan_xml_name()
        self._skip_xml_space()
        if self._char() != "=":
            raise self.lexer.error(f"expected '=' after attribute '{name}'")
        self.lexer.pos += 1
        self._skip_xml_space()
        quote = self._char()
        if quote not in ('"', "'"):
            raise self.lexer.error("attribute value must be quoted")
        self.lexer.pos += 1
        parts: list[ast.Expr] = []
        buffer: list[str] = []
        while True:
            char = self._char()
            if not char:
                raise self.lexer.error("unterminated attribute value")
            if char == quote:
                self.lexer.pos += 1
                break
            text = self._scan_constructor_text(char)
            if text is not None:
                buffer.append(text)
                continue
            if buffer:
                parts.append(ast.Literal("".join(buffer)))
                buffer = []
            parts.append(self._parse_enclosed_expr())
        if buffer:
            parts.append(ast.Literal("".join(buffer)))
        return ast.AttributeConstructor(name, tuple(parts))

    def _parse_direct_content(self, element_name: str) -> list[ast.Expr]:
        content: list[ast.Expr] = []
        buffer: list[str] = []

        def flush() -> None:
            if buffer:
                text = "".join(buffer)
                buffer.clear()
                if text.strip():
                    content.append(ast.Literal(text))

        while True:
            char = self._char()
            if not char:
                raise self.lexer.error(f"unterminated element constructor <{element_name}>")
            if char == "<" and self._char(1) == "/":
                flush()
                self.lexer.pos += 2
                end_name = self._scan_xml_name()
                if end_name != element_name:
                    raise self.lexer.error(
                        f"mismatched constructor end tag </{end_name}> (expected </{element_name}>)"
                    )
                self._skip_xml_space()
                if self._char() != ">":
                    raise self.lexer.error("malformed constructor end tag")
                self.lexer.pos += 1
                return content
            if char == "<" and self.lexer.text.startswith("<!--", self.lexer.pos):
                flush()
                end = self.lexer.text.find("-->", self.lexer.pos)
                if end < 0:
                    raise self.lexer.error("unterminated comment in constructor")
                self.lexer.pos = end + 3
                continue
            if char == "<":
                flush()
                self.lexer.pos += 1
                content.append(self._parse_direct_element())
                continue
            text = self._scan_constructor_text(char)
            if text is not None:
                buffer.append(text)
                continue
            flush()
            content.append(self._parse_enclosed_expr())

    def _scan_constructor_text(self, char: str) -> str | None:
        """The text that *char*, the next character of an attribute value or
        of element content, stands for — itself, ``{{``/``}}`` for a brace,
        an entity reference — or ``None`` at the ``{`` of an enclosed expression."""
        if char in "{}" and self._char(1) == char:
            self.lexer.pos += 2
        elif char == "{":
            return None
        elif char == "&":
            return self.lexer.scan_entity_reference(" in constructor")
        else:
            self.lexer.pos += 1
        return char

    def _parse_enclosed_expr(self) -> ast.Expr:
        # positioned at '{': switch to token mode for the enclosed expression
        self._enter_char_mode(self.lexer.pos + 1)
        expr = self.parse_expr()
        closing = self._expect_symbol("}")
        self._enter_char_mode(closing.end)
        return expr

    def _scan_xml_name(self) -> str:
        start = self.lexer.pos
        char = self._char()
        if not (char.isalpha() or char in "_:"):
            raise self.lexer.error("expected a name in element constructor")
        self.lexer.pos += 1
        while self._char() and (self._char().isalnum() or self._char() in "_:-."):
            self.lexer.pos += 1
        return self.lexer.text[start:self.lexer.pos]

    def _skip_xml_space(self) -> None:
        while self._char() in " \t\r\n" and self._char():
            self.lexer.pos += 1


#: Expression keywords → the symbol that must follow, and the method to call.
_KEYWORD_EXPRESSIONS = {
    "for": ("$", Parser._parse_flwor), "let": ("$", Parser._parse_flwor),
    "some": ("$", Parser._parse_quantified), "every": ("$", Parser._parse_quantified),
    "typeswitch": ("(", Parser._parse_typeswitch), "if": ("(", Parser._parse_if),
    "with": ("$", Parser._parse_with),
}


def _starts_step(token: Token) -> bool:
    """Can a step start with *token* (else a ``/`` in front of it stands alone)?"""
    if token.kind is _SYMBOL:
        return token.value in ("$", "(", ".", "..", "@", "*", "<")
    return token.kind is not _EOF


# ---------------------------------------------------------------------------
# public helpers
# ---------------------------------------------------------------------------


def parse_query(text: str) -> ast.Module:
    """Parse a complete query (prolog + body) into a :class:`~repro.xquery.ast.Module`."""
    return Parser(text).parse_module()


def parse_expression(text: str) -> ast.Expr:
    """Parse a single expression (no prolog)."""
    parser = Parser(text)
    expr = parser.parse_expr()
    trailing = parser._peek()
    if trailing.kind != TokenKind.EOF:
        raise parser._error(f"unexpected content after expression: {trailing.value!r}", trailing)
    return expr
