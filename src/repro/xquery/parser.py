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

The parser builds the AST bottom-up, and it is the only pass a new text
gets before the module-level rewrites (:mod:`repro.xquery.optimizer`):

* asked to optimize (``parse_query(text, optimize=True)``), it applies the
  local rewrites of :data:`~repro.xquery.optimizer.RULES` to each node as
  it builds it — a node whose children are built, hence optimized, which is
  the order :func:`~repro.xquery.optimizer.optimize` keeps;
* either way it notes what later stages would otherwise walk the tree for
  (DESIGN.md §13): on the module (:class:`TextFacts`) the gates of the
  hoisting and set-at-a-time rules, and per scope the references the
  scope check resolves — of the text *as written*, so a rewrite cannot
  hide a static error — and the ``with`` sites; on each ``with`` body its
  memo key and calls (:meth:`Parser._key_body`).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import XQuerySyntaxError
from repro.xquery import ast
from repro.xquery.lexer import Lexer
from repro.xquery.optimizer import RULES
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


class TextFacts(NamedTuple):
    """What the parser notes about a module's text as written, kept on the
    module (``module._front``; ``None`` on a module it did not build).

    * ``optimized`` — the local rewrites were applied while building;
    * ``found``, ``saw_for``, ``saw_with`` — the gates of the hoisting and
      set-at-a-time rules (:func:`~repro.xquery.optimizer.optimize_module`):
      a loop reads a variable bound outside it or calls ``doc()`` (an
      over-approximation: shadowing and types are not tracked), the text
      has a ``for``, it has a ``with``;
    * ``functions``, ``variables`` — the prolog declarations as written;
    * ``references`` — per scope of the scope check (each variable
      initializer, each function body, the query body, in that order) the
      variable references bound nowhere in it and the function calls, in
      document order;
    * ``sites`` — per scope, each ``with`` in it (in document order) with
      the bindings in scope there, outermost first, as ``(name, value)``
      (:meth:`Parser._binding`); ``None`` for a scope in which a rewrite
      dropped a part (:func:`~repro.xquery.optimizer.optimize_module`
      keeps them aligned with the scopes of the module it returns);
    * ``rebinds_prolog`` — a binding or a parameter somewhere reuses the
      name of a prolog variable.
    """

    optimized: bool
    found: bool
    saw_for: bool
    saw_with: bool
    functions: tuple[ast.FunctionDecl, ...]
    variables: tuple[ast.VariableDecl, ...]
    references: tuple[tuple[ast.Expr, ...], ...]
    sites: tuple[tuple | None, ...]
    rebinds_prolog: bool


class Parser:
    """Parses one query module (prolog + body expression); *optimize*
    applies the local rewrites while building."""

    def __init__(self, text: str, optimize: bool = False):
        self.lexer = Lexer(text)
        #: The tokens lexed so far and the cursor into them.  The list is
        #: filled a run at a time (:meth:`Lexer.tokens_ahead`); what lies at
        #: or after the cursor is look-ahead.
        self._tokens: list[Token] = []
        self._index = 0
        self._one_line = "\n" not in text
        self._rules = RULES if optimize else {}
        #: The ``//`` fusion, the one rewrite of a path (it drops nothing).
        self._fuse = self._rules.get(ast.PathExpr)
        #: Loop depth (a function body is one deep), each ``let`` variable's
        #: lowest depth, the names read below depth 0, whether a loop read
        #: an outer variable or called ``doc()`` — the hoisting gate.
        self._depth = 0
        self._lets: dict[str, int] = {}
        self._deep: set[str] = set()
        self._found = self._saw_for = self._saw_with = False
        #: The bindings in scope where the parser is (each with the level its
        #: name had before, and its value), the level of each name bound
        #: there, every name bound anywhere, and the references and the
        #: ``with`` sites of the scope being parsed (:class:`TextFacts`).
        self._scope: list[tuple[str, int | None, object]] = []
        self._levels: dict[str, int] = {}
        self._bound: set[str] = set()
        self._refs: list = []
        self._sites: list = []
        #: Each variable name in the ``with`` bodies being parsed (their
        #: count) — ``(start, end, level)``, the level ``None`` where it is
        #: bound nowhere in scope — and the count of rewrites so far that
        #: dropped a part (a call, a binding, a ``with`` may go with it).
        self._bodies = 0
        self._names: list[tuple[int, int, int | None]] = []
        self._opaque = 0

    # ------------------------------------------------------------------ token plumbing

    def _peek(self, offset: int = 0) -> Token:
        try:
            return self._tokens[self._index + offset]
        except IndexError:
            tokens = self._tokens
            while self._index + offset >= len(tokens):
                tokens += self.lexer.tokens_ahead() or (self.lexer.next_token(),)
            return tokens[self._index + offset]

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
        start = token.start
        if self._one_line:
            ast.set_position(node, 1, start + 1)
        else:
            text = self.lexer.text
            ast.set_position(node, text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start))
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

    def _rewritten(self, node: ast.Expr) -> ast.Expr:
        """*node*, just built, with its local rewrite applied when optimizing
        (and counted in :attr:`_opaque` if it dropped a part)."""
        rule = self._rules.get(type(node))
        if rule is None:
            return node
        result = rule(node)
        if result is not node and type(node) in _DROPPING:
            self._opaque += 1
        return result

    def _path(self, left: ast.Expr, right: ast.Expr) -> ast.Expr:
        """``left/right``, fused if it is the second half of a ``//``."""
        path = ast.PathExpr(left, right)
        return path if self._fuse is None else self._fuse(path)

    def _binding(self, token: Token, value: ast.Expr | bool | None = None) -> None:
        """The variable *token* names is bound from here to the end of the
        construct being parsed (:meth:`_unbind`), to *value*: a ``let``'s
        expression, ``True`` for one item of a ``for``, ``None`` for any."""
        name = token.value
        self._scope.append((name, self._levels.get(name), value))
        self._levels[name] = level = len(self._scope) - 1
        self._bound.add(name)
        if self._bodies:
            self._names.append((token.start, token.end, level))

    def _unbind(self, mark: int) -> None:
        """Leave the bindings made since the scope had *mark* entries."""
        scope, levels = self._scope, self._levels
        while len(scope) > mark:
            name, previous, _ = scope.pop()
            if previous is None:
                del levels[name]
            else:
                levels[name] = previous

    # ------------------------------------------------------------------ module / prolog

    def parse_module(self) -> ast.Module:
        functions: list[ast.FunctionDecl] = []
        variables: list[ast.VariableDecl] = []
        function_scopes: list[tuple] = []
        variable_scopes: list[tuple] = []
        while self._peek().is_name("declare"):
            keyword = self._peek(1)
            self._refs, self._sites, opaque = [], [], self._opaque
            if keyword.is_name("function"):
                functions.append(self._parse_function_decl())
                function_scopes.append(self._scope_facts(opaque))
            elif keyword.is_name("variable"):
                variables.append(self._parse_variable_decl())
                variable_scopes.append(self._scope_facts(opaque))
            else:
                raise self._error(
                    f"unsupported declaration 'declare {keyword.value}'", keyword
                )
        self._refs, self._sites, opaque = [], [], self._opaque
        body = self.parse_expr()
        end = self._peek()
        if end.kind != TokenKind.EOF:
            raise self._error(f"unexpected content after query body: {end.value!r}", end)
        module = ast.Module(functions=tuple(functions), variables=tuple(variables), body=body)
        prolog = {declaration.name for declaration in variables if declaration.value is not None}
        references, sites = zip(*variable_scopes, *function_scopes, self._scope_facts(opaque))
        object.__setattr__(module, "_front", TextFacts(
            bool(self._rules), self._found or not self._deep.isdisjoint(prolog),
            self._saw_for, self._saw_with, module.functions, module.variables,
            references, sites,
            not self._bound.isdisjoint([declaration.name for declaration in variables])))
        return module

    def _scope_facts(self, opaque: int) -> tuple[tuple, tuple | None]:
        """The references and ``with`` sites of the scope just parsed; its
        sites only if no rewrite dropped a part of it (the count was *opaque*
        when it began)."""
        return tuple(self._refs), tuple(self._sites) if self._opaque == opaque else None

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
                param_token = self._expect_name()
                declared_type = None
                if self._accept_name("as"):
                    declared_type = self._parse_sequence_type()
                params.append(ast.Param(param_token.value, declared_type))
                self._binding(param_token)
                if not self._accept_symbol(","):
                    break
        self._expect_symbol(")")
        return_type = None
        if self._accept_name("as"):
            return_type = self._parse_sequence_type()
        self._expect_symbol("{")
        self._depth = 1  # a function body runs once per call: a loop body as a whole
        body = self.parse_expr()
        self._depth = 0
        self._unbind(0)
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
        depth, scope = self._depth, len(self._scope)
        while True:
            keyword = self._peek()
            if not (keyword.is_name("for", "let") and self._peek(1).is_symbol("$")):
                break
            self._advance()
            while True:
                self._expect_symbol("$")
                var_token = self._expect_name()
                var = var_token.value
                position_var = None
                if keyword.value == "let":
                    self._expect_symbol(":=")
                    self._lets[var] = min(self._depth, self._lets.get(var, self._depth))
                    clauses.append(("let", var_token, None, self.parse_expr_single()))
                else:
                    position_token = None
                    if self._accept_name("at"):
                        self._expect_symbol("$")
                        position_token = self._expect_name()
                        position_var = position_token.value
                    self._expect_name("in")
                    self._saw_for = True
                    clauses.append(("for", var_token, position_var, self.parse_expr_single()))
                    self._depth += 1  # the clauses behind it run per item
                    if position_token is not None:
                        self._binding(position_token, True)
                self._binding(var_token, clauses[-1][3] if keyword.value == "let" else True)
                if not self._accept_symbol(","):
                    break
        where: ast.Expr | None = None
        if self._accept_name("where"):
            where = self.parse_expr_single()
        if self._peek().is_name("order") or self._peek().is_name("stable"):
            raise self._error("'order by' is not supported by this XQuery subset")
        self._expect_name("return")
        body = self.parse_expr_single()
        self._depth = depth
        self._unbind(scope)
        if where is not None:
            body = self._rewritten(ast.IfExpr(where, body, ast.EmptySequence()))
        for kind, var_token, position_var, expr in reversed(clauses):
            if kind == "for":
                body = self._stamp(ast.ForExpr(var=var_token.value, sequence=expr, body=body,
                                               position_var=position_var), var_token)
            else:
                body = self._rewritten(self._stamp(
                    ast.LetExpr(var=var_token.value, value=expr, body=body), var_token))
        return body

    def _parse_quantified(self) -> ast.Expr:
        quantifier = self._expect_name("some", "every").value
        bindings: list[tuple[str, ast.Expr]] = []
        depth, scope = self._depth, len(self._scope)
        while True:
            self._expect_symbol("$")
            var_token = self._expect_name()
            self._expect_name("in")
            sequence = self.parse_expr_single()
            bindings.append((var_token.value, sequence))
            self._depth += 1
            self._binding(var_token)
            if not self._accept_symbol(","):
                break
        self._expect_name("satisfies")
        satisfies = self.parse_expr_single()
        self._depth = depth
        self._unbind(scope)
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
            scope = len(self._scope)
            if self._peek().is_symbol("$"):
                self._advance()
                case_token = self._expect_name()
                case_var = case_token.value
                self._expect_name("as")
                self._binding(case_token)
            sequence_type = self._parse_sequence_type()
            self._expect_name("return")
            body = self.parse_expr_single()
            self._unbind(scope)
            cases.append(ast.TypeswitchCase(sequence_type=sequence_type, body=body, var=case_var))
        if not cases:
            raise self._error("typeswitch requires at least one case clause")
        self._expect_name("default")
        default_var = None
        scope = len(self._scope)
        if self._peek().is_symbol("$"):
            self._advance()
            default_token = self._expect_name()
            default_var = default_token.value
            self._binding(default_token)
        self._expect_name("return")
        default = self.parse_expr_single()
        self._unbind(scope)
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
        return self._rewritten(ast.IfExpr(condition, then_branch, else_branch))

    def _parse_with(self) -> ast.Expr:
        with_token = self._expect_name("with")
        site = len(self._sites)
        self._sites.append(tuple([(name, value) for name, _, value in self._scope]))
        self._expect_symbol("$")
        var_token = self._expect_name()
        var = var_token.value
        self._expect_name("seeded")
        self._expect_name("by")
        seed = self.parse_expr_single()
        self._expect_name("recurse")
        self._saw_with = True
        self._depth += 1
        base = len(self._scope)
        self._binding(var_token)
        start, names, refs, opaque = (self._peek().start, len(self._names), len(self._refs),
                                      self._opaque)
        self._bodies += 1
        body = self.parse_expr_single()
        self._bodies -= 1
        self._depth -= 1
        self._unbind(base)
        if self._opaque == opaque:
            self._key_body(body, var, base, start, names, refs)
        if not self._bodies:
            del self._names[:]
        algorithm = "auto"
        if self._peek().is_name("using"):
            self._advance()
            algorithm = self._expect_name("naive", "delta", "auto").value
        expr = self._stamp(
            ast.WithExpr(var=var, seed=seed, body=body, algorithm=algorithm), with_token)
        self._sites[site] = (expr, self._sites[site])
        return expr

    def _key_body(self, body: ast.Expr, var: str, base: int, start: int,
                  names: int, refs: int) -> None:
        """Note on *body*, the ``recurse`` body of ``$var`` just built from
        the text from *start* on, its key and its calls
        (:func:`repro.xquery.pushdown.recognize_step_relation` reads them):
        the text as written with each variable it binds written by its
        binding position — ``$var``, at level *base*, as ``$#x`` and each
        binding inside as ``#`` and its level above *base*, so α-variants
        share the key — and the calls it makes.  (Only when no rewrite
        dropped a part of the body.)"""
        text = self.lexer.text
        pieces, last = [], start
        for first, end, level in sorted(self._names[names:]):  # (a binder comes last)
            if level is not None and level >= base:
                pieces += (text[last:first], f"#{level - base if level > base else 'x'}")
                last = end
        pieces.append(text[last:self._tokens[self._index - 1].end])
        # (the body itself, if a call, is left out: a node that held itself
        # would outlive its module until the cycle collector came by)
        calls = tuple([ref for ref in self._refs[refs:]
                       if type(ref) is ast.FunctionCall and ref is not body])
        object.__setattr__(body, "_noted", (var, "".join(pieces), calls))

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
                rule = self._rules.get(node)
                if rule is not None:
                    left = rule(left)
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
                return self._rewritten(ast.UnaryExpr(value, self._parse_unary(self._peek())))
            if value == "//":
                self._index += 1
                return self._parse_relative_path(self._path(
                    ast.RootExpr(), ast.AxisStep("descendant-or-self", ast.NodeTest("node"))),
                    self._peek())
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
            expr = self._path(left, expr)
        while True:
            token = self._peek()
            if token.kind is not _SYMBOL:
                return expr
            if token.value == "/":
                self._index += 1
                expr = self._path(expr, self._parse_step(self._peek()))
            elif token.value == "//":
                self._index += 1
                expr = self._path(expr, ast.AxisStep("descendant-or-self", ast.NodeTest("node")))
                expr = self._path(expr, self._parse_step(self._peek()))
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
                name_token = self._expect_name()
                ref = self._stamp(ast.VarRef(name_token.value), token)
                name, depth = ref.name, self._depth
                level = self._levels.get(name)
                if self._bodies:
                    self._names.append((name_token.start, name_token.end, level))
                if level is None:
                    self._refs.append(ref)
                if depth:
                    if self._lets.get(name, depth) < depth:
                        self._found = True
                    else:
                        self._deep.add(name)
                return ref
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
        if self._depth and name in ("doc", "fn:doc"):
            self._found = True
        refs = self._refs
        slot = len(refs)
        refs.append(None)  # (the call comes before its arguments)
        self._expect_symbol("(")
        args: list[ast.Expr] = []
        if not self._peek().is_symbol(")"):
            while True:
                args.append(self.parse_expr_single())
                if not self._accept_symbol(","):
                    break
        self._expect_symbol(")")
        refs[slot] = self._stamp(ast.FunctionCall(name, tuple(args)), name_token)
        return refs[slot]

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


#: The rewrites that may drop a part of what they rewrite (a dead branch, an
#: unused ``let``): what the parser noted inside it may be gone.
_DROPPING = frozenset({ast.IfExpr, ast.LetExpr})

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


def parse_query(text: str, optimize: bool = False) -> ast.Module:
    """Parse a complete query (prolog + body) into a :class:`~repro.xquery.ast.Module`,
    with the local rewrites applied if *optimize* (then hand it to
    :func:`~repro.xquery.optimizer.optimize_module` for the rest)."""
    return Parser(text, optimize).parse_module()


def parse_expression(text: str) -> ast.Expr:
    """Parse a single expression (no prolog)."""
    parser = Parser(text)
    expr = parser.parse_expr()
    trailing = parser._peek()
    if trailing.kind != TokenKind.EOF:
        raise parser._error(f"unexpected content after expression: {trailing.value!r}", trailing)
    return expr
