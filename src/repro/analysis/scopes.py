"""Binding/scope resolution: the first static-analysis pass.

Reports, for a :class:`~repro.xquery.ast.Module` and *before any engine
runs*:

* references to variables bound nowhere in scope
  (:class:`~repro.errors.UndefinedVariableError`, ``XPST0008``);
* calls to functions that are neither declared in the prolog nor built in
  (:class:`~repro.errors.UndefinedFunctionError`, ``XPST0017``);
* calls to known functions with an argument count they do not accept
  (:class:`~repro.errors.WrongArityError`, ``XPST0017``);
* duplicate prolog declarations
  (:class:`~repro.errors.DuplicateDeclarationError`).

Scoping mirrors the runtime exactly: prolog variable initializers see the
caller-supplied bindings plus previously declared variables (declarations
evaluate in order); function bodies see their parameters plus every global
(functions only run after the prolog is bound); the query body sees
everything.

The findings describe the query *as written*: a module the parser built
carries, per scope, the references it found bound nowhere in that scope and
the calls (:class:`~repro.xquery.parser.TextFacts`), which this pass
resolves against the declarations as written — no walk, and nothing the
optimizer deleted (a dead branch, an unused function) escapes the check.
Any other module is walked for the same references (:func:`references_of`);
the walk reads :data:`~repro.xquery.ast.SCOPED_FIELDS`, the child fields of
each node class with the names :data:`~repro.xquery.ast.BINDERS` says it
binds in each — so a new AST node cannot silently bypass scope checking.
"""

from __future__ import annotations

from repro.errors import (
    DuplicateDeclarationError,
    UndefinedFunctionError,
    UndefinedVariableError,
    WrongArityError,
    XQueryStaticError,
)
from repro.xquery import ast
from repro.xquery.functions import builtin_arity_range, lookup_builtin

from repro.analysis.report import AnalysisDiagnostic


def check_scopes(module: ast.Module,
                 bound_variables: frozenset[str] = frozenset()
                 ) -> tuple[AnalysisDiagnostic, ...]:
    """All scope diagnostics of *module* under caller bindings *bound_variables*."""
    written = module._front or module
    references = written.references if module._front else (
        *(references_of(decl.value) if decl.value is not None else ()
          for decl in module.variables),
        *(references_of(function.body, frozenset(p.name for p in function.params))
          for function in module.functions), references_of(module.body))
    checker = _ScopeChecker(written.functions, written.variables)
    checker.run(references, bound_variables)
    return tuple(checker.diagnostics)


def references_of(expr: ast.Expr, bound: frozenset[str] = frozenset(),
                  found: list | None = None) -> list[ast.Expr]:
    """The variable references in *expr* bound neither in it nor in *bound*,
    and its calls, in document order: what the parser notes per scope."""
    found = [] if found is None else found
    if type(expr) is ast.VarRef:
        if expr.name not in bound:
            found.append(expr)
    elif type(expr) is ast.FunctionCall:
        found.append(expr)
    for name, is_tuple, binders in ast.SCOPED_FIELDS[type(expr)]:
        value = getattr(expr, name)
        if value is not None:
            scope = bound | ast.bound_names(expr, binders) if binders else bound
            for child in value if is_tuple else (value,):
                references_of(child, scope, found)
    return found


def _position(node: object) -> tuple[int | None, int | None]:
    position = ast.get_position(node)
    if position is None:
        return None, None
    return position


class _ScopeChecker:
    def __init__(self, functions: tuple[ast.FunctionDecl, ...],
                 variables: tuple[ast.VariableDecl, ...]):
        self.declared_functions, self.declared_variables = functions, variables
        self.functions = {(f.name, f.arity) for f in functions}
        self.function_arities: dict[str, set[int]] = {}
        for name, arity in self.functions:
            self.function_arities.setdefault(name, set()).add(arity)
        self.diagnostics: list[AnalysisDiagnostic] = []

    def run(self, references, bound_variables: frozenset[str]) -> None:
        """Resolve the *references* of each scope, in the order of
        :class:`~repro.xquery.parser.TextFacts`: an initializer sees the
        variables declared before it, a function body and the query body
        all of them."""
        self._check_duplicates()
        in_scope = set(bound_variables)
        scopes = iter(references)
        for declaration, found in zip(self.declared_variables, scopes):
            self._resolve(found, in_scope)
            in_scope.add(declaration.name)
        for found in scopes:  # the function bodies, then the query body
            self._resolve(found, in_scope)

    def _resolve(self, references, in_scope) -> None:
        for expr in references:
            if type(expr) is ast.FunctionCall:
                self._check_call(expr)
            elif expr.name not in in_scope:
                line, column = _position(expr)
                self._report(UndefinedVariableError(expr.name, line, column),
                             rule="undefined-variable")

    # -- diagnostics ---------------------------------------------------------

    def _report(self, error: XQueryStaticError, rule: str) -> None:
        self.diagnostics.append(AnalysisDiagnostic(
            severity="error", code=error.code, rule=rule,
            message=getattr(error, "plain_message", error.bare_message),
            line=getattr(error, "line", None),
            column=getattr(error, "column", None), error=error))

    def _check_duplicates(self) -> None:
        seen_functions: set[tuple[str, int]] = set()
        for function in self.declared_functions:
            key = (function.name, function.arity)
            if key in seen_functions:
                line, column = _position(function)
                self._report(
                    DuplicateDeclarationError(
                        "function", f"{function.name}#{function.arity}",
                        line, column),
                    rule="duplicate-function")
            seen_functions.add(key)
        seen_variables: set[str] = set()
        for declaration in self.declared_variables:
            if declaration.name in seen_variables:
                line, column = _position(declaration)
                self._report(
                    DuplicateDeclarationError(
                        "variable", f"${declaration.name}", line, column),
                    rule="duplicate-variable")
            seen_variables.add(declaration.name)

    def _check_call(self, call: ast.FunctionCall) -> None:
        arity = len(call.args)
        if (call.name, arity) in self.functions:
            return
        if lookup_builtin(call.name, arity) is not None:
            return
        line, column = _position(call)
        declared = self.function_arities.get(call.name)
        if declared:
            expected = " or ".join(str(n) for n in sorted(declared))
            self._report(WrongArityError(call.name, arity, expected, line, column),
                         rule="wrong-arity")
            return
        builtin_range = builtin_arity_range(call.name)
        if builtin_range is not None:
            low, high = builtin_range
            expected = str(low) if low == high else f"{low}..{high}"
            self._report(WrongArityError(call.name, arity, expected, line, column),
                         rule="wrong-arity")
            return
        self._report(UndefinedFunctionError(call.name, arity, line, column),
                     rule="undefined-function")


__all__ = ["check_scopes"]
