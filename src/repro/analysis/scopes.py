"""Binding/scope resolution: the first static-analysis pass.

Walks a parsed :class:`~repro.xquery.ast.Module` with a symbol table and
reports, *before any engine runs*:

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
everything.  The walk reads :data:`~repro.xquery.ast.SCOPED_FIELDS`, the
child fields of each node class with the names
:data:`~repro.xquery.ast.BINDERS` says it binds in each — so a new AST node
cannot silently bypass scope checking.
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
    checker = _ScopeChecker(module, bound_variables)
    checker.run()
    return tuple(checker.diagnostics)


def _position(node: object) -> tuple[int | None, int | None]:
    position = ast.get_position(node)
    if position is None:
        return None, None
    return position


class _ScopeChecker:
    def __init__(self, module: ast.Module, bound_variables: frozenset[str]):
        self.module = module
        self.bound_variables = bound_variables
        self.functions = module.function_map()
        self.function_arities: dict[str, set[int]] = {}
        for name, arity in self.functions:
            self.function_arities.setdefault(name, set()).add(arity)
        self.diagnostics: list[AnalysisDiagnostic] = []

    def run(self) -> None:
        self._check_duplicates()
        globals_so_far = set(self.bound_variables)
        for declaration in self.module.variables:
            if declaration.value is not None:
                self._walk(declaration.value, frozenset(globals_so_far))
            globals_so_far.add(declaration.name)
        all_globals = frozenset(globals_so_far)
        for function in self.module.functions:
            params = frozenset(param.name for param in function.params)
            self._walk(function.body, all_globals | params)
        self._walk(self.module.body, all_globals)

    # -- diagnostics ---------------------------------------------------------

    def _report(self, error: XQueryStaticError, rule: str) -> None:
        self.diagnostics.append(AnalysisDiagnostic(
            severity="error", code=error.code, rule=rule,
            message=getattr(error, "plain_message", error.bare_message),
            line=getattr(error, "line", None),
            column=getattr(error, "column", None), error=error))

    def _check_duplicates(self) -> None:
        seen_functions: set[tuple[str, int]] = set()
        for function in self.module.functions:
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
        for declaration in self.module.variables:
            if declaration.name in seen_variables:
                line, column = _position(declaration)
                self._report(
                    DuplicateDeclarationError(
                        "variable", f"${declaration.name}", line, column),
                    rule="duplicate-variable")
            seen_variables.add(declaration.name)

    # -- the walk ------------------------------------------------------------

    def _walk(self, expr: ast.Expr, env: frozenset[str]) -> None:
        if isinstance(expr, ast.VarRef):
            if expr.name not in env:
                line, column = _position(expr)
                self._report(UndefinedVariableError(expr.name, line, column),
                             rule="undefined-variable")
        elif isinstance(expr, ast.FunctionCall):
            self._check_call(expr)
        for name, is_tuple, binders in ast.SCOPED_FIELDS[type(expr)]:
            value = getattr(expr, name)
            if value is None:
                continue
            scope = env | ast.bound_names(expr, binders) if binders else env
            for child in value if is_tuple else (value,):
                self._walk(child, scope)

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
