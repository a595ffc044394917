"""The front end as it was before the parser built the optimized AST:
verbatim copies, kept as oracles for ``tests/test_one_pass_front_end.py``
(and the rule-table test of ``tests/test_optimizer_rewrites.py``).

* :func:`previous_optimize_module` — the ``_Scout``-driven module pass: one
  rebuilding walk that applied the local rewrites and noted the hoisting
  and set-at-a-time gates, then the module-level steps;
* :func:`previous_check_scopes` and :func:`previous_analyze_module` — the
  scope walk and the fixpoint-site walk, run on whatever module they get;
* :func:`previous_recognize_step_relation` — the recognizer whose memo key
  was the body rebuilt by ``substitute_variable``.

Only the names they use from the modules they lived in are qualified.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Mapping
from dataclasses import replace

from repro.analysis import cardinality as card
from repro.analysis.distributivity import analyze_distributivity_static
from repro.analysis.report import AnalysisDiagnostic, AnalysisReport, FixpointFact
from repro.errors import (
    DuplicateDeclarationError,
    UndefinedFunctionError,
    UndefinedVariableError,
    WrongArityError,
    XQueryStaticError,
)
from repro.xdm.index import StepRelation
from repro.xquery import ast, optimizer, pushdown
from repro.xquery.functions import builtin_arity_range, lookup_builtin


def previous_optimize_module(module: ast.Module, hoist: bool = True) -> ast.Module:
    """Optimize every function body, variable initializer and the query body,
    drop function declarations the call graph cannot reach, then hoist the
    invariants of what is left (*hoist* false leaves that rule out: the
    baseline of the overhead guard in ``benchmarks/check_overhead.py``).

    Pruning comes first: an invariant inside a function nothing calls must
    not become a prolog variable every engine evaluates eagerly.  Hoisted
    expressions never call a declared function, so hoisting cannot change
    what is reachable.

    Everything hoistable bottoms out in a prolog variable — directly, or as
    the proof that a ``doc()`` call succeeds.  A module without one has
    nothing to look for; every module is optimized by a :class:`_Scout`,
    which notes on the way whether the rule's own walk could find anything,
    and whether the module has a ``for`` and a ``with`` — without both, no
    loop can be set-at-a-time and the last step (:func:`_set_at_a_time`)
    does not walk either."""
    #: prolog variables with a value, each bound at loop depth 0
    prolog = {decl.name: 0 for decl in module.variables if decl.value is not None}
    scout = _Scout(prolog)
    scout.depth = 1  # a function body runs once per call: a loop body as a whole
    functions = tuple(
        replace(function, body=scout.visit(function.body)) for function in module.functions
    )
    scout.depth = 0  # initializers and the query body run once
    variables = tuple(
        replace(decl, value=scout.visit(decl.value)) if decl.value is not None else decl
        for decl in module.variables
    )
    body = scout.visit(module.body)
    set_loops = scout.saw_for and scout.saw_with
    if functions or set_loops:
        graph = optimizer._CallGraph(functions, variables, body)
        functions = graph.reachable(functions)
    if hoist and prolog and scout.found:
        functions, variables, body = optimizer._Hoister(functions, variables).run(body)
    if set_loops:
        functions, variables, body = optimizer._set_at_a_time(graph, functions, variables, body)
    return ast.Module(functions=functions, variables=variables, body=body)


#: Loop forms: the field evaluated once, the one evaluated per iteration or round.
_LOOP_FIELDS = {ast.ForExpr: ("sequence", "body"), ast.WithExpr: ("seed", "body"),
                ast.QuantifiedExpr: ("sequence", "satisfies")}


class _Scout:
    """:func:`optimize` over a module's function and query bodies that also
    answers, without a walk of its own, whether the hoisting rule has
    anything to look for — so that a module with prolog variables but no
    invariant in any loop pays (almost) nothing for the rule.

    A hoistable expression reads a variable bound outside the loop it sits
    in (a prolog variable, or a ``let`` further out) or calls ``doc()``.  The
    scout keeps the loop depth while it optimizes and sets :attr:`found` at
    the first such read.  It over-approximates (it does not track shadowing
    or types, and sees branches the rewrites then delete): a false alarm
    costs the hoister's walk, a miss would only cost a hoist.  It also notes
    whether it met a ``for`` and a ``with`` (:attr:`saw_for`,
    :attr:`saw_with`), the gate of :func:`_set_at_a_time`.
    """

    __slots__ = ("bound", "depth", "found", "saw_for", "saw_with")

    def __init__(self, bound: dict[str, int]):
        #: variable name → the lowest loop depth it is bound at
        self.bound = bound
        self.depth = 0
        self.found = False
        self.saw_for = False
        self.saw_with = False

    def visit(self, expr: ast.Expr) -> ast.Expr:
        """:func:`optimize` of *expr*, noting what is read at which depth."""
        kind = type(expr)
        if kind in optimizer._LEAVES:
            if kind is ast.VarRef:
                depth = self.depth
                if depth and depth > self.bound.get(expr.name, depth):
                    self.found = True
            return expr
        if kind not in _SCOUTED:
            expr = ast.map_children(expr, self.visit)
        elif kind is ast.LetExpr:
            self.bound[expr.var] = min(self.depth, self.bound.get(expr.var, self.depth))
            expr = ast.map_children(expr, self.visit)
        elif kind is ast.FunctionCall:
            if self.depth and optimizer._local_name(expr) == "doc":
                self.found = True
            expr = ast.map_children(expr, self.visit)
        else:
            if kind is ast.ForExpr:
                self.saw_for = True
            elif kind is ast.WithExpr:
                self.saw_with = True
            # the sequence or seed runs once, at this depth; the body deeper
            once, repeated = _LOOP_FIELDS[kind]
            head, body = getattr(expr, once), getattr(expr, repeated)
            new_head = self.visit(head)
            self.depth += 1
            new_body = self.visit(body)
            self.depth -= 1
            if new_head is not head or new_body is not body:
                expr = replace(expr, **{once: new_head, repeated: new_body})
        rule = optimizer.RULES.get(kind)
        return expr if rule is None else rule(expr)


#: The inner nodes a :class:`_Scout` looks at.
_SCOUTED = frozenset({ast.LetExpr, ast.FunctionCall, *_LOOP_FIELDS})


def previous_check_scopes(module: ast.Module,
                 bound_variables: frozenset[str] = frozenset()
                 ) -> tuple[AnalysisDiagnostic, ...]:
    """All scope diagnostics of *module* under caller bindings *bound_variables*."""
    checker = _ScopeChecker(module, bound_variables)
    checker.run()
    return tuple(checker.diagnostics)



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


def _position(node: object) -> tuple[int | None, int | None]:
    position = ast.get_position(node)
    if position is None:
        return None, None
    return position


def _fixpoint_sites(module: ast.Module,
                    environment: Mapping[str, card.Cardinality]
                    ) -> list[tuple[ast.WithExpr, dict[str, card.Cardinality]]]:
    """Every ``with`` expression of the module, paired with the variable
    cardinalities in scope at its position.

    Bindings introduced between the module root and the site (``for``/
    ``let`` variables) are tracked with their inferred classes; a ``for``
    variable is always ONE, which is what makes seeds like
    ``for $c in ... with $x seeded by $c ...`` provably non-empty.
    """
    sites: list[tuple[ast.WithExpr, dict[str, card.Cardinality]]] = []

    def walk(expr: ast.Expr, env: dict[str, card.Cardinality]) -> None:
        if isinstance(expr, ast.WithExpr):
            sites.append((expr, dict(env)))
        if isinstance(expr, ast.ForExpr):
            walk(expr.sequence, env)
            bound = dict(env)
            bound[expr.var] = card.ONE
            if expr.position_var:
                bound[expr.position_var] = card.ONE
            walk(expr.body, bound)
            return
        if isinstance(expr, ast.LetExpr):
            walk(expr.value, env)
            bound = dict(env)
            bound[expr.var] = card.infer_cardinality(expr.value, env)
            walk(expr.body, bound)
            return
        for field, is_tuple, binders in ast.SCOPED_FIELDS[type(expr)]:
            value = getattr(expr, field)
            if value is None:
                continue
            child_env = env
            if binders:  # rebinding shadows any outer bound for this subtree
                child_env = {**env, **dict.fromkeys(ast.bound_names(expr, binders), card.STAR)}
            for child in value if is_tuple else (value,):
                walk(child, child_env)

    base = dict(environment)
    for declaration in module.variables:
        if declaration.value is not None:
            walk(declaration.value, base)
    for function in module.functions:
        env = dict(base)
        for param in function.params:
            env[param.name] = card.STAR
        walk(function.body, env)
    walk(module.body, base)
    return sites


def previous_analyze_module(module: ast.Module,
                   bound_variables: Iterable[str] = ()) -> AnalysisReport:
    """Run every static pass over *module*.

    *bound_variables* are names the caller will bind at evaluation time
    (``evaluate(..., variables={...})``) — they are in scope everywhere,
    exactly as the runtime binds them before the prolog runs.
    """
    bound = frozenset(bound_variables)
    findings = previous_check_scopes(module, bound)

    environment: dict[str, card.Cardinality] = {name: card.STAR for name in bound}
    for declaration in module.variables:
        if declaration.value is not None:
            environment[declaration.name] = card.infer_cardinality(
                declaration.value, environment)
        else:
            environment[declaration.name] = card.STAR
    body_cardinality = card.infer_cardinality(module.body, environment)

    functions = module.function_map()
    fixpoints: list[FixpointFact] = []
    for site, env in _fixpoint_sites(module, environment):
        judgment = analyze_distributivity_static(
            site.body, site.var, functions=functions, seed=site.seed, env=env)
        line, column = _position(site)
        seed_cardinality = card.infer_cardinality(site.seed, env)
        figure5 = judgment.syntactic.deciding()
        fixpoints.append(FixpointFact(
            variable=site.var,
            declared_algorithm=site.algorithm,
            seed_cardinality=seed_cardinality.indicator,
            syntactic_safe=judgment.syntactic.safe,
            safe=judgment.safe,
            rule=judgment.rule,
            detail=judgment.detail,
            site=site,
            functions=functions,
            syntactic_rule=figure5.rule,
            syntactic_detail=figure5.detail,
            facts=judgment.facts,
            line=line,
            column=column,
        ))

    return AnalysisReport(
        findings=findings,
        fixpoints=tuple(fixpoints),
        body_cardinality=body_cardinality.indicator,
    )


def previous_recognize_step_relation(body: ast.Expr, var: str,
                            functions: Container[tuple[str, int]],
                            engine: str = "interpreter",
                            variables: Mapping[str, ast.VariableDecl] | None = None,
                            fact=None) -> StepRelation | None:
    """A recursion body → its :class:`StepRelation`, or ``None``; the one
    recognizer of every engine (*engine* names whose body fills the
    relation's images: ``"interpreter"`` for the interpreter and sql's
    driver, ``"algebra"`` for the algebra compiler).

    A body is a relation when Figure 5 proves it distributive in ``$var``
    (*fact*, the site's :class:`~repro.analysis.report.FixpointFact`, holds
    the verdict when the module was analyzed) and, with calls of
    non-recursive user functions inlined (:func:`inline_calls`; *functions*
    maps ``(name, arity)`` to the declarations, or merely holds the
    declared pairs — then nothing is inlined), it reads nothing but its
    node and that node's document and returns distinct elements
    (:func:`_image_relation`; *variables*, the module's prolog declarations
    by name that no scope rebinds — :func:`prolog_variables` — say which
    prolog variables it may read)."""
    declarations = functions if isinstance(functions, Mapping) else {}
    if fact is not None:
        if not fact.syntactic_safe:
            return None
    else:
        from repro.distributivity.syntactic import is_distributivity_safe

        if not is_distributivity_safe(body, var, declarations):
            return None
    # One walk renames the recursion variable and finds the calls; the
    # body's free variables and constructors are known already (computed
    # once per node), and renaming changes neither but for the one name.
    calls: list[ast.FunctionCall] = []
    canonical = ast.substitute_variable(body, var, pushdown._CANONICAL_REF, calls)
    constructs = body.contains_node_constructor()
    free = body.free_variables() - {var}
    if any((call.name, len(call.args)) in declarations for call in calls):
        canonical = pushdown.inline_calls(canonical, declarations)
        if canonical is None:
            return None
        calls = [sub for sub in canonical.iter_subexpressions()
                 if type(sub) is ast.FunctionCall]
        constructs = canonical.contains_node_constructor()
        free = canonical.free_variables() - {pushdown.CANONICAL_VARIABLE}
    if constructs:
        return None
    return _previous_image_relation(canonical, calls, free, functions, engine, variables or {})


def _previous_image_relation(canonical: ast.Expr, calls: list[ast.FunctionCall],
                    free: Iterable[str], functions: Container[tuple[str, int]],
                    engine: str, variables: Mapping[str, ast.VariableDecl]
                    ) -> StepRelation | None:
    """The relation of :func:`recognize_step_relation`, or ``None``.

    A body Figure 5 proves distributive — its caller's check, apart from
    the Naive/Delta decision, so a ``using naive`` closure qualifies too —
    that constructs no node (its caller's check too) is a step relation
    when its *canonical* form (calls inlined, the recursion variable
    renamed to :data:`CANONICAL_VARIABLE`), whose *calls* and *free*
    variables but that one are given:

    * has no free variable but prolog variables whose initializers are
      *document-closed* (:func:`pushdown._document_closed`: ``doc(literal)``, paths
      from it, literals, other such variables — no external variable);
    * reads no outer focus (:func:`pushdown.focus_free`) and calls only
      :data:`pushdown.IMAGE_BUILTINS` — no ``trace``, no recursive or otherwise
      un-inlined user function, ``fn:doc`` on a literal only;
    * has distinct elements for its value (:func:`pushdown._distinct_elements`), so
      a round produces as many pres as the node path produces nodes.

    The memo key is the canonical body plus the prolog declarations it
    reaches: α-variant texts share it."""
    if not pushdown.focus_free(canonical):
        return None
    uris: set[str] = set()
    uses_ids = False
    for call in calls:
        if (call.name, len(call.args)) in functions:
            return None
        local = pushdown._local(call)
        if local == "doc":
            uri = pushdown._literal_uri(call)
            if uri is None:
                return None
            uris.add(uri)
        elif local not in pushdown.IMAGE_BUILTINS:
            return None
        uses_ids = uses_ids or local in ("id", "idref")
    reached: dict[str, ast.VariableDecl] = {}
    for name in free:
        if not pushdown._document_closed(ast.VarRef(name), variables, functions, reached, uris):
            return None
    if not pushdown._distinct_elements(canonical, frozenset({pushdown.CANONICAL_VARIABLE}), reached):
        return None
    key = (canonical, tuple(reached[name] for name in sorted(reached)))
    return StepRelation(key, engine, documents=tuple(sorted(uris)), ids=uses_ids)
