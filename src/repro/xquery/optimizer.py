"""Small AST-level rewrites applied before evaluation.

These are classic, semantics-preserving simplifications; the engine applies
them to every query a :class:`~repro.session.Session` evaluates (unless
``optimize=False``), so that the interpreter spends its time on the
recursion behaviour under study rather than on avoidable axis work.

Currently implemented (the rewrite catalog, see DESIGN.md §11):

* ``e/descendant-or-self::node()/child::t``  →  ``e/descendant::t``
  (the standard ``//`` abbreviation fusion), including the variant where a
  predicate list sits on the final step — provided no predicate can be
  positional: ``//t[1]`` is the first ``t`` *of each parent*,
  ``/descendant::t[1]`` the first of the document.  The step fuses only
  when every predicate is statically boolean- or node-valued and reads
  neither ``position()`` nor ``last()`` of its own focus
  (:func:`_position_free`).
* **constant folding** — arithmetic, unary minus and comparisons over
  literal operands, skipping anything that could raise (division by zero,
  mixed-type comparisons).
* **dead-branch elimination** — ``if (c) then a else b`` collapses to the
  live branch when the condition's effective boolean value is statically
  known (literals, ``()``, ``true()``/``false()``).
* **unused-let pruning** — ``let $v := e return b`` with ``$v`` not free in
  ``b`` collapses to ``b`` when ``e`` provably cannot raise (literals,
  ``()`` and sequences thereof; paths and calls are kept, they can error).
* **unused-function pruning** (:func:`optimize_module`) — declarations not
  reachable through the call graph from the query body, the variable
  initializers or another reachable function are dropped.
* **invariant hoisting** (:func:`optimize_module`) — a maximal
  sub-expression of a function, ``for`` or ``with … recurse`` body that is
  evaluated again on every call, iteration or round although its value
  cannot change is bound once, at the outermost scope that binds all its
  free variables: a synthesized prolog variable when those are prolog
  variables (or it starts from ``doc("literal")``), else a ``let`` around
  the loop or fixpoint.  ``$doc//people`` inside a function that a
  fixpoint calls every round becomes ``declare variable $hoisted#1 :=
  $doc//people`` (``#`` keeps the name out of reach of any query text);
  the algebra engine then sees a compile-time constant table, like every
  prolog variable.  The rule runs after unused-function pruning (a helper
  nothing calls must not cost an eager variable), and its walk runs only
  when the optimizing pass itself saw a loop read a variable bound outside
  it (:class:`_Scout`): other modules pay about a tenth of
  :func:`optimize_module` for the rule, modules without prolog variables
  nothing.  Safety conditions — the expression qualifies only if it

  - mentions no ``for``/quantifier, recursion or parameter variable, and no
    ``let`` variable whose value does (so it is invariant in *every*
    enclosing loop, and a fixpoint body never gains a binding that depends
    on its recursion variable — the distributivity verdict cannot move);
  - reads no outer focus (``.``, ``/``, a bare step, ``position()``,
    ``last()``) and constructs no node (fresh identity per evaluation);
  - **cannot raise**: hoisting makes it eager — a ``for`` over ``()`` never
    evaluated it — so only a small total fragment is accepted: paths and
    filters over node-typed origins whose predicates compare node or
    string values, set operators, ``count``/``exists``/``empty``/``data``.
    ``doc("u")`` counts as total only behind a prolog variable whose
    initializer starts from the same call (``$doc := doc("u")``, or a path
    from it), and the synthesized variable is declared after that one.

The four local rewrites are one table (:data:`_RULES`): a node class has at
most one rule, :func:`optimize` applies it once to a node whose children are
optimized, and leaves are returned as they are.

Every rewrite is verified item-identical across the interpreter, algebra
and SQL engines by randomized property tests
(``tests/test_optimizer_rewrites.py``), rewrites on versus off.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.xquery import ast


def optimize(expr: ast.Expr) -> ast.Expr:
    """Return an optimized copy of *expr* (the input is never mutated)."""
    kind = type(expr)
    if kind in _LEAVES:
        return expr
    expr = _map_children(expr, optimize)
    rule = _RULES.get(kind)
    return expr if rule is None else rule(expr)


def optimize_module(module: ast.Module, hoist: bool = True) -> ast.Module:
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
    nothing to look for; one with prolog variables is optimized by a
    :class:`_Scout`, which notes on the way whether the rule's own walk
    could find anything."""
    scout = None
    visit = optimize
    #: prolog variables with a value, each bound at loop depth 0
    prolog = {decl.name: 0 for decl in module.variables if decl.value is not None}
    if hoist and prolog:
        scout = _Scout(prolog)
        visit = scout.visit
        scout.depth = 1  # a function body runs once per call: a loop body as a whole
    functions = tuple(
        replace(function, body=visit(function.body)) for function in module.functions
    )
    if scout is not None:
        scout.depth = 0  # initializers and the query body run once
    variables = tuple(
        replace(decl, value=visit(decl.value)) if decl.value is not None else decl
        for decl in module.variables
    )
    body = visit(module.body)
    functions = _prune_unused_functions(functions, variables, body)
    if scout is not None and scout.found:
        functions, variables, body = _Hoister(functions, variables).run(body)
    return ast.Module(functions=functions, variables=variables, body=body)


def _map_children(expr, function):
    """*expr* with *function* applied to every child expression (the fields
    of its class's child plan, ``ast.CHILD_FIELDS``); the same object when
    nothing changed."""
    updates = {}
    for name, is_tuple in ast.CHILD_FIELDS[type(expr)]:
        value = getattr(expr, name)
        if is_tuple:
            new_value = value
            for index, item in enumerate(value):
                new_item = function(item)
                if new_item is not item:
                    new_value = (*new_value[:index], new_item, *new_value[index + 1:])
        elif value is None:
            continue
        else:
            new_value = function(value)
        if new_value is not value:
            updates[name] = new_value
    if not updates:
        return expr
    return replace(expr, **updates)


def _fuse_descendant_step(expr: ast.PathExpr) -> ast.Expr:
    """Fuse the two steps produced by the ``//`` abbreviation into one."""
    right = expr.right
    left = expr.left
    if (
        isinstance(right, ast.AxisStep)
        and right.axis == "child"
        and isinstance(left, ast.PathExpr)
        and _is_all_nodes_step(left.right)
        and all(_position_free(predicate) for predicate in right.predicates)
    ):
        fused_step = ast.AxisStep("descendant", right.node_test, right.predicates)
        return ast.PathExpr(left.left, fused_step)
    return expr


def _is_all_nodes_step(step: ast.Expr) -> bool:
    """``descendant-or-self::node()``, the step ``//`` abbreviates."""
    return (isinstance(step, ast.AxisStep) and step.axis == "descendant-or-self"
            and step.node_test.kind == "node" and not step.predicates)


def _position_free(predicate: ast.Expr) -> bool:
    """Does *predicate* keep the same nodes whether they are counted per
    parent or per document?  Yes when it is statically boolean- or
    node-valued (so never compared with the position) and does not read
    ``position()``/``last()`` itself: comparisons, ``and``/``or``,
    ``not``/``exists``/``empty`` and paths ending in an axis step — which
    covers every value and existence shape of the pushdown recognizer
    (``[@k]``, ``[seller/@person = $id]``).  Everything else — a number,
    arithmetic, a bare variable, a call of unknown type — may be a position
    and blocks the fusion.  (Like dead-branch elimination, this takes the
    three function names for the built-ins.)"""
    if isinstance(predicate, ast.AxisStep):
        return True  # its own predicates count along its own axis
    if isinstance(predicate, ast.PathExpr):
        return isinstance(predicate.right, ast.AxisStep) and not _reads_position(predicate.left)
    if isinstance(predicate, (ast.GeneralComparison, ast.ValueComparison,
                              ast.NodeComparison, ast.AndExpr, ast.OrExpr)):
        return not (_reads_position(predicate.left) or _reads_position(predicate.right))
    if isinstance(predicate, ast.FunctionCall) and len(predicate.args) == 1:
        return (_local_name(predicate) in ("not", "exists", "empty")
                and not _reads_position(predicate.args[0]))
    return False


def _reads_position(expr: ast.Expr) -> bool:
    """Does *expr* call ``position()``/``last()`` under the focus it is
    evaluated in (not one that a step or filter inside it establishes)?"""
    if isinstance(expr, ast.FunctionCall) and not expr.args:
        return _local_name(expr) in ("position", "last")
    if isinstance(expr, ast.AxisStep):
        return False
    if isinstance(expr, ast.PathExpr):
        return _reads_position(expr.left)
    if isinstance(expr, ast.FilterExpr):
        return _reads_position(expr.primary)
    return any(_reads_position(child) for child in expr.child_expressions())


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------


def _numeric_literal(expr: ast.Expr) -> int | float | None:
    """The numeric value of a literal operand (bools are not numbers here)."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, (int, float)) \
            and not isinstance(expr.value, bool):
        return expr.value
    return None


def _fold_unary(expr: ast.UnaryExpr) -> ast.Expr:
    value = _numeric_literal(expr.operand)
    if value is not None:
        return ast.Literal(-value if expr.op == "-" else +value)
    return expr


def _fold_arithmetic(expr: ast.ArithmeticExpr) -> ast.Expr:
    left = _numeric_literal(expr.left)
    right = _numeric_literal(expr.right)
    if left is None or right is None:
        return expr
    if expr.op == "+":
        return ast.Literal(left + right)
    if expr.op == "-":
        return ast.Literal(left - right)
    if expr.op == "*":
        return ast.Literal(left * right)
    # division family: only with a provably non-zero divisor, and only
    # matching the evaluator's semantics exactly
    if right == 0 or (isinstance(right, float) and math.isnan(right)):
        return expr
    if expr.op == "div":
        return ast.Literal(left / right)
    if expr.op == "idiv" and isinstance(left, int) and isinstance(right, int):
        quotient = abs(left) // abs(right)
        return ast.Literal(quotient if (left >= 0) == (right >= 0) else -quotient)
    if expr.op == "mod" and isinstance(left, int) and isinstance(right, int):
        remainder = abs(left) % abs(right)
        return ast.Literal(remainder if left >= 0 else -remainder)
    return expr


_COMPARISON_OPS = {
    "=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
}


def _fold_comparison(expr: ast.GeneralComparison | ast.ValueComparison) -> ast.Expr:
    if type(expr.left) is not ast.Literal or type(expr.right) is not ast.Literal:
        return expr
    op = _COMPARISON_OPS.get(expr.op)
    if op is None:
        return expr
    left = _numeric_literal(expr.left)
    right = _numeric_literal(expr.right)
    if left is None or right is None:
        # same-type string comparison folds too; anything else is left
        # alone (mixed-type comparisons raise at runtime)
        if not (isinstance(expr.left, ast.Literal) and isinstance(expr.right, ast.Literal)
                and isinstance(expr.left.value, str) and isinstance(expr.right.value, str)):
            return expr
        left, right = expr.left.value, expr.right.value
    result = {
        "==": left == right, "!=": left != right,
        "<": left < right, "<=": left <= right,
        ">": left > right, ">=": left >= right,
    }[op]
    return ast.Literal(result)


# ---------------------------------------------------------------------------
# dead-branch elimination
# ---------------------------------------------------------------------------


def _static_ebv(condition: ast.Expr) -> bool | None:
    """The effective boolean value of *condition* if statically known."""
    if isinstance(condition, ast.EmptySequence):
        return False
    if isinstance(condition, ast.Literal):
        value = condition.value
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            return bool(value)
        if isinstance(value, (int, float)):
            return bool(value) and not (isinstance(value, float) and math.isnan(value))
        return None
    if isinstance(condition, ast.FunctionCall) and not condition.args:
        name = condition.name[3:] if condition.name.startswith("fn:") else condition.name
        if name == "true":
            return True
        if name == "false":
            return False
    return None


def _eliminate_dead_branch(expr: ast.IfExpr) -> ast.Expr:
    verdict = _static_ebv(expr.condition)
    if verdict is None:
        return expr
    return expr.then_branch if verdict else expr.else_branch


# ---------------------------------------------------------------------------
# unused-let pruning
# ---------------------------------------------------------------------------


def _provably_error_free(expr: ast.Expr) -> bool:
    """Can evaluating *expr* never raise (and never construct nodes)?

    Deliberately tiny: literals, the empty sequence and sequences thereof.
    Variable references are excluded (an unbound one raises), as are paths
    (stepping from an atomic raises XPTY0019) and every function call.
    """
    if isinstance(expr, (ast.Literal, ast.EmptySequence)):
        return True
    if isinstance(expr, ast.SequenceExpr):
        return all(_provably_error_free(item) for item in expr.items)
    return False


def _prune_unused_let(expr: ast.LetExpr) -> ast.Expr:
    if not _provably_error_free(expr.value):
        return expr
    if expr.var in expr.body.free_variables():
        return expr
    return expr.body


# ---------------------------------------------------------------------------
# unused-function pruning
# ---------------------------------------------------------------------------


def _called_keys(expr: ast.Expr) -> set[tuple[str, int]]:
    keys: set[tuple[str, int]] = set()
    pending = [expr]  # (a flat walk: the generator costs a frame per level and node)
    while pending:
        node = pending.pop()
        if type(node) is ast.FunctionCall:
            keys.add((node.name, len(node.args)))
        pending.extend(node.child_expressions())
    return keys


def _prune_unused_functions(functions: tuple[ast.FunctionDecl, ...],
                            variables: tuple[ast.VariableDecl, ...],
                            body: ast.Expr) -> tuple[ast.FunctionDecl, ...]:
    if not functions:
        return functions
    declared = {(function.name, function.arity) for function in functions}
    worklist = _called_keys(body)
    for declaration in variables:
        if declaration.value is not None:
            worklist |= _called_keys(declaration.value)
    reachable: set[tuple[str, int]] = set()
    while worklist:
        key = worklist.pop()
        if key in reachable or key not in declared:
            continue
        reachable.add(key)
        for function in functions:
            if (function.name, function.arity) == key:
                worklist |= _called_keys(function.body)
    return tuple(f for f in functions if (f.name, f.arity) in reachable)


# ---------------------------------------------------------------------------
# invariant hoisting
# ---------------------------------------------------------------------------

#: What the hoisting rule knows about the value of a total expression: a
#: node sequence, a sequence of strings/untyped atomics (and nodes), or
#: nothing beyond "evaluating it cannot raise".
_NODES, _STRINGS, _ANY = "nodes", "strings", "any"


@dataclass(frozen=True)
class _Binding:
    """A variable in scope: the loop depth it is bound at, its static type,
    and whether its value is the same in every enclosing loop."""

    depth: int
    type: str
    stable: bool


#: ``for``/quantifier/recursion/parameter variables: whatever mentions one
#: stays where it is.
_VARIANT = _Binding(0, _ANY, False)

def _origin(expr: ast.Expr) -> ast.Expr:
    """Where a path starts: the expression evaluated first, and always."""
    while isinstance(expr, (ast.PathExpr, ast.FilterExpr)):
        expr = expr.left if isinstance(expr, ast.PathExpr) else expr.primary
    return expr


def _local_name(call: ast.FunctionCall) -> str:
    return call.name[3:] if call.name.startswith("fn:") else call.name


def _doc_uri(expr: ast.Expr) -> str | None:
    """The URI of a ``doc("literal")`` call, else ``None``."""
    if (isinstance(expr, ast.FunctionCall) and _local_name(expr) == "doc"
            and len(expr.args) == 1 and isinstance(expr.args[0], ast.Literal)
            and isinstance(expr.args[0].value, str)):
        return expr.args[0].value
    return None


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
    costs the hoister's walk, a miss would only cost a hoist.
    """

    __slots__ = ("bound", "depth", "found")

    def __init__(self, bound: dict[str, int]):
        #: variable name → the lowest loop depth it is bound at
        self.bound = bound
        self.depth = 0
        self.found = False

    def visit(self, expr: ast.Expr) -> ast.Expr:
        """:func:`optimize` of *expr*, noting what is read at which depth."""
        kind = type(expr)
        if kind in _LEAVES:
            if kind is ast.VarRef:
                depth = self.depth
                if depth and depth > self.bound.get(expr.name, depth):
                    self.found = True
            return expr
        if kind not in _SCOUTED:
            expr = _map_children(expr, self.visit)
        elif kind is ast.LetExpr:
            self.bound[expr.var] = min(self.depth, self.bound.get(expr.var, self.depth))
            expr = _map_children(expr, self.visit)
        elif kind is ast.FunctionCall:
            if self.depth and _local_name(expr) == "doc":
                self.found = True
            expr = _map_children(expr, self.visit)
        else:
            # the sequence or seed runs once, at this depth; the body deeper
            once, repeated = _LOOP_FIELDS[kind]
            head, body = getattr(expr, once), getattr(expr, repeated)
            new_head = self.visit(head)
            self.depth += 1
            new_body = self.visit(body)
            self.depth -= 1
            if new_head is not head or new_body is not body:
                expr = replace(expr, **{once: new_head, repeated: new_body})
        rule = _RULES.get(kind)
        return expr if rule is None else rule(expr)


#: The inner nodes a :class:`_Scout` looks at.
_SCOUTED = frozenset({ast.LetExpr, ast.FunctionCall, *_LOOP_FIELDS})


class _Hoister:
    """One run of the invariant-hoisting rule over a module."""

    def __init__(self, functions: tuple[ast.FunctionDecl, ...],
                 variables: tuple[ast.VariableDecl, ...]):
        self.functions = functions
        self.variables = variables
        self.declared = {(function.name, function.arity) for function in functions}
        #: prolog variable name → its index among the declarations
        self.position: dict[str, int] = {}
        #: doc URI → index of the first declaration that always evaluates it
        self.proofs: dict[str, int] = {}
        #: synthesized declarations, each with the index it goes behind
        self.inserts: list[tuple[int, ast.VariableDecl]] = []
        self.prolog_names: dict[ast.Expr, str] = {}
        #: depth a loop opens → the lets to put around that loop
        self.pending: dict[int, list[tuple[str, ast.Expr]]] = {}
        self.synthesized = 0
        self.repeated = False

    def run(self, body: ast.Expr):
        scope: dict[str, _Binding] = {}
        for index, declaration in enumerate(self.variables):
            kind = _ANY
            if declaration.value is not None:
                # ``$doc := doc("u")`` (or a path from it) proves the call.
                uri = _doc_uri(_origin(declaration.value))
                if uri is not None and ("doc", 1) not in self.declared:
                    self.proofs.setdefault(uri, index)
                kind = self._total_type(declaration.value, scope) or _ANY
            scope[declaration.name] = _Binding(0, kind, True)
            self.position[declaration.name] = index
        # A function body runs once per call; the query body once.
        self.repeated = True
        functions = []
        for function in self.functions:
            inner = dict(scope)
            inner.update((param.name, _VARIANT) for param in function.params)
            functions.append(replace(function, body=self._walk(function.body, inner, 1)))
        self.repeated = False
        body = self._walk(body, scope, 1)
        if not self.inserts:
            return tuple(functions), self.variables, body
        variables = [decl for position, decl in self.inserts if position < 0]
        for index, declaration in enumerate(self.variables):
            variables.append(declaration)
            variables.extend(decl for position, decl in self.inserts if position == index)
        return tuple(functions), tuple(variables), body

    # -- the walk -------------------------------------------------------------

    def _walk(self, expr: ast.Expr, scope: dict[str, _Binding], depth: int) -> ast.Expr:
        kind = type(expr)
        if kind in _LEAVES:
            return expr
        if kind in _CANDIDATES and (self.repeated or depth > 1):
            # (Not the first half of a ``//`` the fusion left alone: every
            # node of a document in a variable — in every cached plan — to
            # save one slice per iteration.)
            if (self._total_type(expr, scope) is not None and _has_step(expr)
                    and not (kind is ast.PathExpr and _is_all_nodes_step(expr.right))):
                target = max((scope[name].depth for name in expr.free_variables()),
                             default=0)
                if target < depth:
                    return ast.VarRef(self._bind(expr, target))
        if kind is ast.ForExpr:
            inner = dict(scope)
            inner[expr.var] = _VARIANT
            if expr.position_var:
                inner[expr.position_var] = _VARIANT
            sequence = self._walk(expr.sequence, scope, depth)
            return self._loop(expr, depth, {"sequence": sequence}, inner)
        if kind is ast.WithExpr:
            inner = dict(scope)
            inner[expr.var] = _VARIANT
            seed = self._walk(expr.seed, scope, depth)
            return self._loop(expr, depth, {"seed": seed}, inner)
        if kind is ast.LetExpr:
            value_type = self._total_type(expr.value, scope)
            inner = dict(scope)
            inner[expr.var] = (_VARIANT if value_type is None
                               else _Binding(depth, value_type, True))
            return self._rebuilt(expr, {"value": self._walk(expr.value, scope, depth),
                                        "body": self._walk(expr.body, inner, depth)})
        if kind is ast.QuantifiedExpr:
            inner = dict(scope)
            inner[expr.var] = _VARIANT
            return self._rebuilt(expr, {
                "sequence": self._walk(expr.sequence, scope, depth),
                "satisfies": self._walk(expr.satisfies, inner, depth)})
        if kind is ast.TypeswitchCase and expr.var:
            scope = {**scope, expr.var: _VARIANT}
        elif kind is ast.TypeswitchExpr and expr.default_var:
            # (shadows in the operand and the cases too: fewer hoists, no harm)
            scope = {**scope, expr.default_var: _VARIANT}
        return _map_children(expr, lambda child: self._walk(child, scope, depth))

    @staticmethod
    def _rebuilt(expr, updates: dict):
        changed = {name: value for name, value in updates.items()
                   if value is not getattr(expr, name)}
        return replace(expr, **changed) if changed else expr

    def _loop(self, expr, depth: int, updates: dict, inner: dict[str, _Binding]):
        """Walk the body of a loop that opens *depth* + 1, then put the
        lets collected for it around the loop."""
        self.pending[depth + 1] = []
        updates["body"] = self._walk(expr.body, inner, depth + 1)
        result = self._rebuilt(expr, updates)
        for name, value in reversed(self.pending.pop(depth + 1)):
            result = ast.LetExpr(name, value, result)
        return result

    def _bind(self, expr: ast.Expr, target: int) -> str:
        """The name *expr* is bound to at depth *target* (reusing an equal
        expression's binding)."""
        if target == 0:
            name = self.prolog_names.get(expr)
            if name is None:
                name = self.prolog_names[expr] = self._fresh_name()
                behind = [self.position[name_] for name_ in expr.free_variables()]
                behind.extend(self.proofs[uri] for uri in
                              map(_doc_uri, expr.iter_subexpressions()) if uri is not None)
                self.inserts.append((max(behind, default=-1),
                                     ast.VariableDecl(name, expr)))
            return name
        frame = self.pending[target + 1]
        for name, value in frame:
            if value == expr:
                return name
        name = self._fresh_name()
        frame.append((name, expr))
        return name

    def _fresh_name(self) -> str:
        # "#" cannot occur in a name the lexer produces: no clash possible.
        self.synthesized += 1
        return f"hoisted#{self.synthesized}"

    # -- totality and static types ------------------------------------------

    def _total_type(self, expr: ast.Expr, scope: dict[str, _Binding]) -> str | None:
        """The static type of *expr* if evaluating it is invariant, reads no
        outer focus and cannot raise — else ``None``."""
        if isinstance(expr, ast.Literal):
            return _STRINGS if isinstance(expr.value, str) else _ANY
        if isinstance(expr, ast.EmptySequence):
            return _NODES
        if isinstance(expr, ast.VarRef):
            binding = scope.get(expr.name)
            return binding.type if binding is not None and binding.stable else None
        if isinstance(expr, ast.PathExpr):
            if (self._total_type(expr.left, scope) == _NODES
                    and self._total_step(expr.right, scope)):
                return _NODES
            return None
        if isinstance(expr, ast.FilterExpr):
            if (self._total_type(expr.primary, scope) == _NODES
                    and all(self._total_predicate(p, scope) for p in expr.predicates)):
                return _NODES
            return None
        if isinstance(expr, (ast.UnionExpr, ast.IntersectExpr, ast.ExceptExpr)):
            if (self._total_type(expr.left, scope) == _NODES
                    and self._total_type(expr.right, scope) == _NODES):
                return _NODES
            return None
        if isinstance(expr, ast.SequenceExpr):
            kinds = {self._total_type(item, scope) for item in expr.items}
            if None in kinds:
                return None
            if kinds <= {_NODES}:
                return _NODES
            return _STRINGS if kinds <= {_NODES, _STRINGS} else _ANY
        if isinstance(expr, ast.FunctionCall):
            if (expr.name, len(expr.args)) in self.declared:
                return None
            if _doc_uri(expr) in self.proofs:
                return _NODES
            if len(expr.args) == 1 and _local_name(expr) in ("count", "exists", "empty", "data"):
                kind = self._total_type(expr.args[0], scope)
                if kind is None:
                    return None
                return _STRINGS if _local_name(expr) == "data" and kind != _ANY else _ANY
        return None

    def _total_step(self, step: ast.Expr, scope: dict[str, _Binding]) -> bool:
        return isinstance(step, ast.AxisStep) and all(
            self._total_predicate(predicate, scope) for predicate in step.predicates)

    def _relative_nodes(self, expr: ast.Expr, scope: dict[str, _Binding]) -> bool:
        """A path of total steps from the (node) focus a predicate runs in."""
        if isinstance(expr, ast.PathExpr):
            return (self._relative_nodes(expr.left, scope)
                    and self._total_step(expr.right, scope))
        return self._total_step(expr, scope)

    def _total_predicate(self, predicate: ast.Expr, scope: dict[str, _Binding]) -> bool:
        """Can *predicate*, applied to a node, neither raise nor depend on
        anything but that node and stable variables?"""
        if isinstance(predicate, ast.Literal):
            return True  # a position, or the EBV of one atomic
        if isinstance(predicate, (ast.AndExpr, ast.OrExpr)):
            return (self._total_predicate(predicate.left, scope)
                    and self._total_predicate(predicate.right, scope))
        if isinstance(predicate, ast.GeneralComparison):
            sides = (predicate.left, predicate.right)
            if all(self._string_valued(side, scope) for side in sides):
                return True  # untyped/string comparison: no promotion can fail
            return any(_is_call(a, "position") and _is_integer(b)
                       for a, b in (sides, sides[::-1]))
        if isinstance(predicate, ast.FunctionCall):
            if (predicate.name, len(predicate.args)) in self.declared:
                return False
            local = _local_name(predicate)
            if not predicate.args:
                return local in ("last", "position", "true", "false")
            if len(predicate.args) == 1:
                argument = predicate.args[0]
                if local == "not":
                    return self._total_predicate(argument, scope)
                if local in ("exists", "empty"):
                    return (self._relative_nodes(argument, scope)
                            or self._total_type(argument, scope) is not None)
            return False
        return self._relative_nodes(predicate, scope)

    def _string_valued(self, expr: ast.Expr, scope: dict[str, _Binding]) -> bool:
        """An operand of a predicate over nodes that atomizes to untyped or
        string values (``.`` is the node the predicate is applied to)."""
        return (isinstance(expr, ast.ContextItem)
                or self._relative_nodes(expr, scope)
                or self._total_type(expr, scope) in (_NODES, _STRINGS))


_LEAVES = frozenset(kind for kind, plan in ast.CHILD_FIELDS.items() if not plan)

#: The local rewrites, one per node class it can apply to: the rule sees a
#: node whose children are optimized already, and what it returns is final.
_RULES: dict[type[ast.Expr], Callable[..., ast.Expr]] = {
    ast.UnaryExpr: _fold_unary,
    ast.ArithmeticExpr: _fold_arithmetic,
    ast.GeneralComparison: _fold_comparison,
    ast.ValueComparison: _fold_comparison,
    ast.IfExpr: _eliminate_dead_branch,
    ast.PathExpr: _fuse_descendant_step,
    ast.LetExpr: _prune_unused_let,
}

#: Expression forms worth binding once (when they contain a step at all).
_CANDIDATES = frozenset({ast.PathExpr, ast.FilterExpr, ast.UnionExpr, ast.IntersectExpr,
                         ast.ExceptExpr, ast.SequenceExpr, ast.FunctionCall})


def _has_step(expr: ast.Expr) -> bool:
    return any(isinstance(sub, ast.AxisStep) for sub in expr.iter_subexpressions())


def _is_call(expr: ast.Expr, local: str) -> bool:
    return (isinstance(expr, ast.FunctionCall) and not expr.args
            and _local_name(expr) == local)


def _is_integer(expr: ast.Expr) -> bool:
    return _numeric_literal(expr) is not None and isinstance(expr.value, int)
