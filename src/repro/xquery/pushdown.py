"""Predicate pushdown: shape recognition and vectorized filter kernels.

The paper's workloads are dominated by *value-filtered* path steps —
``//course[@code = $c]``, ``dblp//inproceedings[author = $a]`` — and
fixpoint bodies re-run those filters every µ/µ∆ round.  This module is the
shared seam all three engines route such predicates through:

* the **recognizer** (:func:`recognize_predicate`) classifies a predicate
  AST into one of a handful of *shapes* — value comparisons of an
  attribute, a child element or a *relative child path* ending in one
  (``@id``, ``name``, ``seller/@person``, ``a/b``) against any *focus-free*
  expression (a literal, a variable, ``$b/@person`` — anything that reads
  neither ``.`` nor ``position()``/``last()``), attribute/child existence
  tests, and positional predicates (``[1]``, ``[last()]``,
  ``[position() op N]``);
* the **batch kernels** (:func:`apply_value_shape`,
  :func:`positional_filter`) filter a whole candidate column at once: the
  right-hand side is resolved *once per predicate application*
  (:func:`resolve_rhs`), its values are looked up in the lazy path-value
  index of :class:`~repro.xdm.index.StructuralIndex` and the candidates are
  kept by membership in that owner set (one set lookup per candidate
  instead of a fresh focus + predicate evaluation), positional shapes
  become list-slice arithmetic on the axis-ordered candidate list (no
  ``position()``/``last()`` focus loop at all);
* **index-side probing** (:func:`probe_step`) answers a child or
  descendant name step followed by an equality shape without enumerating
  the step's candidates at all: it walks the value index's few owners and
  verifies the axis relation
  (:func:`~repro.xdm.index.batch_probe`) — ``patient[@id = "p7"]`` over
  1000 patients touches one node;
* the **``id`` step recognizer** (:func:`recognize_id_step`) names the
  path shape ``E/id(p)`` whose right-hand side both engines answer for the
  whole column of ``E`` at once (the interpreter's ``step:id`` kernel, the
  algebra compiler's ``IdLookup``); :func:`child_chain_names` picks out
  the chains that run in pre-space on the ID-reference index
  (:func:`~repro.xdm.index.batch_id_path`);
* the **step relation recognizer** (:func:`recognize_step_relation`) names
  the recursion bodies that are relations on nodes — any closed body
  Figure 5 proves distributive that returns distinct elements, user-function
  calls inlined first (:func:`inline_calls`) — whose fixpoint the driver
  iterates in pre-space (:class:`~repro.xdm.index.StepRelation`) — for
  every engine: the algebra compiler reads it off the AST too.

The interpreter calls the kernels from ``_apply_predicates``, the algebra
backend from the :class:`~repro.algebra.operators.StepJoin` macro (the
compiler attaches recognized shapes to the step, and the plans of their
computed right-hand sides as value inputs), and the SQL emitter
reuses the recognizer to translate the single-step shapes with constant
right-hand sides into ``EXISTS`` probes against the shredded
``attr``/``node`` tables (it declines relative paths and computed
right-hand sides: such fixpoints run through the driver loop, whose bodies
are interpreted).  Anything the recognizer does not accept falls back to
the engines' existing per-node paths, which keeps all engines
item-identical with pushdown on or off.  Traced runs count each
batch-vs-fallback decision on the query's own
:meth:`~repro.observability.tracing.TraceContext.record_kernel`
(``pred:path-eq``, ``step:probe``, … next to ``pred:fallback``).

Semantics notes
---------------
* Value comparisons are pushed only when every right-hand value is a
  *string* (``xs:string`` or ``xs:untypedAtomic``): untyped node content
  compared against a string is plain string equality, which is exactly a
  hash probe.  A numeric operand would switch the XQuery general
  comparison to numeric promotion (``"07" = 7`` is true) — those fall
  back: the interpreter to its focus loop; the algebra's step macro hands
  :func:`apply_shapes` a predicate over the operand node in place of the
  strings, asked per candidate.
* A focus-free right-hand side is resolved once per predicate
  *application* — and only when the application has a candidate: a
  predicate that is never evaluated must not raise.  The interpreter
  resolves it where it applies the predicate.  The algebra engine has no
  such moment — a plan input is evaluated for every iteration — so its
  compiler (``AlgebraCompiler._value_input``) makes a computed side an
  input of the step macro only when it *cannot* raise: a variable,
  optionally behind predicate-free axis steps from a plan that is
  node-valued by construction.  The macro then resolves per iteration,
  with the values that iteration's ``iter`` delivers.  Every other
  computed side is joined per outer iteration that has a candidate
  (``AlgebraCompiler._value_join``).
* A shape with ``values`` carries constants; one that still has its
  ``rhs`` is *computed* — the interpreter evaluates the expression, the
  algebra's step macro reads a value input.  No resolved value is ever
  stored on a computed shape, so nothing value-dependent enters a cached
  plan.
* The path-value index behind the relative-path shapes
  (:meth:`~repro.xdm.index.StructuralIndex.path_value_owners`) is a value
  index like the others: lazy, and dropped by the value-mutation hook.
* Value and existence shapes depend only on the candidate node (plus
  variable bindings), never on the focus position/size, so they may be
  applied to a merged context column.  Positional shapes count along the
  step's axis order per context node and are only batched where that
  grouping is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Callable, Container, Iterable, Iterator, Mapping

from repro.xdm.index import (
    PROBE_AXES,
    IndexSet,
    StepRelation,
    batch_probe,
    named_element_test,
)
from repro.xdm.items import UntypedAtomic, is_node
from repro.xdm.node import AttributeNode, ElementNode, Node
from repro.xquery import ast

#: Comparison operators a positional predicate may use.
_POSITION_OPS = {"=", "!=", "<", "<=", ">", ">="}

#: op → flipped op, for ``N op position()`` spellings.
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class ValueShape:
    """An attribute/child-element value or existence predicate.

    ``target`` is ``"attr"`` (``[@name …]``) or ``"child"`` (``[name …]``);
    ``path`` holds the child-step names in front of it (``("seller",)`` for
    ``[seller/@person …]``, empty for the single-step shapes).
    ``rhs`` is the compared focus-free expression (``None`` for bare
    existence tests); ``values`` optionally carries compile-time-resolved
    constant strings (the algebra compiler resolves constants eagerly and
    then drops ``rhs``; a computed side keeps it and is resolved per
    application by the interpreter, per iteration by the step macro).
    """

    target: str
    name: str
    rhs: ast.Expr | None = None
    values: tuple[str, ...] | None = None
    path: tuple[str, ...] = ()

    @property
    def existence(self) -> bool:
        return self.rhs is None and self.values is None

    @property
    def kind(self) -> str:
        if self.path:
            return "path-eq"
        return f"{self.target}-{'exists' if self.existence else 'eq'}"


@dataclass(frozen=True)
class PositionShape:
    """A positional predicate: ``[N]``, ``[last()]``, ``[position() op N]``.

    ``value`` is the compared integer, or ``None`` for ``last()`` (which
    only occurs with ``op == "="``).
    """

    op: str
    value: int | None

    @property
    def kind(self) -> str:
        return "positional"

    @property
    def nth(self) -> int | None:
        """``n`` of a ``[n]`` shape with ``n ≥ 1`` (what
        :func:`~repro.xdm.index.nth_sibling` answers), else ``None``."""
        return self.value if self.op == "=" and self.value is not None and self.value >= 1 else None


Shape = ValueShape | PositionShape


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------


def _value_step_shape(expr: ast.Expr) -> tuple[str, str] | None:
    """``@name`` / ``name`` / ``attribute::name`` / ``child::name`` →
    (target, name), or ``None``."""
    if (isinstance(expr, ast.AxisStep) and not expr.predicates
            and expr.node_test.kind == "name" and expr.node_test.name not in (None, "*")):
        if expr.axis == "attribute":
            return ("attr", expr.node_test.name)
        if expr.axis == "child":
            return ("child", expr.node_test.name)
    return None


def _child_chain(expr: ast.Expr) -> tuple[str, ...] | None:
    """``a/b/c`` (plain child name steps) → ("a", "b", "c"), or ``None``."""
    step = _value_step_shape(expr)
    if step is not None:
        return (step[1],) if step[0] == "child" else None
    if isinstance(expr, ast.PathExpr):
        last = _value_step_shape(expr.right)
        if last is not None and last[0] == "child":
            front = _child_chain(expr.left)
            if front is not None:
                return front + (last[1],)
    return None


def _value_path_shape(expr: ast.Expr) -> tuple[str, str, tuple[str, ...]] | None:
    """A value step, optionally behind child steps (``seller/@person``,
    ``a/b``) → (target, name, leading child names), or ``None``."""
    step = _value_step_shape(expr)
    if step is not None:
        return (*step, ())
    if isinstance(expr, ast.PathExpr):
        step = _value_step_shape(expr.right)
        if step is not None:
            front = _child_chain(expr.left)
            if front is not None:
                return (*step, front)
    return None


#: Built-ins that read the focus when called without arguments …
_FOCUS_DEFAULTED = frozenset({"position", "last", "string", "string-length",
                              "normalize-space", "number", "name",
                              "local-name", "root"})
#: … and those that may at any arity (``id``/``idref`` anchor at the context
#: node) or whose evaluation count is observable (``trace``).
_FOCUS_ALWAYS = frozenset({"id", "idref", "trace"})

#: Operators that merely combine their operands' values.
_TRANSPARENT = (ast.SequenceExpr, ast.RangeExpr, ast.UnionExpr, ast.IntersectExpr,
                ast.ExceptExpr, ast.OrExpr, ast.AndExpr, ast.GeneralComparison,
                ast.ValueComparison, ast.ArithmeticExpr, ast.UnaryExpr,
                ast.IfExpr, ast.LetExpr, ast.ForExpr, ast.CastExpr)


def focus_free(expr: ast.Expr) -> bool:
    """Does *expr* provably evaluate the same under every focus?

    True for literals, variables and operators over them; a path or filter
    only needs a focus-free *origin*, its steps and predicates run under the
    focus it establishes itself.  Function calls qualify unless the name is
    a built-in that defaults to the context item (user-defined functions
    start without a focus).  Everything else — ``.``, bare axis steps, ``/``,
    constructors, nested fixpoints, typeswitch — does not.
    """
    if isinstance(expr, (ast.Literal, ast.EmptySequence, ast.VarRef)):
        return True
    if isinstance(expr, ast.PathExpr):
        return focus_free(expr.left)
    if isinstance(expr, ast.FilterExpr):
        return focus_free(expr.primary)
    if isinstance(expr, ast.FunctionCall):
        local = expr.name[3:] if expr.name.startswith("fn:") else expr.name
        if local in _FOCUS_ALWAYS or (not expr.args and local in _FOCUS_DEFAULTED):
            return False
        return all(focus_free(argument) for argument in expr.args)
    if isinstance(expr, _TRANSPARENT):
        return all(focus_free(child) for child in expr.child_expressions())
    return False


def _position_operand(expr: ast.Expr) -> bool:
    return (isinstance(expr, ast.FunctionCall)
            and expr.name in ("position", "fn:position") and not expr.args)


def _integer_literal(expr: ast.Expr) -> int | None:
    if (isinstance(expr, ast.Literal) and isinstance(expr.value, int)
            and not isinstance(expr.value, bool)):
        return expr.value
    return None


def recognize_predicate(expr: ast.Expr) -> Shape | None:
    """Classify *expr* into a pushable shape, or ``None`` (fall back)."""
    # [N] — a bare integer literal.
    n = _integer_literal(expr)
    if n is not None:
        return PositionShape("=", n)
    # [last()]
    if (isinstance(expr, ast.FunctionCall)
            and expr.name in ("last", "fn:last") and not expr.args):
        return PositionShape("=", None)
    # [@a] / [name] — existence tests.
    step = _value_step_shape(expr)
    if step is not None:
        return ValueShape(step[0], step[1])
    if isinstance(expr, ast.GeneralComparison):
        # [position() op N] (either spelling).
        if expr.op in _POSITION_OPS:
            if _position_operand(expr.left):
                n = _integer_literal(expr.right)
                if n is not None:
                    return PositionShape(expr.op, n)
            if _position_operand(expr.right):
                n = _integer_literal(expr.left)
                if n is not None:
                    return PositionShape(_FLIPPED[expr.op], n)
        # [@a = rhs] / [name = rhs] / [a/b/@c = rhs] (either spelling).
        # Only "=" — the existential semantics of "!=" do not reduce to set
        # membership.
        if expr.op == "=":
            for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
                step = _value_path_shape(side)
                if step is not None and focus_free(other):
                    return ValueShape(step[0], step[1], rhs=other, path=step[2])
    return None


def recognize_id_step(expr: ast.Expr, functions: Container[tuple[str, int]]
                      ) -> tuple[ast.AxisStep, ...] | None:
    """The right-hand side of ``E/id(p)`` → the axis steps of *p*, or ``None``.

    Recognized: a call of the built-in one-argument ``id``/``fn:id``
    (*functions* holds the ``(name, arity)`` of the user-declared functions;
    one of that name shadows the built-in) whose argument walks from the context
    item by axis steps only — ``.`` (no steps), ``a/b``, ``./a/@b``,
    ``.//a`` — each carrying at most non-positional recognized predicates.

    This is the shape both engines answer set-at-a-time instead of once per
    node of ``E``: axis steps and value predicates distribute over the union
    of their context nodes and the enclosing path applies ``fs:ddo`` anyway,
    so the chain may run over the whole column of ``E``, the ID lookup over
    all of its string values.  ``fn:id`` resolves in the *context node's*
    document, so a column is grouped by owning document first.  A
    positional predicate counts per context node and is declined.
    """
    if not (isinstance(expr, ast.FunctionCall) and expr.name in ("id", "fn:id")
            and len(expr.args) == 1 and (expr.name, 1) not in functions):
        return None
    steps: list[ast.AxisStep] = []
    argument = expr.args[0]
    while isinstance(argument, ast.PathExpr) and isinstance(argument.right, ast.AxisStep):
        steps.append(argument.right)
        argument = argument.left
    if isinstance(argument, ast.AxisStep):
        steps.append(argument)
    elif not isinstance(argument, ast.ContextItem):
        return None
    for step in steps:
        for predicate in step.predicates:
            if not isinstance(recognize_predicate(predicate), ValueShape):
                return None
    return tuple(reversed(steps))


def child_chain_names(steps: tuple[ast.AxisStep, ...]) -> tuple[str, ...] | None:
    """The element names of *steps* when they are a non-empty chain of
    predicate-free ``child::name`` steps (``prerequisites/pre_code``), else
    ``None`` — the part of :func:`recognize_id_step`'s shape that
    :func:`~repro.xdm.index.batch_id_path` answers."""
    if not steps:
        return None
    for step in steps:
        if (step.axis != "child" or step.predicates
                or not named_element_test(step.node_test.kind, step.node_test.name)):
            return None
    return tuple(step.node_test.name for step in steps)


def recognize_step_relation(body: ast.Expr, var: str,
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
    # The body is judged as it stands — keyed and its calls noted by the
    # parser, if it built it — and only inlining rebuilds it, with the
    # recursion variable renamed first so no function body can capture it.
    noted, key = body._noted, None
    if noted is not None and noted[0] == var:
        key, calls = ("text", noted[1]), noted[2]
        if type(body) is ast.FunctionCall:
            calls = (body, *calls)
    else:
        calls = [sub for sub in body.iter_subexpressions() if type(sub) is ast.FunctionCall]
    if any((call.name, len(call.args)) in declarations for call in calls):
        body = inline_calls(ast.substitute_variable(body, var, _CANONICAL_REF), declarations)
        if body is None:
            return None
        var, key = CANONICAL_VARIABLE, None
        calls = [sub for sub in body.iter_subexpressions() if type(sub) is ast.FunctionCall]
    if body.contains_node_constructor():
        return None
    return _image_relation(body, var, calls, functions, engine, variables or {}, key)


def fixpoint_relation(expr: ast.WithExpr, functions: Container[tuple[str, int]],
                      variables: Mapping[str, ast.VariableDecl] | None = None,
                      fact=None) -> StepRelation | None:
    """:func:`recognize_step_relation` of *expr*'s body for the interpreter
    and sql's driver, memoised on the node as its free variables are — a
    node belongs to one module, whose declared *functions* and prolog
    *variables* do not change — so a cached query does not recognize (and
    hash) its body per run."""
    relation = expr._relation
    if relation is False:
        relation = recognize_step_relation(expr.body, expr.var, functions,
                                           variables=variables, fact=fact)
        object.__setattr__(expr, "_relation", relation)
    return relation


def prolog_variables(module: ast.Module) -> dict[str, ast.VariableDecl]:
    """*module*'s prolog declarations by name that a ``with`` body may read
    as prolog variables (the *variables* of :func:`recognize_step_relation`):
    all but those whose name a function parameter or a binding anywhere in
    *module* reuses.  Such a binding shadows the prolog variable where it is
    in scope, and the recognizer judges a body, not the scopes around it —
    so a reused name is, to it, a variable of unknown value.  Computed once
    per module — without a walk when the parser saw no binding or parameter
    reuse a prolog variable's name anywhere in the text (the optimizer binds
    none of them)."""
    found = module._prolog_variables
    if found is None:
        bound: set[str] = set()
        front = module._front
        if module.variables and (front is None or front.rebinds_prolog):
            bound.update(param.name for function in module.functions
                         for param in function.params)
            for root in (*(function.body for function in module.functions),
                         *(decl.value for decl in module.variables if decl.value is not None),
                         module.body):
                bound |= _scan(root, ())[0]
        found = {decl.name: decl for decl in module.variables if decl.name not in bound}
        object.__setattr__(module, "_prolog_variables", found)
    return found


#: Built-ins a node-local predicate may call: each reads its arguments and
#: the focus, nothing else.  Not here: ``doc``/``doc-available`` (another
#: document), ``id``/``idref`` (an ID may name an element of another tree),
#: ``position``/``last`` (the focus's place, not its node) and ``trace`` (a
#: side effect).  A name not here — a built-in added later, ``collection``
#: or a ``current-*`` function — is not node-local until someone adds it.
NODE_LOCAL_BUILTINS = frozenset({
    "true", "false", "boolean", "not", "count", "empty", "exists",
    "zero-or-one", "one-or-more", "exactly-one", "data", "string",
    "string-length", "normalize-space", "concat", "string-join", "contains",
    "starts-with", "ends-with", "substring", "substring-before",
    "substring-after", "upper-case", "lower-case", "translate", "tokenize",
    "number", "abs", "floor", "ceiling", "round", "sum", "avg", "max", "min",
    "distinct-values", "reverse", "subsequence", "insert-before", "remove",
    "index-of", "deep-equal", "unordered", "root", "name", "local-name",
    "node-name", "string-to-codepoints", "codepoints-to-string", "error",
    "xs:string", "xs:integer", "xs:double", "xs:boolean",
})


def node_local(predicate: ast.Expr, functions: Container[tuple[str, int]]) -> bool:
    """Does *predicate*'s value depend on nothing but its focus node and
    that node's tree (given position 1 and size 1)?  True when it has no
    free variable (a prolog variable counts), constructs no node, and calls
    only :data:`NODE_LOCAL_BUILTINS` — no user function (*functions* holds
    the declared ``(name, arity)`` pairs)."""
    if predicate.free_variables() or predicate.contains_node_constructor():
        return False
    for expr in predicate.iter_subexpressions():
        if isinstance(expr, ast.FunctionCall):
            name = expr.name[3:] if expr.name.startswith("fn:") else expr.name
            if (expr.name, len(expr.args)) in functions or name not in NODE_LOCAL_BUILTINS:
                return False
    return True


# -- inlining ----------------------------------------------------------------

#: The recursion variable's name in a step relation's memo key: no query
#: text can spell it, so α-variant bodies (``$v1/…``, ``$v2/…``) share a
#: key, and no inlined function body can capture it.
CANONICAL_VARIABLE = "#x"
_CANONICAL_REF = ast.VarRef(CANONICAL_VARIABLE)

#: Declared types a parameter bound to the recursion variable may have:
#: none, or a ``*`` of any node (what the fixpoint feeds).
_NODE_SEQUENCE_TYPES = frozenset({None, ast.SequenceType("item", "*"),
                                  ast.SequenceType("node", "*"),
                                  ast.SequenceType("element", "*")})


def inline_calls(expr: ast.Expr, declarations: Mapping[tuple[str, int], ast.FunctionDecl]
                 ) -> ast.Expr | None:
    """*expr* with every call of a user function replaced by the function's
    body, its parameters renamed to the arguments — or ``None`` when a call
    cannot be: a recursive function; an argument that is not a variable or
    is rebound inside the function; a prolog variable the function reads
    that *expr* rebinds somewhere (the inlined body could be captured); a
    declared type that could reject or convert what a call passes or
    returns (only ``*`` of a node type, or ``item()*`` / none for other
    arguments).  The recursion variable is then the only node-sequence
    argument the recognizer needs: node sequences pass a ``node()*``
    parameter unchanged.  *expr* itself comes back when it calls no user
    function."""
    bound, calls = _scan(expr, declarations)
    return _inlined(expr, declarations, (), frozenset(bound)) if calls else expr


def _inlined(expr: ast.Expr, declarations, stack: tuple,
             bound: frozenset[str]) -> ast.Expr | None:
    if isinstance(expr, ast.FunctionCall):
        declaration = declarations.get((expr.name, len(expr.args)))
        if declaration is not None:
            return _inline_call(expr, declaration, declarations, stack, bound)
    updates = {}
    for name, is_tuple in ast.CHILD_FIELDS[type(expr)]:
        value = getattr(expr, name)
        if value is None:
            continue
        if is_tuple:
            parts = tuple(_inlined(part, declarations, stack, bound) for part in value)
            if None in parts:
                return None
            if any(new is not old for new, old in zip(parts, value)):
                updates[name] = parts
        else:
            part = _inlined(value, declarations, stack, bound)
            if part is None:
                return None
            if part is not value:
                updates[name] = part
    return replace(expr, **updates) if updates else expr


def _inline_call(call: ast.FunctionCall, declaration: ast.FunctionDecl,
                 declarations, stack: tuple, bound: frozenset[str]) -> ast.Expr | None:
    key = (declaration.name, declaration.arity)
    if key in stack or declaration.return_type not in _NODE_SEQUENCE_TYPES:
        return None
    arguments = []
    for parameter, argument in zip(declaration.params, call.args):
        if not isinstance(argument, ast.VarRef):
            return None
        allowed = (_NODE_SEQUENCE_TYPES if argument.name == CANONICAL_VARIABLE
                   else (None, ast.SequenceType("item", "*")))
        if parameter.declared_type not in allowed:
            return None
        arguments.append(argument)
    inner, calls = _scan(declaration.body, declarations)
    parameters = {parameter.name for parameter in declaration.params}
    if (any(argument.name in inner for argument in arguments)
            or (declaration.body.free_variables() - parameters) & bound):
        return None
    # Two passes, so a parameter named like another call argument is not
    # captured: parameters to names no text can spell, those to arguments.
    body = declaration.body
    for index, parameter in enumerate(declaration.params):
        body = ast.substitute_variable(body, parameter.name, ast.VarRef(f"#p{index}"))
    for index, argument in enumerate(arguments):
        body = ast.substitute_variable(body, f"#p{index}", argument)
    return _inlined(body, declarations, stack + (key,), bound | inner) if calls else body


def _scan(expr: ast.Expr, declarations) -> tuple[set[str], bool]:
    """The variables *expr* binds anywhere inside it, and whether it calls
    one of the *declarations*."""
    names: set[str] = set()
    calls = False
    for sub in expr.iter_subexpressions():
        if isinstance(sub, ast.FunctionCall):
            calls = calls or (sub.name, len(sub.args)) in declarations
            continue
        for binders in ast.BINDERS.get(type(sub), {}).values():
            names |= ast.bound_names(sub, binders)
    return names, calls


# -- the relation -------------------------------------------------------------

#: Built-ins an image body may call besides :data:`NODE_LOCAL_BUILTINS`:
#: ``fn:id``/``fn:idref`` (the relation then checks the document's IDs at
#: bind time) and ``position``/``last`` (only under a focus the body sets up
#: itself: :func:`focus_free` declines the outer one) — and ``fn:doc`` with
#: a literal URI, which the relation checks at bind time.  Not here:
#: ``trace`` (a side effect), ``doc-available``, and whatever is added
#: later (``collection``, ``current-*``) until someone adds it.
IMAGE_BUILTINS = NODE_LOCAL_BUILTINS | {"id", "idref", "position", "last"}


def _image_relation(body: ast.Expr, var: str, calls: Iterable[ast.FunctionCall],
                    functions: Container[tuple[str, int]],
                    engine: str, variables: Mapping[str, ast.VariableDecl],
                    key: tuple[str, object] | None) -> StepRelation | None:
    """The relation of :func:`recognize_step_relation`, or ``None``.

    A body Figure 5 proves distributive — its caller's check, apart from
    the Naive/Delta decision, so a ``using naive`` closure qualifies too —
    that constructs no node (its caller's check too) is a step relation
    when *body* (its calls inlined, the recursion variable *var*), whose
    *calls* are given:

    * has no free variable but prolog variables whose initializers are
      *document-closed* (:func:`_document_closed`: ``doc(literal)``, paths
      from it, literals, other such variables — no external variable);
    * reads no outer focus (:func:`focus_free`) and calls only
      :data:`IMAGE_BUILTINS` — no ``trace``, no recursive or otherwise
      un-inlined user function, ``fn:doc`` on a literal only;
    * has distinct elements for its value (:func:`_distinct_elements`), so
      a round produces as many pres as the node path produces nodes.

    The memo key is the body's *key* as the parser noted it — its text with
    the variables it binds written by their binding position — else the
    body itself with the recursion variable renamed to
    :data:`CANONICAL_VARIABLE`, each tagged with its form; plus the prolog
    declarations it reaches.  α-variant texts share it."""
    if not focus_free(body):
        return None
    uris: set[str] = set()
    uses_ids = False
    for call in calls:
        if (call.name, len(call.args)) in functions:
            return None
        local = _local(call)
        if local == "doc":
            uri = _literal_uri(call)
            if uri is None:
                return None
            uris.add(uri)
        elif local not in IMAGE_BUILTINS:
            return None
        uses_ids = uses_ids or local in ("id", "idref")
    reached: dict[str, ast.VariableDecl] = {}
    for name in body.free_variables() - {var}:
        if not _document_closed(ast.VarRef(name), variables, functions, reached, uris):
            return None
    if not _distinct_elements(body, frozenset({var}), reached):
        return None
    if key is None:
        key = ("tree", body if var == CANONICAL_VARIABLE
               else ast.substitute_variable(body, var, _CANONICAL_REF))
    prolog = tuple(reached[name] for name in sorted(reached))
    return StepRelation((*key, prolog), engine, documents=tuple(sorted(uris)), ids=uses_ids)


def _local(call: ast.FunctionCall) -> str:
    return call.name[3:] if call.name.startswith("fn:") else call.name


def _literal_uri(call: ast.FunctionCall) -> str | None:
    if (len(call.args) == 1 and isinstance(call.args[0], ast.Literal)
            and isinstance(call.args[0].value, str)):
        return call.args[0].value
    return None


def _document_closed(expr: ast.Expr, variables: Mapping[str, ast.VariableDecl],
                     functions: Container[tuple[str, int]],
                     reached: dict[str, ast.VariableDecl], uris: set[str]) -> bool:
    """Is *expr* made of ``doc(literal)``, paths from it whose steps are
    :func:`node_local`, literals, and prolog variables whose initializers
    are so too?  The variables it reaches go into *reached*, the URIs into
    *uris*."""
    if isinstance(expr, (ast.Literal, ast.EmptySequence)):
        return True
    if isinstance(expr, ast.VarRef):
        if expr.name in reached:
            return True
        declaration = variables.get(expr.name)
        if declaration is None or declaration.external or declaration.value is None:
            return False
        reached[expr.name] = declaration
        return _document_closed(declaration.value, variables, functions, reached, uris)
    if isinstance(expr, ast.FunctionCall):
        uri = _literal_uri(expr)
        if (uri is None or _local(expr) != "doc"
                or (expr.name, len(expr.args)) in functions):
            return False
        uris.add(uri)
        return True
    if isinstance(expr, ast.PathExpr):
        return (_document_closed(expr.left, variables, functions, reached, uris)
                and node_local(expr.right, functions))
    if isinstance(expr, ast.FilterExpr):
        return (_document_closed(expr.primary, variables, functions, reached, uris)
                and all(node_local(predicate, functions) for predicate in expr.predicates))
    if isinstance(expr, (ast.SequenceExpr, ast.UnionExpr, ast.IntersectExpr, ast.ExceptExpr)):
        return all(_document_closed(child, variables, functions, reached, uris)
                   for child in expr.child_expressions())
    return False


def _distinct_elements(expr: ast.Expr, elements: frozenset[str],
                       prolog: Mapping[str, ast.VariableDecl]) -> bool:
    """Is *expr*'s value distinct elements, by a syntactic rule over
    ``return``, ``if``, the set operators and a path's last step?  The
    variables in *elements* hold distinct elements, or at least distinct
    nodes with a pre (the recursion variable: the fixpoint feeds nodes of
    the seed's tree that are no attributes); a *prolog* variable does when
    its initializer does.  A ``for`` qualifies only when it runs
    whole (:attr:`~repro.xquery.ast.ForExpr.whole`): per item, its returns
    may repeat a node, which the node path would count twice."""
    if isinstance(expr, ast.VarRef):
        if expr.name in elements:
            return True
        declaration = prolog.get(expr.name)
        return declaration is not None and _distinct_elements(
            declaration.value, frozenset(), prolog)
    if isinstance(expr, ast.EmptySequence):
        return True
    if isinstance(expr, ast.PathExpr):
        return _element_step(expr.right)
    if isinstance(expr, ast.FilterExpr):
        return _distinct_elements(expr.primary, elements, prolog)
    if isinstance(expr, ast.UnionExpr):
        return (_distinct_elements(expr.left, elements, prolog)
                and _distinct_elements(expr.right, elements, prolog))
    if isinstance(expr, ast.IntersectExpr):
        return (_distinct_elements(expr.left, elements, prolog)
                or _distinct_elements(expr.right, elements, prolog))
    if isinstance(expr, ast.ExceptExpr):
        return _distinct_elements(expr.left, elements, prolog)
    if isinstance(expr, ast.IfExpr):
        return (_distinct_elements(expr.then_branch, elements, prolog)
                and _distinct_elements(expr.else_branch, elements, prolog))
    if isinstance(expr, (ast.LetExpr, ast.ForExpr)):
        if isinstance(expr, ast.ForExpr) and not expr.whole:
            return False
        value = expr.value if isinstance(expr, ast.LetExpr) else expr.sequence
        inner = (elements | {expr.var} if _distinct_elements(value, elements, prolog)
                 else elements - {expr.var})
        if expr.var in prolog:  # shadowed in the body
            prolog = {name: decl for name, decl in prolog.items() if name != expr.var}
        return _distinct_elements(expr.body, inner, prolog)
    if isinstance(expr, ast.SequenceExpr):
        return len(expr.items) <= 1 and all(
            _distinct_elements(item, elements, prolog) for item in expr.items)
    if isinstance(expr, ast.OrderedExpr):
        return _distinct_elements(expr.body, elements, prolog)
    return isinstance(expr, ast.FunctionCall) and _local(expr) == "id"


def _element_step(expr: ast.Expr) -> bool:
    """Does the right-hand side of a path select elements only?"""
    if isinstance(expr, ast.AxisStep):
        return expr.axis != "attribute" and expr.node_test.kind in ("name", "element")
    if isinstance(expr, ast.FilterExpr):
        return _element_step(expr.primary)
    if isinstance(expr, ast.UnionExpr):
        return _element_step(expr.left) and _element_step(expr.right)
    return isinstance(expr, ast.FunctionCall) and _local(expr) == "id"


# ---------------------------------------------------------------------------
# right-hand-side resolution
# ---------------------------------------------------------------------------


def string_values_or_none(values: Iterable) -> tuple[str, ...] | None:
    """The values as plain strings, or ``None`` if any is not a string.

    Nodes are atomized to their untyped string value; genuine numerics and
    booleans reject the batch path (numeric promotion semantics).
    """
    out: list[str] = []
    for value in values:
        if is_node(value):
            out.append(str(value.typed_value()))
        elif isinstance(value, UntypedAtomic):
            out.append(str(value))
        elif isinstance(value, str):
            out.append(value)
        else:
            return None
    return tuple(out)


def resolve_rhs(shape: ValueShape,
                evaluate: Callable[[ast.Expr], list]) -> tuple[str, ...] | None:
    """The string values of *shape*'s right-hand side, resolved once.

    *evaluate* evaluates a (focus-free) expression in the scope the
    predicate is applied in.  Returns ``None`` when the shape must fall
    back: some value is numeric or boolean.
    """
    if shape.values is not None:
        return shape.values
    rhs = shape.rhs
    if rhs is None:  # existence test — no values to resolve
        return ()
    if isinstance(rhs, ast.Literal):
        return string_values_or_none([rhs.value])
    return string_values_or_none(evaluate(rhs))


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------


def _shape_operands(node: Node, shape: ValueShape) -> Iterator[Node]:
    """The nodes *shape*'s left-hand side selects from *node*: the
    attributes or child elements called ``shape.name``, behind the child
    steps of ``shape.path`` — in document order."""
    owners = [node]
    for step in shape.path:
        owners = [child for owner in owners for child in owner.children
                  if isinstance(child, ElementNode) and child.name == step]
    for owner in owners:
        if shape.target == "attr":
            for attribute in owner.attribute_axis():
                if attribute.name == shape.name:
                    yield attribute
        else:
            for child in owner.children:
                if isinstance(child, ElementNode) and child.name == shape.name:
                    yield child


def _node_passes_naive(node: Node, shape: ValueShape,
                       values: frozenset | None) -> bool:
    """Per-node value test without the index (small batches, --no-index)."""
    return any(values is None or operand.string_value() in values
               for operand in _shape_operands(node, shape))


def _owner_pres(idx, shape: ValueShape, values: tuple[str, ...]):
    """Pres of the nodes of *idx*'s tree that satisfy *shape*."""
    if shape.existence:
        if shape.target == "attr":
            return idx.attr_owner_pres(shape.name)
        return idx.child_name_parent_pres(shape.name)
    by_value = idx.path_value_owners(shape.path, shape.target, shape.name)
    if len(values) == 1:
        return by_value.get(values[0], ())
    owners: set[int] = set()
    for value in values:
        owners.update(by_value.get(value, ()))
    return owners


def apply_value_shape(items: list, shape: ValueShape, values: tuple[str, ...],
                      use_index: bool = True,
                      index_set: IndexSet | None = None) -> list:
    """Filter *items* by a resolved value shape (order-preserving).

    ``values`` is ``()`` for existence tests, otherwise the constant
    strings the comparison may match.  All items must be nodes.  With the
    index the shape's owner set is looked up once per tree and each item
    costs one membership test.
    """
    if not shape.existence and not values:
        return []
    if not use_index:
        value_set = None if shape.existence else frozenset(values)
        return [item for item in items
                if _node_passes_naive(item, shape, value_set)]
    if not items:
        return []
    if index_set is None:
        index_set = IndexSet()
    # The common case is one tree: map the whole column to pres at once.
    idx = index_set.for_node(items[0])
    pres = list(map(idx.pre_of.get, map(id, items)))
    if None not in pres:
        owners = _owner_pres(idx, shape, values)
        if not owners:
            return []
        return [item for item, pre in zip(items, pres) if pre in owners]
    kept: list = []
    owners_of: dict[int, set[int]] = {}  # per tree
    for item in items:
        if isinstance(item, AttributeNode):
            continue  # attributes have neither attributes nor children
        idx = index_set.for_node(item)
        pre = idx.pre_of.get(id(item))
        if pre is None:  # pragma: no cover - defensive (detached mid-batch)
            value_set = None if shape.existence else frozenset(values)
            if _node_passes_naive(item, shape, value_set):
                kept.append(item)
            continue
        owners = owners_of.get(id(idx))
        if owners is None:
            owners = owners_of[id(idx)] = _owner_pres(idx, shape, values)
        if pre in owners:
            kept.append(item)
    return kept


def probe_step(nodes: list, axis: str, kind: str, name: str | None,
               shape: ValueShape, resolve: Callable[[], tuple[str, ...] | None],
               index_set: IndexSet | None = None, trace=None) -> list | None:
    """``nodes/axis::name[shape]`` by index-side probing, or ``None``.

    Applies to a child or descendant *name* step whose first predicate is
    an equality shape: the value index names the few nodes satisfying the
    predicate and the kernel keeps those the step reaches
    (:func:`~repro.xdm.index.batch_probe`), in document order without
    duplicates.  *resolve* delivers the right-hand string values (``None``:
    not strings, fall back); it is called at most once, and only when the
    step has a candidate — the predicate of a step without candidates is
    never evaluated.  ``None`` means the caller should enumerate the step
    and filter as before (wrong axis or node test, non-string values, or
    the owners outnumber the candidates).  A *trace* counts every eligible
    step as ``step:probe``, batch when probed and fallback when declined.
    """
    if (axis not in PROBE_AXES or kind != "name" or name in (None, "*")
            or shape.existence):
        return None
    resolved: list = []

    def owners_of(idx):
        if not resolved:
            resolved.append(resolve())
        values = resolved[0]
        return None if values is None else _owner_pres(idx, shape, values)

    result = batch_probe(nodes, axis, name, owners_of, index_set)
    if trace is not None:
        trace.record_kernel("step:probe", result is not None)
    return result


def positional_filter(items: list, shape: PositionShape) -> list:
    """Slice *items* by a positional shape (1-based positions in list order).

    The caller guarantees the list order *is* the position order the
    predicate would observe (the axis's natural order for step predicates,
    the sequence order for filter expressions).
    """
    n = shape.value
    if n is None:  # last()
        return items[-1:]
    op = shape.op
    if op == "=":
        return items[n - 1:n] if n >= 1 else []
    if op == "!=":
        return items[:n - 1] + items[n:] if n >= 1 else list(items)
    if op == "<":
        return items[:max(n - 1, 0)]
    if op == "<=":
        return items[:max(n, 0)]
    if op == ">":
        return items[n:] if n >= 0 else list(items)
    if op == ">=":
        return items[max(n - 1, 0):]
    raise AssertionError(f"unexpected positional op {op!r}")  # pragma: no cover


def apply_shapes(items: list, shapes: Iterable[Shape],
                 resolved: Iterable[tuple[str, ...] | Callable[[Node], bool] | None],
                 use_index: bool = True,
                 index_set: IndexSet | None = None) -> list:
    """Apply a sequence of shapes (with pre-resolved values) in order.

    A value shape's entry in *resolved* is its strings — or, for a
    comparison string membership does not answer (a numeric operand
    promotes per operand pair, and may raise), a predicate over the operand
    node: an item is kept when one of the nodes its left-hand side selects
    satisfies it, asked in document order.
    """
    current = list(items)
    for shape, values in zip(shapes, resolved):
        if not current:
            break
        if isinstance(shape, PositionShape):
            current = positional_filter(current, shape)
        elif callable(values):
            current = [item for item in current
                       if any(map(values, _shape_operands(item, shape)))]
        else:
            current = apply_value_shape(current, shape, values or (),
                                        use_index=use_index, index_set=index_set)
    return current


__all__ = [
    "PositionShape",
    "Shape",
    "ValueShape",
    "apply_shapes",
    "apply_value_shape",
    "child_chain_names",
    "fixpoint_relation",
    "focus_free",
    "inline_calls",
    "positional_filter",
    "probe_step",
    "prolog_variables",
    "recognize_id_step",
    "recognize_predicate",
    "recognize_step_relation",
    "resolve_rhs",
    "string_values_or_none",
]
