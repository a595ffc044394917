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
  (:func:`~repro.xdm.index.batch_id_path`).

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

from dataclasses import dataclass
from collections.abc import Callable, Container, Iterable, Iterator

from repro.xdm.index import PROBE_AXES, IndexSet, batch_probe, named_element_test
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
    "focus_free",
    "positional_filter",
    "probe_step",
    "recognize_id_step",
    "recognize_predicate",
    "resolve_rhs",
    "string_values_or_none",
]
