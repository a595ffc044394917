"""Predicate pushdown: shape recognition and vectorized filter kernels.

The paper's workloads are dominated by *value-filtered* path steps —
``//course[@code = $c]``, ``dblp//inproceedings[author = $a]`` — and
fixpoint bodies re-run those filters every µ/µ∆ round.  This module is the
shared seam all three engines route such predicates through:

* the **recognizer** (:func:`recognize_predicate`) classifies a predicate
  AST into one of a handful of *shapes* — attribute/child-element value
  comparisons against literals or variables, attribute/child existence
  tests, and positional predicates (``[1]``, ``[last()]``,
  ``[position() op N]``);
* the **batch kernels** (:func:`apply_value_shape`,
  :func:`positional_filter`) filter a whole candidate column at once: value
  shapes become membership probes into the lazy value inverted indexes of
  :class:`~repro.xdm.index.StructuralIndex` (one set lookup per candidate
  instead of a fresh focus + predicate evaluation), positional shapes
  become list-slice arithmetic on the axis-ordered candidate list (no
  ``position()``/``last()`` focus loop at all).

The interpreter calls the kernels from ``_apply_predicates``, the algebra
backend from the :class:`~repro.algebra.operators.StepJoin` macro (the
compiler attaches recognized shapes to the step), and the SQL emitter
reuses the recognizer to translate the same shapes into ``EXISTS`` probes
against the shredded ``attr``/``node`` tables.  Anything the recognizer
does not accept falls back to the engines' existing per-node paths, which
keeps all engines item-identical with pushdown on or off.  Traced runs
count each batch-vs-fallback decision on the query's own
:meth:`~repro.observability.tracing.TraceContext.record_kernel`.

Semantics notes
---------------
* Value comparisons are pushed only when every right-hand value is a
  *string* (``xs:string`` or ``xs:untypedAtomic``): untyped node content
  compared against a string is plain string equality, which is exactly a
  hash probe.  A numeric operand would switch the XQuery general
  comparison to numeric promotion (``"07" = 7`` is true) — those fall
  back.
* Value and existence shapes depend only on the candidate node (plus
  variable bindings), never on the focus position/size, so they may be
  applied to a merged context column.  Positional shapes count along the
  step's axis order per context node and are only batched where that
  grouping is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable

from repro.xdm.index import IndexSet
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

    ``target`` is ``"attr"`` (``[@name …]``) or ``"child"`` (``[name …]``).
    ``rhs`` is the compared expression (``None`` for bare existence tests);
    ``values`` optionally carries compile-time-resolved constant strings
    (the algebra compiler and the SQL emitter resolve eagerly, the
    interpreter resolves per application).
    """

    target: str
    name: str
    rhs: ast.Expr | None = None
    values: tuple[str, ...] | None = None

    @property
    def kind(self) -> str:
        suffix = "exists" if self.rhs is None and self.values is None else "eq"
        return f"{self.target}-{suffix}"


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


def _comparison_rhs(expr: ast.Expr) -> bool:
    """Expressions the kernels can resolve to constant string values."""
    return isinstance(expr, (ast.Literal, ast.VarRef))


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
        # [@a = rhs] / [name = rhs] (either spelling).  Only "=" — the
        # existential semantics of "!=" do not reduce to set membership.
        if expr.op == "=":
            step = _value_step_shape(expr.left)
            if step is not None and _comparison_rhs(expr.right):
                return ValueShape(step[0], step[1], rhs=expr.right)
            step = _value_step_shape(expr.right)
            if step is not None and _comparison_rhs(expr.left):
                return ValueShape(step[0], step[1], rhs=expr.left)
    return None


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
                lookup: Callable[[str], list | None]) -> tuple[str, ...] | None:
    """The constant string values of *shape*'s right-hand side.

    *lookup* maps a variable name to its bound value sequence (or ``None``
    when unknown).  Returns ``None`` when the shape must fall back.
    """
    if shape.values is not None:
        return shape.values
    rhs = shape.rhs
    if rhs is None:  # existence test — no values to resolve
        return ()
    if isinstance(rhs, ast.Literal):
        return string_values_or_none([rhs.value])
    if isinstance(rhs, ast.VarRef):
        bound = lookup(rhs.name)
        if bound is None:
            return None
        return string_values_or_none(bound)
    return None


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------


def _node_passes_naive(node: Node, shape: ValueShape,
                       values: frozenset | None) -> bool:
    """Per-node value test without the index (small batches, --no-index)."""
    if shape.target == "attr":
        for attribute in node.attribute_axis():
            if attribute.name == shape.name and (
                    values is None or attribute.value in values):
                return True
        return False
    for child in node.children:
        if isinstance(child, ElementNode) and child.name == shape.name and (
                values is None or child.string_value() in values):
            return True
    return False


def apply_value_shape(items: list, shape: ValueShape, values: tuple[str, ...],
                      use_index: bool = True,
                      index_set: IndexSet | None = None) -> list:
    """Filter *items* by a resolved value shape (order-preserving).

    ``values`` is ``()`` for existence tests, otherwise the constant
    strings the comparison may match.  All items must be nodes.
    """
    existence = shape.rhs is None and shape.values is None
    value_set = None if existence else frozenset(values)
    if not existence and not value_set:
        return []
    if not use_index:
        return [item for item in items
                if _node_passes_naive(item, shape, value_set)]
    if index_set is None:
        index_set = IndexSet()
    kept: list = []
    for item in items:
        if isinstance(item, AttributeNode):
            continue  # attributes have neither attributes nor children
        idx = index_set.for_node(item)
        pre = idx.pre_of.get(id(item))
        if pre is None:  # pragma: no cover - defensive (detached mid-batch)
            if _node_passes_naive(item, shape, value_set):
                kept.append(item)
            continue
        if _pre_passes(idx, pre, shape, values, existence):
            kept.append(item)
    return kept


def _pre_passes(idx, pre: int, shape: ValueShape, values: tuple[str, ...],
                existence: bool) -> bool:
    if shape.target == "attr":
        if existence:
            return pre in idx.attr_owner_pres(shape.name)
        return any(pre in idx.attr_value_owner_pres(shape.name, value)
                   for value in values)
    if existence:
        return pre in idx.child_name_parent_pres(shape.name)
    return any(pre in idx.child_value_parent_pres(shape.name, value)
               for value in values)


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
                 resolved: Iterable[tuple[str, ...] | None],
                 use_index: bool = True,
                 index_set: IndexSet | None = None) -> list:
    """Apply a sequence of shapes (with pre-resolved values) in order."""
    current = list(items)
    for shape, values in zip(shapes, resolved):
        if not current:
            break
        if isinstance(shape, PositionShape):
            current = positional_filter(current, shape)
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
    "positional_filter",
    "recognize_predicate",
    "resolve_rhs",
    "string_values_or_none",
]
