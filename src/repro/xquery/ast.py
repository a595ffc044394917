"""Abstract syntax tree for the XQuery subset.

Every expression node derives from :class:`Expr` and implements
:meth:`Expr.children`, which returns ``(child, bound_variables)`` pairs: the
set names the variables this node newly binds *for that child*.  Free
variable computation (``fv(e)`` in the paper) and generic tree walks are
derived from this single method, so adding a new expression form cannot
silently break the analyses in :mod:`repro.distributivity`.

The one node that is not plain XQuery 1.0 is :class:`WithExpr` — the paper's
``with $x seeded by e_seed recurse e_rec`` inflationary fixed point form
(Definition 2.1), optionally extended with ``using naive|delta|auto`` to pin
the evaluation algorithm.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence


# ---------------------------------------------------------------------------
# sequence types (used by typeswitch, function signatures)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceType:
    """A minimal sequence type: an item type plus an occurrence indicator.

    ``item_type`` is one of ``"item"``, ``"node"``, ``"element"``,
    ``"attribute"``, ``"text"``, ``"document-node"``, ``"comment"``,
    ``"processing-instruction"``, ``"empty-sequence"`` or an atomic type name
    such as ``"xs:integer"``.  ``name`` optionally restricts element or
    attribute tests to a specific node name.  ``occurrence`` is one of
    ``""`` (exactly one), ``"?"``, ``"*"`` or ``"+"``.
    """

    item_type: str
    occurrence: str = ""
    name: str | None = None

    def __str__(self) -> str:
        if self.item_type == "empty-sequence":
            return "empty-sequence()"
        if self.item_type in _KIND_TEST_TYPES:
            inner = self.name or ""
            return f"{self.item_type}({inner}){self.occurrence}"
        return f"{self.item_type}{self.occurrence}"


_KIND_TEST_TYPES = {
    "node", "element", "attribute", "text", "comment",
    "processing-instruction", "document-node",
}


# ---------------------------------------------------------------------------
# expression base class
# ---------------------------------------------------------------------------


class Expr:
    """Base class for all expression AST nodes."""

    __slots__ = ()

    def children(self) -> list[tuple["Expr", frozenset[str]]]:
        """Child expressions paired with the variables bound for each child."""
        return []

    def child_expressions(self) -> list["Expr"]:
        """Just the child expressions (no binding information)."""
        return [child for child, _bound in self.children()]

    def free_variables(self) -> frozenset[str]:
        """The free variables ``fv(e)`` of this expression."""
        names: set[str] = set()
        if isinstance(self, VarRef):
            names.add(self.name)
        for child, bound in self.children():
            names |= child.free_variables() - bound
        return frozenset(names)

    def iter_subexpressions(self) -> Iterator["Expr"]:
        """Pre-order iteration over this expression and all subexpressions."""
        yield self
        for child in self.child_expressions():
            yield from child.iter_subexpressions()

    def contains_node_constructor(self) -> bool:
        """True if any subexpression constructs new nodes.

        Node constructors create fresh node identities on every evaluation;
        their presence makes an IFP potentially undefined (Definition 2.1)
        and always breaks distributivity (Section 3.2).
        """
        return any(
            isinstance(sub, (DirectElementConstructor, ComputedConstructor))
            for sub in self.iter_subexpressions()
        )


# ---------------------------------------------------------------------------
# literals, variables, context item
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal(Expr):
    """A string or numeric literal."""

    value: str | int | float


@dataclass(frozen=True)
class EmptySequence(Expr):
    """The literal empty sequence ``()``."""


@dataclass(frozen=True)
class VarRef(Expr):
    """A variable reference ``$name``."""

    name: str


@dataclass(frozen=True)
class ContextItem(Expr):
    """The context item expression ``.``."""


# ---------------------------------------------------------------------------
# sequence construction and set operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceExpr(Expr):
    """The comma operator: ``e1, e2, ..., en``."""

    items: tuple[Expr, ...]

    def children(self):
        return [(item, frozenset()) for item in self.items]


@dataclass(frozen=True)
class RangeExpr(Expr):
    """The integer range operator ``e1 to e2``."""

    start: Expr
    end: Expr

    def children(self):
        return [(self.start, frozenset()), (self.end, frozenset())]


@dataclass(frozen=True)
class UnionExpr(Expr):
    """Node-set union: ``e1 union e2`` (also spelled ``e1 | e2``)."""

    left: Expr
    right: Expr

    def children(self):
        return [(self.left, frozenset()), (self.right, frozenset())]


@dataclass(frozen=True)
class IntersectExpr(Expr):
    """Node-set intersection: ``e1 intersect e2``."""

    left: Expr
    right: Expr

    def children(self):
        return [(self.left, frozenset()), (self.right, frozenset())]


@dataclass(frozen=True)
class ExceptExpr(Expr):
    """Node-set difference: ``e1 except e2``."""

    left: Expr
    right: Expr

    def children(self):
        return [(self.left, frozenset()), (self.right, frozenset())]


# ---------------------------------------------------------------------------
# logic, comparisons, arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrExpr(Expr):
    left: Expr
    right: Expr

    def children(self):
        return [(self.left, frozenset()), (self.right, frozenset())]


@dataclass(frozen=True)
class AndExpr(Expr):
    left: Expr
    right: Expr

    def children(self):
        return [(self.left, frozenset()), (self.right, frozenset())]


@dataclass(frozen=True)
class GeneralComparison(Expr):
    """Existentially quantified comparison: ``=``, ``!=``, ``<``, ... ."""

    op: str
    left: Expr
    right: Expr

    def children(self):
        return [(self.left, frozenset()), (self.right, frozenset())]


@dataclass(frozen=True)
class ValueComparison(Expr):
    """Singleton value comparison: ``eq``, ``ne``, ``lt``, ... ."""

    op: str
    left: Expr
    right: Expr

    def children(self):
        return [(self.left, frozenset()), (self.right, frozenset())]


@dataclass(frozen=True)
class NodeComparison(Expr):
    """Node identity/order comparison: ``is``, ``<<``, ``>>``."""

    op: str
    left: Expr
    right: Expr

    def children(self):
        return [(self.left, frozenset()), (self.right, frozenset())]


@dataclass(frozen=True)
class ArithmeticExpr(Expr):
    """Binary arithmetic: ``+ - * div idiv mod``."""

    op: str
    left: Expr
    right: Expr

    def children(self):
        return [(self.left, frozenset()), (self.right, frozenset())]


@dataclass(frozen=True)
class UnaryExpr(Expr):
    """Unary ``+``/``-``."""

    op: str
    operand: Expr

    def children(self):
        return [(self.operand, frozenset())]


# ---------------------------------------------------------------------------
# FLWOR (as nested for/let), conditionals, quantifiers, typeswitch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForExpr(Expr):
    """A single-variable ``for`` iteration.

    Multi-variable FLWORs are desugared by the parser into nested
    :class:`ForExpr`/:class:`LetExpr` nodes, and ``where`` clauses into
    conditionals, so the analyses only ever deal with the binary forms the
    paper's Figure 5 rules (FOR1/FOR2, LET1/LET2) are stated for.
    """

    var: str
    sequence: Expr
    body: Expr
    position_var: str | None = None

    def children(self):
        bound = {self.var}
        if self.position_var:
            bound.add(self.position_var)
        return [(self.sequence, frozenset()), (self.body, frozenset(bound))]


@dataclass(frozen=True)
class LetExpr(Expr):
    """A single-variable ``let`` binding."""

    var: str
    value: Expr
    body: Expr

    def children(self):
        return [(self.value, frozenset()), (self.body, frozenset({self.var}))]


@dataclass(frozen=True)
class IfExpr(Expr):
    """``if (cond) then e1 else e2``."""

    condition: Expr
    then_branch: Expr
    else_branch: Expr

    def children(self):
        return [
            (self.condition, frozenset()),
            (self.then_branch, frozenset()),
            (self.else_branch, frozenset()),
        ]


@dataclass(frozen=True)
class QuantifiedExpr(Expr):
    """``some``/``every`` ``$v in e satisfies e``."""

    quantifier: str  # "some" | "every"
    var: str
    sequence: Expr
    satisfies: Expr

    def children(self):
        return [
            (self.sequence, frozenset()),
            (self.satisfies, frozenset({self.var})),
        ]


@dataclass(frozen=True)
class TypeswitchCase(Expr):
    """One ``case`` branch of a typeswitch."""

    sequence_type: SequenceType
    body: Expr
    var: str | None = None

    def children(self):
        bound = frozenset({self.var}) if self.var else frozenset()
        return [(self.body, bound)]


@dataclass(frozen=True)
class TypeswitchExpr(Expr):
    """``typeswitch (e) case ... default return ...``."""

    operand: Expr
    cases: tuple[TypeswitchCase, ...]
    default: Expr
    default_var: str | None = None

    def children(self):
        result: list[tuple[Expr, frozenset[str]]] = [(self.operand, frozenset())]
        for case in self.cases:
            result.append((case, frozenset()))
        default_bound = frozenset({self.default_var}) if self.default_var else frozenset()
        result.append((self.default, default_bound))
        return result


# ---------------------------------------------------------------------------
# the inflationary fixed point form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WithExpr(Expr):
    """The paper's IFP form: ``with $var seeded by seed recurse body``.

    ``algorithm`` records an optional ``using`` clause (engine extension):
    ``"auto"`` (default — let the distributivity analysis decide), ``"naive"``
    or ``"delta"``.
    """

    var: str
    seed: Expr
    body: Expr
    algorithm: str = "auto"

    def children(self):
        return [(self.seed, frozenset()), (self.body, frozenset({self.var}))]


# ---------------------------------------------------------------------------
# paths and steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeTest(Expr):
    """A node test inside an axis step.

    ``kind`` is ``"name"`` for name tests (``name`` holds the name or ``"*"``)
    or one of the kind-test names (``"node"``, ``"text"``, ``"element"``,
    ``"attribute"``, ``"comment"``, ``"processing-instruction"``,
    ``"document-node"``).
    """

    kind: str
    name: str | None = None


@dataclass(frozen=True)
class AxisStep(Expr):
    """An axis step ``axis::nodetest[pred]*`` evaluated against the focus."""

    axis: str
    node_test: NodeTest
    predicates: tuple[Expr, ...] = ()

    def children(self):
        return [(predicate, frozenset()) for predicate in self.predicates]


@dataclass(frozen=True)
class PathExpr(Expr):
    """The binary path operator ``e1 / e2``.

    ``//`` is desugared by the parser into an intermediate
    ``descendant-or-self::node()`` step, and a leading ``/`` into a
    :class:`RootExpr` left operand, so the evaluator and the analyses only
    see the binary form (which is exactly what Figure 5's STEP1/STEP2 rules
    are about).
    """

    left: Expr
    right: Expr

    def children(self):
        return [(self.left, frozenset()), (self.right, frozenset())]


@dataclass(frozen=True)
class RootExpr(Expr):
    """Leading ``/``: the root of the tree containing the context node."""


@dataclass(frozen=True)
class FilterExpr(Expr):
    """A primary expression filtered by predicates: ``e[p1][p2]...``."""

    primary: Expr
    predicates: tuple[Expr, ...]

    def children(self):
        return [(self.primary, frozenset())] + [(p, frozenset()) for p in self.predicates]


# ---------------------------------------------------------------------------
# function calls and constructors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionCall(Expr):
    """A call to a built-in or user-defined function."""

    name: str
    args: tuple[Expr, ...]

    def children(self):
        return [(arg, frozenset()) for arg in self.args]


@dataclass(frozen=True)
class AttributeConstructor(Expr):
    """An attribute inside a direct element constructor.

    The value is a sequence of string literals and enclosed expressions.
    """

    name: str
    value_parts: tuple[Expr, ...]

    def children(self):
        return [(part, frozenset()) for part in self.value_parts]


@dataclass(frozen=True)
class DirectElementConstructor(Expr):
    """A direct element constructor ``<name attr="...">{...}</name>``."""

    name: str
    attributes: tuple[AttributeConstructor, ...]
    content: tuple[Expr, ...]

    def children(self):
        result: list[tuple[Expr, frozenset[str]]] = []
        for attribute in self.attributes:
            result.append((attribute, frozenset()))
        for part in self.content:
            result.append((part, frozenset()))
        return result


@dataclass(frozen=True)
class ComputedConstructor(Expr):
    """A computed constructor: ``element {n} {c}``, ``text {c}``, etc.

    ``kind`` is one of ``"element"``, ``"attribute"``, ``"text"``,
    ``"comment"``, ``"document"``.  ``name`` may be a literal name or an
    expression (for computed names); ``content`` may be ``None`` for an
    empty constructor body.
    """

    kind: str
    name: Expr | None = None
    content: Expr | None = None

    def children(self):
        result = []
        if self.name is not None:
            result.append((self.name, frozenset()))
        if self.content is not None:
            result.append((self.content, frozenset()))
        return result


@dataclass(frozen=True)
class OrderedExpr(Expr):
    """``ordered { e }`` / ``unordered { e }`` — evaluated as ``e``."""

    mode: str
    body: Expr

    def children(self):
        return [(self.body, frozenset())]


@dataclass(frozen=True)
class CastExpr(Expr):
    """``e cast as T`` (supported for the basic atomic types)."""

    operand: Expr
    target_type: str
    optional: bool = False

    def children(self):
        return [(self.operand, frozenset())]


@dataclass(frozen=True)
class InstanceOfExpr(Expr):
    """``e instance of T``."""

    operand: Expr
    sequence_type: SequenceType

    def children(self):
        return [(self.operand, frozenset())]


# ---------------------------------------------------------------------------
# prolog and module
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A function parameter ``$name as type``."""

    name: str
    declared_type: SequenceType | None = None


@dataclass(frozen=True)
class FunctionDecl:
    """A user-defined function declaration."""

    name: str
    params: tuple[Param, ...]
    body: Expr
    return_type: SequenceType | None = None

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class VariableDecl:
    """A prolog variable declaration ``declare variable $x := e;``."""

    name: str
    value: Expr | None
    external: bool = False
    declared_type: SequenceType | None = None


@dataclass(frozen=True)
class Module:
    """A parsed query: prolog declarations plus the body expression."""

    functions: tuple[FunctionDecl, ...] = ()
    variables: tuple[VariableDecl, ...] = ()
    body: Expr = field(default_factory=EmptySequence)

    def function_map(self) -> dict[tuple[str, int], FunctionDecl]:
        """Index the declared functions by (name, arity)."""
        return {(f.name, f.arity): f for f in self.functions}


# ---------------------------------------------------------------------------
# helpers used across the analyses
# ---------------------------------------------------------------------------


def _child_fields(kind: type[Expr]) -> tuple[tuple[str, bool], ...]:
    """The fields of the node class *kind* that hold expressions, in
    declaration order, each with whether it holds a tuple of them — read off
    the resolved field types: an :class:`Expr` class, an optional one, or a
    ``tuple[…, ...]`` of one."""
    plan = []
    for name, hint in typing.get_type_hints(kind).items():
        is_tuple = typing.get_origin(hint) is tuple
        alternatives = typing.get_args(hint)[:1] if is_tuple else typing.get_args(hint) or (hint,)
        if any(isinstance(item, type) and issubclass(item, Expr) for item in alternatives):
            plan.append((name, is_tuple))
    return tuple(plan)


#: Node class → its child plan (:func:`_child_fields`): where a generic
#: rebuilding walk finds the children without reflecting over every field.
#: Unlike :meth:`Expr.children` it includes an axis step's node test — a
#: class with an empty plan is a leaf.
CHILD_FIELDS: dict[type[Expr], tuple[tuple[str, bool], ...]] = {
    kind: _child_fields(kind) for kind in Expr.__subclasses__()
}


def set_position(node: object, line: int, column: int) -> None:
    """Stamp a 1-based source (line, column) onto an AST node.

    Positions ride outside the dataclass fields (``object.__setattr__`` on
    the frozen instances), so structural equality, hashing and
    ``dataclasses.replace`` are unaffected; a node rebuilt by the optimizer
    simply loses its stamp and :func:`get_position` returns ``None``.
    """
    object.__setattr__(node, "_pos", (line, column))


def get_position(node: object) -> tuple[int, int] | None:
    """The (line, column) stamped by the parser, or ``None``."""
    position = getattr(node, "_pos", None)
    if isinstance(position, tuple) and len(position) == 2:
        return position
    return None


def substitute_variable(expr: Expr, var: str, replacement: Expr) -> Expr:
    """Return ``expr`` with free occurrences of ``$var`` replaced.

    This is the ``e1(e2) = e1[e2/$x]`` notation of Section 2.  Occurrences
    under a construct that rebinds the same name (``for``, ``let``, ``some``,
    ``every``, ``typeswitch`` case variables, or ``with``) are left
    untouched; subexpressions where the variable remains free — such as the
    range expression of a rebinding ``for`` — are still rewritten.
    """
    from dataclasses import fields, replace

    if isinstance(expr, VarRef):
        return replacement if expr.name == var else expr

    shadowed_fields = _shadowed_body_fields(expr, var)

    updates = {}
    for field_info in fields(expr):  # type: ignore[arg-type]
        if field_info.name in shadowed_fields:
            continue
        value = getattr(expr, field_info.name)
        new_value = _substitute_in_value(value, var, replacement)
        if new_value is not value:
            updates[field_info.name] = new_value
    if not updates:
        return expr
    return replace(expr, **updates)  # type: ignore[type-var]


def _shadowed_body_fields(expr: Expr, var: str) -> frozenset[str]:
    """Fields of *expr* in which free occurrences of *var* are shadowed."""
    if isinstance(expr, ForExpr) and var in {expr.var, expr.position_var}:
        return frozenset({"body"})
    if isinstance(expr, (LetExpr,)) and var == expr.var:
        return frozenset({"body"})
    if isinstance(expr, QuantifiedExpr) and var == expr.var:
        return frozenset({"satisfies"})
    if isinstance(expr, WithExpr) and var == expr.var:
        return frozenset({"body"})
    if isinstance(expr, TypeswitchCase) and var == expr.var:
        return frozenset({"body"})
    if isinstance(expr, TypeswitchExpr) and var == expr.default_var:
        return frozenset({"default"})
    return frozenset()


def _substitute_in_value(value, var: str, replacement: Expr):
    if isinstance(value, Expr):
        return substitute_variable(value, var, replacement)
    if isinstance(value, tuple):
        new_items = tuple(_substitute_in_value(item, var, replacement) for item in value)
        if all(a is b for a, b in zip(new_items, value)):
            return value
        return new_items
    return value


def fresh_variable(base: str, taken: Sequence[str]) -> str:
    """Generate a variable name not occurring in *taken*."""
    candidate = base
    counter = 1
    taken_set = set(taken)
    while candidate in taken_set:
        candidate = f"{base}_{counter}"
        counter += 1
    return candidate
