"""Abstract syntax tree for the XQuery subset.

Every expression node derives from :class:`Expr`.  Two tables describe
every node class, and no class overrides them: :data:`CHILD_FIELDS`, its
fields that hold expressions (read off the field types), and
:data:`BINDERS`, the variables a construct binds in which child.
:meth:`Expr.children` pairs each child with the names bound for it; free
variable computation (``fv(e)`` in the paper), substitution and the generic
walks read the same tables, so a new binding form is declared in one place
and cannot silently break the analyses in :mod:`repro.distributivity`.

The one node that is not plain XQuery 1.0 is :class:`WithExpr` — the paper's
``with $x seeded by e_seed recurse e_rec`` inflationary fixed point form
(Definition 2.1), optionally extended with ``using naive|delta|auto`` to pin
the evaluation algorithm.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, replace
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

    #: What :meth:`free_variables` records on a node once computed (its
    #: set, and ``True`` where it constructs nodes); the class defaults
    #: stand for "not yet" and "does not".
    _free: frozenset[str] | None = None
    _constructs = False
    #: What the parser noted on the ``recurse`` body of a ``with`` it built
    #: (:meth:`repro.xquery.parser.Parser._key_body`).
    _noted: tuple[str, str, tuple] | None = None

    def children(self) -> list[tuple["Expr", frozenset[str]]]:
        """Child expressions paired with the variables bound for each child:
        the fields of :data:`CHILD_FIELDS` but a node test, with the names
        :data:`BINDERS` says this node binds in each."""
        pairs = []
        for name, is_tuple, binders in SCOPED_FIELDS[type(self)]:
            value = getattr(self, name)
            if value is None:
                continue
            bound = bound_names(self, binders) if binders else _NO_NAMES
            if is_tuple:
                pairs.extend([(item, bound) for item in value])
            else:
                pairs.append((value, bound))
        return pairs

    def child_expressions(self) -> list["Expr"]:
        """Just the child expressions (no binding information)."""
        return [child for child, _ in self.children()]

    def free_variables(self) -> frozenset[str]:
        """The free variables ``fv(e)`` of this expression.

        Computed once per node, together with whether it constructs nodes
        (:meth:`contains_node_constructor`), and kept outside the dataclass
        fields like the position stamps of :func:`set_position`, so
        equality, hashing and ``dataclasses.replace`` are unaffected: the
        nodes are frozen, and a rebuilt node computes its own.  A node whose
        variables are those of one child shares that child's set (most
        share the empty one), so a cached module holds few of them."""
        free = self._free
        if free is not None:
            return free
        kind = type(self)
        free = frozenset((self.name,)) if kind is VarRef else _NO_NAMES
        constructs = kind in _CONSTRUCTORS
        for name, is_tuple, binders in SCOPED_FIELDS[kind]:
            value = getattr(self, name)
            if value is None:
                continue
            for child in value if is_tuple else (value,):
                names = child.free_variables()
                constructs = constructs or child._constructs
                if binders and names:
                    names = names - bound_names(self, binders)
                if names and not names <= free:
                    free = free | names if free else names
        if constructs:  # (stored only where true: the class says false)
            object.__setattr__(self, "_constructs", True)
        object.__setattr__(self, "_free", free)
        return free

    def iter_subexpressions(self) -> Iterator["Expr"]:
        """Pre-order iteration over this expression and all subexpressions
        (the nodes :meth:`children` reaches: no node test), read off
        :data:`CHILD_FIELDS` with an explicit stack — no generator per
        node."""
        stack = [self]
        while stack:
            expr = stack.pop()
            yield expr
            for name, is_tuple in _SUBEXPRESSION_FIELDS[type(expr)]:
                value = getattr(expr, name)
                if is_tuple:
                    stack.extend(reversed(value))
                elif value is not None:
                    stack.append(value)

    def contains_node_constructor(self) -> bool:
        """True if any subexpression constructs new nodes.

        Node constructors create fresh node identities on every evaluation;
        their presence makes an IFP potentially undefined (Definition 2.1)
        and always breaks distributivity (Section 3.2).  Computed with
        :meth:`free_variables`, once per node.
        """
        self.free_variables()
        return self._constructs


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


@dataclass(frozen=True)
class RangeExpr(Expr):
    """The integer range operator ``e1 to e2``."""

    start: Expr
    end: Expr


@dataclass(frozen=True)
class UnionExpr(Expr):
    """Node-set union: ``e1 union e2`` (also spelled ``e1 | e2``)."""

    left: Expr
    right: Expr


@dataclass(frozen=True)
class IntersectExpr(Expr):
    """Node-set intersection: ``e1 intersect e2``."""

    left: Expr
    right: Expr


@dataclass(frozen=True)
class ExceptExpr(Expr):
    """Node-set difference: ``e1 except e2``."""

    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# logic, comparisons, arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrExpr(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class AndExpr(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class GeneralComparison(Expr):
    """Existentially quantified comparison: ``=``, ``!=``, ``<``, ... ."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class ValueComparison(Expr):
    """Singleton value comparison: ``eq``, ``ne``, ``lt``, ... ."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class NodeComparison(Expr):
    """Node identity/order comparison: ``is``, ``<<``, ``>>``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class ArithmeticExpr(Expr):
    """Binary arithmetic: ``+ - * div idiv mod``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryExpr(Expr):
    """Unary ``+``/``-``."""

    op: str
    operand: Expr


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

    ``whole`` is an annotation, not syntax: the optimizer sets it on a loop
    whose value is only ever consumed as a node set and whose body
    distributes over ``var`` (Definition 3.1 read right to left), and the
    engines then evaluate the body once, with ``var`` bound to the whole
    non-empty sequence, instead of once per item.
    """

    var: str
    sequence: Expr
    body: Expr
    position_var: str | None = None
    whole: bool = False


@dataclass(frozen=True)
class LetExpr(Expr):
    """A single-variable ``let`` binding."""

    var: str
    value: Expr
    body: Expr


@dataclass(frozen=True)
class IfExpr(Expr):
    """``if (cond) then e1 else e2``."""

    condition: Expr
    then_branch: Expr
    else_branch: Expr


@dataclass(frozen=True)
class QuantifiedExpr(Expr):
    """``some``/``every`` ``$v in e satisfies e``."""

    quantifier: str  # "some" | "every"
    var: str
    sequence: Expr
    satisfies: Expr


@dataclass(frozen=True)
class TypeswitchCase(Expr):
    """One ``case`` branch of a typeswitch."""

    sequence_type: SequenceType
    body: Expr
    var: str | None = None


@dataclass(frozen=True)
class TypeswitchExpr(Expr):
    """``typeswitch (e) case ... default return ...``."""

    operand: Expr
    cases: tuple[TypeswitchCase, ...]
    default: Expr
    default_var: str | None = None


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

    #: The body as a step relation, once recognized
    #: (:func:`repro.xquery.pushdown.fixpoint_relation`); ``False`` for
    #: "not yet".  Kept outside the fields, like :meth:`free_variables`.
    _relation = False
    #: The same relation keyed for the SQL engine's images, once derived.
    _sql_relation = False
    #: The SQL engine's statement for the body and what emitting it read
    #: (:func:`repro.sqlbackend.emitter.emitted_for`); ``None`` for "not yet".
    _emitted = None


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


@dataclass(frozen=True)
class RootExpr(Expr):
    """Leading ``/``: the root of the tree containing the context node."""


@dataclass(frozen=True)
class FilterExpr(Expr):
    """A primary expression filtered by predicates: ``e[p1][p2]...``."""

    primary: Expr
    predicates: tuple[Expr, ...]


# ---------------------------------------------------------------------------
# function calls and constructors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionCall(Expr):
    """A call to a built-in or user-defined function."""

    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class AttributeConstructor(Expr):
    """An attribute inside a direct element constructor.

    The value is a sequence of string literals and enclosed expressions.
    """

    name: str
    value_parts: tuple[Expr, ...]


@dataclass(frozen=True)
class DirectElementConstructor(Expr):
    """A direct element constructor ``<name attr="...">{...}</name>``."""

    name: str
    attributes: tuple[AttributeConstructor, ...]
    content: tuple[Expr, ...]


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


@dataclass(frozen=True)
class OrderedExpr(Expr):
    """``ordered { e }`` / ``unordered { e }`` — evaluated as ``e``."""

    mode: str
    body: Expr


@dataclass(frozen=True)
class CastExpr(Expr):
    """``e cast as T`` (supported for the basic atomic types)."""

    operand: Expr
    target_type: str
    optional: bool = False


@dataclass(frozen=True)
class InstanceOfExpr(Expr):
    """``e instance of T``."""

    operand: Expr
    sequence_type: SequenceType


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

    #: The prolog variables a ``with`` body may read as such, once computed
    #: (:func:`repro.xquery.pushdown.prolog_variables`); ``None`` for "not
    #: yet".  Kept outside the fields, like :attr:`WithExpr._relation`.
    _prolog_variables = None
    #: What the parser noted about the text as written
    #: (:class:`repro.xquery.parser.TextFacts`); ``None`` for a module it
    #: did not build.
    _front = None

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

#: Binding construct → child field → the fields naming the variables it
#: binds in that child (an optional one holds ``None`` when absent).  The
#: one account of scope in the AST: :meth:`Expr.children`,
#: :meth:`Expr.free_variables`, :func:`substitute_variable`,
#: :func:`map_children` and the analyses all read it, so a new binding form
#: is declared here once.
BINDERS: dict[type[Expr], dict[str, tuple[str, ...]]] = {
    ForExpr: {"body": ("var", "position_var")},
    LetExpr: {"body": ("var",)},
    WithExpr: {"body": ("var",)},
    TypeswitchCase: {"body": ("var",)},
    QuantifiedExpr: {"satisfies": ("var",)},
    TypeswitchExpr: {"default": ("default_var",)},
}

#: :data:`CHILD_FIELDS` but an axis step's node test, each field with the
#: :data:`BINDERS` entry for it (``()`` where it binds nothing): what
#: :meth:`Expr.children` reads, and the scope walks that would otherwise
#: allocate its pairs (:meth:`Expr.free_variables`, the analyses').
SCOPED_FIELDS = {
    kind: tuple((name, is_tuple, BINDERS.get(kind, {}).get(name, ()))
                for name, is_tuple in plan if name != "node_test")
    for kind, plan in CHILD_FIELDS.items()
}

#: :data:`CHILD_FIELDS` but an axis step's node test, last field first:
#: what the pre-order walk of :meth:`Expr.iter_subexpressions` pushes.
_SUBEXPRESSION_FIELDS = {
    kind: tuple(entry for entry in plan[::-1] if entry[0] != "node_test")
    for kind, plan in CHILD_FIELDS.items()
}


def bound_names(expr: Expr, binders: tuple[str, ...]) -> frozenset[str]:
    """The variables *expr* binds through its fields *binders* (an entry of
    :data:`SCOPED_FIELDS`)."""
    return frozenset([name for name in map(expr.__getattribute__, binders) if name])


#: The node classes that construct nodes (:meth:`Expr.contains_node_constructor`).
_CONSTRUCTORS = frozenset({DirectElementConstructor, ComputedConstructor})

#: The free variables of a closed expression (:meth:`Expr.free_variables`).
_NO_NAMES: frozenset[str] = frozenset()


def set_position(node: object, line: int, column: int) -> None:
    """Stamp a 1-based source (line, column) onto an AST node.

    Positions ride outside the dataclass fields (``object.__setattr__`` on
    the frozen instances), so structural equality, hashing and
    ``dataclasses.replace`` are unaffected; a node rebuilt by the optimizer
    simply loses its stamp and :func:`get_position` returns ``None``.  The
    pair is kept as one integer, the column alone on the first line (a
    cached module holds one per stamped node: no tuple, and mostly an
    integer Python keeps anyway).
    """
    object.__setattr__(node, "_pos", (line - 1) << 32 | column)


def get_position(node: object) -> tuple[int, int] | None:
    """The (line, column) stamped by the parser, or ``None``."""
    position = getattr(node, "_pos", None)
    if type(position) is int:
        return (position >> 32) + 1, position & 0xFFFFFFFF
    return None


def substitute_variable(expr: Expr, var: str, replacement: Expr,
                        calls: list[FunctionCall] | None = None) -> Expr:
    """Return ``expr`` with free occurrences of ``$var`` replaced.

    This is the ``e1(e2) = e1[e2/$x]`` notation of Section 2.  Occurrences
    under a construct that rebinds the same name (``for``, ``let``, ``some``,
    ``every``, ``typeswitch`` case variables, or ``with``) are left
    untouched; subexpressions where the variable remains free — such as the
    range expression of a rebinding ``for`` — are still rewritten.

    Given a *calls* list, the same walk also appends every function call of
    *expr* to it, in no particular order.
    """
    kind = type(expr)
    if var not in expr.free_variables():
        if calls is not None:
            _append_calls(expr, calls)
        return expr
    if kind is VarRef:
        return replacement
    if calls is not None and kind is FunctionCall:
        calls.append(expr)
    shadowed = shadowed_fields(expr, var)
    if calls is not None:
        for name in shadowed:  # (every binding field holds one expression)
            _append_calls(getattr(expr, name), calls)
    return map_children(
        expr, lambda part: substitute_variable(part, var, replacement, calls), shadowed)


def _append_calls(expr: Expr, calls: list[FunctionCall]) -> None:
    if _SUBEXPRESSION_FIELDS[type(expr)]:  # (a leaf calls nothing)
        calls.extend([sub for sub in expr.iter_subexpressions() if type(sub) is FunctionCall])


def shadowed_fields(expr: Expr, var: str) -> tuple[str, ...]:
    """The child fields of *expr* in which it binds ``$var`` (:data:`BINDERS`)."""
    binders = BINDERS.get(type(expr))
    if binders is None:
        return ()
    return tuple([field for field, names in binders.items()
                  if var in map(expr.__getattribute__, names)])


def map_children(expr: Expr, function, keep: tuple[str, ...] = ()) -> Expr:
    """*expr* with *function* applied to every child expression (the fields
    of its class's child plan, :data:`CHILD_FIELDS`) but those of the fields
    *keep*; the same object when nothing changed."""
    updates = {}
    for name, is_tuple in CHILD_FIELDS[type(expr)]:
        if name in keep:
            continue
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
    return replace(expr, **updates)  # type: ignore[type-var]


def fresh_variable(base: str, taken: Sequence[str]) -> str:
    """Generate a variable name not occurring in *taken*."""
    candidate = base
    counter = 1
    taken_set = set(taken)
    while candidate in taken_set:
        candidate = f"{base}_{counter}"
        counter += 1
    return candidate
