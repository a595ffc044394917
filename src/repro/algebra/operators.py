"""The relational algebra dialect of Table 1.

Every operator records whether a union may be pushed up through it
(``union_pushable`` — the "Push?" column of Table 1) and knows how to
compute its output table from its input tables.  Plans are DAGs of
operators; sharing is by object identity and the evaluator memoises
accordingly.

Operators never materialise rows themselves: they call the kernel methods
of :class:`~repro.algebra.columnar.ColumnarTable` (hash joins, set-based
duplicate elimination, column-wise scalar maps), and the macros build their
outputs from whole columns with ``ColumnarTable.from_columns``.

Following the paper, the non-textbook operators (the XPath step join, the
``fn:id`` lookup, node constructors and the fixpoint operators µ/µ∆) are
"macros": single operators standing for micro-plans of standard relational
operators.  Their ``union_pushable`` flags are those Table 1 assigns to the
macro as a whole.
"""

from __future__ import annotations

import itertools
from collections import Counter
from time import perf_counter
from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import AlgebraError, XQueryTypeError
from repro.algebra.columnar import ColumnarTable, Constant
from repro.xdm.index import (
    SIBLING_AXES,
    IndexSet,
    StepRelation,
    batch_id,
    batch_id_path,
    batch_step,
    indexed_step,
    named_element_test,
    nth_child,
    nth_sibling,
)
from repro.xdm.items import is_node, string_value_of_item
from repro.xdm.node import AttributeNode, CommentNode, DocumentNode, ElementNode, Node, TextNode
from repro.xdm.sequence import ddo, ensure_node_sequence, predicate_truth
from repro.xquery.pushdown import (
    PositionShape,
    ValueShape,
    apply_shapes,
    apply_value_shape,
    positional_filter,
    probe_step,
    string_values_or_none,
)

_operator_ids = itertools.count(1)

#: Multiplier separating the row-tag ranges of distinct RowTag operators.
_ROW_TAG_STRIDE = 1 << 40

_EVALUATOR_SINGLETON = None


def _shared_evaluator():
    """A lazily created XQuery evaluator reused by the step-join macro."""
    global _EVALUATOR_SINGLETON
    if _EVALUATOR_SINGLETON is None:
        from repro.xquery.evaluator import Evaluator

        _EVALUATOR_SINGLETON = Evaluator()
    return _EVALUATOR_SINGLETON


class Operator:
    """Base class of all plan operators."""

    #: Symbol used when rendering plans (Table 1 notation).
    symbol: str = "?"
    #: The "Push?" column of Table 1: may ∪ be pushed up through this operator?
    union_pushable: bool = False
    #: True for operators the checker may skip when duplicates/order are
    #: irrelevant (Section 4.1): duplicate elimination and row numbering.
    order_or_duplicates_only: bool = False
    #: True when the ``item`` column holds nodes *by construction* (steps,
    #: ``fn:id``, ``fn:doc``, the recursion input; the compiler hands the
    #: flag on to plans that re-address or select such a plan's items, in
    #: ``compiler._same_items`` and nowhere else): an axis step over it
    #: cannot raise, whichever iterations it is evaluated for.
    node_valued: bool = False

    def __init__(self, children: Sequence["Operator"] = ()):  # noqa: D401
        self.children: tuple[Operator, ...] = tuple(children)
        self.operator_id: int = next(_operator_ids)
        #: Optional template tag (plan fragments the checker can big-step over).
        self.template: str | None = None

    # -- evaluation -----------------------------------------------------------

    def compute(self, inputs: list[ColumnarTable], engine: "AlgebraEngineProtocol") -> ColumnarTable:
        """Compute the operator's output from its children's outputs."""
        raise NotImplementedError

    # -- rendering -------------------------------------------------------------

    def label(self) -> str:
        return self.symbol

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} #{self.operator_id}>"

    def iter_operators(self):
        """Pre-order DAG iteration (each operator yielded once)."""
        seen: set[int] = set()
        stack = [self]
        while stack:
            operator = stack.pop()
            if id(operator) in seen:
                continue
            seen.add(id(operator))
            yield operator
            stack.extend(operator.children)


class AlgebraEngineProtocol:
    """What operators may ask of the engine during evaluation."""

    #: Per-run memo the macro operators may use (None disables caching).
    #: Entries keep a strong reference to their key object so ``id()`` reuse
    #: after garbage collection cannot alias cache entries.
    macro_cache: dict | None = None

    #: Whether the step macro may answer from the structural index's batch
    #: kernels (:mod:`repro.xdm.index`).
    use_index: bool = True

    #: The run's :class:`~repro.observability.tracing.TraceContext` (traced
    #: runs) — the step macro counts its pushed-kernel hits on it.
    trace = None

    def recursion_input(self) -> ColumnarTable:  # pragma: no cover - interface only
        raise NotImplementedError

    def evaluate_plan(self, plan: Operator) -> ColumnarTable:  # pragma: no cover - interface only
        raise NotImplementedError


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------


class LiteralTable(Operator):
    """A constant table (used for literal frequencies, loop seeds, ...).

    Every evaluation of the plan — every fixpoint round, every plan-cache
    hit, on any thread — gets this very table, which is sound because no
    kernel mutates a column list it was given.
    """

    symbol = "table"
    union_pushable = True

    def __init__(self, table: ColumnarTable):
        super().__init__()
        self.table = table

    def compute(self, inputs, engine):
        return self.table

    def label(self):
        return f"table({'|'.join(self.table.columns)}, {len(self.table)})"


class DocumentRoot(Operator):
    """The ``fn:doc`` leaf: one row per loop iteration carrying the doc node."""

    symbol = "doc"
    union_pushable = True
    node_valued = True

    def __init__(self, loop: Operator, document: DocumentNode):
        super().__init__([loop])
        self.document = document

    def compute(self, inputs, engine):
        iters = inputs[0].column_values("iter")
        count = len(iters)
        return ColumnarTable.from_columns(
            ("iter", "pos", "item"), [iters, [1] * count, [self.document] * count]
        )


class RecursionInput(Operator):
    """The recursion variable's input inside a fixpoint body plan.

    During µ/µ∆ evaluation the engine rebinds this leaf to the current
    (respectively delta) intermediate result; during the distributivity
    check it is the place where the symbolic ∪ starts its way up the plan
    (Figure 7a).
    """

    symbol = "$x"
    union_pushable = True
    node_valued = True

    def __init__(self, variable: str):
        super().__init__()
        self.variable = variable

    def compute(self, inputs, engine):
        return engine.recursion_input()

    def label(self):
        return f"${self.variable}"


# ---------------------------------------------------------------------------
# textbook operators
# ---------------------------------------------------------------------------


class Project(Operator):
    """π — projection with renaming: ``mapping`` is (new, old) pairs, an
    old name that is a :class:`~repro.algebra.columnar.Constant` a column
    of that value (the ``pos`` of ``iter|pos|item``: no ⊚ computes it)."""

    symbol = "π"
    union_pushable = True

    def __init__(self, child: Operator, mapping: Sequence[tuple[str, str | Constant]]):
        super().__init__([child])
        self.mapping = tuple(mapping)

    def compute(self, inputs, engine):
        return inputs[0].project(self.mapping)

    def label(self):
        parts = [f"{new}:={old.value!r}" if isinstance(old, Constant)
                 else new if new == old else f"{new}:{old}" for new, old in self.mapping]
        return f"π_{{{','.join(parts)}}}"


class Select(Operator):
    """σ — keep rows whose boolean column is true.

    The textbook operator of Table 1, kept as the reference primitive:
    since the σ∘⊚ fusion the compiler emits :class:`SelectComputed`
    instead, so this operator only appears in hand-built plans and the
    operator unit tests.
    """

    symbol = "σ"
    union_pushable = True

    def __init__(self, child: Operator, column: str):
        super().__init__([child])
        self.column = column

    def compute(self, inputs, engine):
        return inputs[0].select_flag(self.column)

    def label(self):
        return f"σ_{self.column}"


class SelectComputed(Operator):
    """σ∘⊚ — fused select: keep rows where ``function(*sources)`` is truthy.

    Replaces the ``Select(ScalarOp(child, flag, …), flag)`` pair the
    compiler used to emit for predicate/where conditions: the boolean
    column is never materialised and only one output table is built.
    Union-pushable for the same reason the pair is.
    """

    symbol = "σ⊚"
    union_pushable = True

    def __init__(self, child: Operator, sources: Sequence[str],
                 function: Callable[..., Any], name: str = "fun"):
        super().__init__([child])
        self.sources = tuple(sources)
        self.function = function
        self.name = name

    def compute(self, inputs, engine):
        return inputs[0].select_computed(self.sources, self.function)

    def label(self):
        return f"σ⊚{self.name}<{','.join(self.sources)}>"


class Join(Operator):
    """⋈ — equi-join on pairs of columns (left column, right column)."""

    symbol = "⋈"
    union_pushable = True

    def __init__(self, left: Operator, right: Operator,
                 conditions: Sequence[tuple[str, str]],
                 comparison: Callable[[Any, Any], bool] | None = None):
        super().__init__([left, right])
        self.conditions = tuple(conditions)
        self.comparison = comparison

    def compute(self, inputs, engine):
        left, right = inputs
        if self.comparison is None and self.conditions:
            return left.hash_join(right, self.conditions)
        compare = self.comparison or _default_equality
        return left.theta_join(right, self.conditions, compare)

    def label(self):
        condition = ",".join(f"{l}={r}" for l, r in self.conditions)
        return f"⋈_{{{condition}}}"


class ValueEqualJoin(Operator):
    """⋈= — the existential ``=`` of a general comparison, per iteration.

    Inputs: ``iter|item`` and ``iter|item_r`` with atomized items; output:
    the row pairs of one iteration whose items compare equal.  When every
    item on both sides is a string (``xs:string``/``xs:untypedAtomic`` —
    what atomized untyped documents deliver) general equality *is* string
    equality, so the operator is one ``(iter, item)`` hash equi-join.  Any
    other atomic type brings the promotion rules in (``"07" = 7``): then it
    is the textbook ``iter`` join filtered by *comparison* over the
    per-iteration cross product.
    """

    symbol = "⋈="
    union_pushable = True

    def __init__(self, left: Operator, right: Operator,
                 comparison: Callable[[Any, Any], bool]):
        super().__init__([left, right])
        self.comparison = comparison

    def compute(self, inputs, engine):
        left, right = inputs
        if (all(isinstance(value, str) for value in left.column_values("item"))
                and all(isinstance(value, str) for value in right.column_values("item_r"))):
            return left.hash_join(right, [("iter", "iter"), ("item", "item_r")])
        return left.hash_join(right, [("iter", "iter")]).select_computed(
            ["item", "item_r"], self.comparison)


def _default_equality(left: Any, right: Any) -> bool:
    if is_node(left) or is_node(right):
        return left is right
    from repro.xdm.comparison import atomic_equal

    return atomic_equal(left, right)


class Cross(Operator):
    """× — Cartesian product."""

    symbol = "×"
    union_pushable = True

    def compute(self, inputs, engine):
        left, right = inputs
        return left.cross(right)


class Distinct(Operator):
    """δ — duplicate elimination.

    Not union-pushable under the bag semantics of Table 1, but the
    distributivity checker may skip it entirely because distributivity is
    defined up to duplicates (Section 4.1) — hence
    ``order_or_duplicates_only``.
    """

    symbol = "δ"
    union_pushable = False
    order_or_duplicates_only = True

    def compute(self, inputs, engine):
        return inputs[0].distinct()


class UnionAll(Operator):
    """∪ — union (bag union of union-compatible inputs)."""

    symbol = "∪"
    union_pushable = True

    def compute(self, inputs, engine):
        left, right = inputs
        return left.union_all(right)


class IterationMerge(Operator):
    """Stable merge by ``iter``: each iteration's rows contiguous, in the
    order they already had.

    ∪ appends its operands whole, so inside a loop a sequence expression or
    an ``if … else`` comes out *operand-major* (every iteration's first
    operand, then every iteration's second).  Row order is sequence order;
    this operator restores it per iteration.  It changes order only, which
    distributivity is defined up to (Section 4.1), so the checker skips it.
    """

    symbol = "⊎"
    union_pushable = True
    order_or_duplicates_only = True

    def compute(self, inputs, engine):
        return inputs[0].sort_by(("iter",))


class Difference(Operator):
    """\\ — EXCEPT ALL.  Consumes both inputs entirely: not pushable — but
    for the per-iteration anti-join ``loop \\ selected(C)`` the compiler
    emits for ``not(C)``, which the ∪ reaches through both inputs, each
    keyed by ``iter`` (see :mod:`repro.algebra.distributivity`)."""

    symbol = "\\"
    union_pushable = False

    def compute(self, inputs, engine):
        left, right = inputs
        return left.difference(right)


class Aggregate(Operator):
    """Grouping aggregate (count/sum/max/min) — blocks union push-up.

    ``group_by`` names the grouping columns (typically ``iter``),
    ``source`` the aggregated column, ``result`` the output column.
    ``loop`` optionally supplies the iterations that must appear in the
    output even when they have no input rows (count = 0 semantics).
    """

    symbol = "count"
    union_pushable = False

    def __init__(self, child: Operator, kind: str, group_by: Sequence[str],
                 source: str | None, result: str, loop: Operator | None = None):
        children = [child] + ([loop] if loop is not None else [])
        super().__init__(children)
        self.kind = kind
        self.group_by = tuple(group_by)
        self.source = source
        self.result = result
        self.has_loop = loop is not None

    def compute(self, inputs, engine):
        loop_iters = inputs[1].column_values("iter") if self.has_loop else None
        return inputs[0].aggregate(self.kind, self.group_by, self.source,
                                   self.result, loop_iters=loop_iters)

    def label(self):
        return f"{self.kind}_{self.result}/{','.join(self.group_by)}"


class ScalarOp(Operator):
    """⊚ — n-ary arithmetic/comparison operator computing a new column."""

    symbol = "⊚"
    union_pushable = True

    def __init__(self, child: Operator, result: str, sources: Sequence[str],
                 function: Callable[..., Any], name: str = "fun"):
        super().__init__([child])
        self.result = result
        self.sources = tuple(sources)
        self.function = function
        self.name = name

    def compute(self, inputs, engine):
        return inputs[0].extend_computed(self.result, self.sources, self.function)

    def label(self):
        return f"⊚{self.name}_{self.result}:<{','.join(self.sources)}>"


class RowTag(Operator):
    """# — attach a unique row identifier column."""

    symbol = "#"
    union_pushable = True

    def __init__(self, child: Operator, result: str):
        super().__init__([child])
        self.result = result

    def compute(self, inputs, engine):
        return inputs[0].tag_rows(self.result, self.operator_id * _ROW_TAG_STRIDE)

    def label(self):
        return f"#_{self.result}"


class RowNumber(Operator):
    """̺ — ordered row numbering; requires its whole input, blocks push-up."""

    symbol = "̺"
    union_pushable = False
    order_or_duplicates_only = True

    def __init__(self, child: Operator, result: str, order_by: Sequence[str],
                 partition_by: Sequence[str] = ()):
        super().__init__([child])
        self.result = result
        self.order_by = tuple(order_by)
        self.partition_by = tuple(partition_by)

    def compute(self, inputs, engine):
        return inputs[0].row_number(self.result, self.order_by, self.partition_by)

    def label(self):
        return f"̺_{self.result}:<{','.join(self.order_by)}>"


# ---------------------------------------------------------------------------
# XQuery-specific macro operators
# ---------------------------------------------------------------------------


def _group_items_by_iteration(table: ColumnarTable,
                              require_nodes: bool = False) -> tuple[dict, list]:
    """Group an ``iter|…|item`` table's items per iteration, keeping order."""
    per_iteration, order = table.items_by_iteration()
    if require_nodes:
        for bucket in per_iteration.values():
            for item in bucket:
                if not is_node(item):
                    raise AlgebraError("step join applied to a non-node item")
    return per_iteration, order


def _sequence_table(results: list[tuple[Any, list]]) -> ColumnarTable:
    """``(iteration, items)`` pairs as an ``iter|pos|item`` table, positions
    counting each iteration's items from 1."""
    iters: list = []
    positions: list = []
    items: list = []
    for iteration, result in results:
        iters.extend([iteration] * len(result))
        positions.extend(range(1, len(result) + 1))
        items.extend(result)
    return ColumnarTable.from_columns(("iter", "pos", "item"), [iters, positions, items])


#: Axes on which the step from one context node comes duplicate-free and
#: in document order from every kernel (see ``StepJoin._step_ddo``).
ONE_NODE_ORDERED_AXES = frozenset({"child", "descendant", "descendant-or-self",
                                   "following-sibling", "following", "self"})


class StepJoin(Operator):
    """ — the XPath location-step macro (axis ``α``, node test ``n``).

    Input: ``iter|pos|item`` with node items (the context nodes).
    Output: ``iter|pos|item`` containing the step results per iteration in
    document order without duplicates (the ddo that the macro encapsulates).

    With the structural index enabled (the default; see
    :mod:`repro.xdm.index` and the engine's ``use_index`` flag) each
    iteration's whole context column goes through one *batch step kernel*:
    descendant steps become merged pre-order interval slices into the name
    inverted index — duplicate-free and document-ordered by construction —
    and the remaining axes dedup once by identity and sort once by order
    key.  Singleton iterations (the loop-lifted common case, re-fed every
    round under µ), positional shapes and runs without the index take
    per-node axis walks memoised in the engine's macro cache.

    ``pushed`` carries the predicate *shapes* the compiler recognized
    (:mod:`repro.xquery.pushdown`): value and existence tests filter through
    the value inverted indexes; positional shapes slice the axis-ordered
    per-node result (a sibling step led by ``[n]`` walks only to the n-th
    match, :func:`~repro.xdm.index.nth_sibling`) — which is also how the
    macro gains positional predicate support, something the generic
    materialize-then-filter predicate plan cannot express.  Value-only
    shapes commute with the per-iteration union,
    so they are applied to the merged batch column; any positional shape
    forces per-context-node application (XQuery counts positions per context
    node).

    A value shape's right-hand side is either resolved at compile time
    (``shape.values``: constant strings) or *computed*: the shape keeps its
    ``rhs`` and the macro takes one more input per such shape, in shape
    order — ``values``, each an ``iter|pos|item`` plan of atomized items in
    the step's own loop.  The macro is then a join by value: an iteration
    filters with the values its own ``iter`` delivers (none: it selects
    nothing), through the same kernels — index-side probing first — so it
    costs the value index's owners, not candidates × iterations.  No value
    is kept on the operator; a cached plan reads them afresh every run.  An
    input that delivers an iteration a value that is not a string is
    answered by enumerating the step and comparing per candidate with
    *comparison* (general-comparison promotion, errors included).

    The macro distributes over its context input, and — a candidate is kept
    when *some* value matches — over its value inputs, so whichever input
    the recursion variable reaches it through it is the ``step`` template
    of the ∪ push-up check.  The exception is a positional shape *behind* a
    computed one: it slices what all of an iteration's values kept, and
    ``first(A ∪ B) ≠ first(A) ∪ first(B)``.  Such a macro is no template
    and blocks the ∪ (``union_pushable`` false: the fixpoint runs µ) —
    also when the recursion variable arrives through the context input
    only, where Delta would be safe: the check does not tell inputs apart.
    """

    symbol = "step"
    union_pushable = True
    node_valued = True

    def __init__(self, child: Operator, axis: str, node_test_kind: str,
                 node_test_name: str | None = None, pushed: tuple = (),
                 values: Sequence[Operator] = (),
                 comparison: Callable[[Any, Any], bool] | None = None):
        super().__init__([child, *values])
        self.axis = axis
        self.node_test_kind = node_test_kind
        self.node_test_name = node_test_name
        self.pushed = tuple(pushed)
        self.comparison = comparison
        #: Per shape: its constant strings; ``None`` for a positional shape
        #: and as the placeholder of a computed one.
        self._pushed_values = tuple(
            (shape.values or ()) if isinstance(shape, ValueShape) and shape.rhs is None
            else None for shape in self.pushed
        )
        #: The slots of ``pushed`` whose values arrive as inputs 1, 2, ….
        self._computed = tuple(slot for slot, shape in enumerate(self.pushed)
                               if isinstance(shape, ValueShape) and shape.rhs is not None)
        if len(self._computed) != len(values) or (values and comparison is None):
            raise AlgebraError("step join: one value input per computed shape, "
                               "and a comparison for them")
        positional = [slot for slot, shape in enumerate(self.pushed)
                      if isinstance(shape, PositionShape)]
        self._pushed_positional = bool(positional)
        if self._computed and positional and positional[-1] > self._computed[0]:
            self.union_pushable = False  # slices what a value *set* kept
        else:
            self.template = "step"
        #: The first pushed shape, when it is an equality the value index can
        #: answer from its side (see ``_probe``).
        self._probe_shape = (self.pushed[0] if self.pushed
                             and not isinstance(self.pushed[0], PositionShape)
                             and not self.pushed[0].existence else None)
        #: ``n`` of a sibling step whose first pushed shape is ``[n]``: the
        #: walk stops at the n-th match (:func:`nth_sibling`); of a
        #: ``child::name[n]`` step: the n-th entry of the child-by-name map
        #: (:func:`nth_child`).
        self._nth = (self.pushed[0].nth if self.pushed
                     and isinstance(self.pushed[0], PositionShape)
                     and (axis in SIBLING_AXES or axis == "child"
                          and named_element_test(node_test_kind, node_test_name))
                     else None)

    def compute(self, inputs, engine):
        per_iteration, order = _group_items_by_iteration(inputs[0], require_nodes=True)
        value_groups = [table.items_by_iteration()[0] for table in inputs[1:]]
        use_index = getattr(engine, "use_index", True)
        # shared by all iterations of this call; without value inputs it is
        # built lazily, by the first iteration that needs it
        index_set = IndexSet() if value_groups and use_index else None
        trace = engine.trace if self.pushed else None
        timer = perf_counter() if trace is not None else 0.0
        values = self._pushed_values
        results: list = []
        for iteration in order:
            nodes = per_iteration[iteration]
            if value_groups:
                values = self._iteration_values(iteration, value_groups)
            if len(nodes) == 1:
                # Singleton iterations (the loop-lifted common case) hit the
                # per-run macro cache; the index accelerates the first
                # computation inside _step.
                result = self._step_ddo(nodes[0], engine, values, index_set)
            else:
                result = None
                if use_index and not self._pushed_positional:
                    # Whole-column contexts (fixpoint feedback) take one
                    # batch kernel on every axis: under µ∆ a node is fed
                    # once, so a per-node memo never hits, and under µ the
                    # kernel costs what the memo hits plus the ddo over
                    # their concatenation would.  Pushed value shapes filter
                    # the merged column directly.
                    if self.pushed and index_set is None:
                        index_set = IndexSet()
                    result = self._probe(nodes, values, index_set, trace)
                    if result is None:
                        result = batch_step(nodes, self.axis, self.node_test_kind,
                                            self.node_test_name)
                        if result is not None and self.pushed:
                            result = apply_shapes(result, self.pushed, values,
                                                  use_index=True,
                                                  index_set=index_set)
                if result is None:
                    if use_index and index_set is None:
                        index_set = IndexSet()
                    merged: list[Node] = []
                    for node in nodes:
                        merged.extend(self._step_ddo(node, engine, values, index_set))
                    result = ddo(merged)
            results.append((iteration, result))
        if trace is not None:
            trace.record_kernel(f"algebra-step:{self.axis}", True,
                                perf_counter() - timer)
        return _sequence_table(results)

    def _iteration_values(self, iteration, value_groups: list[dict]) -> tuple:
        """The resolved values per pushed shape for one iteration: the
        constants plus what the value inputs deliver for it.  Strings go to
        the hash kernels as they are.  A numeric or boolean value switches
        the general comparison to promotion per operand pair (``"07" = 7``,
        ``FORG0001`` on ``"x" = 7``), which no hash probe answers: that
        slot gets a predicate comparing a candidate's operand node with the
        iteration's values, for :func:`apply_shapes` to ask per candidate."""
        resolved = list(self._pushed_values)
        for slot, group in zip(self._computed, value_groups):
            given = group.get(iteration, ())
            strings = string_values_or_none(given)
            resolved[slot] = self._matcher(given) if strings is None else strings
        return tuple(resolved)

    def _matcher(self, given: list) -> Callable[[Node], bool]:
        """``operand = given`` as a general comparison, existentially."""
        comparison = self.comparison

        def matches(operand: Node) -> bool:
            left = operand.typed_value()
            return any(comparison(left, right) for right in given)

        return matches

    def _probe(self, nodes: list[Node], values: tuple, index_set,
               trace=None) -> list[Node] | None:
        """The step with *all* pushed shapes applied, its first (equality)
        shape answered by index-side probing — or ``None`` to enumerate.
        The probed nodes come in document order, which for the forward axes
        probing covers is the axis order later positional shapes count in
        (callers with several context nodes have none)."""
        if self._probe_shape is None or callable(values[0]):
            return None
        result = probe_step(nodes, self.axis, self.node_test_kind,
                            self.node_test_name, self._probe_shape,
                            lambda: values[0], index_set, trace)
        if result is None:
            return None
        return apply_shapes(result, self.pushed[1:], values[1:],
                            use_index=True, index_set=index_set)

    def _step_ddo(self, node: Node, engine, values: tuple, index_set=None) -> list[Node]:
        """The step result for one context node — pushed shapes applied in
        axis order, then deduplicated and in document order — memoised per
        run (the step relation and the pushed constants of a static document
        do not change between fixpoint rounds, so re-fed fixpoint contexts
        hit the cache every round).  The memo is keyed (operator, node): an
        operator with value inputs answers differently per iteration and
        stays out of it.

        On a forward axis (:data:`ONE_NODE_ORDERED_AXES`) one node's step
        is already duplicate-free and in document order, whichever kernel
        answers it: the index's pre-order slices and child lists,
        :func:`nth_sibling` (at most one node), index-side probing (sorted
        pres), ``_attribute_upward`` for an attribute context (nothing, or
        the attribute itself) and the axis walk of the node objects.  The
        pushed shapes only drop items, so the result skips the ``ddo``.
        Reverse axes and ``attribute`` keep it.  The list is shared with
        the memo: no caller may change it."""
        use_index = getattr(engine, "use_index", True)
        cache = None if self._computed else getattr(engine, "macro_cache", None)
        if cache is not None:
            key = (self.operator_id, id(node))
            hit = cache.get(key)
            if hit is not None and hit[0] is node:
                return hit[1]
        result = self._filtered_step(node, values, use_index, index_set,
                                     getattr(engine, "trace", None))
        if self.axis not in ONE_NODE_ORDERED_AXES:
            result = ddo(result)
        if cache is not None:
            cache[key] = (node, result)
        return result

    def _filtered_step(self, node: Node, values: tuple, use_index: bool,
                       index_set=None, trace=None) -> list[Node]:
        """One node's raw step result with the pushed shapes applied.

        The raw result is in the axis's *natural* order (reverse axes
        nearest-first), which is exactly the order positional shapes count
        along.  The caller applies the final ddo on the other axes only: on a
        forward axis (:data:`ONE_NODE_ORDERED_AXES`) the list is used and
        memoised as returned, so every path here must keep document order
        and must not return a list the index or a node owns.
        """
        if use_index:
            if self._nth is not None:
                result = (nth_child([node], self.node_test_name, self._nth)
                          if self.axis == "child" else
                          nth_sibling(node, self.axis, self.node_test_kind,
                                      self.node_test_name, self._nth, index_set))
                if result is not None:
                    return apply_shapes(result, self.pushed[1:], values[1:],
                                        use_index=True, index_set=index_set)
            result = self._probe([node], values, index_set, trace)
            if result is not None:
                return result
        result = self._step(node, use_index, index_set)
        if self.pushed:
            result = apply_shapes(result, self.pushed, values,
                                  use_index=use_index, index_set=index_set)
        return result

    def _step(self, node: Node, use_index: bool = True, index_set=None) -> list[Node]:
        if use_index:
            if index_set is not None:
                # Batched context: the IndexSet amortizes the root walk, so
                # every axis (child maps, attribute lists, sibling ranks)
                # goes through the index kernels.
                result = index_set.step(node, self.axis, self.node_test_kind,
                                        self.node_test_name)
            else:
                result = indexed_step(node, self.axis, self.node_test_kind,
                                      self.node_test_name)
            if result is not None:
                return result
        from repro.xquery import ast as xq_ast

        evaluator = _shared_evaluator()
        axis_nodes = evaluator._axis_nodes(node, self.axis)
        test = xq_ast.NodeTest(self.node_test_kind, self.node_test_name)
        return [candidate for candidate in axis_nodes
                if evaluator._node_test(candidate, test, self.axis)]

    def label(self):
        if self.node_test_kind == "name":
            test = self.node_test_name or "*"
        else:
            test = f"{self.node_test_kind}({self.node_test_name or ''})"
        pushed = f"[{len(self.pushed)} pushed]" if self.pushed else ""
        joined = f"⋈{len(self._computed)}" if self._computed else ""
        return f"{self.axis}::{test}{pushed}{joined}"


class ShapeFilter(Operator):
    """The recognized predicate prefix of a filter expression ``E[p1]…[pk]``
    as one macro over the plan of ``E``.

    ``pushed`` are shapes (:mod:`repro.xquery.pushdown`) whose right-hand
    sides the compiler resolved to constants: value and existence tests and
    positional ones.  Per iteration they filter the iteration's items in
    sequence order (row order), shape by shape, through the interpreter's
    batch kernels — as its ``_apply_predicate_batch`` applies them: a
    position slices, a value shape keeps the items in its value index's
    owner set.  A value shape meeting an atomic item raises the
    :class:`AlgebraError` the generic predicate plan raises there (its step
    over the item).  A predicate the compiler does not push here — a
    computed right-hand side, anything unrecognized — and every one behind
    it keep the generic plan.

    Keeping items one by one distributes over a ∪ of them; a position does
    not (``first(A ∪ B) ≠ first(A) ∪ first(B)``), so a macro with a
    positional shape blocks the ∪ push-up.
    """

    symbol = "filter"
    union_pushable = True

    def __init__(self, child: Operator, pushed: tuple):
        super().__init__([child])
        self.pushed = tuple(pushed)
        if any(isinstance(shape, PositionShape) for shape in self.pushed):
            self.union_pushable = False

    def compute(self, inputs, engine):
        per_iteration, order = inputs[0].items_by_iteration()
        use_index = getattr(engine, "use_index", True)
        index_set = IndexSet() if use_index else None  # shared by all iterations
        trace = engine.trace
        timer = perf_counter() if trace is not None else 0.0
        results: list = []
        for iteration in order:
            items = per_iteration[iteration]
            for shape in self.pushed:
                if not items:
                    break
                if isinstance(shape, PositionShape):
                    items = positional_filter(items, shape)
                    continue
                if not all(map(is_node, items)):
                    raise AlgebraError("step join applied to a non-node item")
                items = apply_value_shape(items, shape, shape.values or (),
                                          use_index=use_index, index_set=index_set)
            results.append((iteration, items))
        if trace is not None:
            trace.record_kernel("algebra-filter", True, perf_counter() - timer)
        return _sequence_table(results)

    def label(self):
        return f"filter[{len(self.pushed)} pushed]"


class PredicateSelect(Operator):
    """σpos — the candidates a predicate keeps the way the interpreter's
    predicate does (:func:`~repro.xdm.sequence.predicate_truth`): a single
    number keeps the candidate at that position (``E[$n]``), any other
    value by its effective boolean value.

    Inputs: the candidates, tagged — ``iter|…|inner``, each iteration's
    rows in sequence order — and the predicate's value per candidate, an
    ``iter|pos|item`` table whose ``iter`` is the candidate's ``inner`` tag.
    Output: the ``iter`` column of the tags kept.  Positions count each
    iteration's rows from the first, or with *reverse* (a reverse axis'
    step, whose result arrives in document order) from the last.  A
    position needs all of its iteration's candidates: blocks the ∪ push-up.
    """

    symbol = "σpos"
    union_pushable = False

    def __init__(self, candidates: Operator, value: Operator, reverse: bool = False):
        super().__init__([candidates, value])
        self.reverse = reverse

    def compute(self, inputs, engine):
        candidates, value = inputs
        values, _ = value.items_by_iteration()
        iters = candidates.column_values("iter")
        tags = candidates.column_values("inner")
        sizes = Counter(iters) if self.reverse else None
        seen: dict = {}
        kept = []
        for iteration, tag in zip(iters, tags):
            position = seen[iteration] = seen.get(iteration, 0) + 1
            if sizes is not None:
                position = sizes[iteration] + 1 - position
            if predicate_truth(values.get(tag, ()), position):
                kept.append(tag)
        return ColumnarTable.from_columns(("iter",), [kept])

    def label(self):
        return "σpos<reverse>" if self.reverse else "σpos"


class IdLookup(Operator):
    """The ``fn:id`` macro: resolve ID strings to elements of a document.

    Input: ``iter|pos|item`` with atomized items; each iteration's whole
    column is tokenized and resolved in one pass
    (:func:`~repro.xdm.index.batch_id`) and comes out duplicate-free in
    document order.

    With *path* — the names of a predicate-free ``child::`` chain — the
    macro is ``id(n1/…/nk)`` from its input's *nodes*: the chain, the
    atomization and the lookup in one, each context node's references
    resolved in its own document, as ``fn:id`` resolves them (none where
    its tree has no document node; *document* is not read):
    :func:`~repro.xdm.index.batch_id_path` when the engine uses the index,
    else the chain walked on the node objects per document.  Steps and
    ``fn:id`` distribute over the union of their contexts, so the whole is
    as ∪-pushable as its parts.

    With *anchor* — the plan of ``fn:id``'s second argument — an iteration
    resolves in the document of the one node that plan delivers it (none
    where that node has no document), not in *document*.  ``fn:id`` does
    not distribute over that argument: an anchor that reads a recursion
    variable blocks the ∪.
    """

    symbol = "id"
    union_pushable = True
    node_valued = True

    def __init__(self, child: Operator, document: DocumentNode | None,
                 path: tuple[str, ...] = (), anchor: Operator | None = None):
        super().__init__([child] if anchor is None else [child, anchor])
        self.document = document
        self.path = path
        if anchor is not None and any(isinstance(operator, RecursionInput)
                                      for operator in anchor.iter_operators()):
            self.union_pushable = False
        else:
            self.template = "id"

    def compute(self, inputs, engine):
        per_iteration, order = _group_items_by_iteration(inputs[0])
        anchors = inputs[1].items_by_iteration()[0] if len(inputs) > 1 else None
        use_index = bool(self.path) and getattr(engine, "use_index", True)
        results: list = []
        for iteration in order:
            column = per_iteration[iteration]
            if self.path:
                found = batch_id_path(column, self.path) if use_index else None
                if found is None:
                    found = self._path_by_document(column)
            else:
                document = (self.document if anchors is None
                            else _anchor_document(anchors.get(iteration, ())))
                found = [] if document is None else ddo(batch_id(document, column))
            results.append((iteration, found))
        return _sequence_table(results)

    def _path_by_document(self, column: list) -> list:
        """``column/id(path)`` on the node objects: the column grouped by
        owning document, each group's chain walked and looked up there."""
        if not all(map(is_node, column)):
            raise AlgebraError("step join applied to a non-node item")
        by_document: dict[int, tuple[DocumentNode, list]] = {}
        for node in column:
            document = node.document()
            if document is not None:  # no document, no IDs
                by_document.setdefault(id(document), (document, []))[1].append(node)
        found = []
        for document, nodes in by_document.values():
            for name in self.path:
                nodes = [child for node in nodes for child in node.children
                         if isinstance(child, ElementNode) and child.name == name]
            found.extend(batch_id(document, nodes))
        return ddo(found)

    def label(self):
        return f"id[{'/'.join(self.path)}]" if self.path else self.symbol


def _anchor_document(anchor: Sequence) -> DocumentNode | None:
    """The document ``fn:id`` searches, given its second argument."""
    if len(anchor) != 1 or not is_node(anchor[0]):
        raise AlgebraError("fn:id: the second argument must be exactly one node "
                           "(use the interpreter or sql engine)")
    return anchor[0].document()


class PathResult(Operator):
    """The result rule of ``E1/E2`` for a general right-hand side, per
    iteration: all nodes → duplicate-free in document order (``fs:ddo``);
    all atomic values → kept as they are, in iteration order; a mix is the
    type error ``XPTY0018``.

    Input: ``iter|item`` — the mapped results of *E2*.  On nodes it changes
    order and duplicates only (which distributivity is defined up to,
    Section 4.1), on atomic values nothing: the checker skips it exactly as
    it skipped the δ that used to stand here — and that sorted nothing and
    dropped equal atomic values.

    With an *operation* (``"union"``, ``"intersect"``, ``"except"``) it is
    that operator's ddo over its operands' items, which must all be nodes:
    an atomic value is the interpreter's ``XPTY0004``.
    """

    symbol = "ddo"
    union_pushable = False
    order_or_duplicates_only = True

    def __init__(self, children: Sequence[Operator], operation: str | None = None):
        super().__init__(children)
        self.operation = operation

    def compute(self, inputs, engine):
        per_iteration, order = _group_items_by_iteration(inputs[0])
        results: list = []
        for iteration in order:
            result = per_iteration[iteration]
            nodes = sum(1 for item in result if is_node(item))
            if nodes == len(result):
                result = ddo(result)
            elif self.operation is not None:
                ensure_node_sequence(result, self.operation)
            elif nodes:
                raise XQueryTypeError("path result mixes nodes and atomic values",
                                      code="XPTY0018")
            results.append((iteration, result))
        return _sequence_table(results)


class AtomizeValue(Operator):
    """Itemwise atomization (typed value of nodes) — pushable."""

    symbol = "data"
    union_pushable = True

    def compute(self, inputs, engine):
        return inputs[0].map_column(
            "item", lambda value: value.typed_value() if is_node(value) else value
        )


class NodeConstructor(Operator):
    """ε — node construction; creates fresh identities, never pushable.

    ``children[0]`` is ``loop``: one node per iteration of it, whether or
    not any content plan has a row for it (``<a/>`` is a node).  The other
    children are the content parts in document order — the attribute
    constructors and enclosed expressions of a direct constructor, the one
    body of a computed one.  Atomics are space-joined within a part and
    concatenated across parts, so ``<a>{1, 2}{3}</a>`` reads ``1 23``.
    """

    symbol = "ε"
    union_pushable = False

    def __init__(self, loop: Operator, parts: Sequence[Operator], kind: str,
                 name: str | None = None):
        super().__init__([loop, *parts])
        self.kind = kind
        self.name = name

    def compute(self, inputs, engine):
        order = inputs[0].column_values("iter")
        parts = [part.items_by_iteration()[0] for part in inputs[1:]]
        constructed = [self._construct([part.get(iteration, ()) for part in parts])
                       for iteration in order]
        return ColumnarTable.from_columns(
            ("iter", "pos", "item"), [order, [1] * len(order), constructed]
        )

    def _construct(self, parts: list[Sequence]):
        if self.kind != "element":
            text = "".join(" ".join(string_value_of_item(item) for item in part)
                           for part in parts)
            if self.kind == "text":
                return TextNode(text)
            if self.kind == "comment":
                return CommentNode(text)
            return AttributeNode(self.name or "value", text)
        from repro.xdm.document import copy_node

        element = ElementNode(self.name or "element")
        for part in parts:
            atomics: list[str] = []
            for item in part:
                if not is_node(item):
                    atomics.append(string_value_of_item(item))
                    continue
                if atomics:
                    element.append_child(TextNode(" ".join(atomics)))
                    atomics = []
                if isinstance(item, AttributeNode):
                    element.add_attribute(AttributeNode(item.name, item.value))
                else:
                    element.append_child(copy_node(item))
            if atomics:
                element.append_child(TextNode(" ".join(atomics)))
        return element

    def label(self):
        return f"ε_{self.kind}({self.name or ''})"


# ---------------------------------------------------------------------------
# fixpoint operators
# ---------------------------------------------------------------------------


class Fixpoint(Operator):
    """µ / µ∆ — the algebraic fixpoint operators (Section 4.1).

    ``children[0]`` is the seed plan, ``body`` is the recursion body plan
    containing exactly one :class:`RecursionInput` leaf.  ``variant`` is
    ``"mu"`` (Naive) or ``"mu_delta"`` (Delta).  The operator is evaluated by
    the algebra engine, which iterates the body plan and rebinds the
    recursion input between rounds; it is itself union-pushable (Table 1).

    ``relation`` is the body read as a
    :class:`~repro.xdm.index.StepRelation`, recognized on the AST the plan
    was compiled from (:func:`repro.xquery.pushdown.recognize_step_relation`,
    as the interpreter does), which the engine's driver may iterate in
    pre-space instead of re-evaluating the plan — the plan still runs to
    fill the relation's missing images; else ``None``.  ``documents`` holds
    the documents the compilation resolved for the URIs the relation
    reads.
    """

    symbol = "µ"
    union_pushable = True

    def __init__(self, seed: Operator, body: Operator, recursion_input: RecursionInput,
                 variant: str = "mu", relation: StepRelation | None = None,
                 documents: dict[str, DocumentNode] | None = None):
        super().__init__([seed, body])
        self.recursion_input = recursion_input
        self.variant = variant
        self.relation = relation
        self.documents = documents or {}

    @property
    def seed_plan(self) -> Operator:
        return self.children[0]

    @property
    def body_plan(self) -> Operator:
        return self.children[1]

    def compute(self, inputs, engine):
        raise AlgebraError(
            "fixpoint operators are evaluated by the algebra engine, not standalone"
        )

    def label(self):
        return "µ∆" if self.variant == "mu_delta" else "µ"
