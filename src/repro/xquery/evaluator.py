"""Tree-walking evaluator for the XQuery subset.

The evaluator follows the XQuery 1.0 dynamic semantics for the supported
fragment: sequences are Python lists of items, path steps re-focus the
dynamic context and apply ``fs:ddo``, general comparisons are existential
with untyped promotion, constructors copy content and mint fresh node
identities.

The ``with $x seeded by … recurse …`` form is delegated to
:mod:`repro.fixpoint.engine`; which algorithm (Naive or Delta) is used
depends on the expression's ``using`` clause, the evaluation settings and the
distributivity analysis — the decision procedure Sections 3 and 4 of the
paper describe, taken by :func:`repro.fixpoint.decision.decide_fixpoint`.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter
from contextlib import contextmanager
from collections.abc import Callable
from typing import Any

from repro.errors import (
    UndefinedFunctionError,
    XQueryDynamicError,
    XQueryStaticError,
    XQueryTypeError,
)
from repro.fixpoint.decision import decide_fixpoint
from repro.fixpoint.engine import FixpointEngine, FixpointResult
from repro.xdm.comparison import atomic_equal, atomic_less_than
from repro.xdm.document import copy_node
from repro.xdm.index import IndexSet, batch_id, batch_id_path, batch_step, indexed_step
from repro.xdm.items import (
    UntypedAtomic,
    is_node,
    is_numeric,
    string_value_of_item,
    xs_boolean,
    xs_double,
    xs_integer,
    xs_string,
)
from repro.xdm.node import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xdm.sequence import (
    atomize,
    ddo,
    effective_boolean_value,
    node_except,
    node_intersect,
    node_union,
)
from repro.xquery import ast
from repro.xquery import pushdown
from repro.xquery.context import DynamicContext
from repro.xquery.functions import lookup_builtin
from repro.xquery.pushdown import PositionShape

Sequence = list

#: Axes whose natural order is reverse document order; predicate positions
#: count along the axis (e.g. ``ancestor::*[1]`` is the parent).
REVERSE_AXES = {"ancestor", "ancestor-or-self", "parent", "preceding", "preceding-sibling"}

#: Python stack headroom: the engine's own recursion-depth bound (on
#: user-defined function calls) is what limits recursion, so the Python
#: interpreter limit is raised high enough never to fire first — but only
#: for the duration of an evaluation, and restored afterwards, so embedding
#: applications are not silently reconfigured.
PYTHON_RECURSION_LIMIT = 100_000

_RECURSION_LOCK = threading.Lock()
_RECURSION_HOLDERS = 0
_RECURSION_SAVED: int | None = None


@contextmanager
def recursion_headroom(limit: int = PYTHON_RECURSION_LIMIT):
    """Temporarily raise the Python recursion limit to *limit*.

    Ref-counted across threads: the first holder saves the process limit
    and raises it, the last one restores the saved value — unless someone
    else changed the limit in between, in which case their value wins and
    we leave it alone.  A no-op when the process limit is already high
    enough.
    """
    global _RECURSION_HOLDERS, _RECURSION_SAVED
    with _RECURSION_LOCK:
        if _RECURSION_HOLDERS == 0 and sys.getrecursionlimit() < limit:
            _RECURSION_SAVED = sys.getrecursionlimit()
            sys.setrecursionlimit(limit)
        _RECURSION_HOLDERS += 1
    try:
        yield
    finally:
        with _RECURSION_LOCK:
            _RECURSION_HOLDERS -= 1
            if _RECURSION_HOLDERS == 0 and _RECURSION_SAVED is not None:
                if sys.getrecursionlimit() == limit:
                    sys.setrecursionlimit(_RECURSION_SAVED)
                _RECURSION_SAVED = None


#: Expression type → name of the ``Evaluator`` method that evaluates it.
_HANDLERS: dict[type, str] = {
    ast.Literal: "_eval_literal",
    ast.EmptySequence: "_eval_empty_sequence",
    ast.VarRef: "_eval_var_ref",
    ast.ContextItem: "_eval_context_item",
    ast.SequenceExpr: "_eval_sequence",
    ast.RangeExpr: "_eval_range",
    ast.UnionExpr: "_eval_union",
    ast.IntersectExpr: "_eval_intersect",
    ast.ExceptExpr: "_eval_except",
    ast.OrExpr: "_eval_or",
    ast.AndExpr: "_eval_and",
    ast.GeneralComparison: "_eval_general_comparison",
    ast.ValueComparison: "_eval_value_comparison",
    ast.NodeComparison: "_eval_node_comparison",
    ast.ArithmeticExpr: "_eval_arithmetic",
    ast.UnaryExpr: "_eval_unary",
    ast.ForExpr: "_eval_for",
    ast.LetExpr: "_eval_let",
    ast.IfExpr: "_eval_if",
    ast.QuantifiedExpr: "_eval_quantified",
    ast.TypeswitchExpr: "_eval_typeswitch",
    ast.WithExpr: "_eval_with",
    ast.PathExpr: "_eval_path",
    ast.RootExpr: "_eval_root",
    ast.AxisStep: "_eval_axis_step",
    ast.FilterExpr: "_eval_filter",
    ast.FunctionCall: "_eval_function_call",
    ast.DirectElementConstructor: "_eval_direct_element",
    ast.ComputedConstructor: "_eval_computed_constructor",
    ast.OrderedExpr: "_eval_ordered",
    ast.CastExpr: "_eval_cast",
    ast.InstanceOfExpr: "_eval_instance_of",
}


class Evaluator:
    """Evaluates parsed queries against a dynamic context."""

    #: Expression type → handler, resolved once per *class* as plain
    #: functions (called ``handler(self, expr, context)``).  A dict of bound
    #: methods per instance would make every evaluator a reference cycle —
    #: one per query, freed only by a full garbage collection.
    _dispatch: dict[type, Callable[["Evaluator", Any, DynamicContext], Sequence]]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._resolve_dispatch()

    @classmethod
    def _resolve_dispatch(cls) -> None:
        """Look the handlers up on *cls*, so that a subclass overriding any
        ``_eval_*`` method gets a table that calls its override."""
        cls._dispatch = {expr_type: getattr(cls, name)
                         for expr_type, name in _HANDLERS.items()}

    # ------------------------------------------------------------------ entry points

    def evaluate_module(self, module: ast.Module, context: DynamicContext) -> Sequence:
        """Evaluate a complete query module (prolog + body)."""
        with recursion_headroom():
            static = context.static
            for function in module.functions:
                static.functions[(function.name, function.arity)] = function
            for declaration in module.variables:
                if declaration.external:
                    if declaration.name not in context.variables:
                        raise XQueryDynamicError(
                            f"external variable ${declaration.name} was not provided",
                            code="XPDY0002",
                        )
                    continue
                value = self.evaluate(declaration.value, context)
                context = context.bind(declaration.name, value)
            return self.evaluate(module.body, context)

    def evaluate(self, expr: ast.Expr, context: DynamicContext) -> Sequence:
        """Evaluate a single expression."""
        handler = self._dispatch.get(type(expr))
        if handler is None:
            raise XQueryStaticError(f"unsupported expression type {type(expr).__name__}")
        return handler(self, expr, context)

    # ------------------------------------------------------------------ leaves

    def _eval_literal(self, expr: ast.Literal, context: DynamicContext) -> Sequence:
        return [expr.value]

    def _eval_empty_sequence(self, expr: ast.EmptySequence, context: DynamicContext) -> Sequence:
        return []

    def _eval_var_ref(self, expr: ast.VarRef, context: DynamicContext) -> Sequence:
        return list(context.variable(expr.name))

    def _eval_context_item(self, expr: ast.ContextItem, context: DynamicContext) -> Sequence:
        return [context.context_item()]

    # ------------------------------------------------------------------ sequences

    def _eval_sequence(self, expr: ast.SequenceExpr, context: DynamicContext) -> Sequence:
        result: Sequence = []
        for item in expr.items:
            result.extend(self.evaluate(item, context))
        return result

    def _eval_range(self, expr: ast.RangeExpr, context: DynamicContext) -> Sequence:
        start = self._singleton_integer(self.evaluate(expr.start, context))
        end = self._singleton_integer(self.evaluate(expr.end, context))
        if start is None or end is None or start > end:
            return []
        return list(range(start, end + 1))

    def _eval_union(self, expr: ast.UnionExpr, context: DynamicContext) -> Sequence:
        return node_union(self.evaluate(expr.left, context), self.evaluate(expr.right, context))

    def _eval_intersect(self, expr: ast.IntersectExpr, context: DynamicContext) -> Sequence:
        return node_intersect(self.evaluate(expr.left, context), self.evaluate(expr.right, context))

    def _eval_except(self, expr: ast.ExceptExpr, context: DynamicContext) -> Sequence:
        return node_except(self.evaluate(expr.left, context), self.evaluate(expr.right, context))

    # ------------------------------------------------------------------ logic

    def _eval_or(self, expr: ast.OrExpr, context: DynamicContext) -> Sequence:
        left = effective_boolean_value(self.evaluate(expr.left, context))
        if left:
            return [True]
        return [effective_boolean_value(self.evaluate(expr.right, context))]

    def _eval_and(self, expr: ast.AndExpr, context: DynamicContext) -> Sequence:
        left = effective_boolean_value(self.evaluate(expr.left, context))
        if not left:
            return [False]
        return [effective_boolean_value(self.evaluate(expr.right, context))]

    # ------------------------------------------------------------------ comparisons

    def _eval_general_comparison(self, expr: ast.GeneralComparison, context: DynamicContext) -> Sequence:
        left = atomize(self.evaluate(expr.left, context))
        right = atomize(self.evaluate(expr.right, context))
        for left_value in left:
            for right_value in right:
                if self._compare_general(expr.op, left_value, right_value):
                    return [True]
        return [False]

    def _compare_general(self, op: str, left: Any, right: Any) -> bool:
        left, right = self._promote_pair(left, right)
        return self._apply_comparison(op, left, right)

    def _promote_pair(self, left: Any, right: Any) -> tuple[Any, Any]:
        if isinstance(left, UntypedAtomic):
            if is_numeric(right):
                return xs_double(left), right
            if isinstance(right, bool):
                return xs_boolean(left), right
            return str(left), str(right) if isinstance(right, UntypedAtomic) else right
        if isinstance(right, UntypedAtomic):
            promoted_right, promoted_left = self._promote_pair(right, left)
            return promoted_left, promoted_right
        return left, right

    def _apply_comparison(self, op: str, left: Any, right: Any) -> bool:
        if op in ("=", "eq"):
            return atomic_equal(left, right)
        if op in ("!=", "ne"):
            return not atomic_equal(left, right)
        if op in ("<", "lt"):
            return atomic_less_than(left, right)
        if op in ("<=", "le"):
            return atomic_less_than(left, right) or atomic_equal(left, right)
        if op in (">", "gt"):
            return atomic_less_than(right, left)
        if op in (">=", "ge"):
            return atomic_less_than(right, left) or atomic_equal(left, right)
        raise XQueryStaticError(f"unknown comparison operator {op!r}")  # pragma: no cover

    def _eval_value_comparison(self, expr: ast.ValueComparison, context: DynamicContext) -> Sequence:
        left = atomize(self.evaluate(expr.left, context))
        right = atomize(self.evaluate(expr.right, context))
        if not left or not right:
            return []
        if len(left) > 1 or len(right) > 1:
            raise XQueryTypeError("value comparison requires singleton operands")
        left_value, right_value = self._promote_pair(left[0], right[0])
        return [self._apply_comparison(expr.op, left_value, right_value)]

    def _eval_node_comparison(self, expr: ast.NodeComparison, context: DynamicContext) -> Sequence:
        left = self.evaluate(expr.left, context)
        right = self.evaluate(expr.right, context)
        if not left or not right:
            return []
        if len(left) > 1 or len(right) > 1 or not is_node(left[0]) or not is_node(right[0]):
            raise XQueryTypeError("node comparison requires singleton nodes")
        left_node, right_node = left[0], right[0]
        if expr.op == "is":
            return [left_node.is_same_node(right_node)]
        if expr.op == "<<":
            return [left_node.precedes(right_node)]
        if expr.op == ">>":
            return [left_node.follows(right_node)]
        raise XQueryStaticError(f"unknown node comparison {expr.op!r}")  # pragma: no cover

    # ------------------------------------------------------------------ arithmetic

    def _eval_arithmetic(self, expr: ast.ArithmeticExpr, context: DynamicContext) -> Sequence:
        left = self._numeric_operand(self.evaluate(expr.left, context))
        right = self._numeric_operand(self.evaluate(expr.right, context))
        if left is None or right is None:
            return []
        op = expr.op
        if op == "+":
            return [left + right]
        if op == "-":
            return [left - right]
        if op == "*":
            return [left * right]
        if op == "div":
            if right == 0:
                raise XQueryDynamicError("division by zero", code="FOAR0001")
            return [left / right]
        if op == "idiv":
            if right == 0:
                raise XQueryDynamicError("integer division by zero", code="FOAR0001")
            return [int(left // right) if (left * right) >= 0 or left % right == 0 else -int(abs(left) // abs(right))]
        if op == "mod":
            if right == 0:
                raise XQueryDynamicError("modulo by zero", code="FOAR0001")
            return [left - right * int(left / right)] if isinstance(left, float) or isinstance(right, float) else [
                left - right * int(left / right)
            ]
        raise XQueryStaticError(f"unknown arithmetic operator {op!r}")  # pragma: no cover

    def _numeric_operand(self, sequence: Sequence) -> float | None:
        values = atomize(sequence)
        if not values:
            return None
        if len(values) > 1:
            raise XQueryTypeError("arithmetic requires singleton operands")
        value = values[0]
        if isinstance(value, (UntypedAtomic, str)):
            return xs_double(value)
        if isinstance(value, bool):
            raise XQueryTypeError("arithmetic on xs:boolean is not defined")
        if is_numeric(value):
            return value
        raise XQueryTypeError(f"cannot use {type(value).__name__} in arithmetic")

    def _eval_unary(self, expr: ast.UnaryExpr, context: DynamicContext) -> Sequence:
        value = self._numeric_operand(self.evaluate(expr.operand, context))
        if value is None:
            return []
        return [-value if expr.op == "-" else +value]

    def _singleton_integer(self, sequence: Sequence) -> int | None:
        values = atomize(sequence)
        if not values:
            return None
        if len(values) > 1:
            raise XQueryTypeError("expected a single integer")
        return xs_integer(values[0])

    # ------------------------------------------------------------------ FLWOR and friends

    def _eval_for(self, expr: ast.ForExpr, context: DynamicContext) -> Sequence:
        sequence = self.evaluate(expr.sequence, context)
        governor = context.static.governor
        result: Sequence = []
        for position, item in enumerate(sequence, start=1):
            # Inline amortized checkpoint: tick() is a C-level stride
            # counter, so the common case costs one slot read + one call.
            if governor is not None and governor.tick():
                governor.check_now()
            bound = context.bind(expr.var, [item])
            if expr.position_var:
                bound = bound.bind(expr.position_var, [position])
            result.extend(self.evaluate(expr.body, bound))
        return result

    def _eval_let(self, expr: ast.LetExpr, context: DynamicContext) -> Sequence:
        value = self.evaluate(expr.value, context)
        return self.evaluate(expr.body, context.bind(expr.var, value))

    def _eval_if(self, expr: ast.IfExpr, context: DynamicContext) -> Sequence:
        condition = effective_boolean_value(self.evaluate(expr.condition, context))
        branch = expr.then_branch if condition else expr.else_branch
        return self.evaluate(branch, context)

    def _eval_quantified(self, expr: ast.QuantifiedExpr, context: DynamicContext) -> Sequence:
        sequence = self.evaluate(expr.sequence, context)
        for item in sequence:
            satisfied = effective_boolean_value(
                self.evaluate(expr.satisfies, context.bind(expr.var, [item]))
            )
            if expr.quantifier == "some" and satisfied:
                return [True]
            if expr.quantifier == "every" and not satisfied:
                return [False]
        return [expr.quantifier == "every"]

    def _eval_typeswitch(self, expr: ast.TypeswitchExpr, context: DynamicContext) -> Sequence:
        operand = self.evaluate(expr.operand, context)
        for case in expr.cases:
            if matches_sequence_type(operand, case.sequence_type):
                case_context = context.bind(case.var, operand) if case.var else context
                return self.evaluate(case.body, case_context)
        default_context = context.bind(expr.default_var, operand) if expr.default_var else context
        return self.evaluate(expr.default, default_context)

    # ------------------------------------------------------------------ the IFP form

    def _eval_with(self, expr: ast.WithExpr, context: DynamicContext) -> Sequence:
        seed = self.evaluate(expr.seed, context)

        def body(nodes: Sequence) -> Sequence:
            return self.evaluate(expr.body, context.bind(expr.var, nodes))

        static = context.static
        decision = decide_fixpoint(
            expr, static.settings, static.functions,
            fact=static.analysis.fact_for(expr) if static.analysis is not None else None)
        result = self._run_fixpoint(expr, context, seed, body, decision.algorithm)
        if context.statistics is not None and hasattr(context.statistics, "record_ifp"):
            context.statistics.record_ifp(result.statistics)
        return list(result.value)

    def _run_fixpoint(self, expr: ast.WithExpr, context: DynamicContext,
                      seed: Sequence, body: Callable[[Sequence], Sequence],
                      algorithm: str) -> FixpointResult:
        """Iterate *body* from *seed* to its fixed point — the one step of the
        IFP form an engine may replace (the SQL engine tries a recursive CTE
        first)."""
        static = context.static
        engine = FixpointEngine(max_iterations=static.settings.max_ifp_iterations)
        return engine.run(body, seed, algorithm=algorithm,
                          trace=static.trace, governor=static.governor)

    # ------------------------------------------------------------------ paths

    def _eval_path(self, expr: ast.PathExpr, context: DynamicContext) -> Sequence:
        # Deliberately no governance checkpoint here: path evaluation is
        # bounded by document size, and this is the hottest dispatch in the
        # interpreter — a per-path-expression check costs ~3% on fixpoint
        # workloads (benchmarks/check_overhead.py).  Unbounded work
        # always flows through a fixpoint round, a FLWOR iteration or a
        # user-function call, all of which do checkpoint.
        left = self.evaluate(expr.left, context)
        # Vectorized fast path: an axis step applied to a whole node column
        # is one batch kernel call (dedup + document order included),
        # skipping the per-node focus loop and the final ddo.  Predicates
        # ride along when every one is a recognized *non-positional* shape:
        # value/existence tests depend only on the candidate node, so
        # filtering the merged column equals filtering per context node.
        # (Positional shapes count per context node — the per-node loop
        # below still batch-slices them inside _eval_axis_step.)
        if (isinstance(expr.right, ast.AxisStep)
                and context.static.settings.use_index
                and all(is_node(item) for item in left)):
            step = expr.right
            shapes: list = []
            fusible = not step.predicates
            if not fusible and context.static.settings.use_pushdown:
                shapes = [pushdown.recognize_predicate(p) for p in step.predicates]
                fusible = all(shape is not None
                              and not isinstance(shape, PositionShape)
                              for shape in shapes)
            if fusible:
                trace = context.static.trace
                timer = perf_counter() if trace is not None else 0.0
                result = None
                predicates = step.predicates[1:]
                if shapes:
                    # Index-side probing: the first predicate's few owners
                    # instead of every candidate of the step.
                    first = shapes[0]
                    result = pushdown.probe_step(
                        left, step.axis, step.node_test.kind, step.node_test.name,
                        first, lambda: pushdown.resolve_rhs(
                            first, lambda rhs: self.evaluate(rhs, context)),
                        trace=trace)
                if result is None:
                    result = batch_step(left, step.axis, step.node_test.kind,
                                        step.node_test.name)
                    predicates = step.predicates
                if result is not None:
                    if predicates:
                        result = self._apply_predicates(result, predicates, context)
                    if trace is not None:
                        trace.record_kernel(f"step:{step.axis}", True,
                                            perf_counter() - timer)
                    return result
                if trace is not None:
                    trace.record_kernel(f"step:{step.axis}", False)
        elif (isinstance(expr.right, ast.FunctionCall)
                and context.static.settings.use_index):
            # The same for ``E/id(p)``: the chain *p* and the ID lookup run
            # once over the whole column instead of once per node of E.
            steps = pushdown.recognize_id_step(expr.right, context.static.functions)
            if steps is not None:
                trace = context.static.trace
                timer = perf_counter() if trace is not None else 0.0
                result = self._batch_id(left, steps, context)
                if trace is not None:
                    trace.record_kernel("step:id", result is not None,
                                        perf_counter() - timer)
                if result is not None:
                    return result
        results: Sequence = []
        size = len(left)
        for position, item in enumerate(left, start=1):
            if not is_node(item):
                raise XQueryTypeError("path steps require node input", code="XPTY0019")
            focused = context.with_focus(item, position, size)
            results.extend(self.evaluate(expr.right, focused))
        if all(is_node(item) for item in results):
            return ddo(results)
        if any(is_node(item) for item in results):
            raise XQueryTypeError(
                "path result mixes nodes and atomic values", code="XPTY0018"
            )
        return results

    def _batch_id(self, nodes: Sequence, steps: tuple[ast.AxisStep, ...],
                  context: DynamicContext) -> Sequence | None:
        """``nodes/id(steps)`` set-at-a-time, or ``None`` (per-item loop).

        A chain of predicate-free named child steps (``prerequisites/
        pre_code``) runs in pre-space on the ID-reference index
        (:func:`~repro.xdm.index.batch_id_path`).  Every other chain, and
        what that kernel declines: ``fn:id`` resolves in the document of
        its context node, so the column is grouped by owning document (a
        corpus may reuse ID values across documents); each group's chain is
        one batch step kernel per step, its string values are tokenized and
        looked up in one pass (:func:`~repro.xdm.index.batch_id`), and one
        ``fs:ddo`` orders the union.  Declines when an item is not a node
        (the loop raises the proper ``XPTY0019``), when a kernel cannot
        answer a step, and — like the fused axis step above — when the
        chain has predicates and pushdown is off.
        """
        names = pushdown.child_chain_names(steps)
        if names is not None:
            result = batch_id_path(nodes, names)
            if result is not None:
                return result
        if not context.static.settings.use_pushdown and any(
                step.predicates for step in steps):
            return None
        by_document: dict[int, tuple[DocumentNode, list]] = {}
        for node in nodes:
            if not is_node(node):
                return None
            document = node.document()
            if document is not None:  # no document, no IDs: contributes nothing
                by_document.setdefault(id(document), (document, []))[1].append(node)
        found: Sequence = []
        for document, column in by_document.values():
            for step in steps:
                column = batch_step(column, step.axis, step.node_test.kind,
                                    step.node_test.name)
                if column is None:
                    return None
                if step.predicates:
                    column = self._apply_predicates(column, step.predicates, context)
            found.extend(batch_id(document, column))
        return ddo(found)

    def _eval_root(self, expr: ast.RootExpr, context: DynamicContext) -> Sequence:
        node = context.context_item()
        if not is_node(node):
            raise XQueryTypeError("'/' requires the context item to be a node")
        return [node.root()]

    def _eval_axis_step(self, expr: ast.AxisStep, context: DynamicContext) -> Sequence:
        node = context.context_item()
        if not is_node(node):
            raise XQueryTypeError(
                f"axis step '{expr.axis}::' requires a node context item", code="XPTY0020"
            )
        matched = None
        trace = context.static.trace
        timer = perf_counter() if trace is not None else 0.0
        if context.static.settings.use_index:
            matched = indexed_step(node, expr.axis, expr.node_test.kind,
                                   expr.node_test.name)
        if trace is not None:
            trace.record_kernel(f"axis:{expr.axis}", matched is not None,
                                perf_counter() - timer)
        if matched is None:
            candidates = self._axis_nodes(node, expr.axis)
            matched = [candidate for candidate in candidates
                       if self._node_test(candidate, expr.node_test, expr.axis)]
        return self._apply_predicates(matched, expr.predicates, context)

    def _axis_nodes(self, node: Node, axis: str) -> list[Node]:
        if axis == "child":
            return node.child_axis()
        if axis == "descendant":
            return node.descendant_axis()
        if axis == "descendant-or-self":
            return node.descendant_or_self_axis()
        if axis == "self":
            return node.self_axis()
        if axis == "attribute":
            return node.attribute_axis()
        if axis == "parent":
            return node.parent_axis()
        if axis == "ancestor":
            return node.ancestor_axis()
        if axis == "ancestor-or-self":
            return node.ancestor_or_self_axis()
        if axis == "following-sibling":
            return node.following_sibling_axis()
        if axis == "preceding-sibling":
            return node.preceding_sibling_axis()
        if axis == "following":
            return node.following_axis()
        if axis == "preceding":
            return node.preceding_axis()
        raise XQueryStaticError(f"unsupported axis '{axis}'")

    def _node_test(self, node: Node, test: ast.NodeTest, axis: str) -> bool:
        if test.kind == "name":
            if axis == "attribute":
                if not isinstance(node, AttributeNode):
                    return False
            elif not isinstance(node, ElementNode):
                return False
            return test.name == "*" or node.name == test.name
        if test.kind == "node":
            return True
        if test.kind == "text":
            return isinstance(node, TextNode)
        if test.kind == "comment":
            return isinstance(node, CommentNode)
        if test.kind == "processing-instruction":
            if not isinstance(node, ProcessingInstructionNode):
                return False
            return test.name is None or node.name == test.name
        if test.kind == "element":
            if not isinstance(node, ElementNode):
                return False
            return test.name is None or node.name == test.name
        if test.kind == "attribute":
            if not isinstance(node, AttributeNode):
                return False
            return test.name is None or node.name == test.name
        if test.kind == "document-node":
            return isinstance(node, DocumentNode)
        raise XQueryStaticError(f"unsupported node test '{test.kind}'")  # pragma: no cover

    def _apply_predicates(self, items: Sequence, predicates: tuple[ast.Expr, ...],
                          context: DynamicContext) -> Sequence:
        current = list(items)
        use_pushdown = context.static.settings.use_pushdown
        index_set = None
        for predicate in predicates:
            if use_pushdown and current:
                filtered = self._apply_predicate_batch(current, predicate,
                                                       context, index_set)
                if filtered is not None:
                    current, index_set = filtered
                    continue
            retained: Sequence = []
            size = len(current)
            trace = context.static.trace
            timer = perf_counter() if trace is not None else 0.0
            for position, item in enumerate(current, start=1):
                focused = context.with_focus(item, position, size)
                value = self.evaluate(predicate, focused)
                if self._predicate_holds(value, position):
                    retained.append(item)
            if trace is not None:
                trace.record_kernel("pred:fallback", False, perf_counter() - timer)
            current = retained
        return current

    def _apply_predicate_batch(self, items: Sequence, predicate: ast.Expr,
                               context: DynamicContext, index_set):
        """Filter *items* through a batch predicate kernel.

        Returns ``(filtered items, index set)`` — the index set is threaded
        so consecutive value predicates share the per-tree index resolution
        — or ``None`` when the predicate (or its runtime operand types)
        requires the per-item focus loop.
        """
        shape = pushdown.recognize_predicate(predicate)
        if shape is None:
            return None
        trace = context.static.trace
        timer = perf_counter() if trace is not None else 0.0
        if isinstance(shape, PositionShape):
            result = pushdown.positional_filter(list(items), shape)
            if trace is not None:
                trace.record_kernel("pred:positional", True, perf_counter() - timer)
            return result, index_set
        if not all(is_node(item) for item in items):
            return None  # the focus loop raises the proper type error
        values = pushdown.resolve_rhs(
            shape, lambda rhs: self.evaluate(rhs, context))
        if values is None:
            return None  # non-string operands: numeric promotion semantics
        use_index = context.static.settings.use_index
        if use_index and index_set is None:
            index_set = IndexSet()
        result = pushdown.apply_value_shape(list(items), shape, values,
                                            use_index=use_index,
                                            index_set=index_set)
        if trace is not None:
            trace.record_kernel(f"pred:{shape.kind}", True, perf_counter() - timer)
        return result, index_set

    def _predicate_holds(self, value: Sequence, position: int) -> bool:
        if len(value) == 1 and is_numeric(value[0]) and not isinstance(value[0], bool):
            return value[0] == position
        return effective_boolean_value(value)

    def _eval_filter(self, expr: ast.FilterExpr, context: DynamicContext) -> Sequence:
        primary = self.evaluate(expr.primary, context)
        return self._apply_predicates(primary, expr.predicates, context)

    # ------------------------------------------------------------------ function calls

    def _eval_function_call(self, expr: ast.FunctionCall, context: DynamicContext) -> Sequence:
        args = [self.evaluate(arg, context) for arg in expr.args]
        declaration = context.static.lookup_function(expr.name, len(args))
        if declaration is not None:
            return self._call_user_function(declaration, args, context)
        builtin = lookup_builtin(expr.name, len(args))
        if builtin is not None:
            return builtin.implementation(context, *args)
        position = ast.get_position(expr) or (None, None)
        raise UndefinedFunctionError(expr.name, len(args), *position)

    def _call_user_function(self, declaration: ast.FunctionDecl, args: list[Sequence],
                            context: DynamicContext) -> Sequence:
        governor = context.static.governor
        if governor is not None and governor.tick():
            governor.check_now()
        call_context = context.enter_function().without_focus()
        bindings = {param.name: arg for param, arg in zip(declaration.params, args)}
        call_context = call_context.bind_many(bindings)
        return self.evaluate(declaration.body, call_context)

    # ------------------------------------------------------------------ constructors

    def _eval_direct_element(self, expr: ast.DirectElementConstructor,
                             context: DynamicContext) -> Sequence:
        element = ElementNode(expr.name)
        for attribute in expr.attributes:
            value = self._attribute_value(attribute, context)
            element.add_attribute(AttributeNode(attribute.name, value))
        for part in expr.content:
            if isinstance(part, ast.Literal) and isinstance(part.value, str):
                element.append_child(TextNode(part.value))
                continue
            self._append_content(element, self.evaluate(part, context))
        return [element]

    def _attribute_value(self, attribute: ast.AttributeConstructor, context: DynamicContext) -> str:
        parts: list[str] = []
        for part in attribute.value_parts:
            if isinstance(part, ast.Literal) and isinstance(part.value, str):
                parts.append(part.value)
            else:
                value = self.evaluate(part, context)
                parts.append(" ".join(string_value_of_item(item) for item in value))
        return "".join(parts)

    def _append_content(self, element: ElementNode, content: Sequence) -> None:
        pending_atomics: list[str] = []

        def flush() -> None:
            if pending_atomics:
                element.append_child(TextNode(" ".join(pending_atomics)))
                pending_atomics.clear()

        for item in content:
            if is_node(item):
                flush()
                if isinstance(item, AttributeNode):
                    element.add_attribute(AttributeNode(item.name, item.value, is_id=item.is_id))
                elif isinstance(item, DocumentNode):
                    for child in item.children:
                        element.append_child(copy_node(child))
                else:
                    element.append_child(copy_node(item))
            else:
                pending_atomics.append(string_value_of_item(item))
        flush()

    def _eval_computed_constructor(self, expr: ast.ComputedConstructor,
                                   context: DynamicContext) -> Sequence:
        kind = expr.kind
        content = self.evaluate(expr.content, context) if expr.content is not None else []
        if kind == "element":
            name = self._constructor_name(expr, context)
            element = ElementNode(name)
            self._append_content(element, content)
            return [element]
        if kind == "attribute":
            name = self._constructor_name(expr, context)
            value = " ".join(string_value_of_item(item) for item in atomize(content))
            return [AttributeNode(name, value)]
        if kind == "text":
            if not content:
                return []
            return [TextNode(" ".join(string_value_of_item(item) for item in atomize(content)))]
        if kind == "comment":
            return [CommentNode(" ".join(string_value_of_item(item) for item in atomize(content)))]
        if kind == "document":
            document = DocumentNode()
            holder = ElementNode("_root")
            self._append_content(holder, content)
            for child in list(holder.children):
                child.parent = None
                document.append_child(child)
            return [document]
        raise XQueryStaticError(f"unsupported computed constructor '{kind}'")

    def _constructor_name(self, expr: ast.ComputedConstructor, context: DynamicContext) -> str:
        if expr.name is None:
            raise XQueryStaticError(f"computed {expr.kind} constructor requires a name")
        value = self.evaluate(expr.name, context)
        return string_value_of_item(value[0]) if value else ""

    def _eval_ordered(self, expr: ast.OrderedExpr, context: DynamicContext) -> Sequence:
        return self.evaluate(expr.body, context)

    # ------------------------------------------------------------------ casts and types

    def _eval_cast(self, expr: ast.CastExpr, context: DynamicContext) -> Sequence:
        values = atomize(self.evaluate(expr.operand, context))
        if not values:
            if expr.optional:
                return []
            raise XQueryTypeError("cast of an empty sequence requires '?'")
        if len(values) > 1:
            raise XQueryTypeError("cast requires a singleton operand")
        return [cast_atomic(values[0], expr.target_type)]

    def _eval_instance_of(self, expr: ast.InstanceOfExpr, context: DynamicContext) -> Sequence:
        value = self.evaluate(expr.operand, context)
        return [matches_sequence_type(value, expr.sequence_type)]


Evaluator._resolve_dispatch()  # __init_subclass__ covers only subclasses


# ---------------------------------------------------------------------------
# sequence type matching and casting
# ---------------------------------------------------------------------------


def matches_sequence_type(sequence: Sequence, sequence_type: ast.SequenceType) -> bool:
    """``instance of`` semantics for the supported sequence types."""
    count = len(sequence)
    if sequence_type.item_type == "empty-sequence":
        return count == 0
    occurrence = sequence_type.occurrence
    if occurrence == "" and count != 1:
        return False
    if occurrence == "?" and count > 1:
        return False
    if occurrence == "+" and count == 0:
        return False
    return all(_matches_item_type(item, sequence_type) for item in sequence)


def _matches_item_type(item: Any, sequence_type: ast.SequenceType) -> bool:
    item_type = sequence_type.item_type
    if item_type == "item":
        return True
    if item_type == "node":
        return is_node(item)
    if item_type == "element":
        return isinstance(item, ElementNode) and (
            sequence_type.name is None or item.name == sequence_type.name
        )
    if item_type == "attribute":
        return isinstance(item, AttributeNode) and (
            sequence_type.name is None or item.name == sequence_type.name
        )
    if item_type == "text":
        return isinstance(item, TextNode)
    if item_type == "comment":
        return isinstance(item, CommentNode)
    if item_type == "processing-instruction":
        return isinstance(item, ProcessingInstructionNode)
    if item_type == "document-node":
        return isinstance(item, DocumentNode)
    if item_type in ("xs:string", "string"):
        return isinstance(item, str) and not isinstance(item, UntypedAtomic)
    if item_type in ("xs:untypedAtomic", "untypedAtomic"):
        return isinstance(item, UntypedAtomic)
    if item_type in ("xs:integer", "integer"):
        return isinstance(item, int) and not isinstance(item, bool)
    if item_type in ("xs:double", "xs:decimal", "double", "decimal"):
        return isinstance(item, float) or (isinstance(item, int) and not isinstance(item, bool))
    if item_type in ("xs:boolean", "boolean"):
        return isinstance(item, bool)
    if item_type in ("xs:anyAtomicType", "anyAtomicType"):
        return not is_node(item)
    raise XQueryStaticError(f"unsupported sequence type '{item_type}'")


def cast_atomic(value: Any, target_type: str) -> Any:
    """``cast as`` for the basic atomic types."""
    target = target_type.split(":")[-1]
    if target == "string":
        return xs_string(value)
    if target == "integer":
        return xs_integer(value)
    if target in ("double", "decimal", "float"):
        return xs_double(value)
    if target == "boolean":
        return xs_boolean(value)
    if target == "untypedAtomic":
        return UntypedAtomic(xs_string(value))
    raise XQueryStaticError(f"unsupported cast target '{target_type}'")
