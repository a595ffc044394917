"""Loop-lifting compiler: XQuery AST → relational algebra plans.

The compiler follows the Relational XQuery translation scheme in spirit:
every expression is compiled relative to a *loop* relation (one row per
iteration of the enclosing FLWOR nesting) into a plan producing an
``iter|pos|item`` table, and variables are looked up in a compile-time
environment mapping names to plans.  Like the paper (Table 1), XPath steps,
``fn:id`` and node construction are emitted as macro operators rather than
expanded into textbook joins; and like Section 4.1, plans destined for the
distributivity check omit duplicate-elimination and order bookkeeping, which
the macros encapsulate anyway.  The constant leaves it emits (the
single-iteration loop, the empty sequence) are
:class:`~repro.algebra.columnar.ColumnarTable` values built once, here, and
read unchanged by every evaluation of the plan.

Supported fragment
------------------
Literals, variables, the context item, sequence/union/except, paths and
axis steps, predicates that are comparisons or boolean function calls,
``for``/``let``/``where`` (as produced by the parser's FLWOR desugaring),
``if``/``then``/``else``, general and value comparisons, arithmetic,
``count``/``empty``/``exists``/``not``/``data``/``string``/``id``/``doc``/
``root``, user-defined function inlining, node constructors (compile-time
only — they mark the plan non-distributive) and the ``with … recurse`` form
(compiled to µ/µ∆).  ``order by``, quantifiers, ``typeswitch`` and nested
fixpoints under iteration raise :class:`~repro.errors.AlgebraError`.

Step predicates
---------------
The longest prefix of a step's predicates that
:mod:`repro.xquery.pushdown` recognizes moves *into* the
:class:`~repro.algebra.operators.StepJoin` macro (``_split_pushable``):
value and existence shapes, and positional ones.  A filter expression's
prefix moves into a :class:`~repro.algebra.operators.ShapeFilter` macro
over its primary the same way, up to the first computed right-hand side.
A literal position that is not pushed (behind an unrecognized predicate or
a computed right-hand side, or with ``push_predicates=False``) is an
:class:`~repro.errors.AlgebraError`.  A predicate whose value may be a
*computed* number (``[$n]``, ``[count(a)]``) keeps the candidates the
interpreter's would (a :class:`~repro.algebra.operators.PredicateSelect`
counting positions along each iteration's candidates); on a step it is
taken per context node (``_compile_step`` maps the step over its context
when that has more than one node per iteration).  A
value shape compared with a compile-time constant carries the constant;
one compared with a *computed* side that cannot raise (``_value_input``:
a variable, or predicate-free steps from a node-valued one) makes that
side's plan — compiled in the step's own loop — an extra input of the
macro, which then joins by value per iteration (a positional shape behind
such a side slices what the iteration's whole value *set* kept: that macro
blocks the ∪ push-up, see :class:`StepJoin`).  Every other predicate
compiles to the generic plan (``_apply_predicate``): tag the candidates,
evaluate the predicate per candidate, keep the survivors; its ``=``
conditions with a focus-free side run as a value join per outer iteration
(``_value_join``), and ``not(C)`` is the anti-join ``loop \\ selected(C)``
(``_unselected``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Mapping
from typing import TYPE_CHECKING

from repro.errors import AlgebraError, XQueryDynamicError
from repro.algebra.columnar import ColumnarTable, Constant
from repro.analysis.cardinality import EMPTY, infer_cardinality
from repro.algebra.operators import (
    Aggregate,
    AtomizeValue,
    Difference,
    Distinct,
    DocumentRoot,
    Fixpoint,
    IdLookup,
    IterationMerge,
    Join,
    LiteralTable,
    NodeConstructor,
    Operator,
    PathResult,
    PredicateSelect,
    Project,
    RecursionInput,
    RowTag,
    ScalarOp,
    SelectComputed,
    ShapeFilter,
    StepJoin,
    UnionAll,
    ValueEqualJoin,
)
from repro.fixpoint.decision import decide_fixpoint
from repro.settings import EvalSettings
from repro.xdm.comparison import atomic_equal, atomic_less_than
from repro.xdm.items import UntypedAtomic, is_node, string_value_of_item, xs_double
from repro.xdm.node import DocumentNode
from repro.xquery import ast
from repro.xquery.context import DocumentResolver
from repro.xquery.evaluator import REVERSE_AXES
from repro.xquery.pushdown import recognize_step_relation


if TYPE_CHECKING:
    from repro.analysis.report import AnalysisReport

SEQ_COLUMNS = ("iter", "pos", "item")


@dataclass
class CompilationContext:
    """Compile-time state threaded through the translation."""

    loop: Operator
    environment: dict[str, Operator] = field(default_factory=dict)
    focus: Operator | None = None
    loop_is_single: bool = True

    def bind(self, name: str, plan: Operator) -> "CompilationContext":
        environment = dict(self.environment)
        environment[name] = plan
        return replace(self, environment=environment)


class AlgebraCompiler:
    """Compiles the supported XQuery fragment into algebra plans."""

    def __init__(self,
                 documents: DocumentResolver | None = None,
                 document: DocumentNode | None = None,
                 functions: dict[tuple[str, int], ast.FunctionDecl] | None = None,
                 analysis_only: bool = False,
                 push_predicates: bool = True,
                 settings: EvalSettings = EvalSettings(),
                 analysis: AnalysisReport | None = None,
                 variables: Mapping[str, ast.VariableDecl] | None = None):
        """Create a compiler.

        Parameters
        ----------
        documents:
            Resolver consulted by ``fn:doc``.
        document:
            The one document ``fn:id`` resolves IDs in (and the one
            ``fn:doc`` stands in for an unknown URI with).  Without it the
            only document of a one-document corpus is taken, when a
            construct first needs it; a corpus that does not name exactly
            one makes ``fn:id`` a typed :class:`AlgebraError`, never a
            lookup in a guessed document.
        functions:
            User-defined functions, inlined at their call sites.
        analysis_only:
            When true the compiler is lenient about missing documents — the
            resulting plan is only used for the distributivity check, never
            executed.
        push_predicates:
            Push recognized predicate shapes (:mod:`repro.xquery.pushdown`)
            into the :class:`~repro.algebra.operators.StepJoin` macro as
            indexed lookups instead of compiling the materialize-then-filter
            predicate plan.  On by default; ``evaluate(...,
            use_pushdown=False)`` compiles the classical plans for A/B runs.
        settings / analysis:
            What decides each fixpoint's µ or µ∆
            (:func:`repro.fixpoint.decision.decide_fixpoint`): the run's
            ``ifp_algorithm`` and ``distributivity_checker``, and the
            module's analysis report, when there is one, for its verdicts.
        variables:
            The module's prolog declarations by name: which prolog variables
            a fixpoint body may read and still be a step relation
            (:func:`repro.xquery.pushdown.recognize_step_relation`).
        """
        self.documents = documents or DocumentResolver()
        self.document = document
        self.functions = functions or {}
        self.analysis_only = analysis_only
        self.push_predicates = push_predicates
        self.settings = settings
        self.analysis = analysis
        self.variables = variables or {}
        self._inline_stack: list[tuple[str, int]] = []

    # ------------------------------------------------------------------ entry points

    def single_iteration_loop(self) -> Operator:
        """The loop relation of a top-level expression: a single iteration."""
        return LiteralTable(ColumnarTable.from_columns(("iter",), [[1]]))

    def initial_context(self, variables: dict[str, Operator] | None = None) -> CompilationContext:
        return CompilationContext(loop=self.single_iteration_loop(),
                                  environment=dict(variables or {}))

    def compile(self, expr: ast.Expr, context: CompilationContext | None = None) -> Operator:
        """Compile *expr* under *context* (top-level single-iteration default)."""
        return self._compile(expr, context or self.initial_context())

    def compile_recursion_body(self, body: ast.Expr, variable: str,
                               extra_variables: tuple[str, ...] = ()) -> tuple[Operator, RecursionInput]:
        """Compile a recursion body with its variable as a plan input.

        Returns the body plan and the :class:`RecursionInput` leaf standing
        for the recursion variable — the place where the distributivity
        check introduces the symbolic ∪ (Figure 7a) and where µ/µ∆ feed the
        intermediate result during evaluation.
        """
        recursion_input = RecursionInput(variable)
        context = self.initial_context()
        context = context.bind(variable, recursion_input)
        for name in body.free_variables() - {variable}:
            context = context.bind(name, self._empty_sequence_plan(context))
        for name in extra_variables:
            context = context.bind(name, self._empty_sequence_plan(context))
        if self._uses_context_item(body):
            context = replace(context, focus=self._empty_sequence_plan(context))
        plan = self._compile(body, context)
        return plan, recursion_input

    # ------------------------------------------------------------------ dispatch

    def _compile(self, expr: ast.Expr, context: CompilationContext) -> Operator:
        handler = getattr(self, f"_compile_{type(expr).__name__}", None)
        if handler is None:
            raise AlgebraError(
                f"the algebra compiler does not support {type(expr).__name__} expressions"
            )
        return handler(expr, context)

    # ------------------------------------------------------------------ leaves

    def _compile_Literal(self, expr: ast.Literal, context: CompilationContext) -> Operator:
        return self._with_pos(context.loop, item=Constant(expr.value))

    def _compile_EmptySequence(self, expr: ast.EmptySequence, context: CompilationContext) -> Operator:
        return self._empty_sequence_plan(context)

    def _compile_VarRef(self, expr: ast.VarRef, context: CompilationContext) -> Operator:
        plan = context.environment.get(expr.name)
        if plan is None:
            raise AlgebraError(f"unbound variable ${expr.name} during algebra compilation")
        return plan

    def _compile_ContextItem(self, expr: ast.ContextItem, context: CompilationContext) -> Operator:
        if context.focus is None:
            raise AlgebraError("the context item is undefined in this compilation context")
        return context.focus

    def _compile_RootExpr(self, expr: ast.RootExpr, context: CompilationContext) -> Operator:
        focus = self._compile_ContextItem(ast.ContextItem(), context)
        rooted = ScalarOp(focus, "item_root", ["item"],
                          lambda node: node.root() if is_node(node) else node, name="root")
        return Project(rooted, [("iter", "iter"), ("pos", "pos"), ("item", "item_root")])

    # ------------------------------------------------------------------ sequence operators

    def _compile_SequenceExpr(self, expr: ast.SequenceExpr, context: CompilationContext) -> Operator:
        plans = [self._compile(item, context) for item in expr.items]
        combined = plans[0]
        for plan in plans[1:]:
            combined = UnionAll([combined, plan])
        return self._iteration_major(combined, context)

    def _compile_UnionExpr(self, expr: ast.UnionExpr, context: CompilationContext) -> Operator:
        left = self._compile(expr.left, context)
        right = self._compile(expr.right, context)
        return _document_order(UnionAll([left, right]), "union")

    def _compile_IntersectExpr(self, expr: ast.IntersectExpr, context: CompilationContext) -> Operator:
        left, right = self._node_operands(expr, "intersect", context)
        joined = Join(left, Project(right, [("iter", "iter"), ("item_r", "item")]),
                      [("iter", "iter"), ("item", "item_r")])
        return _document_order(joined)

    def _compile_ExceptExpr(self, expr: ast.ExceptExpr, context: CompilationContext) -> Operator:
        left, right = self._node_operands(expr, "except", context)
        return _document_order(Difference([left, right]))

    def _node_operands(self, expr: ast.IntersectExpr | ast.ExceptExpr, operation: str,
                       context: CompilationContext) -> tuple[Operator, Operator]:
        """Both operands of *operation* as ``iter|item``, each node once —
        an atomic value in either is the interpreter's ``XPTY0004``, also
        where the other operand leaves nothing to compare it with."""
        return tuple(Project(_document_order(self._compile(operand, context), operation),
                             [("iter", "iter"), ("item", "item")])
                     for operand in (expr.left, expr.right))

    # ------------------------------------------------------------------ paths

    def _compile_PathExpr(self, expr: ast.PathExpr, context: CompilationContext) -> Operator:
        from repro.xquery.pushdown import child_chain_names, recognize_id_step

        left = self._compile(expr.left, context)
        right = expr.right
        if isinstance(right, ast.AxisStep):
            return self._compile_step(left, right, context)
        id_steps = recognize_id_step(right, self.functions)
        if id_steps is not None:
            # ``E/id(p)`` with a step chain p: steps distribute over the
            # union of their contexts and the id macro orders its output,
            # so the chain runs over each outer iteration's whole column —
            # a handful of macros instead of the map's re-addressed plan
            # (one, in pre-space, for a plain chain of named child steps).
            names = child_chain_names(id_steps)
            if names is not None:
                # resolved in each context node's own document; the corpus
                # check stays while the other forms need one document
                self._require_document()
                return IdLookup(left, None, path=names)
            values = left
            for step in id_steps:
                values = self._compile_step(values, step, context)
            return IdLookup(AtomizeValue([values]), self._require_document())
        # General right operand: iterate the right expression once per node
        # delivered by the left operand (the loop-lifting "map" dance).
        return self._map_over(left, right, context)

    def _compile_AxisStep(self, expr: ast.AxisStep, context: CompilationContext) -> Operator:
        focus = self._compile_ContextItem(ast.ContextItem(), context)
        return self._compile_step(focus, expr, context, from_focus=True)

    def _compile_step(self, source: Operator, step: ast.AxisStep,
                      context: CompilationContext, from_focus: bool = False) -> Operator:
        """A step join with the longest recognized predicate prefix pushed.

        Predicates apply sequentially, so only a *prefix* may move into the
        macro: the first unrecognized (or unresolvable) predicate and
        everything after it keep the generic materialize-then-filter plan,
        preserving order-sensitive (positional) semantics.  A predicate of
        the rest whose value may be a number counts positions per context
        node, which the macro's per-iteration result only gives when the
        step is taken *from_focus* (one context node per iteration): from
        any other source the step is mapped over its nodes.
        """
        pushed, values, rest = self._split_pushable(step.predicates, context)
        if not from_focus and any(map(_may_be_numeric, rest)):
            return self._map_over(source, step, context)
        plan = StepJoin(source, step.axis, step.node_test.kind,
                        step.node_test.name, pushed=pushed, values=values,
                        comparison=_general_equal)
        return self._apply_predicates(plan, rest, context,
                                      reverse=step.axis in REVERSE_AXES)

    def _split_pushable(self, predicates: tuple[ast.Expr, ...],
                        context: CompilationContext, value_inputs: bool = True):
        """``(pushed shapes, value input plans, remaining predicates)``.

        A value shape's right-hand side is resolved here when it is a
        compile-time constant (a string literal, a top-level constant
        binding); otherwise it becomes an *input* of the macro
        (:meth:`_value_input`), one plan per such shape, in shape order —
        or, without *value_inputs* (a filter expression's macro has none),
        it ends the pushed prefix.
        """
        from repro.xquery.pushdown import (
            PositionShape,
            recognize_predicate,
            string_values_or_none,
        )

        if not self.push_predicates or not predicates:
            return (), (), tuple(predicates)

        def constant_values(name: str):
            """Compile-time variable resolution: only top-level constant
            bindings (LiteralTable plans) with pure string items qualify —
            lifted plans and node-valued bindings fall back."""
            plan = context.environment.get(name)
            if not isinstance(plan, LiteralTable) or "item" not in plan.table.columns:
                return None
            items = plan.table.column_values("item")
            if any(is_node(item) for item in items):
                return None  # node content may mutate after compilation
            return string_values_or_none(items)

        pushed: list = []
        inputs: list[Operator] = []

        def split(position: int):
            return tuple(pushed), tuple(inputs), tuple(predicates[position:])

        for position, predicate in enumerate(predicates):
            shape = recognize_predicate(predicate)
            if shape is None:
                return split(position)
            if not isinstance(shape, PositionShape) and shape.rhs is not None:
                values = None
                if isinstance(shape.rhs, ast.Literal):
                    values = string_values_or_none([shape.rhs.value])
                elif isinstance(shape.rhs, ast.VarRef):
                    values = constant_values(shape.rhs.name)
                if values is not None:
                    shape = replace(shape, rhs=None, values=values)
                else:
                    # A positional shape in front ends the pushed prefix:
                    # its step stays in the per-node memo (value inputs opt
                    # out of it, and nothing could be probed behind a
                    # position anyway) and the value join filters the few
                    # survivors.  One *behind* is pushed: it slices, per
                    # context node, what this iteration's values kept (and
                    # the macro stops being a ``step`` template: a slice of
                    # what a value set kept does not distribute over it).
                    positional = any(isinstance(s, PositionShape) for s in pushed)
                    plan = (None if positional or not value_inputs
                            else self._value_input(shape.rhs, context))
                    if plan is None:
                        return split(position)
                    inputs.append(plan)  # the shape keeps its rhs: computed
            pushed.append(shape)
        return split(len(predicates))

    def _value_input(self, rhs: ast.Expr, context: CompilationContext) -> Operator | None:
        """A computed right-hand side as an input of the step macro: its
        atomized values per iteration of the step's own loop — or ``None``
        (declined: the predicate plan's value join answers it).

        The input is evaluated for *every* iteration, also one whose step
        has no candidate, where the predicate is never evaluated and so must
        not raise.  Accepted is therefore only what cannot: a variable
        (already a value wherever it is in scope), optionally behind
        predicate-free axis steps when its plan delivers nodes by
        construction.  A literal number, arithmetic, a function call, a step
        from a variable that may hold atomics — all keep :meth:`_value_join`,
        which evaluates them only where a candidate exists.
        """
        origin, steps = rhs, 0
        while (isinstance(origin, ast.PathExpr) and isinstance(origin.right, ast.AxisStep)
               and not origin.right.predicates):
            origin, steps = origin.left, steps + 1
        if not isinstance(origin, ast.VarRef):
            return None
        if steps and not getattr(context.environment.get(origin.name),
                                 "node_valued", False):
            return None
        return AtomizeValue([self._compile(rhs, context)])

    def _compile_FilterExpr(self, expr: ast.FilterExpr, context: CompilationContext) -> Operator:
        """``E[p1]…[pk]``: the longest recognized prefix with constant
        right-hand sides is one :class:`ShapeFilter` macro over ``E``'s plan
        (the kernels of :meth:`_compile_step`'s macro, per iteration in
        sequence order); the rest keeps the generic predicate plan."""
        primary = self._compile(expr.primary, context)
        pushed, _, rest = self._split_pushable(expr.predicates, context, value_inputs=False)
        if pushed:
            primary = _same_items(primary, ShapeFilter(primary, pushed))
        return self._apply_predicates(primary, rest, context)

    def _map_over(self, source: Operator, body: ast.Expr, context: CompilationContext,
                  bind_variable: str | None = None, position_variable: str | None = None) -> Operator:
        """Evaluate *body* once per row of *source* and map results back.

        This is the shared machinery behind general path steps (the row is
        the context item) and ``for`` iterations (the row is bound to a
        variable).
        """
        tagged = RowTag(source, "inner")
        inner_loop = Project(tagged, [("iter", "inner")])
        item_plan = _same_items(source, self._with_pos(tagged, iter="inner"))

        lifted_environment = {
            name: self._lift_plan(plan, tagged)
            for name, plan in context.environment.items()
        }
        inner_context = CompilationContext(
            loop=inner_loop,
            environment=lifted_environment,
            focus=item_plan if bind_variable is None else (
                self._lift_plan(context.focus, tagged) if context.focus is not None else None
            ),
            loop_is_single=False,
        )
        if bind_variable is not None:
            inner_context = inner_context.bind(bind_variable, item_plan)
            if position_variable is not None:
                position_plan = self._with_pos(tagged, iter="inner", item="pos")
                inner_context = inner_context.bind(position_variable, position_plan)

        inner_result = self._compile(body, inner_context)
        mapping = Project(tagged, [("inner2", "inner"), ("outer", "iter")])
        joined = Join(inner_result, mapping, [("iter", "inner2")])
        if bind_variable is not None:
            return self._with_pos(joined, iter="outer")
        return PathResult([Project(joined, [("iter", "outer"), ("item", "item")])])

    def _lift_plan(self, plan: Operator, tagged: Operator) -> Operator:
        """Re-address an outer-loop plan to the inner loop created by *tagged*.

        The mapping is the join's left (outer) side: joins keep their left
        input's row order, and row order is sequence order, so each inner
        iteration receives the plan's items contiguously and in the plan's
        order — a multi-item binding (``$k := (1, 2)``, a hoisted node
        sequence) returned from a ``for`` stays ``1 2 1 2``, not ``1 1 2 2``.
        """
        mapping = Project(tagged, [("outer_iter", "iter"), ("inner", "inner")])
        joined = Join(mapping, plan, [("outer_iter", "iter")])
        return _same_items(plan, Project(
            joined, [("iter", "inner"), ("pos", "pos"), ("item", "item")]))

    # ------------------------------------------------------------------ predicates and filters

    def _apply_predicates(self, candidates: Operator, predicates: tuple[ast.Expr, ...],
                          context: CompilationContext, reverse: bool = False) -> Operator:
        plan = candidates
        for predicate in predicates:
            plan = self._apply_predicate(plan, predicate, context, reverse)
        return plan

    def _apply_predicate(self, candidates: Operator, predicate: ast.Expr,
                         context: CompilationContext, reverse: bool = False) -> Operator:
        """The candidates *predicate* keeps, each iteration's in sequence
        order — from the last for a *reverse* axis' step, where a value
        that is a number selects by position."""
        if isinstance(predicate, ast.Literal) and isinstance(predicate.value, (int, float)):
            raise AlgebraError("positional predicates are not supported by the algebra backend")
        tagged = RowTag(candidates, "inner")
        inner_loop = Project(tagged, [("iter", "inner")])
        candidate_plan = self._with_pos(tagged, iter="inner")
        lifted_environment = {
            name: self._lift_plan(plan, tagged) for name, plan in context.environment.items()
        }
        inner_context = CompilationContext(
            loop=inner_loop, environment=lifted_environment, focus=candidate_plan,
            loop_is_single=False,
        )
        selected = self._value_join(predicate, tagged, inner_context, context)
        if selected is None and _may_be_numeric(predicate):
            value = self._compile(predicate, inner_context)
            selected = (Distinct([Project(value, [("iter", "iter")])]) if value.node_valued
                        else PredicateSelect(tagged, value, reverse))
        if selected is None:
            selected = self._selected_iterations(predicate, inner_context)
        # keep candidate rows whose inner iteration survived the predicate
        joined = Join(tagged, Project(selected, [("selected_iter", "iter")]),
                      [("inner", "selected_iter")])
        return _same_items(candidates, Project(
            joined, [("iter", "iter"), ("pos", "pos"), ("item", "item")]))

    def _value_join(self, predicate: ast.Expr, tagged: Operator,
                    inner_context: CompilationContext,
                    context: CompilationContext) -> Operator | None:
        """``[lhs = rhs]`` with a focus-free *rhs* as a value join.

        Such a right-hand side (``$id``, ``$b/@person``) has one value per
        *outer* iteration, so it is compiled there — once, not once per
        candidate through the lifted environment — and joined with the
        candidates' left-hand values on ``(outer iter, value)``.  To keep
        it unevaluated wherever the classical plan never evaluates the
        predicate, its loop and variables are restricted to the outer
        iterations that have a candidate.  Returns the plan of the selected
        inner iterations, or ``None`` (not that shape, or pushdown is off).
        """
        from repro.xquery.pushdown import focus_free

        if not (self.push_predicates and isinstance(predicate, ast.GeneralComparison)
                and predicate.op == "="):
            return None
        left_free, right_free = focus_free(predicate.left), focus_free(predicate.right)
        if left_free == right_free:
            return None
        lhs, rhs = ((predicate.right, predicate.left) if left_free
                    else (predicate.left, predicate.right))
        live = Distinct([Project(tagged, [("iter", "iter")])])
        live_r = Project(live, [("live", "iter")])
        outer_context = CompilationContext(
            loop=live,
            environment={name: Project(Join(plan, live_r, [("iter", "live")]),
                                       [(column, column) for column in SEQ_COLUMNS])
                         for name, plan in context.environment.items()},
            loop_is_single=context.loop_is_single,
        )
        right = Project(AtomizeValue([self._compile(rhs, outer_context)]),
                        [("iter", "iter"), ("item_r", "item")])
        left = Project(AtomizeValue([self._compile(lhs, inner_context)]),
                       [("inner_l", "iter"), ("item", "item")])
        left = Project(Join(left, Project(tagged, [("inner", "inner"), ("iter", "iter")]),
                            [("inner_l", "inner")]),
                       [("iter", "iter"), ("inner", "inner"), ("item", "item")])
        joined = ValueEqualJoin(left, right, _general_equal)
        return Distinct([Project(joined, [("iter", "inner")])])

    def _selected_iterations(self, condition: ast.Expr, context: CompilationContext) -> Operator:
        """Compile *condition* into a plan of the iterations it selects.

        General comparisons and exists-style conditions use the semijoin
        shape (no aggregate on the data path), ``not(C)`` the anti-join of
        the loop with what ``C`` selects; everything else goes through a
        per-iteration boolean value.
        """
        if isinstance(condition, ast.GeneralComparison) and condition.op == "=":
            return self._existential_join(condition, context)
        if _is_call(condition, "exists"):
            inner = self._compile(condition.args[0], context)
            return Distinct([Project(inner, [("iter", "iter")])])
        if _is_call(condition, "not"):
            argument = condition.args[0]
            if _is_call(argument, "empty"):
                inner = self._compile(argument.args[0], context)
                return Distinct([Project(inner, [("iter", "iter")])])
            return self._unselected(self._selected_iterations(argument, context), context)
        inner = self._compile(condition, context)
        if inner.node_valued:
            # Node-sequence condition: non-empty means true.
            return Distinct([Project(inner, [("iter", "iter")])])
        selected = SelectComputed(inner, ["item"], _effective_boolean, name="ebv")
        return Distinct([Project(selected, [("iter", "iter")])])

    def _unselected(self, selected: Operator, context: CompilationContext) -> Operator:
        """The iterations of the loop *selected* does not name: one anti-join
        (``\\``; a loop relation is its distinct ``iter`` column already),
        which the ∪ push-up lets pass where it reaches both inputs keyed by
        ``iter``."""
        return Difference([context.loop, selected])

    def _existential_join(self, comparison: ast.GeneralComparison,
                          context: CompilationContext) -> Operator:
        left = AtomizeValue([self._compile(comparison.left, context)])
        right = AtomizeValue([self._compile(comparison.right, context)])
        left_p = Project(left, [("iter", "iter"), ("item", "item")])
        right_p = Project(right, [("iter", "iter"), ("item_r", "item")])
        joined = ValueEqualJoin(left_p, right_p, _general_equal)
        return Distinct([Project(joined, [("iter", "iter")])])

    # ------------------------------------------------------------------ FLWOR, conditionals

    def _compile_ForExpr(self, expr: ast.ForExpr, context: CompilationContext) -> Operator:
        source = self._compile(expr.sequence, context)
        if expr.whole and infer_cardinality(expr.body, {expr.var: EMPTY}).always_empty():
            # Set-at-a-time (the optimizer's ``whole``): one iteration per
            # outer one, with the variable bound to all of E's items.  An
            # iteration whose E is empty must answer (), which the body does
            # by itself when it is provably empty over an empty variable —
            # no guard, so the plan the ∪ push-up judges is just the body's.
            # Other whole loops keep the per-item map.
            return self._compile(expr.body, context.bind(expr.var, source))
        return self._map_over(source, expr.body, context,
                              bind_variable=expr.var, position_variable=expr.position_var)

    def _compile_LetExpr(self, expr: ast.LetExpr, context: CompilationContext) -> Operator:
        value = self._compile(expr.value, context)
        return self._compile(expr.body, context.bind(expr.var, value))

    def _compile_IfExpr(self, expr: ast.IfExpr, context: CompilationContext) -> Operator:
        then_plan = self._compile(expr.then_branch, context)
        is_where_shape = isinstance(expr.else_branch, ast.EmptySequence)
        if is_where_shape:
            selected = self._selected_iterations(expr.condition, context)
            joined = Join(then_plan, Project(selected, [("sel_iter", "iter")]), [("iter", "sel_iter")])
            return Project(joined, [("iter", "iter"), ("pos", "pos"), ("item", "item")])
        selected = self._selected_iterations(expr.condition, context)
        unselected = self._unselected(selected, context)
        else_plan = self._compile(expr.else_branch, context)
        then_part = Project(
            Join(then_plan, Project(selected, [("sel_iter", "iter")]), [("iter", "sel_iter")]),
            [("iter", "iter"), ("pos", "pos"), ("item", "item")],
        )
        else_part = Project(
            Join(else_plan, Project(unselected, [("sel_iter", "iter")]), [("iter", "sel_iter")]),
            [("iter", "iter"), ("pos", "pos"), ("item", "item")],
        )
        return self._iteration_major(UnionAll([then_part, else_part]), context)

    def _compile_QuantifiedExpr(self, expr: ast.QuantifiedExpr, context: CompilationContext) -> Operator:
        raise AlgebraError("quantified expressions are not supported by the algebra backend")

    def _compile_TypeswitchExpr(self, expr: ast.TypeswitchExpr, context: CompilationContext) -> Operator:
        raise AlgebraError("typeswitch is not supported by the algebra backend")

    # ------------------------------------------------------------------ comparisons, arithmetic

    def _compile_GeneralComparison(self, expr: ast.GeneralComparison,
                                   context: CompilationContext) -> Operator:
        matched = self._existential_join_general(expr, context)
        counted = Aggregate(matched, "count", ("iter",), "item", "matches", loop=context.loop)
        boolean = ScalarOp(counted, "item", ["matches"], lambda n: n > 0, name="exists")
        return self._with_pos(boolean)

    def _existential_join_general(self, expr: ast.GeneralComparison,
                                  context: CompilationContext) -> Operator:
        left = AtomizeValue([self._compile(expr.left, context)])
        right = AtomizeValue([self._compile(expr.right, context)])
        left_p = Project(left, [("iter", "iter"), ("item", "item")])
        right_p = Project(right, [("iter", "iter"), ("item_r", "item")])
        joined = Join(left_p, right_p, [("iter", "iter")])
        compare = _comparison_function(expr.op)
        selected = SelectComputed(joined, ["item", "item_r"], compare, name=expr.op)
        return Project(selected, [("iter", "iter"), ("item", "item")])

    def _compile_ValueComparison(self, expr: ast.ValueComparison, context: CompilationContext) -> Operator:
        return self._compile_GeneralComparison(
            ast.GeneralComparison(expr.op, expr.left, expr.right), context
        )

    def _compile_ArithmeticExpr(self, expr: ast.ArithmeticExpr, context: CompilationContext) -> Operator:
        left = AtomizeValue([self._compile(expr.left, context)])
        right = AtomizeValue([self._compile(expr.right, context)])
        left_p = Project(left, [("iter", "iter"), ("item", "item")])
        right_p = Project(right, [("iter", "iter"), ("item_r", "item")])
        joined = Join(left_p, right_p, [("iter", "iter")])
        function = _arithmetic_function(expr.op)
        computed = ScalarOp(joined, "result", ["item", "item_r"], function, name=expr.op)
        return self._with_pos(computed, item="result")

    def _compile_UnaryExpr(self, expr: ast.UnaryExpr, context: CompilationContext) -> Operator:
        inner = AtomizeValue([self._compile(expr.operand, context)])
        negate = expr.op == "-"

        def apply(value):
            number = xs_double(value) if isinstance(value, (str, UntypedAtomic)) else value
            return -number if negate else +number

        computed = ScalarOp(inner, "result", ["item"], apply, name=f"unary{expr.op}")
        return self._with_pos(computed, item="result")

    # ------------------------------------------------------------------ functions

    def _compile_FunctionCall(self, expr: ast.FunctionCall, context: CompilationContext) -> Operator:
        name = expr.name.split(":")[-1] if expr.name.startswith("fn:") else expr.name
        declaration = self.functions.get((expr.name, len(expr.args)))
        if declaration is not None:
            return self._inline_function(declaration, expr, context)

        if name in ("true", "false") and not expr.args:
            return self._with_pos(context.loop, item=Constant(name == "true"))
        if name == "count" and len(expr.args) == 1:
            inner = self._compile(expr.args[0], context)
            counted = Aggregate(inner, "count", ("iter",), "item", "item", loop=context.loop)
            return self._with_pos(counted)
        if name in ("empty", "exists", "not") and len(expr.args) == 1:
            # not(E) is empty(selected(E)): the effective boolean value of
            # E per loop iteration, negated — not each of E's items
            inner = (self._selected_iterations(expr.args[0], context) if name == "not"
                     else self._compile(expr.args[0], context))
            counted = Aggregate(inner, "count", ("iter",), None, "n", loop=context.loop)
            predicate = (lambda n: n > 0) if name == "exists" else (lambda n: n == 0)
            boolean = ScalarOp(counted, "item", ["n"], predicate, name=name)
            return self._with_pos(boolean)
        if name == "data" and len(expr.args) == 1:
            return AtomizeValue([self._compile(expr.args[0], context)])
        if name == "string" and len(expr.args) == 1:
            inner = self._compile(expr.args[0], context)
            stringified = ScalarOp(inner, "item_s", ["item"], string_value_of_item, name="string")
            return self._with_pos(stringified, item="item_s")
        if name == "id" and len(expr.args) in (1, 2):
            values = AtomizeValue([self._compile(expr.args[0], context)])
            if len(expr.args) == 2:
                return IdLookup(values, None, anchor=self._compile(expr.args[1], context))
            return IdLookup(values, self._require_document())
        if name == "doc" and len(expr.args) == 1:
            return self._compile_doc(expr.args[0], context)
        if name == "root" and len(expr.args) <= 1:
            target = (self._compile(expr.args[0], context) if expr.args
                      else self._compile_ContextItem(ast.ContextItem(), context))
            rooted = ScalarOp(target, "item_root", ["item"],
                              lambda node: node.root() if is_node(node) else node, name="root")
            return self._with_pos(rooted, item="item_root")
        raise AlgebraError(f"built-in function {expr.name}() is not supported by the algebra compiler")

    def _inline_function(self, declaration: ast.FunctionDecl, call: ast.FunctionCall,
                         context: CompilationContext) -> Operator:
        key = (declaration.name, declaration.arity)
        if key in self._inline_stack:
            raise AlgebraError(
                f"recursive user-defined function {declaration.name}() cannot be inlined"
            )
        self._inline_stack.append(key)
        try:
            call_context = context
            for parameter, argument in zip(declaration.params, call.args):
                call_context = call_context.bind(parameter.name, self._compile(argument, context))
            return self._compile(declaration.body, call_context)
        finally:
            self._inline_stack.pop()

    def _compile_doc(self, uri_expr: ast.Expr, context: CompilationContext) -> Operator:
        if not isinstance(uri_expr, ast.Literal) or not isinstance(uri_expr.value, str):
            raise AlgebraError("fn:doc requires a string literal URI in the algebra compiler")
        try:
            document = self.documents.resolve(uri_expr.value)
        except Exception:
            document = self._default_document()
            if document is None:
                if not self.analysis_only:
                    raise
                document = DocumentNode()
        return DocumentRoot(context.loop, document)

    def _default_document(self) -> DocumentNode | None:
        """The caller's ``document``, else the only document of the corpus.

        Looked for only when a construct needs it: naming it enumerates the
        corpus, and a cached plan then depends on the corpus as a whole.
        """
        if self.document is None:
            known = self.documents.known_uris()
            if len(known) == 1:
                self.document = self.documents.resolve(known[0])
        return self.document

    def _require_document(self) -> DocumentNode:
        document = self._default_document()
        if document is not None:
            return document
        if self.analysis_only:
            return DocumentNode()
        raise AlgebraError("fn:id: the algebra engine resolves IDs in one compile-time "
                           "document and the corpus does not name exactly one "
                           "(use the interpreter or sql engine)")

    # ------------------------------------------------------------------ constructors

    def _compile_DirectElementConstructor(self, expr: ast.DirectElementConstructor,
                                          context: CompilationContext) -> Operator:
        attributes = [
            NodeConstructor(context.loop,
                            [self._compile(part, context) for part in attribute.value_parts],
                            "attribute", attribute.name)
            for attribute in expr.attributes
        ]
        content = [self._compile(part, context) for part in expr.content]
        return NodeConstructor(context.loop, attributes + content, "element", expr.name)

    def _compile_ComputedConstructor(self, expr: ast.ComputedConstructor,
                                     context: CompilationContext) -> Operator:
        content = [self._compile(expr.content, context)] if expr.content is not None else []
        name = None
        if isinstance(expr.name, ast.Literal):
            name = str(expr.name.value)
        return NodeConstructor(context.loop, content, expr.kind, name)

    def _compile_OrderedExpr(self, expr: ast.OrderedExpr, context: CompilationContext) -> Operator:
        return self._compile(expr.body, context)

    # ------------------------------------------------------------------ the IFP form

    def _compile_WithExpr(self, expr: ast.WithExpr, context: CompilationContext) -> Operator:
        if not context.loop_is_single:
            raise AlgebraError(
                "with … seeded by … recurse under an enclosing iteration is not supported "
                "by the algebra backend; evaluate the fixpoint per seed instead"
            )
        seed = self._compile(expr.seed, context)
        recursion_input = RecursionInput(expr.var)
        body_context = context.bind(expr.var, recursion_input)
        body_plan = self._compile(expr.body, body_context)
        fact = self.analysis.fact_for(expr) if self.analysis is not None else None
        decision = decide_fixpoint(expr, self.settings, self.functions, fact=fact,
                                   body_plan=(body_plan, recursion_input))
        # The one recognizer the interpreter uses: a body that is a step
        # relation iterates in pre-space, its images filled by
        # this plan — against the documents it was compiled with.
        relation = recognize_step_relation(expr.body, expr.var, self.functions,
                                           engine="algebra", variables=self.variables,
                                           fact=fact)
        documents = {}
        for uri in relation.documents if relation is not None else ():
            try:
                documents[uri] = self.documents.resolve(uri)
            except XQueryDynamicError:
                pass  # the relation declines: no document under the URI
        return Fixpoint(seed, body_plan, recursion_input,
                        variant="mu_delta" if decision.algorithm == "delta" else "mu",
                        relation=relation, documents=documents)

    # ------------------------------------------------------------------ helpers

    def _empty_sequence_plan(self, context: CompilationContext) -> Operator:
        return LiteralTable(ColumnarTable(SEQ_COLUMNS))

    def _iteration_major(self, union: Operator, context: CompilationContext) -> Operator:
        """*union* with each iteration's rows contiguous: inside a loop a
        ∪ is operand-major, and row order is sequence order.  The single
        top-level iteration needs no merge."""
        return union if context.loop_is_single else IterationMerge([union])

    def _with_pos(self, plan: Operator, iter: str = "iter",
                  item: str | Constant = "item") -> Operator:
        """*plan*'s *iter* and *item* columns as ``iter|pos|item`` with a
        constant ``pos``: one π."""
        return Project(plan, [("iter", iter), ("pos", Constant(1)), ("item", item)])

    def _uses_context_item(self, expr: ast.Expr) -> bool:
        return any(isinstance(sub, (ast.ContextItem, ast.RootExpr))
                   for sub in expr.iter_subexpressions())


def _same_items(source: Operator, plan: Operator) -> Operator:
    """*plan* re-addresses or selects the items of *source* and adds none
    (a loop lift, a ``for``/path item plan, a predicate's survivors), so it
    delivers nodes by construction wherever *source* does.  The one place
    the compiler hands :attr:`Operator.node_valued` on — what
    :meth:`AlgebraCompiler._value_input` may step from without being able
    to raise."""
    plan.node_valued = source.node_valued
    return plan


def _document_order(plan: Operator, operation: str | None = None) -> Operator:
    """*plan*'s items per iteration without duplicates and in document
    order — what ``|``, ``intersect`` and ``except`` return, and what a
    position in ``(a | b)[1]`` counts along.  With *operation*, the items
    must be nodes (:class:`PathResult`)."""
    return PathResult([Project(plan, [("iter", "iter"), ("item", "item")])], operation)


def _is_call(expr: ast.Expr, name: str) -> bool:
    """Is *expr* a one-argument call of the built-in *name*?"""
    return (isinstance(expr, ast.FunctionCall) and expr.name in (name, f"fn:{name}")
            and len(expr.args) == 1)


#: Predicates that do not select by a computed position: booleans, steps
#: and literals (a number literal is the macros' ``[n]``, or unsupported).
_NOT_COMPUTED_POSITIONS = (ast.GeneralComparison, ast.ValueComparison, ast.NodeComparison,
                           ast.AndExpr, ast.OrExpr, ast.InstanceOfExpr, ast.AxisStep,
                           ast.Literal)


def _may_be_numeric(predicate: ast.Expr) -> bool:
    """May *predicate*'s value be a computed number, which selects by
    position (``[$n]``, ``[count(a)]``)?"""
    if isinstance(predicate, _NOT_COMPUTED_POSITIONS) or (
            isinstance(predicate, ast.PathExpr) and isinstance(predicate.right, ast.AxisStep)):
        return False
    return not any(_is_call(predicate, name) for name in ("not", "empty", "exists", "boolean"))


# ---------------------------------------------------------------------------
# scalar helpers used inside ScalarOp
# ---------------------------------------------------------------------------


def _effective_boolean(value) -> bool:
    if is_node(value):
        return True
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0 and value == value
    if isinstance(value, str):
        return len(value) > 0
    return value is not None


def _general_equal(left, right) -> bool:
    left, right = _promote(left, right)
    return atomic_equal(left, right)


def _promote(left, right):
    if isinstance(left, UntypedAtomic) and isinstance(right, (int, float)) and not isinstance(right, bool):
        return xs_double(left), right
    if isinstance(right, UntypedAtomic) and isinstance(left, (int, float)) and not isinstance(left, bool):
        return left, xs_double(right)
    if isinstance(left, UntypedAtomic) or isinstance(right, UntypedAtomic):
        return str(left), str(right)
    return left, right


def _comparison_function(op: str):
    def compare(left, right) -> bool:
        left_p, right_p = _promote(left, right)
        if op in ("=", "eq"):
            return atomic_equal(left_p, right_p)
        if op in ("!=", "ne"):
            return not atomic_equal(left_p, right_p)
        if op in ("<", "lt"):
            return atomic_less_than(left_p, right_p)
        if op in ("<=", "le"):
            return atomic_less_than(left_p, right_p) or atomic_equal(left_p, right_p)
        if op in (">", "gt"):
            return atomic_less_than(right_p, left_p)
        if op in (">=", "ge"):
            return atomic_less_than(right_p, left_p) or atomic_equal(left_p, right_p)
        raise AlgebraError(f"unsupported comparison operator {op!r}")

    return compare


def _arithmetic_function(op: str):
    def apply(left, right):
        left_n = xs_double(left) if isinstance(left, (str, UntypedAtomic)) else left
        right_n = xs_double(right) if isinstance(right, (str, UntypedAtomic)) else right
        if op == "+":
            return left_n + right_n
        if op == "-":
            return left_n - right_n
        if op == "*":
            return left_n * right_n
        if op == "div":
            if right_n == 0:
                raise XQueryDynamicError("division by zero", code="FOAR0001")
            return left_n / right_n
        if op == "idiv":
            if right_n == 0:
                raise XQueryDynamicError("integer division by zero", code="FOAR0001")
            # truncate toward zero, matching the interpreter and fn semantics
            quotient = int(abs(left_n) // abs(right_n))
            return quotient if (left_n >= 0) == (right_n >= 0) else -quotient
        if op == "mod":
            if right_n == 0:
                raise XQueryDynamicError("modulo by zero", code="FOAR0001")
            return left_n - right_n * int(left_n / right_n)
        raise AlgebraError(f"unsupported arithmetic operator {op!r}")

    return apply


# ---------------------------------------------------------------------------
# module-level conveniences
# ---------------------------------------------------------------------------


def compile_expression(expr: ast.Expr,
                       documents: DocumentResolver | None = None,
                       document: DocumentNode | None = None,
                       functions: dict[tuple[str, int], ast.FunctionDecl] | None = None) -> Operator:
    """Compile a top-level expression with a fresh compiler."""
    compiler = AlgebraCompiler(documents=documents, document=document, functions=functions)
    return compiler.compile(expr)


def compile_recursion_body(body: ast.Expr, variable: str,
                           documents: DocumentResolver | None = None,
                           document: DocumentNode | None = None,
                           functions: dict[tuple[str, int], ast.FunctionDecl] | None = None,
                           analysis_only: bool = True) -> tuple[Operator, RecursionInput]:
    """Compile a recursion body for analysis or µ/µ∆ evaluation."""
    compiler = AlgebraCompiler(documents=documents, document=document,
                               functions=functions, analysis_only=analysis_only)
    return compiler.compile_recursion_body(body, variable)
