"""Algebraic distributivity check: pushing ∪ up through the plan (Section 4.1).

The check starts at the :class:`~repro.algebra.operators.RecursionInput`
leaf (the place where the recursion body consumes the recursion variable)
and asks whether a union introduced there can be pushed up through *every*
operator on *every* path to the plan root — Figure 7(a).  Per Figure 8 and
Table 1, the push succeeds through projections, selections, joins, cross
products, unions, scalar operators, row tagging, step joins and fixpoints,
and is blocked by aggregates, difference, row numbering, duplicate
elimination and node constructors.

A push through an operator with several inputs is a push through *one* of
them: ``(A ∪ B) ⋈ (A ∪ B) ≠ (A ⋈ A) ∪ (B ⋈ B)``.  That the ∪ reaches two
inputs is not the test — loop lifting joins everything with a loop
relation that depends on the recursion variable — but whether rows stemming
from different rows of it can meet: where the ∪ arrives through several
inputs, they must be joined on a *row key* of each (:func:`_row_keys`; the
``iter`` of a loop lifted over the recursion variable is one), else the
operator blocks (:func:`_joins_row_by_row`).  ∪ through the context of a
step macro alone, or through one value input, passes; through two value
inputs, or the context and a value input, it does not.

Two refinements from the paper are implemented:

* **Order/duplicate stripping** — because distributivity is defined up to
  duplicates and order (Definition 3.1), the checker may skip duplicate
  elimination (δ) and row numbering (̺) operators.  This is on by default
  and can be disabled for the ablation study.
* **Template big steps** — operators emitted as part of a known-distributive
  plan template (e.g. the step-join or id-lookup macros) are crossed in one
  step instead of being re-examined operator by operator.  With macro
  operators this is mostly a bookkeeping detail, but the report records how
  many big steps were taken so the effect remains observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

from repro.errors import AlgebraError
from repro.algebra.compiler import compile_recursion_body
from repro.algebra import operators as ops
from repro.algebra.operators import Operator, RecursionInput
from repro.distributivity.syntactic import normalize_functions
from repro.xquery import ast
from repro.xquery.context import DocumentResolver
from repro.xdm.node import DocumentNode

#: Plan templates known to be distributive as a whole (big-step targets).
DISTRIBUTIVE_TEMPLATES = frozenset({"step", "id"})

#: Operators that hand on their (first) input's rows with its columns.
_KEEPS_COLUMNS = (ops.Select, ops.SelectComputed, ops.Distinct, ops.IterationMerge,
                  ops.ScalarOp, ops.AtomizeValue, ops.RowNumber)


@dataclass
class PushUpReport:
    """Outcome of the union push-up check for one recursion body plan."""

    distributive: bool
    operators_checked: int = 0
    big_steps: int = 0
    blocking_operators: list[Operator] = field(default_factory=list)
    ignored_order_operators: int = 0

    def blocking_labels(self) -> list[str]:
        return [operator.label() for operator in self.blocking_operators]


def analyze_plan_pushup(body_plan: Operator, recursion_input: RecursionInput,
                        ignore_order_and_duplicates: bool = True,
                        use_templates: bool = True) -> PushUpReport:
    """Run the ∪ push-up over *body_plan* starting at *recursion_input*."""
    report = PushUpReport(distributive=True)

    def block(operator: Operator) -> None:
        report.distributive = False
        if operator not in report.blocking_operators:
            report.blocking_operators.append(operator)

    # Node constructors anywhere in the recursion body rule out Delta: every
    # re-evaluation creates fresh node identities (Section 3.2 / Table 1).
    for operator in body_plan.iter_operators():
        if isinstance(operator, ops.NodeConstructor):
            block(operator)

    #: Per operator the ∪ reaches (the recursion input and its ancestors):
    #: its row-key columns; ``None`` for an operator the ∪ does not reach.
    row_keys: dict[int, frozenset[str] | None] = {id(recursion_input): frozenset()}

    def visit(operator: Operator) -> frozenset[str] | None:
        if id(operator) in row_keys:
            return row_keys[id(operator)]
        inputs = [visit(child) for child in operator.children]
        carrying = [keys for keys in inputs if keys is not None]
        if not carrying:
            row_keys[id(operator)] = None
            return None
        keys = row_keys[id(operator)] = _row_keys(
            operator, inputs[0] or frozenset(), carrying)
        if len(carrying) > 1 and not _joins_row_by_row(operator, carrying):
            block(operator)  # not linear: the ∪ arrives through several inputs
        if use_templates and operator.template in DISTRIBUTIVE_TEMPLATES:
            report.big_steps += 1
            return keys
        report.operators_checked += 1
        if operator.order_or_duplicates_only and ignore_order_and_duplicates:
            report.ignored_order_operators += 1
        elif not operator.union_pushable:
            block(operator)
        return keys

    visit(body_plan)
    return report


def _row_keys(operator: Operator, first: frozenset[str],
              carrying: list[frozenset[str]]) -> frozenset[str]:
    """The columns of *operator*'s output that name one row of a relation
    the ∪ has reached: two rows that agree on such a column stem from the
    same row of it, so whatever is computed for them is computed from that
    row alone and splits with the ∪.  ``#`` creates them (the ``inner`` of
    a loop lifted over such a relation), π renames them, the macros keep
    their ``iter``.  *first* are the first input's (none if the ∪ does not
    reach it), *carrying* those of every input it reaches."""
    if isinstance(operator, ops.Project):
        return frozenset(new for new, old in operator.mapping if old in first)
    if isinstance(operator, _KEEPS_COLUMNS):
        return first
    if isinstance(operator, (ops.Join, ops.ValueEqualJoin, ops.Cross)):
        return frozenset().union(*carrying)
    if isinstance(operator, ops.RowTag):
        return first | {operator.result}
    if isinstance(operator, ops.UnionAll):
        return frozenset.intersection(*carrying)
    return first & {"iter"}  # the macros and µ deliver iter|pos|item


def _joins_row_by_row(operator: Operator, carrying: list[frozenset[str]]) -> bool:
    """The linearity condition, where the ∪ reaches *operator* through more
    than one input: ``(A ∪ B) ⋈ (A ∪ B)`` is ``(A ⋈ A) ∪ (B ⋈ B)`` only if
    no row from ``A`` meets one from ``B``, i.e. if the inputs are joined on
    a row key (inside a loop lifted over the recursion variable they are: on
    its ``iter``).  A ∪ of them needs nothing."""
    if isinstance(operator, ops.UnionAll):
        return True
    if isinstance(operator, ops.Join):
        left, right = carrying
        return any(mine in left and theirs in right
                   for mine, theirs in operator.conditions)
    if isinstance(operator, (ops.ValueEqualJoin, ops.StepJoin)):  # joined per ``iter``
        return all("iter" in keys for keys in carrying)
    return False


def analyze_plan_distributivity(body: ast.Expr, variable: str,
                                functions: Mapping[tuple[str, int], ast.FunctionDecl] | Iterable[ast.FunctionDecl] | None = None,
                                documents: DocumentResolver | None = None,
                                document: DocumentNode | None = None,
                                ignore_order_and_duplicates: bool = True,
                                use_templates: bool = True) -> PushUpReport:
    """Compile *body* and run the algebraic distributivity check on the plan."""
    function_map = normalize_functions(functions)
    plan, recursion_input = compile_recursion_body(
        body, variable, documents=documents, document=document,
        functions=function_map, analysis_only=True,
    )
    return analyze_plan_pushup(
        plan, recursion_input,
        ignore_order_and_duplicates=ignore_order_and_duplicates,
        use_templates=use_templates,
    )


def is_distributive_algebraic(body: ast.Expr, variable: str,
                              functions: Mapping[tuple[str, int], ast.FunctionDecl] | Iterable[ast.FunctionDecl] | None = None,
                              documents: DocumentResolver | None = None,
                              document: DocumentNode | None = None,
                              strict: bool = True) -> bool:
    """Algebraic distributivity verdict for an XQuery recursion body.

    When *strict* is false, bodies the algebra compiler cannot handle are
    reported as non-distributive instead of raising, which is the behaviour
    a processor falling back to Naive would exhibit.
    """
    try:
        return analyze_plan_distributivity(
            body, variable, functions=functions, documents=documents, document=document
        ).distributive
    except AlgebraError:
        if strict:
            raise
        return False
