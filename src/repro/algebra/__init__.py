"""Relational XQuery backend (Section 4 of the paper).

The Pathfinder project compiles XQuery to DAG-shaped relational algebra
plans over flat ``iter|pos|item`` tables; the paper exploits that
representation in two ways, both reproduced here:

1. **Algebraic distributivity check** — replace the recursion body's input
   by a union and push the union up through the plan (Figures 7/8).  The
   push succeeds exactly through the operators marked as push-able in
   Table 1; aggregates, difference, row numbering and node constructors
   block it.  See :mod:`repro.algebra.distributivity`.
2. **Fixpoint operators µ and µ∆** — the algebraic counterparts of
   algorithms Naive and Delta.  The interpreted algebra engine in
   :mod:`repro.algebra.evaluator` executes plans containing them and counts
   the rows fed back per iteration, mirroring Table 2's node counts.

The compiler (:mod:`repro.algebra.compiler`) implements a loop-lifting
translation for the XQuery core needed by the paper's queries: FLWOR,
paths/steps, ``fn:id``, value joins, ``count``/``empty``, conditionals,
sequence/union/except, literals and the ``with … recurse`` form.  Like the
paper, it treats the XPath step join and the ``id()`` lookup as macro
operators ("micro plans") rather than expanding them to textbook joins.

Every table is a :class:`~repro.algebra.columnar.ColumnarTable`: one list
per column, shared between derived tables and never mutated.
"""

from repro.algebra.columnar import ColumnarTable
from repro.algebra.operators import Operator
from repro.algebra.compiler import AlgebraCompiler, compile_expression, compile_recursion_body
from repro.algebra.evaluator import AlgebraEvaluator
from repro.algebra.distributivity import (
    is_distributive_algebraic,
    analyze_plan_distributivity,
    PushUpReport,
)

__all__ = [
    "ColumnarTable",
    "Operator",
    "AlgebraCompiler",
    "compile_expression",
    "compile_recursion_body",
    "AlgebraEvaluator",
    "is_distributive_algebraic",
    "analyze_plan_distributivity",
    "PushUpReport",
]
