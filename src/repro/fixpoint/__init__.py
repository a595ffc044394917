"""Inflationary fixed point evaluation (the paper's core contribution).

The package implements Definition 2.1's IFP semantics and the two
evaluation strategies of Figure 3 — **Naive** (feed the whole accumulated
result back into the recursion body each round) and **Delta** (semi-naive:
feed only the nodes not seen in earlier rounds) — as *one* loop,
:meth:`repro.fixpoint.engine.FixpointEngine.run`, parameterised by what is
fed and when to stop.  It is the only place in the code base an IFP is
iterated: the interpreter, the algebra engine's µ/µ∆ and the SQL engine's
fallback hand it their body and get identical rounds, budgets and typed
errors by construction.  The engine enforces the iteration bound that
stands in for "the IFP is undefined" and collects the per-iteration
statistics that the paper's Table 2 reports (total number of nodes fed
back, recursion depth).  *Which* of the two strategies a ``with … recurse``
site gets is decided next door, once, for every engine:
:func:`repro.fixpoint.decision.decide_fixpoint`.
"""

from repro.fixpoint.decision import FixpointDecision, decide_fixpoint
from repro.fixpoint.engine import FixpointEngine, FixpointResult
from repro.fixpoint.stats import FixpointStatistics, IterationRecord

__all__ = [
    "FixpointDecision",
    "FixpointEngine",
    "FixpointResult",
    "FixpointStatistics",
    "IterationRecord",
    "decide_fixpoint",
]
