"""Resource governance: deadlines, budgets and cooperative cancellation.

The paper's inflationary-fixpoint semantics guarantees termination only on
finite structures — a hand-written recursion over a large IDREFS graph can
legally run for minutes.  This module provides the substrate that keeps
such queries bounded:

* :class:`ResourceLimits` — a frozen bundle of limits carried on
  :class:`~repro.settings.EvalSettings` (``settings.limits``).
* :class:`Deadline` — a monotonic wall-clock deadline.
* :class:`CancelToken` — a one-shot flag an outside party (service
  drain, client disconnect) sets to stop an in-flight query.
* :class:`Governor` — the live per-evaluation object engines consult.  The
  session builds one from the limits + token and hands it to the engines
  in its own typed slot, ``StaticContext.governor`` (``None`` when the
  evaluation is ungoverned) — engine sites read it directly.

Engines check cooperatively:

* the interpreter checks at FLWOR-iteration and user-function-call
  boundaries — the amortized call is engineered to be nearly free
  (increment + compare; the cancel flag and the clock are consulted only
  every ``stride`` calls).  Path steps deliberately carry no checkpoint:
  they are bounded by document size, and unbounded work always flows
  through an iteration, a call or a fixpoint round;
* the fixpoint driver (:meth:`repro.fixpoint.engine.FixpointEngine.run`,
  which every engine iterates through) compares, before every round, the
  fed/result sizes it already has, the clock and the cancel flag inline
  against :attr:`Governor.round_ceilings`, and calls
  :meth:`Governor.check_round` for a round past one of them;
* the SQLite backend installs a :func:`sqlite_guard` progress handler so
  even one monster ``WITH RECURSIVE`` statement is interruptible.

Violations raise the typed errors of :mod:`repro.errors`:
:class:`~repro.errors.QueryTimeout`, :class:`~repro.errors.BudgetExceeded`
and :class:`~repro.errors.QueryCancelled`.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import BudgetExceeded, QueryCancelled, QueryTimeout

#: How many :meth:`Governor.checkpoint` calls elapse between full checks
#: (cancel flag + clock).  The amortized call is three interpreter ops —
#: increment, compare, return — so governed-but-untriggered evaluation
#: stays within the <2% overhead budget (``benchmarks/check_overhead.py``
#: guards this).  Round boundaries always
#: look at the cancel flag and the clock (inline, in the fixpoint driver),
#: so cancellation latency is bounded by one fixpoint round or one stride of
#: steps, whichever comes first.
CHECKPOINT_STRIDE = 64

#: One stride of :attr:`Governor.tick`'s answers, built once.
_STRIDE = (False,) * (CHECKPOINT_STRIDE - 1) + (True,)

#: How many SQLite VM instructions run between progress-handler callbacks.
#: ~4000 keeps the handler overhead well under 1% while still interrupting
#: a runaway CTE within a few milliseconds of the deadline.
SQLITE_PROGRESS_STRIDE = 4000


@dataclass(frozen=True)
class ResourceLimits:
    """Immutable resource bounds for one evaluation.

    All fields default to ``None`` (unlimited); an all-``None`` value is
    equivalent to no limits at all.  Carried on
    :class:`~repro.settings.EvalSettings`, so it must stay hashable.

    Attributes
    ----------
    timeout_s:
        Wall-clock budget in seconds, measured from the moment the session
        starts evaluating (parse/compile time counts).
    max_fixpoint_rounds:
        Upper bound on rounds of any single fixpoint evaluation — checked
        by the one driver every engine iterates through.
        Unlike ``max_ifp_iterations`` (an engine-correctness bound that
        raises :class:`~repro.errors.FixpointError`), tripping this raises
        :class:`~repro.errors.BudgetExceeded` — a governance decision.
    max_frontier_nodes:
        Bound on the nodes fed into a single fixpoint round.
    max_result_items:
        Bound on the accumulated fixpoint result size.
    max_memory_kb:
        Best-effort bound on the process RSS *growth* during evaluation,
        probed at round boundaries via ``resource.getrusage``.  ``ru_maxrss``
        is a process-wide high-water mark, so this catches big allocations
        but cannot attribute memory between concurrent queries.
    """

    timeout_s: float | None = None
    max_fixpoint_rounds: int | None = None
    max_frontier_nodes: int | None = None
    max_result_items: int | None = None
    max_memory_kb: int | None = None

    def round_budgets(self) -> tuple[str, ...]:
        """The budgets set here that are checked at fixpoint round
        boundaries (rounds, frontier, result size): only a loop that
        iterates the rounds itself can honour them."""
        return tuple(name for name in ("max_fixpoint_rounds", "max_frontier_nodes",
                                       "max_result_items")
                     if getattr(self, name) is not None)

    def unlimited(self) -> bool:
        """True when every field is ``None`` (no governance needed)."""
        return (self.timeout_s is None and self.max_fixpoint_rounds is None
                and self.max_frontier_nodes is None
                and self.max_result_items is None
                and self.max_memory_kb is None)


class Deadline:
    """A wall-clock deadline on the monotonic clock."""

    __slots__ = ("at",)

    def __init__(self, at: float):
        self.at = at

    @classmethod
    def after(cls, timeout_s: float) -> "Deadline":
        return cls(time.monotonic() + timeout_s)

    def remaining(self) -> float:
        return self.at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.at


class CancelToken:
    """Cancellation flag with an optional human-readable reason.

    The party that wants a query stopped calls :meth:`cancel`; the
    evaluating thread observes the flag at its next cooperative checkpoint
    and raises :class:`~repro.errors.QueryCancelled`.  Tokens are one-shot:
    once cancelled they stay cancelled.  Nothing ever waits on a token, so
    it is a plain boolean: an attribute store is atomic, and :meth:`cancel`
    writes the reason before the flag, so a thread that sees the flag set
    reads the reason that came with it.
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self):
        self._cancelled = False
        self.reason: str | None = None

    def cancel(self, reason: str | None = None) -> None:
        if not self._cancelled:
            self.reason = reason
            self._cancelled = True

    def cancelled(self) -> bool:
        return self._cancelled


def _rss_kb() -> int | None:
    """Current process high-water RSS in KiB (best effort)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    import sys
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return usage // 1024
    return usage


class Governor:
    """The live per-evaluation governance object engines consult.

    Built by the session from a :class:`ResourceLimits` (plus an optional
    :class:`CancelToken`) at the start of each evaluation and carried as
    ``StaticContext.governor``.  One governor serves one evaluation; it is consulted
    from the evaluating thread only (the cancel token is what crosses
    threads).
    """

    __slots__ = ("limits", "deadline", "token", "tick", "round_ceilings",
                 "_rss_start_kb")

    def __init__(self, limits: ResourceLimits,
                 token: CancelToken | None = None,
                 stride: int = CHECKPOINT_STRIDE):
        self.limits = limits
        self.token = token
        self.deadline = (Deadline(time.monotonic() + limits.timeout_s)
                         if limits.timeout_s is not None else None)
        #: A C-level stride counter: calling ``tick()`` returns ``True``
        #: on every ``stride``-th call and ``False`` otherwise, with no
        #: Python frame — hot interpreter sites use it inline
        #: (``if governor is not None and governor.tick(): check_now()``)
        #: so governed-but-untriggered evaluation stays within the <2%
        #: budget that ``benchmarks/check_overhead.py`` enforces.
        self.tick = itertools.cycle(
            _STRIDE if stride == CHECKPOINT_STRIDE
            else (False,) * (stride - 1) + (True,)).__next__
        unset = sys.maxsize
        #: What the fixpoint driver compares inline before every round:
        #: the round, frontier and result budgets as ceilings (``sys.maxsize``
        #: where unset; a frontier ceiling of ``-1`` under a memory budget,
        #: whose probe runs every round), the deadline's monotonic instant
        #: (``inf`` without one) and the cancel token.  Only a round past one
        #: of them needs the full :meth:`check_round`.
        self.round_ceilings = (
            unset if limits.max_fixpoint_rounds is None else limits.max_fixpoint_rounds,
            -1 if limits.max_memory_kb is not None
            else unset if limits.max_frontier_nodes is None else limits.max_frontier_nodes,
            unset if limits.max_result_items is None else limits.max_result_items,
            math.inf if self.deadline is None else self.deadline.at,
            token)
        self._rss_start_kb = (_rss_kb()
                              if limits.max_memory_kb is not None else None)

    # -- cooperative checkpoints --------------------------------------------

    def checkpoint(self) -> None:
        """Amortized per-step check: near-free, full check every stride.

        Convenience wrapper over the inline ``tick()``/:meth:`check_now`
        pair for sites that are not hot enough to bother inlining.
        """
        if self.tick():
            self.check_now()

    def check_now(self) -> None:
        """Full check (cancel + clock), bypassing the stride."""
        token = self.token
        if token is not None and token.cancelled():
            raise QueryCancelled(reason=token.reason)
        if self.deadline is not None and self.deadline.expired():
            raise QueryTimeout(timeout_s=self.limits.timeout_s)

    def check_round(self, iteration: int, frontier: int = 0,
                    result_size: int = 0) -> None:
        """Round-boundary check: deadline, cancellation and size budgets.

        The fixpoint driver calls this once per round with the sizes it
        already has — the nodes about to be fed into the round and the
        accumulated result — so the budgets cost nothing extra to enforce.
        """
        self.check_now()
        limits = self.limits
        if (limits.max_fixpoint_rounds is not None
                and iteration > limits.max_fixpoint_rounds):
            raise BudgetExceeded(
                f"fixpoint exceeded its round budget "
                f"({iteration} > {limits.max_fixpoint_rounds})",
                budget="max_fixpoint_rounds",
                limit=limits.max_fixpoint_rounds, observed=iteration)
        if (limits.max_frontier_nodes is not None
                and frontier > limits.max_frontier_nodes):
            raise BudgetExceeded(
                f"fixpoint frontier exceeded its node budget "
                f"({frontier} > {limits.max_frontier_nodes})",
                budget="max_frontier_nodes",
                limit=limits.max_frontier_nodes, observed=frontier)
        if (limits.max_result_items is not None
                and result_size > limits.max_result_items):
            raise BudgetExceeded(
                f"fixpoint result exceeded its item budget "
                f"({result_size} > {limits.max_result_items})",
                budget="max_result_items",
                limit=limits.max_result_items, observed=result_size)
        if limits.max_memory_kb is not None and self._rss_start_kb is not None:
            now_kb = _rss_kb()
            if now_kb is not None:
                grown = now_kb - self._rss_start_kb
                if grown > limits.max_memory_kb:
                    raise BudgetExceeded(
                        f"evaluation grew the process RSS by {grown} KiB "
                        f"(budget {limits.max_memory_kb} KiB)",
                        budget="max_memory_kb",
                        limit=limits.max_memory_kb, observed=grown)

    def tripped(self) -> bool:
        """Non-raising probe: has the deadline passed or the token fired?

        Used by the SQLite progress handler, which must return a truthy
        value to interrupt the statement rather than raise across the C
        callback boundary.
        """
        token = self.token
        if token is not None and token.cancelled():
            return True
        return self.deadline is not None and self.deadline.expired()

    def raise_tripped(self) -> None:
        """Raise the typed error matching :meth:`tripped` (cancel wins)."""
        token = self.token
        if token is not None and token.cancelled():
            raise QueryCancelled(reason=token.reason)
        raise QueryTimeout(timeout_s=self.limits.timeout_s)


@contextmanager
def sqlite_guard(connection, governor: Governor | None,
                 stride: int = SQLITE_PROGRESS_STRIDE):
    """Make SQLite statements on *connection* honour *governor*.

    Installs a progress handler that asks SQLite to interrupt the running
    statement (by returning non-zero) once the governor trips, and
    translates the resulting ``OperationalError: interrupted`` into the
    governor's typed error.  The handler is removed on exit so pooled
    connections are left clean.
    """
    import sqlite3

    if governor is None or (governor.deadline is None and governor.token is None):
        yield
        return
    connection.set_progress_handler(governor.tripped, stride)
    try:
        yield
    except sqlite3.OperationalError as error:
        if "interrupt" in str(error).lower() and governor.tripped():
            governor.raise_tripped()
        raise
    finally:
        connection.set_progress_handler(None, 0)


__all__ = ["ResourceLimits", "Deadline", "CancelToken", "Governor",
           "sqlite_guard", "CHECKPOINT_STRIDE", "SQLITE_PROGRESS_STRIDE"]
