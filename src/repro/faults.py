"""Fault-injection harness: named failure points for chaos testing.

Production robustness cannot be asserted without the ability to *make*
things fail.  This module defines a registry of named injection points
wired into the riskiest spots of the stack:

==================  ========================================================
point               where it fires
==================  ========================================================
``sqlite-execute``  :mod:`repro.sqlbackend.executor`, before a fixpoint's
                    ``WITH RECURSIVE`` statement runs — raises
                    ``sqlite3.OperationalError`` (mapped to
                    :class:`~repro.errors.SqlBackendError`)
``slow-span``       :meth:`repro.fixpoint.engine.FixpointEngine.run`, before
                    every round ≥ 1 — the one site all three engines iterate
                    through — sleeps, turning a fast query into a
                    deliberately slow one
``shredder-load``   :meth:`SqlDocumentStore.shred`, mid-document — raises,
                    exercising the store's cleanup/rollback path
``index-build``     :func:`repro.xdm.index.index_for`, before a structural
                    index is built — raises, exercising registry hygiene
``worker-kill``     :meth:`QueryService.handle_query`, before evaluation —
                    the worker SIGKILLs itself, exercising the
                    supervisor's crash detection and journal replay
``worker-hang``     the worker heartbeat loop — sleeps past the
                    supervisor's heartbeat timeout, exercising hung-worker
                    reaping (default sleep: 60s)
``journal-corrupt``  :meth:`CorpusJournal.append`, after the write — flips
                    bytes in the just-written record, exercising the
                    reader's CRC check and resynchronization
==================  ========================================================

Activation is process-global but explicit: tests use
:func:`inject` as a context manager, services use
``Session(faults=...)`` or the ``REPRO_FAULTS`` environment variable
(read once at import by the CLI/service entry points via
:func:`plan_from_env`).  The steady-state cost when nothing is active is
one module-global ``None`` check per point.

``REPRO_FAULTS`` syntax — semicolon-separated specs::

    REPRO_FAULTS="slow-span:sleep=0.05;sqlite-execute:error,probability=0.5"

Each spec is ``point[:key=value,...]`` with keys ``sleep`` (seconds,
implies a sleeping fault), ``error`` (flag; raising fault — the default
when no ``sleep`` is given), ``probability`` (0..1, deterministic
per-trigger counter-based gate, not random), ``after`` (skip the first N
triggers) and ``limit`` (fire at most N times).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.errors import InjectedFault

#: The registry of known points; :func:`inject` validates against it so a
#: typo'd point name fails the test instead of silently never firing.
POINTS = ("sqlite-execute", "slow-span", "shredder-load", "index-build",
          "worker-kill", "worker-hang", "journal-corrupt")


@dataclass
class FaultSpec:
    """One armed fault point.

    Attributes
    ----------
    point:
        Name from :data:`POINTS`.
    sleep_s:
        When set, :func:`trigger` sleeps this long instead of raising.
    error:
        A zero-argument callable returning the exception to raise; defaults
        to :class:`~repro.errors.InjectedFault` for the point.  Points that
        need library-native errors (``sqlite-execute``) pass their own.
    probability:
        Fire on this fraction of triggers.  Implemented as a deterministic
        counter gate (fire when ``count * probability`` crosses an integer)
        so chaos tests are reproducible without seeding.
    after:
        Skip the first *after* triggers (fire mid-load, not at the start).
    limit:
        Fire at most *limit* times, then disarm.
    """

    point: str
    sleep_s: float | None = None
    error: object | None = None
    probability: float = 1.0
    after: int = 0
    limit: int | None = None
    _seen: int = field(default=0, repr=False)
    _fired: int = field(default=0, repr=False)
    _quota: float = field(default=0.0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                  compare=False)

    def should_fire(self) -> bool:
        with self._lock:
            self._seen += 1
            if self._seen <= self.after:
                return False
            if self.limit is not None and self._fired >= self.limit:
                return False
            self._quota += self.probability
            if self._quota < 1.0:
                return False
            self._quota -= 1.0
            self._fired += 1
            return True


class FaultPlan:
    """A thread-safe set of armed :class:`FaultSpec` values."""

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self._lock = threading.Lock()
        self._specs: dict[str, FaultSpec] = {}
        for spec in specs:
            self.arm(spec)

    def arm(self, spec: FaultSpec) -> None:
        if spec.point not in POINTS:
            raise ValueError(
                f"unknown fault point '{spec.point}' "
                f"(known: {', '.join(POINTS)})")
        with self._lock:
            self._specs[spec.point] = spec

    def spec_for(self, point: str) -> FaultSpec | None:
        with self._lock:
            return self._specs.get(point)

    def fired(self, point: str) -> int:
        """How many times *point* actually fired (for test assertions)."""
        with self._lock:
            spec = self._specs.get(point)
            return spec._fired if spec is not None else 0


#: The process-global active plan.  ``None`` (the overwhelmingly common
#: case) makes :func:`trigger` a single attribute test.
_ACTIVE: FaultPlan | None = None
_ACTIVATION_LOCK = threading.Lock()


def firing(point: str) -> FaultSpec | None:
    """The armed spec for *point* if it should fire now, else ``None``.

    Consumes one firing (counters, probability gate, limit).  For points
    whose effect is not "sleep or raise" — ``worker-kill`` SIGKILLs the
    process, ``journal-corrupt`` flips bytes on disk — the call site asks
    :func:`firing` and implements the effect itself.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    spec = plan.spec_for(point)
    if spec is None or not spec.should_fire():
        return None
    return spec


def trigger(point: str) -> None:
    """Fire *point* if a matching fault is armed.  Near-free when idle."""
    spec = firing(point)
    if spec is None:
        return
    if spec.sleep_s is not None:
        time.sleep(spec.sleep_s)
        return
    error = spec.error
    if error is None:
        raise InjectedFault(point)
    raise error() if callable(error) else error


def activate(plan: FaultPlan | None) -> FaultPlan | None:
    """Install *plan* as the process-global fault plan; returns the old one."""
    global _ACTIVE
    with _ACTIVATION_LOCK:
        previous = _ACTIVE
        _ACTIVE = plan
        return previous


def active_plan() -> FaultPlan | None:
    return _ACTIVE


class inject:
    """Context manager arming one or more specs for the duration of a test.

    ::

        with faults.inject(FaultSpec("shredder-load")):
            with pytest.raises(SqlBackendError):
                session.evaluate(query, engine="sql")
    """

    def __init__(self, *specs: FaultSpec):
        self._plan = FaultPlan(specs)
        self._previous: FaultPlan | None = None

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def __enter__(self) -> FaultPlan:
        self._previous = activate(self._plan)
        return self._plan

    def __exit__(self, *exc_info) -> bool:
        activate(self._previous)
        return False


def parse_plan(text: str) -> FaultPlan:
    """Parse the ``REPRO_FAULTS`` spec syntax into a :class:`FaultPlan`."""
    specs: list[FaultSpec] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        point, _, options = chunk.partition(":")
        spec = FaultSpec(point=point.strip())
        for option in filter(None, (o.strip() for o in options.split(","))):
            key, _, value = option.partition("=")
            key = key.strip()
            if key == "sleep":
                spec.sleep_s = float(value)
            elif key == "error":
                spec.error = None  # default InjectedFault
            elif key == "probability":
                spec.probability = float(value)
            elif key == "after":
                spec.after = int(value)
            elif key == "limit":
                spec.limit = int(value)
            else:
                raise ValueError(f"unknown fault option '{key}' in '{chunk}'")
        specs.append(spec)
    return FaultPlan(specs)


def plan_from_env(environ: dict | None = None) -> FaultPlan | None:
    """Build (but do not activate) a plan from ``REPRO_FAULTS``, if set."""
    environ = os.environ if environ is None else environ
    text = environ.get("REPRO_FAULTS")
    if not text:
        return None
    return parse_plan(text)


__all__ = ["POINTS", "FaultSpec", "FaultPlan", "trigger", "firing",
           "activate", "active_plan", "inject", "parse_plan", "plan_from_env"]
