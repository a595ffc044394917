"""Per-query trace spans: what an evaluation spent its time on.

A :class:`TraceContext` is created per traced query (``evaluate(...,
trace=True)``) and handed to the engines as
:attr:`StaticContext.trace <repro.xquery.context.StaticContext>`.  It
builds one **span tree**: the root ``query`` span with phase children (``parse``,
``compile``, ``execute``, ``decode``), engine-specific descendants —
``fixpoint`` spans with one ``round`` child per iteration carrying the
frontier/delta/accumulator sizes of Figure 3's algorithms, ``sql`` spans
with statement timings, ``index-build`` spans for lazy structural-index
construction — and ``kernel:*`` summary spans carrying the query's own
batch-vs-fallback pushdown counters (:meth:`TraceContext.record_kernel`:
the counters live on the context of the query that produced them, so
concurrent queries never see each other's kernel hits and traced queries
never wait on one another).

Design constraints:

* **Zero-cost when off.**  Every instrumentation site guards on ``trace
  is not None``, so the disabled path adds one attribute read and a
  branch — the ledger watches it (``interpreter_ms`` on ``closure-delta``
  parent vs change; ``trace.overhead_share`` for the enabled cost).
* **Single-threaded trees.**  One query evaluates on one thread, so the
  context keeps a plain current-span stack; nested sites (a fixpoint
  round evaluating a body that builds an index) attach to the innermost
  open span without any parameter threading.
* **No engine imports.**  The module depends only on the stdlib, so every
  layer — ``xdm``, ``fixpoint``, ``sqlbackend``, ``service`` — can import
  it without cycles.

Spans serialize to plain dicts (:meth:`Span.to_dict`): ``{"name",
"elapsed_ms", "attributes", "children"}`` — the schema the service's
``"trace": true`` responses and the tests validate.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from collections.abc import Iterator
from typing import Any

_CLOCK = time.perf_counter


class Span:
    """One timed phase of an evaluation, with attributes and children."""

    __slots__ = ("name", "attributes", "children", "started_at", "ended_at")

    def __init__(self, name: str, attributes: dict | None = None):
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        self.children: list[Span] = []
        self.started_at = _CLOCK()
        self.ended_at: float | None = None

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def finish(self) -> None:
        if self.ended_at is None:
            self.ended_at = _CLOCK()

    @property
    def seconds(self) -> float:
        """Wall time of the span (up to now while still open)."""
        end = self.ended_at if self.ended_at is not None else _CLOCK()
        return end - self.started_at

    # -- introspection -------------------------------------------------------

    def iter_spans(self) -> Iterator["Span"]:
        """Pre-order walk over this span and all descendants."""
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find(self, name: str) -> "Span" | None:
        """First descendant (or self) with the given name, pre-order."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [span for span in self.iter_spans() if span.name == name]

    def to_dict(self) -> dict:
        """The JSON-ready span schema (service responses, tests)."""
        return {
            "name": self.name,
            "elapsed_ms": round(self.seconds * 1000.0, 3),
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds * 1000.0:.3f} ms, {self.attributes})"


class TraceContext:
    """The per-query span tree builder.

    ``begin``/``end`` maintain a current-span stack so deeply nested
    instrumentation sites need no explicit parent; ``span`` is the
    context-manager spelling.  ``end`` pops *through* the given span, so
    children left open by an exception unwind cannot corrupt the stack.
    """

    __slots__ = ("root", "_stack", "_kernels")

    def __init__(self, name: str = "query", **attributes: Any):
        self.root = Span(name, attributes)
        self._stack: list[Span] = [self.root]
        self._kernels: dict[str, dict] = {}

    # -- span construction ---------------------------------------------------

    def begin(self, name: str, **attributes: Any) -> Span:
        """Open a child of the current span and make it current."""
        span = Span(name, attributes)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Finish *span*, popping it (and any unwound children) off."""
        span.finish()
        while len(self._stack) > 1:
            popped = self._stack.pop()
            popped.finish()
            if popped is span:
                return
        # span was not on the stack (already ended): nothing else to do

    @contextmanager
    def span(self, name: str, **attributes: Any):
        span = self.begin(name, **attributes)
        try:
            yield span
        finally:
            self.end(span)

    @property
    def current(self) -> Span:
        return self._stack[-1]

    def record_kernel(self, name: str, batch: bool, seconds: float = 0.0) -> None:
        """Count one pushdown-kernel application of this query.

        *batch* tells whether the batch kernel answered or the per-item
        fallback ran; :meth:`finish` ships the totals as one
        ``kernel:<name>`` span each (``batch``/``fallback`` counts plus
        cumulative ``*_seconds``).
        """
        entry = self._kernels.get(name)
        if entry is None:
            entry = self._kernels[name] = {
                "batch": 0, "fallback": 0,
                "batch_seconds": 0.0, "fallback_seconds": 0.0,
            }
        kind = "batch" if batch else "fallback"
        entry[kind] += 1
        entry[kind + "_seconds"] += seconds

    def finish(self) -> Span:
        """Close every open span, append the ``kernel:*`` summaries to the
        root and close it; returns the root."""
        while len(self._stack) > 1:
            self._stack.pop().finish()
        for name, entry in sorted(self._kernels.items()):
            summary = Span(f"kernel:{name}", {
                key: round(value, 6) if isinstance(value, float) else value
                for key, value in entry.items()})
            summary.finish()
            self.root.children.append(summary)
        self._kernels = {}
        self.root.finish()
        return self.root

    def to_dict(self) -> dict:
        return self.root.to_dict()

    # -- thread-local activation --------------------------------------------

    @contextmanager
    def activate(self):
        """Install this context as the thread's current trace.

        Instrumentation sites without a parameter path to the static
        context — the lazy structural-index builds of :mod:`repro.xdm.index` —
        consult :func:`current_trace` instead; they only pay the
        thread-local read on cache misses.
        """
        previous = getattr(_ACTIVE, "trace", None)
        _ACTIVE.trace = self
        try:
            yield self
        finally:
            _ACTIVE.trace = previous


_ACTIVE = threading.local()


def current_trace() -> TraceContext | None:
    """The trace activated on this thread (``None`` outside traced runs)."""
    return getattr(_ACTIVE, "trace", None)


#: The one null context :func:`maybe_span` hands out untraced: it holds no
#: state, so every untraced site shares it instead of building its own.
NULL_SPAN = nullcontext(None)


def maybe_span(trace: TraceContext | None, name: str, **attributes: Any):
    """``trace.span(...)`` or the shared null context yielding ``None``."""
    if trace is None:
        return NULL_SPAN
    return trace.span(name, **attributes)


# ---------------------------------------------------------------------------
# rendering & summarization
# ---------------------------------------------------------------------------


def format_span_tree(span: Span | dict, indent: str = "") -> str:
    """Pretty-print a span tree (the CLI's ``--trace`` output).

    Accepts a :class:`Span` or its :meth:`Span.to_dict` form, so traces
    that crossed a JSON boundary (the service) render identically.
    """
    if isinstance(span, Span):
        span = span.to_dict()
    attrs = span.get("attributes") or {}
    rendered = " (" + ", ".join(f"{k}={v}" for k, v in attrs.items()) + ")" if attrs else ""
    lines = [f"{indent}{span['name']}{rendered}  {span['elapsed_ms']:.3f} ms"]
    children = span.get("children") or []
    for position, child in enumerate(children):
        last = position == len(children) - 1
        branch, extend = ("└─ ", "   ") if last else ("├─ ", "│  ")
        child_text = format_span_tree(child, "")
        child_lines = child_text.split("\n")
        lines.append(f"{indent}{branch}{child_lines[0]}")
        lines.extend(f"{indent}{extend}{line}" for line in child_lines[1:])
    return "\n".join(lines)


__all__ = [
    "Span",
    "TraceContext",
    "current_trace",
    "format_span_tree",
    "maybe_span",
]
