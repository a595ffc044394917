"""The HTTP query daemon: many clients, one hot :class:`Session`.

Architecture (stdlib only — ``http.server.ThreadingHTTPServer`` spawns one
worker thread per connection; the shared state underneath is the
thread-safe machinery PR 6 built):

* one :class:`~repro.session.Session` holds the corpus, the module/plan
  LRUs, the structural-index registry entries and the per-worker SQLite
  stores — everything stays warm across requests;
* every request resolves a corpus *snapshot* up front, so a concurrent
  ``POST /documents`` re-registration never changes the documents under a
  running evaluation (it bumps the session generation; later requests see
  the new corpus, and rebuild the plans and the shred of the document that
  was rewritten — of no other);
* ``POST /batch`` captures one snapshot for the whole list of queries,
  amortizing capture and cache traffic across the batch;
* :class:`ServiceStats` records every request into a
  :class:`~repro.observability.metrics.MetricsRegistry` (per-engine
  request/error counters, latency and fixpoint-round histograms, an
  in-flight gauge); ``GET /stats`` serves the JSON view, ``GET /metrics``
  the Prometheus text exposition with scrape-time session gauges (cache
  hit ratios, pool counters, uptime) merged in.

Endpoints
---------
``POST /query``
    ``{"query": "...", "engine"?: "interpreter|algebra|sql",
    "variables"?: {name: value-or-list}, "context"?: "<registered uri>",
    "settings"?: {EvalSettings fields}, "trace"?: true}`` →
    ``{"ok": true, "items": [...], "count": n, "engine": "...",
    "elapsed_ms": t, "trace"?: {span tree}}``.  Items are serialized per
    item — nodes as XML text, atomics as XQuery lexical values; with
    ``"trace": true`` the response carries the query's span tree
    (:meth:`repro.observability.tracing.Span.to_dict` schema).
``POST /batch``
    ``{"queries": [<query payloads>], "settings"?: {defaults}}`` →
    ``{"ok": true, "results": [<per-query responses>], "count": n}``.
    Per-query failures do not fail the batch; each result carries its own
    ``ok`` flag.
``POST /analyze``
    ``{"query": "...", "variables"?: {name: ...} | [names]}`` runs the
    static analyzer only (:mod:`repro.analysis`) — scope/arity errors with
    line:column, per-fixpoint distributivity facts, cardinality — without
    evaluating anything → ``{"ok": true, "analysis": {report}}``.  Static
    errors are part of the report (the request itself succeeds); only a
    parse failure maps to 422.
``POST /documents``
    ``{"uri": "...", "xml": "<...>", "id_attributes"?: [...]}`` registers
    or replaces a document (the mutation path) → new generation.
    ``id_attributes`` is absent, ``null`` or an array of non-empty strings.
``GET /health``
    liveness + generation + in-flight gauge.
``GET /ready``
    readiness: 503 while the corpus journal is replayed (every ``POST``
    answers 503 then too) and once graceful drain has started.
``GET /stats``
    cache hit rates, per-engine latency counters, SQLite pool state.
``GET /metrics``
    the same telemetry in Prometheus text exposition format 0.0.4.

Resource governance (PR 8): ``--max-concurrency`` bounds admission — a
saturated server answers ``503`` with a ``Retry-After`` header instead
of queueing; requests may carry ``timeout_s`` (clamped by
``--max-timeout``), and deadline/budget expiry maps to ``408`` /
``429`` with structured bodies (``error_type``, budget details).  Every
query evaluates under a :class:`~repro.limits.CancelToken`: a client
that disconnects mid-query gets its evaluation cancelled (the worker is
reclaimed), and graceful drain cancels whatever outlives
``--drain-timeout``.  No thread watches for the disconnect: the token of
an HTTP request (:class:`_ConnectionToken`) is asked by the evaluation's
own checkpoints and looks at the request socket itself, at most once per
50 ms of evaluation — a read that finishes sooner costs no syscall.
``REPRO_FAULTS`` arms the fault-injection plan of :mod:`repro.faults` at
startup for chaos drills.

The reply path is meant to cost less than the query it answers: a result
node of a tree replied from before is a slice of that tree's text, kept on
its structural index (:func:`repro.xmlio.serializer.serialize_items`; any
other node goes through the serializer's one walker), and head and body of
a reply leave in one write (a buffered ``wfile``, flushed once
per request).  The head is read in one pass into a dict (no ``email``
parser), the ``Date`` header is formatted once per second, and a payload
without ``"settings"`` reuses the settings resolved for its engine.

Framing follows RFC 9112 (§5.1, §6.1, §6.3), and every refusal is one
JSON reply after which the connection closes, because whatever follows
on it cannot be told apart from the next request:

* ``Transfer-Encoding`` of any kind answers ``501`` (only
  ``Content-Length`` frames a body here);
* two differing ``Content-Length`` values, whitespace between a header
  name and its colon, a header line without a colon, and obs-fold (a
  line that starts with whitespace) answer ``400``;
* ``HTTP/2.0`` and later answer ``505``, an unknown method ``501``, a
  malformed version or request line ``400``, a request line over
  64 KiB ``414``, and a header line that long or 100 header lines
  ``431`` — as ``http.server`` would, but with a status line and a JSON
  body.

``Content-Length`` is a claim, not a fact: anything but digits answers
``400``, more than 64 MiB ``413``, a body that has not arrived
:attr:`_Handler.BODY_TIMEOUT_S` seconds after its headers ``408``, and —
like an unknown ``POST`` path, or a ``GET`` that claims a body — the
connection closes after the reply, because the unread body would
otherwise be parsed as the next request.  A reply carries ``Date``, no
``Server`` header, and ``Connection: close`` when the connection closes.

Graceful shutdown: SIGINT/SIGTERM stop the accept loop, then the server
waits (bounded by ``--drain-timeout``) for in-flight requests to drain,
cancelling stragglers, before closing.
"""

from __future__ import annotations

import argparse
import dataclasses
import email.utils
import functools
import json
import logging
import os
import select
import signal
import socket
import sys
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from collections.abc import Mapping
from typing import Any, NamedTuple

from repro import faults
from repro.errors import (
    BudgetExceeded,
    QueryCancelled,
    QueryTimeout,
    ReproError,
    XQueryStaticError,
)
from repro.limits import CancelToken, ResourceLimits
from repro.observability import FIXPOINT_ROUND_BUCKETS, MetricsRegistry
from repro.service.journal import CorpusJournal, JournalTailer, make_record
from repro.session import Session
from repro.settings import EvalSettings, coerce_settings
from repro.xmlio.parser import parse_xml, parse_xml_file
from repro.xmlio.serializer import ReplyTally, serialize_items

#: Request and slow-query log lines go through this logger: INFO carries
#: one record per request (``--verbose``), WARNING carries slow queries
#: (``--slow-query-ms``).  :func:`configure_logging` attaches the handler.
LOGGER = logging.getLogger("repro.service")


class _JsonLineFormatter(logging.Formatter):
    """One JSON object per log line (``--log-json``)."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "logger": record.name,
        }
        fields = getattr(record, "fields", None)
        if fields:
            payload.update(fields)
        else:
            payload["message"] = record.getMessage()
        return json.dumps(payload, sort_keys=True)


class _LineFormatter(logging.Formatter):
    """Human-readable request lines (the default)."""

    def format(self, record: logging.LogRecord) -> str:
        fields = getattr(record, "fields", None)
        if fields:
            rendered = " ".join(f"{key}={value}" for key, value in fields.items())
            return f"{self.formatTime(record)} {record.levelname} {rendered}"
        return f"{self.formatTime(record)} {record.levelname} {record.getMessage()}"


def configure_logging(verbose: bool = False, log_json: bool = False) -> logging.Logger:
    """Install the service log handler on ``repro.service``.

    ``verbose`` lowers the level to INFO so every request logs one
    structured record; otherwise only WARNING (slow queries, handler
    plumbing problems) is emitted.  ``log_json`` switches the formatter
    to JSON lines.
    """
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLineFormatter() if log_json else _LineFormatter())
    LOGGER.handlers[:] = [handler]
    LOGGER.setLevel(logging.INFO if verbose else logging.WARNING)
    LOGGER.propagate = False
    return LOGGER


class ServiceError(Exception):
    """A request the service rejects (bad payload, unknown field…).

    ``headers`` are extra response headers (``Retry-After`` on 503);
    ``body`` holds structured fields merged into the JSON error body
    next to ``ok``/``error`` (``error_type``, budget details, …).
    """

    def __init__(self, message: str, status: int = 400,
                 headers: Mapping[str, str] | None = None,
                 body: Mapping[str, Any] | None = None):
        super().__init__(message)
        self.status = status
        self.headers = dict(headers) if headers else {}
        self.body = dict(body) if body else {}

    def payload(self) -> dict:
        """The JSON error body this rejection serializes to."""
        return {"ok": False, "error": str(self), **self.body}


#: The ``event`` labels of ``repro_reply_serialization_total``, in the
#: order of :class:`ReplyTally`'s fields.
REPLY_EVENTS = ("items_sliced", "items_walked", "tree_texts_built")


class _EngineChildren(NamedTuple):
    """The per-engine children a request records into."""

    requests: Any
    errors: Any
    latency: Any
    rounds: Any


class ServiceStats:
    """Request telemetry: named handles on a :class:`MetricsRegistry`.

    The registry is the only store.  Every mutation goes through its
    single lock, so counter reads are exact (N threads × M requests always
    shows N·M); :meth:`snapshot` — the ``service`` block of ``GET /stats``
    — and ``GET /metrics`` are two renderings of the same families.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Monotonic start mark — wall-clock (``time.time``) jumps with NTP
        #: steps and would make uptime/drain arithmetic wrong.
        self.started_at = time.monotonic()
        self._requests = self.registry.counter(
            "repro_requests_total", "Queries handled, by engine.", ("engine",))
        self._errors = self.registry.counter(
            "repro_request_errors_total", "Failed queries, by engine.", ("engine",))
        self._latency = self.registry.histogram(
            "repro_request_seconds", "Query latency in seconds, by engine.",
            ("engine",))
        self._in_flight = self.registry.gauge(
            "repro_requests_in_flight", "Queries currently evaluating.")
        self._peak = self.registry.gauge(
            "repro_peak_requests_in_flight",
            "High-water mark of concurrent queries.")
        self._rounds = self.registry.histogram(
            "repro_fixpoint_rounds", "Recursion depth per IFP evaluation, by engine.",
            ("engine",), buckets=FIXPOINT_ROUND_BUCKETS)
        self._rejections = self.registry.counter(
            "repro_admission_rejections_total",
            "Requests rejected with 503 at admission (server saturated).")
        self._rejections.inc(0.0)  # render as 0 before the first rejection
        self._timeouts = self.registry.counter(
            "repro_query_timeouts_total",
            "Queries that exceeded their deadline, by engine.", ("engine",))
        self._cancellations = self.registry.counter(
            "repro_query_cancellations_total",
            "Queries cancelled in flight (disconnect, drain), by engine.",
            ("engine",))
        self._analyses = self.registry.counter(
            "repro_analyze_requests_total",
            "Static-analysis requests served (POST /analyze).")
        self._analyses.inc(0.0)
        self._static_errors = self.registry.counter(
            "repro_static_errors_total",
            "Static errors reported by the analyzer (lint and query paths).")
        self._static_errors.inc(0.0)
        self._journal_records = self.registry.counter(
            "repro_journal_records_total",
            "Corpus journal records applied (startup replay and live tail).")
        self._journal_records.inc(0.0)
        self._reply = self.registry.counter(
            "repro_reply_serialization_total",
            "Reply node items sliced out of a tree text or walked, and tree "
            "texts built.", ("event",))
        #: The children a request touches, bound once: ``labels()`` checks
        #: the label set and takes the registry lock on every call.
        self._reply_children = tuple(self._reply.labels(event=event)
                                     for event in REPLY_EVENTS)
        for child in self._reply_children:
            child.inc(0.0)
        self._in_flight_child = self._in_flight.labels()
        self._peak_child = self._peak.labels()
        self._engines: dict[str, _EngineChildren] = {}

    def _children_of(self, engine: str) -> _EngineChildren:
        children = self._engines.get(engine)
        if children is None:
            children = self._engines[engine] = _EngineChildren(
                self._requests.labels(engine=engine),
                self._errors.labels(engine=engine),
                self._latency.labels(engine=engine),
                self._rounds.labels(engine=engine))
        return children

    @property
    def in_flight(self) -> int:
        return int(self._in_flight_child.value)

    def enter(self) -> None:
        self._in_flight_child.inc()
        self._peak_child.set_max(self._in_flight_child.value)

    def exit(self, engine: str, seconds: float, error: bool) -> None:
        self._in_flight_child.dec()
        children = self._children_of(engine)
        children.requests.inc()
        if error:
            children.errors.inc()
        children.latency.observe(seconds)

    def observe_rounds(self, engine: str, rounds: int) -> None:
        """Record one IFP evaluation's recursion depth."""
        self._children_of(engine).rounds.observe(rounds)

    def rejected(self) -> None:
        """Record one admission rejection (503, server saturated)."""
        self._rejections.inc()

    def timed_out(self, engine: str) -> None:
        """Record one query deadline expiry (mapped to 408)."""
        self._timeouts.labels(engine=engine).inc()

    def cancelled(self, engine: str) -> None:
        """Record one in-flight cancellation (disconnect or drain)."""
        self._cancellations.labels(engine=engine).inc()

    def analyzed(self, error_count: int) -> None:
        """Record one ``POST /analyze`` request and its static errors."""
        self._analyses.inc()
        if error_count:
            self._static_errors.inc(float(error_count))

    def static_error(self) -> None:
        """Record one static error aborting a ``POST /query`` evaluation."""
        self._static_errors.inc()

    def journal_applied(self, count: int = 1) -> None:
        """Record *count* corpus-journal records applied to the session."""
        self._journal_records.inc(float(count))

    def replied(self, tally: ReplyTally) -> None:
        """Record what one reply's items cost (see :class:`ReplyTally`)."""
        # (the fields read directly: ``dataclasses.astuple`` deep-copies each)
        for child, count in zip(self._reply_children,
                                (tally.sliced, tally.walked, tally.built)):
            if count:
                child.inc(float(count))

    def drained(self) -> bool:
        return self.in_flight == 0

    def snapshot(self) -> dict:
        engines = {}
        for (name,), child in self._requests.children().items():
            count = int(child.value)
            seconds = self._latency.labels(engine=name).snapshot()["sum"]
            engines[name] = {
                "count": count,
                "errors": int(self._errors.labels(engine=name).value),
                "total_seconds": seconds,
                "mean_seconds": seconds / count if count else 0.0,
            }
        return {
            "uptime_seconds": time.monotonic() - self.started_at,
            "in_flight": self.in_flight,
            "peak_in_flight": int(self._peak.value),
            "requests": sum(entry["count"] for entry in engines.values()),
            "errors": sum(entry["errors"] for entry in engines.values()),
            "rejections": int(self._rejections.value),
            "engines": engines,
            "reply": {event: int(child.value)
                      for event, child in zip(REPLY_EVENTS, self._reply_children)},
        }


class QueryService:
    """The HTTP-agnostic request handlers over one session.

    Separated from the transport so the integration tests (and the batch
    endpoint) can call the handlers directly; the HTTP layer only decodes
    JSON and picks the handler.
    """

    def __init__(self, session: Session | None = None,
                 settings: EvalSettings | Mapping[str, Any] | None = None,
                 slow_query_ms: float | None = None,
                 max_concurrency: int | None = None,
                 max_timeout_s: float | None = None,
                 journal: CorpusJournal | None = None):
        self.session = session if session is not None else Session()
        if settings is not None:
            self.session.settings = coerce_settings(settings, self.session.settings)
        self.stats = ServiceStats()
        #: The durable corpus journal (prefork mode, or single-process
        #: durability): ``POST /documents`` appends here before applying,
        #: and a tailer replicates other workers' appends into this
        #: session (see :mod:`repro.service.journal`).
        self.journal = journal
        self._tailer: JournalTailer | None = None
        if journal is not None:
            self._tailer = JournalTailer(
                journal,
                apply=self.session.apply_journal_record,
                on_applied=self.stats.journal_applied,
                on_error=self._journal_apply_failed)
        #: Readiness gate: with a journal attached the worker is not ready
        #: until the startup replay finished (:meth:`replay_journal`).
        self.journal_replayed = journal is None
        #: Graceful drain has started: readiness goes false, liveness stays.
        self.draining = False
        #: Fleet status pushed down by the supervisor (prefork mode):
        #: ``workers_alive`` / ``workers_target`` / ``degraded``.  ``None``
        #: in single-process mode.
        self._cluster: dict[str, Any] | None = None
        self._cluster_lock = threading.Lock()
        #: Queries slower than this (milliseconds) log one JSON-lines
        #: WARNING record; ``None`` disables the slow-query log.
        self.slow_query_ms = slow_query_ms
        #: Bounded admission: at most this many queries evaluate at once;
        #: the rest are rejected immediately with ``503 + Retry-After``
        #: instead of queueing behind a saturated worker pool.  ``None``
        #: disables admission control.
        self.max_concurrency = max_concurrency
        self._admission = (threading.BoundedSemaphore(max_concurrency)
                           if max_concurrency else None)
        #: Server-wide ceiling on per-request ``timeout_s``: requests
        #: asking for more (or for no deadline at all) are clamped to it.
        self.max_timeout_s = max_timeout_s
        #: Cancel tokens of in-flight queries, so graceful drain (and
        #: anything else holding the service) can cancel them.
        self._inflight_lock = threading.Lock()
        self._inflight_tokens: dict[int, CancelToken] = {}
        self._inflight_serial = 0

    # -- corpus journal ------------------------------------------------------

    def _journal_apply_failed(self, payload: Mapping[str, Any],
                              error: Exception) -> None:
        LOGGER.warning("journal record failed to apply", extra={"fields": {
            "event": "journal_apply_error",
            "op": payload.get("op"),
            "uri": payload.get("uri"),
            "error": f"{type(error).__name__}: {error}",
        }})

    def replay_journal(self) -> int:
        """Apply the whole journal before accepting traffic.

        Returns the number of records applied and flips the readiness
        gate: a restarted worker replays everything it missed so its
        corpus snapshot is item-identical to the rest of the fleet.
        """
        applied = 0
        if self._tailer is not None:
            applied = self._tailer.replay()
        self.journal_replayed = True
        return applied

    def start_journal_tailer(self, interval: float = 0.1) -> None:
        """Poll the journal for records appended by other workers."""
        if self._tailer is not None:
            self._tailer.start(interval)

    def stop_journal_tailer(self) -> None:
        if self._tailer is not None:
            self._tailer.stop()

    def catch_up_journal(self) -> int:
        """Synchronously apply any journal records not yet seen."""
        if self._tailer is None:
            return 0
        return self._tailer.catch_up()

    def journal_stats(self) -> dict | None:
        return self._tailer.stats() if self._tailer is not None else None

    # -- fleet status & readiness --------------------------------------------

    def update_cluster(self, status: Mapping[str, Any]) -> None:
        """Absorb a supervisor status push (prefork worker heartbeat ack)."""
        with self._cluster_lock:
            self._cluster = dict(status)

    def cluster_status(self) -> dict[str, Any] | None:
        with self._cluster_lock:
            return dict(self._cluster) if self._cluster is not None else None

    def begin_drain(self) -> None:
        """Mark the service as draining: readiness false, liveness stays."""
        self.draining = True

    def ready(self) -> tuple[int, dict]:
        """The readiness verdict for ``GET /ready``: (status, body).

        Ready means: the corpus journal has been replayed (or there is no
        journal), graceful drain has not started, and — when a supervisor
        reports fleet status — at least one worker is alive.
        """
        cluster = self.cluster_status()
        workers_alive = int(cluster.get("workers_alive", 1)) if cluster else 1
        workers_target = int(cluster.get("workers_target", 1)) if cluster else 1
        ok = self.journal_replayed and not self.draining and workers_alive >= 1
        body = {
            "ready": ok,
            "journal_replayed": self.journal_replayed,
            "draining": self.draining,
            "workers_alive": workers_alive,
            "workers_target": workers_target,
            "degraded": bool(cluster.get("degraded", False)) if cluster else False,
        }
        return (200 if ok else 503), body

    # -- in-flight cancellation ----------------------------------------------

    def _track(self, token: CancelToken) -> int:
        with self._inflight_lock:
            self._inflight_serial += 1
            self._inflight_tokens[self._inflight_serial] = token
            return self._inflight_serial

    def _untrack(self, handle: int) -> None:
        with self._inflight_lock:
            self._inflight_tokens.pop(handle, None)

    def cancel_inflight(self, reason: str = "cancelled by server") -> int:
        """Cancel every in-flight query; returns how many were signalled."""
        with self._inflight_lock:
            tokens = list(self._inflight_tokens.values())
        for token in tokens:
            token.cancel(reason)
        return len(tokens)

    # -- handlers ------------------------------------------------------------

    def handle_query(self, payload: Mapping[str, Any],
                     resolver=None, cancel_token: CancelToken | None = None) -> dict:
        """Evaluate one query payload (see the module docstring schema).

        *resolver* lets ``/batch`` share one corpus snapshot across its
        queries; standalone requests capture their own.  *cancel_token*
        lets the transport cancel the evaluation mid-flight (client
        disconnect); the service always registers a token so graceful
        drain can cancel whatever is still running.
        """
        if faults.firing("worker-kill") is not None:
            # Chaos drill: die the way a segfaulting worker would — no
            # cleanup, no goodbye — so the supervisor's crash detection,
            # restart and journal replay are exercised for real.
            os.kill(os.getpid(), signal.SIGKILL)
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ServiceError('"query" must be a non-empty string')
        unknown = set(payload) - {"query", "engine", "variables", "context",
                                  "settings", "trace", "timeout_s"}
        if unknown:
            raise ServiceError(f"unknown request field(s): {sorted(unknown)}")

        trace_requested = payload.get("trace", False)
        if not isinstance(trace_requested, bool):
            raise ServiceError('"trace" must be a boolean')
        settings = self._settings_of(payload)
        if trace_requested:
            settings = settings.replace(trace=True)
        settings = self._govern(settings, payload.get("timeout_s"))
        variables = payload.get("variables")
        if variables is not None and not isinstance(variables, Mapping):
            raise ServiceError('"variables" must be an object')

        if resolver is None:
            resolver = self.session.snapshot()
        context_item = None
        context_uri = payload.get("context")
        if context_uri is not None:
            try:
                context_item = resolver.resolve(context_uri)
            except ReproError:
                raise ServiceError(f'"context" document {context_uri!r} '
                                   f"is not registered")

        engine = settings.engine.value
        if self._admission is not None and not self._admission.acquire(blocking=False):
            self.stats.rejected()
            raise ServiceError(
                f"server saturated ({self.max_concurrency} queries in flight); "
                f"retry later", status=503,
                headers={"Retry-After": "1"},
                body={"error_type": "Saturated", "retry_after": 1})
        token = cancel_token if cancel_token is not None else CancelToken()
        handle = self._track(token)
        started = time.perf_counter()
        error = True
        self.stats.enter()
        try:
            result = self.session.evaluate(
                query, documents=resolver, variables=variables,
                context_item=context_item, settings=settings,
                cancel_token=token)
            elapsed = time.perf_counter() - started
            error = False
        except QueryTimeout as exc:
            self.stats.timed_out(engine)
            raise ServiceError(
                str(exc), status=408,
                body={"error_type": "QueryTimeout",
                      "timeout_s": exc.timeout_s})
        except BudgetExceeded as exc:
            raise ServiceError(
                str(exc), status=429,
                body={"error_type": "BudgetExceeded", "budget": exc.budget,
                      "limit": exc.limit, "observed": exc.observed})
        except QueryCancelled as exc:
            self.stats.cancelled(engine)
            raise ServiceError(
                str(exc), status=503,
                headers={"Retry-After": "1"},
                body={"error_type": "QueryCancelled", "reason": exc.reason})
        except ReproError as exc:
            if isinstance(exc, XQueryStaticError):
                self.stats.static_error()
            raise ServiceError(f"{type(exc).__name__}: {exc}", status=422)
        finally:
            self.stats.exit(engine, time.perf_counter() - started, error)
            self._untrack(handle)
            if self._admission is not None:
                self._admission.release()
        for run in result.statistics.runs:
            self.stats.observe_rounds(engine, run.recursion_depth)
        elapsed_ms = round(elapsed * 1000.0, 3)
        if self.slow_query_ms is not None and elapsed_ms >= self.slow_query_ms:
            LOGGER.warning("slow query", extra={"fields": {
                "event": "slow_query",
                "engine": engine,
                "elapsed_ms": elapsed_ms,
                "threshold_ms": self.slow_query_ms,
                "count": len(result.items),
                "generation": self.session.generation,
                "query": query if len(query) <= 500 else query[:499] + "…",
            }})
        tally = ReplyTally()
        response = {
            "ok": True,
            "items": serialize_items(result.items, tally=tally),
            "count": len(result.items),
            "engine": engine,
            "elapsed_ms": elapsed_ms,
        }
        self.stats.replied(tally)
        if trace_requested and result.trace is not None:
            response["trace"] = result.trace.to_dict()
        return response

    def handle_batch(self, payload: Mapping[str, Any],
                     cancel_token: CancelToken | None = None) -> dict:
        """Evaluate many queries against one shared corpus snapshot."""
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise ServiceError('"queries" must be a non-empty array')
        unknown = set(payload) - {"queries", "settings"}
        if unknown:
            raise ServiceError(f"unknown request field(s): {sorted(unknown)}")
        defaults = payload.get("settings")

        resolver = self.session.snapshot()  # one snapshot for the whole batch
        results = []
        for entry in queries:
            if defaults and isinstance(entry, Mapping) and "settings" not in entry:
                entry = {**entry, "settings": defaults}
            try:
                results.append(self.handle_query(entry, resolver=resolver,
                                                 cancel_token=cancel_token))
            except ServiceError as exc:
                results.append({**exc.payload(), "status": exc.status})
        return {"ok": True, "results": results, "count": len(results)}

    def handle_analyze(self, payload: Mapping[str, Any]) -> dict:
        """Run the static analyzer only — never evaluate (``POST /analyze``)."""
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ServiceError('"query" must be a non-empty string')
        unknown = set(payload) - {"query", "variables"}
        if unknown:
            raise ServiceError(f"unknown request field(s): {sorted(unknown)}")
        variables = payload.get("variables")
        if variables is not None and not isinstance(variables, (Mapping, list)):
            raise ServiceError('"variables" must be an object (or array) '
                               "of external variable names")
        bound = tuple(variables) if variables else ()
        from repro.analysis import analyze_query

        try:
            report = analyze_query(query, bound_variables=bound)
        except ReproError as exc:
            # only parse failures land here; static errors are reported
            # inside the analysis body below
            raise ServiceError(f"{type(exc).__name__}: {exc}", status=422)
        self.stats.analyzed(len(report.errors()))
        return {"ok": True, "analysis": report.to_dict()}

    def handle_register(self, payload: Mapping[str, Any]) -> dict:
        """Register/replace a document — the service's mutation path.

        With a journal attached the mutation is *journaled first*: the
        record is durably appended (fsync), then applied locally through
        the tailer so this worker — and, via their tailers, every other
        worker — converges on the same corpus.  The document is parsed
        *before* the append: a malformed payload must answer 422 without
        poisoning the journal for the whole fleet, and a malformed
        ``id_attributes`` answers 400 before either.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        uri = payload.get("uri")
        xml = payload.get("xml")
        if not isinstance(uri, str) or not uri:
            raise ServiceError('"uri" must be a non-empty string')
        if not isinstance(xml, str) or not xml.strip():
            raise ServiceError('"xml" must be a non-empty XML string')
        id_attributes = payload.get("id_attributes")
        # A string would be split into one-letter attribute names.
        if id_attributes is not None and not (
                isinstance(id_attributes, list)
                and all(isinstance(name, str) and name for name in id_attributes)):
            raise ServiceError('"id_attributes" must be an array of non-empty strings')
        if self.journal is None:
            try:
                generation = self.session.register_document(
                    uri, xml, id_attributes=id_attributes)
            except ReproError as exc:
                raise ServiceError(f"{type(exc).__name__}: {exc}", status=422)
            return {"ok": True, "uri": uri, "generation": generation}
        try:
            parse_xml(xml, id_attributes=tuple(
                id_attributes or self.session.id_attributes))
        except ReproError as exc:
            raise ServiceError(f"{type(exc).__name__}: {exc}", status=422)
        op = "replace" if uri in self.session.document_uris() else "register"
        offset = self.journal.append(make_record(op, uri, xml, id_attributes))
        self.catch_up_journal()
        return {"ok": True, "uri": uri, "generation": self.session.generation,
                "op": op, "journal_offset": offset}

    def health(self) -> dict:
        """Liveness: the process is up and answering.  Fleet context (when
        a supervisor reports it) rides along, but never flips the status —
        readiness lives at ``GET /ready``."""
        cluster = self.cluster_status()
        payload = {
            "status": "ok",
            "generation": self.session.generation,
            "documents": self.session.document_uris(),
            "in_flight": self.stats.snapshot()["in_flight"],
            "degraded": bool(cluster.get("degraded", False)) if cluster else False,
        }
        if cluster is not None:
            payload["workers_alive"] = cluster.get("workers_alive")
            payload["workers_target"] = cluster.get("workers_target")
        return payload

    def stats_report(self) -> dict:
        return {"service": self.stats.snapshot(), "session": self.session.stats()}

    def metrics_text(self) -> str:
        """The Prometheus text exposition served at ``GET /metrics``.

        Request counters/histograms live in the registry permanently;
        session-derived values (uptime, generation, cache hit ratios,
        SQLite pool counters) are gauges refreshed at scrape time.
        """
        registry = self.stats.registry
        session_stats = self.session.stats()
        registry.gauge("repro_uptime_seconds",
                       "Seconds since service start (monotonic clock).").set(
            time.monotonic() - self.stats.started_at)
        registry.gauge("repro_generation",
                       "Document-registry generation of the session.").set(
            session_stats["generation"])
        registry.gauge("repro_documents",
                       "Documents registered in the session.").set(
            session_stats["documents"])

        hits = registry.gauge("repro_cache_hits",
                              "Cumulative cache hits, by cache.", ("cache",))
        misses = registry.gauge("repro_cache_misses",
                                "Cumulative cache misses, by cache.", ("cache",))
        ratio = registry.gauge("repro_cache_hit_ratio",
                               "hits / (hits + misses), by cache.", ("cache",))
        size = registry.gauge("repro_cache_size",
                              "Live entries, by cache.", ("cache",))
        for name in ("module", "plan"):
            cache = session_stats[name]
            hits.labels(cache=name).set(cache["hits"])
            misses.labels(cache=name).set(cache["misses"])
            lookups = cache["hits"] + cache["misses"]
            ratio.labels(cache=name).set(cache["hits"] / lookups if lookups else 0.0)
            size.labels(cache=name).set(cache["size"])

        journal_stats = self.journal_stats()
        if journal_stats is not None:
            registry.gauge("repro_journal_offset_bytes",
                           "Byte offset this worker's tailer has applied to.").set(
                journal_stats["offset"])
            registry.gauge("repro_journal_corrupt_records",
                           "Corrupt journal records skipped by this worker.").set(
                journal_stats["corrupt_records"])
            registry.gauge("repro_journal_apply_errors",
                           "Journal records that failed to apply.").set(
                journal_stats["apply_errors"])

        pool = session_stats["sql_pool"]
        registry.gauge("repro_sql_pool_live_stores",
                       "Per-worker SQLite stores currently pooled.").set(
            pool["live_stores"])
        registry.gauge("repro_sql_pool_trees_dropped_total",
                       "Shredded trees the stores forgot (replaced, removed or "
                       "mutated documents, trees no request can name).").set(
            pool["trees_dropped"])
        registry.gauge("repro_sql_pool_created_total",
                       "SQLite stores built since start (one per worker thread).").set(
            pool["created"])
        return registry.render()

    def _govern(self, settings: EvalSettings,
                requested: Any) -> EvalSettings:
        """Fold the request's ``timeout_s`` (clamped by ``max_timeout_s``)
        into the settings' resource limits."""
        if requested is not None:
            if isinstance(requested, bool) or not isinstance(requested, (int, float)):
                raise ServiceError('"timeout_s" must be a number')
            if requested <= 0:
                raise ServiceError('"timeout_s" must be positive')
            requested = float(requested)
        timeout = requested
        if timeout is None and settings.limits is not None:
            timeout = settings.limits.timeout_s
        if self.max_timeout_s is not None:
            timeout = (self.max_timeout_s if timeout is None
                       else min(timeout, self.max_timeout_s))
        if timeout is None:
            return settings
        base = settings.limits if settings.limits is not None else ResourceLimits()
        return settings.replace(limits=dataclasses.replace(base, timeout_s=timeout))

    def _settings_of(self, payload: Mapping[str, Any]) -> EvalSettings:
        raw = payload.get("settings")
        engine = payload.get("engine")
        if raw is None and (engine is None or type(engine) is str):
            # The common payload names an engine at most: the session keeps
            # its settings resolved (Session.resolve_settings).
            try:
                return self.session.resolve_settings(
                    None, None if engine is None else {"engine": engine})
            except (TypeError, ValueError) as exc:
                raise ServiceError(f"bad settings: {exc}")
        return self._resolve(raw, engine, self.session.settings)

    @staticmethod
    def _resolve(raw: Any, engine: Any, base: EvalSettings) -> EvalSettings:
        """*base* with the payload's ``settings`` object and ``engine``
        applied; a bad field or value is a 400."""
        if raw is not None and not isinstance(raw, Mapping):
            raise ServiceError('"settings" must be an object of '
                               "EvalSettings fields")
        try:
            if raw is not None and isinstance(raw.get("limits"), Mapping):
                # JSON clients spell resource limits as a plain object.
                raw = {**raw, "limits": ResourceLimits(**raw["limits"])}
            settings = coerce_settings(raw, base)
            if engine is not None:
                settings = settings.replace(engine=engine)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"bad settings: {exc}")
        return settings


class _ConnectionToken(CancelToken):
    """The cancel token of one HTTP request: it also trips when the client
    hangs up.

    Nothing watches the socket from outside.  The evaluation's own
    checkpoints ask :meth:`cancelled` (every fixpoint round, every
    :data:`~repro.limits.CHECKPOINT_STRIDE` interpreter steps, SQLite's
    progress handler), and at most once per :attr:`POLL_INTERVAL_S` of
    evaluation the answer includes a zero-timeout look at the request
    socket: readable with a zero-byte peek means the peer closed, so the
    result has no recipient and the worker should be reclaimed.  Readable
    with pending bytes is a pipelined request on the keep-alive connection
    — not a disconnect — and the token stops looking (it cannot tell a
    later hang-up apart without consuming those bytes).  A request that
    finishes within the first interval never touches the socket.
    """

    __slots__ = ("_connection", "_next_look")

    #: Seconds of evaluation between two looks at the socket.
    POLL_INTERVAL_S = 0.05

    def __init__(self, connection):
        super().__init__()
        self._connection = connection
        self._next_look = time.monotonic() + self.POLL_INTERVAL_S

    def cancelled(self) -> bool:
        if self._cancelled:
            return True
        now = time.monotonic()
        if self._connection is None or now < self._next_look:
            return False
        self._next_look = now + self.POLL_INTERVAL_S
        try:
            readable, _, _ = select.select([self._connection], [], [], 0)
            if not readable:
                return False
            hung_up = self._connection.recv(1, socket.MSG_PEEK) == b""
        except (OSError, ValueError):
            hung_up = True
        if hung_up:
            self.cancel("client disconnected")
        else:
            self._connection = None  # pipelined bytes: leave them to the handler loop
        return hung_up


#: The longest request or header line read, and the most lines a head may
#: have after its request line, the blank line that ends it included
#: (stdlib's limits: 99 header lines pass, 100 are a 431).
MAX_LINE = 65536
MAX_HEAD_LINES = 100

#: Every reply's status line, by code.  A reply always speaks HTTP/1.1,
#: also when it refuses the version the request named.
_STATUS_LINES = {status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n"
                 for status in HTTPStatus}


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` of a reply sent in *second* (RFC 9110 §6.6.1),
    formatted once per second."""
    return email.utils.formatdate(second, usegmt=True)


def _http_version(word: str) -> tuple[int, int] | None:
    """``HTTP/<major>.<minor>`` as two integers, or ``None`` if malformed
    (stdlib's rule: one dot, digits only, at most ten of them each)."""
    if not word.startswith("HTTP/"):
        return None
    numbers = word[5:].split(".")
    if len(numbers) != 2 or not all(number.isdigit() and len(number) <= 10
                                    for number in numbers):
        return None
    try:
        return int(numbers[0]), int(numbers[1])
    except ValueError:  # a digit int() does not read, such as "²"
        return None


class _JsonHandler(BaseHTTPRequestHandler):
    """The HTTP/1.1 shell of both ports — the data port's :class:`_Handler`
    and the prefork supervisor's control port: it reads a head, answers a
    refused one, and sends JSON or text replies; a subclass adds the
    ``do_<METHOD>`` routes.

    The head is read here, not by ``BaseHTTPRequestHandler``: its
    ``parse_request`` builds an ``email.message.Message`` through the feed
    parser for every request, which cost more than a warm query evaluates
    in.  :meth:`parse_request` keeps every check stdlib makes and adds the
    framing rules of RFC 9112 that stdlib lacks (see the module docstring);
    ``headers`` is a plain dict of lower-cased names.  Every reply — a
    refused head included — is JSON (``/metrics`` text), its head is one
    string, and no head names the server or its runtime.
    """

    protocol_version = "HTTP/1.1"
    #: Head and body of a reply collect in a buffered ``wfile`` and leave in
    #: one write when ``handle_one_request`` flushes it; only a body larger
    #: than the buffer follows its head in a second write.
    wbufsize = 64 * 1024
    #: For those two-write replies: without TCP_NODELAY, Nagle + delayed ACK
    #: stalls a keep-alive response by ~40ms.
    disable_nagle_algorithm = True
    def handle_one_request(self):
        """Read one request head, run its ``do_<METHOD>``, flush the reply."""
        try:
            self.raw_requestline = self.rfile.readline(MAX_LINE + 1)
            if not self.raw_requestline:
                self.close_connection = True
                return
            if len(self.raw_requestline) > MAX_LINE:
                self.send_error(414)
            elif self.parse_request():
                method = getattr(self, "do_" + self.command, None)
                if method is None:
                    self.send_error(501, f"unsupported method {self.command!r}")
                else:
                    method()
            self.wfile.flush()
        except TimeoutError as error:  # a read or a write timed out
            self.log_error("Request timed out: %r", error)
            self.close_connection = True

    def parse_request(self) -> bool:
        """Read the head of the request whose line is ``raw_requestline``.

        Sets ``command``, ``path``, ``headers`` and ``close_connection``;
        on a head it refuses it sends the error reply and returns ``False``.
        """
        self.command = None
        self.close_connection = True
        requestline = self.raw_requestline.decode("latin-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        version = (0, 9)
        if len(words) >= 3:
            version = _http_version(words[-1])
            if version is None:
                self.send_error(400, f"bad request version {words[-1]!r}")
                return False
            if version >= (2, 0):
                self.send_error(505, f"HTTP version {words[-1][5:]} is not supported")
                return False
            self.close_connection = version < (1, 1)
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"bad request syntax {requestline!r}")
            return False
        command, path = words[:2]
        if len(words) == 2 and command != "GET":
            self.send_error(400, f"bad HTTP/0.9 request type {command!r}")
            return False
        self.command = command
        # gh-87389: a path that starts with '//' reads as a scheme-less URL
        # to a client, an open redirect.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        self.headers = headers = {}
        readline = self.rfile.readline
        for count in range(1, MAX_HEAD_LINES + 2):
            line = readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                self.send_error(431, "header line too long")
                return False
            if count > MAX_HEAD_LINES:
                self.send_error(431, f"more than {MAX_HEAD_LINES - 1} header lines")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not name or " " in name or "\t" in name:
                # RFC 9112 §5.1 and §5.2: whitespace before the colon, and
                # obs-fold (a line that starts with whitespace) are 400s.
                self.send_error(400, f"malformed header line {line[:64]!r}")
                return False
            name = name.lower()
            value = value.strip(" \t\r\n")
            if name in headers:
                if name == "content-length" and headers[name] != value:
                    # RFC 9112 §6.3: which of them frames the body?
                    self.send_error(400, "conflicting Content-Length values")
                    return False
                continue  # the first value counts, as stdlib's Message.get
            headers[name] = value
        if "transfer-encoding" in headers:
            # RFC 9112 §6.1: no transfer coding is understood here, so the
            # end of the body cannot be found.
            self.send_error(501, "Transfer-Encoding is not supported; "
                                 "send Content-Length")
            return False

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (version >= (1, 1)
                and headers.get("expect", "").lower() == "100-continue"):
            return self.handle_expect_100()
        return True

    def handle_expect_100(self):
        self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.wfile.flush()  # the client holds its body back until it reads this
        return True

    def send_error(self, code, message=None, explain=None):
        """A refused head: a JSON error reply, and the connection closes
        after it (what follows on it cannot be framed)."""
        if message is None:
            message = self.responses[code][0]
        self.log_error("code %d, message %s", code, message)
        self.close_connection = True
        self._respond(code, {"ok": False, "error": message})

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # stdlib plumbing messages (socket errors, refused heads): DEBUG only.
        if LOGGER.isEnabledFor(logging.DEBUG):
            LOGGER.debug("%s - %s", self.address_string(), format % args)

    def _respond(self, status: int, payload: dict,
                 headers: Mapping[str, str] | None = None) -> None:
        body = json.dumps(payload).encode()
        self._send(status, "application/json", body, headers=headers)

    def _respond_text(self, status: int, text: str) -> None:
        # The Prometheus exposition content type (text format 0.0.4).
        self._send(status, "text/plain; version=0.0.4; charset=utf-8",
                   text.encode())

    def _send(self, status: int, content_type: str, body: bytes,
              headers: Mapping[str, str] | None = None) -> None:
        head = (f"{_STATUS_LINES[status]}Date: {_http_date(int(time.time()))}\r\n"
                f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n")
        if headers:
            head += "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write((head + "\r\n").encode("latin-1") + body)


class _Handler(_JsonHandler):
    """JSON-over-HTTP plumbing of the data port; all logic lives in
    :class:`QueryService`."""

    #: Maximum accepted request body (a corpus re-registration can be big).
    MAX_BODY = 64 * 1024 * 1024
    #: Seconds a request body has to arrive in, counted from the end of
    #: its headers.
    BODY_TIMEOUT_S = 30.0
    #: ``POST`` path → the :class:`QueryService` method that answers it.
    POST_ROUTES = {
        "/query": "handle_query",
        "/batch": "handle_batch",
        "/analyze": "handle_analyze",
        "/documents": "handle_register",
    }

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    def _log_request(self, status: int, started: float,
                     engine: str | None = None) -> None:
        """One structured record per request (INFO — enabled by --verbose)."""
        if not LOGGER.isEnabledFor(logging.INFO):
            return
        fields = {
            "event": "request",
            "method": self.command,
            "path": self.path,
            "status": status,
            "elapsed_ms": round((time.monotonic() - started) * 1000.0, 3),
            "generation": self.service.session.generation,
            "client": self.address_string(),
        }
        if engine is not None:
            fields["engine"] = engine
        LOGGER.info("%s %s -> %d", self.command, self.path, status,
                    extra={"fields": fields})

    def do_GET(self):
        started = time.monotonic()
        status = 200
        if self.headers.get("content-length", "0").strip("0"):
            self.close_connection = True  # its body stays unread
        if self.path == "/health":
            self._respond(200, self.service.health())
        elif self.path == "/ready":
            status, body = self.service.ready()
            self._respond(status, body)
        elif self.path == "/stats":
            self._respond(200, self.service.stats_report())
        elif self.path == "/metrics":
            self._respond_text(200, self.service.metrics_text())
        else:
            status = 404
            self._respond(404, {"ok": False, "error": f"unknown path {self.path}"})
        self._log_request(status, started)

    def do_POST(self):
        started = time.monotonic()
        method = self.POST_ROUTES.get(self.path)
        if method is None:
            self.close_connection = True  # the body stays unread
            self._respond(404, {"ok": False, "error": f"unknown path {self.path}"})
            self._log_request(404, started)
            return
        handler = getattr(self.service, method)
        status = 500
        engine = None
        try:
            body = self._read_body()
            try:
                payload = json.loads(body or b"{}")
            except json.JSONDecodeError as exc:
                raise ServiceError(f"invalid JSON body: {exc}")
            if not self.service.journal_replayed:
                # The corpus is still being rebuilt: an answer now could
                # miss an acknowledged registration.
                raise ServiceError(
                    "replaying the corpus journal; retry later", status=503,
                    headers={"Retry-After": "1"},
                    body={"error_type": "Replaying", "retry_after": 1})
            if self.path in ("/query", "/batch"):
                # A client that hangs up mid-query gets its evaluation
                # cancelled instead of holding a worker until the deadline.
                response = handler(payload,
                                   cancel_token=_ConnectionToken(self.connection))
            else:
                response = handler(payload)
            status = 200
            if isinstance(response, Mapping):
                engine = response.get("engine")
            self._respond(200, response)
        except ServiceError as exc:
            status = exc.status
            self._respond(exc.status, exc.payload(), headers=exc.headers)
        except Exception as exc:  # a bug, not a bad request — say so
            status = 500
            self._respond(500, {"ok": False,
                                "error": f"internal error: {type(exc).__name__}: {exc}"})
        finally:
            self._log_request(status, started, engine)

    def _read_body(self) -> bytes:
        """The request body, as long as a checked ``Content-Length`` says.

        The header is the peer's claim: anything but ASCII digits (``-1``
        would make ``read`` wait for the peer to hang up) is a 400, more
        than :attr:`MAX_BODY` a 413, and a body still short
        :attr:`BODY_TIMEOUT_S` seconds after the headers a 408.  Each way
        the connection closes after the reply: what follows on it would be
        parsed as the next request, and after a timeout the buffered
        reader's state is unknown.  Only the body read has a deadline: the
        socket blocks again once the body is in, so a keep-alive
        connection waits for its next request as long as it always did.
        """
        claimed = self.headers.get("content-length", "0").strip()
        if not (claimed.isascii() and claimed.isdigit()):
            self.close_connection = True
            raise ServiceError("Content-Length must be a non-negative integer")
        # More digits than the limit has is over it (and can be more than
        # int() converts).
        if (len(claimed.lstrip("0")) > len(str(self.MAX_BODY))
                or int(claimed) > self.MAX_BODY):
            self.close_connection = True
            raise ServiceError("request body too large", status=413)
        remaining = int(claimed)
        if not remaining:
            return b""
        chunks = []
        deadline = time.monotonic() + self.BODY_TIMEOUT_S
        try:
            while remaining:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError
                self.connection.settimeout(left)
                chunk = self.rfile.read1(remaining)
                if not chunk:
                    break  # the peer hung up: the JSON decode says so
                chunks.append(chunk)
                remaining -= len(chunk)
        except TimeoutError:
            self.close_connection = True
            raise ServiceError(
                f"request body not received within {self.BODY_TIMEOUT_S:g} s",
                status=408,
                body={"error_type": "BodyTimeout", "timeout_s": self.BODY_TIMEOUT_S})
        finally:
            self.connection.settimeout(None)
        return b"".join(chunks)


class QueryServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired to a :class:`QueryService`.

    Worker threads are daemonic so a hung client cannot block process
    exit; :meth:`graceful_shutdown` gives in-flight requests a bounded
    drain window first.
    """

    daemon_threads = True
    allow_reuse_address = True

    #: How long (seconds) drain waits for workers to unwind *after*
    #: cancelling the still-running queries through their tokens.
    DRAIN_CANCEL_GRACE_S = 2.0

    def __init__(self, address, service: QueryService, verbose: bool = False,
                 drain_timeout: float = 10.0, bind_and_activate: bool = True):
        super().__init__(address, _Handler, bind_and_activate=bind_and_activate)
        self.service = service
        self.verbose = verbose
        self.drain_timeout = drain_timeout

    @classmethod
    def from_socket(cls, listen_socket: socket.socket, service: QueryService,
                    verbose: bool = False,
                    drain_timeout: float = 10.0) -> "QueryServer":
        """Serve on an already-bound, already-listening socket.

        The prefork path: the supervisor binds the address once and every
        worker adopts the shared socket (inherited across ``exec``), so
        the kernel load-balances accepts over the fleet.  A short accept
        timeout makes stolen wakeups (another worker accepted first)
        harmless instead of blocking the serve loop.
        """
        server = cls(listen_socket.getsockname()[:2], service, verbose=verbose,
                     drain_timeout=drain_timeout, bind_and_activate=False)
        server.socket.close()
        listen_socket.settimeout(0.5)
        server.socket = listen_socket
        server.server_address = listen_socket.getsockname()[:2]
        host, port = server.server_address
        server.server_name = host
        server.server_port = port
        return server

    def graceful_shutdown(self, timeout: float | None = None) -> bool:
        """Stop accepting, drain in-flight requests, close sockets.

        Waits up to *timeout* (default: the server's ``drain_timeout``)
        for in-flight queries to finish naturally; whatever still runs
        then is cancelled through its :class:`CancelToken` and given a
        short bounded grace to unwind through the typed error.  Returns
        ``True`` when the drain completed (naturally or via
        cancellation).
        """
        if timeout is None:
            timeout = self.drain_timeout
        self.service.begin_drain()  # readiness goes false before the drain
        self.shutdown()            # stops the accept loop (thread-safe)
        deadline = time.monotonic() + timeout
        drained = self.service.stats.drained()
        while not drained and time.monotonic() < deadline:
            time.sleep(0.02)
            drained = self.service.stats.drained()
        if not drained:
            cancelled = self.service.cancel_inflight("server draining")
            grace = time.monotonic() + self.DRAIN_CANCEL_GRACE_S
            while not drained and time.monotonic() < grace:
                time.sleep(0.02)
                drained = self.service.stats.drained()
            if not drained:
                LOGGER.warning("drain timed out", extra={"fields": {
                    "event": "drain_timeout", "cancelled": cancelled,
                    "in_flight": self.service.stats.in_flight}})
        self.server_close()
        return drained


def create_server(service: QueryService | None = None,
                  host: str = "127.0.0.1", port: int = 0,
                  verbose: bool = False,
                  drain_timeout: float = 10.0) -> QueryServer:
    """A ready-to-run server (``port=0`` picks an ephemeral port)."""
    return QueryServer((host, port), service or QueryService(), verbose=verbose,
                       drain_timeout=drain_timeout)


def serve(server: QueryServer) -> threading.Thread:
    """Run *server*'s accept loop on a daemon thread; returns the thread."""
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-accept", daemon=True)
    thread.start()
    return thread


def add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags every serving process understands — shared between the
    single-process daemon, the supervisor (which forwards them) and the
    worker entrypoint (:mod:`repro.service.worker`)."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8720)
    parser.add_argument("--doc", action="append", default=[], metavar="URI=PATH",
                        help="register a document at startup (repeatable)")
    parser.add_argument("--id-attribute", action="append", default=["id", "xml:id"],
                        help="attribute names to treat as IDs (repeatable)")
    parser.add_argument("--engine", choices=["interpreter", "algebra", "sql"],
                        default="interpreter",
                        help="default engine for requests that name none")
    parser.add_argument("--sql-store", choices=["memory", "wal"], default="wal",
                        help="per-worker SQLite stores: in-memory or "
                             "file-backed WAL databases (default: wal)")
    parser.add_argument("--sql-store-dir", default=None,
                        help="directory for WAL store files "
                             "(default: a private tempdir)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="durable corpus journal: POST /documents appends "
                             "here (fsync'd, CRC-framed) and is replayed on "
                             "restart; required for --workers > 1 "
                             "(default: none in single-process mode)")
    parser.add_argument("--verbose", action="store_true",
                        help="log one structured record per request to stderr")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log records as JSON lines instead of text")
    parser.add_argument("--slow-query-ms", type=float, default=None, metavar="MS",
                        help="log a WARNING record for queries slower than MS "
                             "milliseconds (default: disabled)")
    parser.add_argument("--max-concurrency", type=int, default=None, metavar="N",
                        help="admit at most N concurrent queries; beyond that "
                             "requests are rejected immediately with "
                             "503 + Retry-After (default: unlimited)")
    parser.add_argument("--max-timeout", type=float, default=None, metavar="SECONDS",
                        help="server-wide ceiling on per-request timeout_s; "
                             "requests asking for more (or for no deadline) "
                             "are clamped to it (default: no ceiling)")
    parser.add_argument("--drain-timeout", type=float, default=10.0, metavar="SECONDS",
                        help="how long graceful shutdown waits for in-flight "
                             "queries before cancelling them (default: 10)")


def add_supervision_arguments(parser: argparse.ArgumentParser) -> None:
    """Prefork/supervision flags (see :mod:`repro.service.supervisor`)."""
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="number of worker processes; N > 1 runs the "
                             "prefork supervisor (default: 1, in-process)")
    parser.add_argument("--control-port", type=int, default=None, metavar="PORT",
                        help="supervisor control endpoint (/ready, aggregated "
                             "/metrics); default: the service port + 1, or "
                             "ephemeral when --port 0")
    parser.add_argument("--heartbeat-interval", type=float, default=0.5,
                        metavar="SECONDS",
                        help="worker heartbeat period (default: 0.5)")
    parser.add_argument("--heartbeat-timeout", type=float, default=5.0,
                        metavar="SECONDS",
                        help="a worker silent this long is declared hung and "
                             "killed (default: 5)")
    parser.add_argument("--restart-backoff", type=float, default=0.2,
                        metavar="SECONDS",
                        help="base delay before restarting a crashed worker; "
                             "doubles per consecutive failure (default: 0.2)")
    parser.add_argument("--restart-backoff-max", type=float, default=10.0,
                        metavar="SECONDS",
                        help="cap on the exponential restart backoff "
                             "(default: 10)")
    parser.add_argument("--breaker-threshold", type=int, default=5, metavar="N",
                        help="worker crashes within --breaker-window that trip "
                             "the crash-loop breaker (default: 5)")
    parser.add_argument("--breaker-window", type=float, default=30.0,
                        metavar="SECONDS",
                        help="sliding window for the crash-loop breaker "
                             "(default: 30)")
    parser.add_argument("--breaker-cooldown", type=float, default=30.0,
                        metavar="SECONDS",
                        help="after tripping, wait this long before allowing "
                             "restarts again, half-open (default: 30)")
    parser.add_argument("--stable-after", type=float, default=5.0,
                        metavar="SECONDS",
                        help="a worker alive this long counts as stable: its "
                             "failure streak resets (default: 5)")


def build_session(arguments: argparse.Namespace) -> Session:
    """The serving session of one process, per the parsed CLI flags."""
    session = Session(settings=EvalSettings(engine=arguments.engine),
                      id_attributes=tuple(arguments.id_attribute),
                      sql_store=arguments.sql_store,
                      sql_store_dir=arguments.sql_store_dir)
    for spec in arguments.doc:
        if "=" not in spec:
            raise ValueError("--doc expects URI=PATH")
        uri, path = spec.split("=", 1)
        session.register_document(
            uri, parse_xml_file(path, id_attributes=tuple(arguments.id_attribute)))
    return session


def build_service(arguments: argparse.Namespace,
                  session: Session | None = None) -> QueryService:
    """A :class:`QueryService` (journal attached if configured)."""
    if session is None:
        session = build_session(arguments)
    journal = CorpusJournal(arguments.journal) if arguments.journal else None
    return QueryService(session=session,
                        slow_query_ms=arguments.slow_query_ms,
                        max_concurrency=arguments.max_concurrency,
                        max_timeout_s=arguments.max_timeout,
                        journal=journal)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve XQuery evaluation over HTTP "
                    "(POST /query, POST /batch, GET /health, GET /ready, "
                    "GET /stats; --workers N runs a supervised prefork fleet)",
    )
    add_service_arguments(parser)
    add_supervision_arguments(parser)
    arguments = parser.parse_args(argv)
    configure_logging(verbose=arguments.verbose, log_json=arguments.log_json)
    if arguments.max_concurrency is not None and arguments.max_concurrency < 1:
        parser.error("--max-concurrency must be at least 1")
    if arguments.workers < 1:
        parser.error("--workers must be at least 1")
    if arguments.workers > 1:
        # The prefork path: bind once, fork N workers, supervise.  The
        # import is deferred so the single-process daemon stays free of
        # the supervisor's subprocess machinery.
        from repro.service.supervisor import run_supervisor

        if not arguments.journal:
            parser.error("--workers > 1 requires --journal PATH "
                         "(cross-worker corpus consistency)")
        return run_supervisor(arguments)

    fault_plan = faults.plan_from_env()
    if fault_plan is not None:
        # Chaos drills: REPRO_FAULTS="sqlite-execute:error=oops,probability=0.1"
        faults.activate(fault_plan)
        print("repro-serve: fault injection armed from REPRO_FAULTS",
              file=sys.stderr)

    try:
        session = build_session(arguments)
    except ValueError as error:
        parser.error(str(error))
    service = build_service(arguments, session)
    server = create_server(service, host=arguments.host, port=arguments.port,
                           verbose=arguments.verbose,
                           drain_timeout=arguments.drain_timeout)
    host, port = server.server_address[:2]
    print(f"repro-serve: listening on http://{host}:{port} "
          f"(docs: {session.document_uris() or 'none'}, "
          f"default engine: {arguments.engine}, "
          f"sql stores: {arguments.sql_store})", file=sys.stderr)

    def replay() -> None:
        replayed = service.replay_journal()
        service.start_journal_tailer()
        if replayed:
            print(f"repro-serve: replayed {replayed} journal record(s) from "
                  f"{arguments.journal}", file=sys.stderr)

    if service.journal is not None:
        # Served meanwhile: GET /ready answers 503, and so does every POST.
        threading.Thread(target=replay, name="repro-journal-replay",
                         daemon=True).start()

    stop_signal = {"received": None}

    def request_shutdown(signum, frame):
        stop_signal["received"] = signum
        # shutdown() must not run on the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, request_shutdown)
    signal.signal(signal.SIGTERM, request_shutdown)
    try:
        server.serve_forever()
    finally:
        # serve_forever already returned, so shutdown() inside
        # graceful_shutdown is an immediate no-op; what remains is the
        # bounded drain, the cancel-stragglers pass and the close.
        server.graceful_shutdown(arguments.drain_timeout)
        service.stop_journal_tailer()
        session.close()
        final = service.stats.snapshot()
        print(f"repro-serve: stopped "
              f"(signal {stop_signal['received']}, "
              f"{final['requests']} requests, {final['errors']} errors, "
              f"drained: {final['in_flight'] == 0})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
