"""Unified observability: trace spans and a metrics registry.

Two complementary views of the same workload, built for the paper's
evaluation model where a query's cost hides inside fixpoint rounds:

* :mod:`repro.observability.tracing` — per-query **span trees**
  (``evaluate(..., trace=True)``): parse → compile → execute → decode,
  with per-fixpoint-round children carrying frontier/delta/accumulator
  sizes for all three engines, per-kernel batch-vs-fallback counters and
  SQL statement timings.
* :mod:`repro.observability.metrics` — a thread-safe **metrics registry**
  (counters, gauges, fixed-bucket histograms) rendered in Prometheus text
  exposition format by the service's ``GET /metrics``.

Neither module imports anything from the engine packages, so every layer
can depend on it without cycles.
"""

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_LATENCY_BUCKETS,
    FIXPOINT_ROUND_BUCKETS,
    inject_label,
    merge_expositions,
)
from repro.observability.tracing import (
    Span,
    TraceContext,
    current_trace,
    format_span_tree,
    maybe_span,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "FIXPOINT_ROUND_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "current_trace",
    "format_span_tree",
    "inject_label",
    "maybe_span",
    "merge_expositions",
]
