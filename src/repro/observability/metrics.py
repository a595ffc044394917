"""A thread-safe metrics registry with Prometheus text exposition.

The service (and anything else with long-lived counters) records into a
:class:`MetricsRegistry`: **counters** (monotonic totals), **gauges**
(set/inc/dec point-in-time values) and **histograms** with fixed bucket
boundaries (latency seconds by default, fixpoint round counts via
:data:`FIXPOINT_ROUND_BUCKETS`).  Metrics are grouped into *families*
sharing a name/help/label-name set; children are addressed by label
values (``registry.counter("repro_requests_total", "...",
("engine",)).labels(engine="sql").inc()``).

All mutation runs under one registry lock, so increments are **exact** —
N threads × M increments always reads N·M (the concurrency tests hammer
this).  Reads (:meth:`MetricsRegistry.render`) take the same lock and see
a consistent cut.

:meth:`MetricsRegistry.render` emits the Prometheus text exposition
format (version 0.0.4): ``# HELP`` / ``# TYPE`` headers per family, one
sample line per child, histograms as cumulative ``_bucket{le=...}``
series plus ``_sum``/``_count``.  No client library is required on
either side — the format is plain text by design.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence

#: Latency histogram boundaries in seconds (Prometheus client defaults,
#: trimmed to the sub-10s range a query service lives in).
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Fixpoint-round histogram boundaries: recursion depths of Table 2's
#: workloads cluster low, with a long tail bounded by max_ifp_iterations.
FIXPOINT_ROUND_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 50.0, 100.0, 1000.0)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _render_labels(names: Sequence[str], values: Sequence[str],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [(name, value) for name, value in zip(names, values)]
    pairs.extend(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(str(value))}"' for name, value in pairs)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (in-flight requests, cache sizes)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to *value* if it is higher (high-water marks)."""
        with self._lock:
            self._value = max(self._value, float(value))

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Cumulative fixed-bucket histogram (Prometheus semantics)."""

    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, lock: threading.RLock, buckets: Sequence[float]):
        self._lock = lock
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[position] += 1
                    return
            self.counts[-1] += 1

    def snapshot(self) -> dict:
        with self._lock:
            cumulative, running = [], 0
            for bucket_count in self.counts:
                running += bucket_count
                cumulative.append(running)
            return {"buckets": dict(zip(self.buckets, cumulative)),
                    "sum": self.sum, "count": self.count}


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one metric name, keyed by label values."""

    __slots__ = ("name", "help", "type", "label_names", "buckets", "_lock", "_children")

    def __init__(self, name: str, help_text: str, metric_type: str,
                 label_names: Sequence[str], lock: threading.RLock,
                 buckets: Sequence[float] | None = None):
        self.name = name
        self.help = help_text
        self.type = metric_type
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = lock
        self._children: "OrderedDict[tuple[str, ...], object]" = OrderedDict()

    def labels(self, **label_values: str):
        """The child for the given label values (created on first use)."""
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}")
        key = tuple(str(label_values[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.type == "histogram":
                    child = Histogram(self._lock, self.buckets)
                else:
                    child = _METRIC_TYPES[self.type](self._lock)
                self._children[key] = child
            return child

    # Unlabeled families act as their own single child.

    def _solo(self):
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def set_max(self, value: float) -> None:
        self._solo().set_max(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> float:
        return self._solo().value

    def children(self) -> "OrderedDict[tuple[str, ...], object]":
        with self._lock:
            return OrderedDict(self._children)


class MetricsRegistry:
    """Families by name, one lock for every mutation and read."""

    def __init__(self):
        self._lock = threading.RLock()
        self._families: "OrderedDict[str, MetricFamily]" = OrderedDict()

    def _family(self, name: str, help_text: str, metric_type: str,
                label_names: Sequence[str],
                buckets: Sequence[float] | None = None) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, help_text, metric_type, label_names,
                                      self._lock, buckets)
                self._families[name] = family
                return family
            if family.type != metric_type or family.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name} is already registered as a {family.type} "
                    f"with labels {family.label_names}")
            return family

    def counter(self, name: str, help_text: str,
                label_names: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help_text, "counter", label_names)

    def gauge(self, name: str, help_text: str,
              label_names: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help_text, "gauge", label_names)

    def histogram(self, name: str, help_text: str,
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> MetricFamily:
        return self._family(name, help_text, "histogram", label_names, buckets)

    # -- reading -------------------------------------------------------------

    def families(self) -> Iterable[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def value(self, name: str, **label_values: str) -> float:
        """Convenience reader for tests: current value of one child."""
        with self._lock:
            family = self._families[name]
        child = family.labels(**label_values)
        if isinstance(child, Histogram):
            return child.snapshot()["count"]
        return child.value

    def snapshot(self) -> dict:
        """Plain-dict dump of every family (JSON-friendly, for /stats)."""
        result: dict[str, dict] = {}
        for family in self.families():
            children = {}
            for key, child in family.children().items():
                label = ",".join(f"{n}={v}" for n, v in zip(family.label_names, key)) or "_"
                if isinstance(child, Histogram):
                    children[label] = child.snapshot()
                else:
                    children[label] = child.value
            result[family.name] = {"type": family.type, "values": children}
        return result

    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.type}")
            for key, child in family.children().items():
                if isinstance(child, Histogram):
                    snap = child.snapshot()
                    cumulative = 0
                    for bound in family.buckets:
                        cumulative = snap["buckets"][bound]
                        labels = _render_labels(family.label_names, key,
                                                (("le", _format_value(bound)),))
                        lines.append(f"{family.name}_bucket{labels} {cumulative}")
                    labels = _render_labels(family.label_names, key, (("le", "+Inf"),))
                    lines.append(f"{family.name}_bucket{labels} {snap['count']}")
                    labels = _render_labels(family.label_names, key)
                    lines.append(f"{family.name}_sum{labels} {_format_value(snap['sum'])}")
                    lines.append(f"{family.name}_count{labels} {snap['count']}")
                else:
                    labels = _render_labels(family.label_names, key)
                    lines.append(f"{family.name}{labels} {_format_value(child.value)}")
        return "\n".join(lines) + "\n"


def inject_label(sample_line: str, name: str, value: str) -> str:
    """Add ``name="value"`` as the first label of one exposition sample.

    ``repro_requests_total{engine="sql"} 3`` becomes
    ``repro_requests_total{worker="0",engine="sql"} 3``; unlabeled samples
    grow a label set.  Comment lines pass through unchanged.
    """
    if sample_line.startswith("#") or not sample_line.strip():
        return sample_line
    head, _, tail = sample_line.rpartition(" ")
    label = f'{name}="{_escape_label_value(value)}"'
    brace = head.find("{")
    if brace < 0:
        return f"{head}{{{label}}} {tail}"
    return f"{head[:brace + 1]}{label},{head[brace + 1:]} {tail}"


def merge_expositions(per_source: Mapping[str, str],
                      label: str = "worker") -> str:
    """Merge Prometheus text expositions from several sources into one.

    Each source's samples gain a ``label="<source>"`` label so the
    aggregated scrape stays attributable per worker; ``# HELP``/``# TYPE``
    headers are emitted once per family (first source wins), with every
    source's samples grouped under them.  This is how the supervisor's
    ``GET /metrics`` folds N worker scrapes into one page.
    """
    order: list[str] = []
    headers: dict[str, list[str]] = {}
    samples: dict[str, list[str]] = {}
    for source, text in per_source.items():
        family = None
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("# "):
                parts = line.split(None, 3)
                if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                    family = parts[2]
                    if family not in headers:
                        order.append(family)
                        headers[family] = []
                        samples[family] = []
                    if len(headers[family]) < 2 and line not in headers[family]:
                        headers[family].append(line)
                continue
            if family is None:
                # A headerless sample (not produced by our registry, but
                # tolerated): group it under its own name.
                family = line.split("{", 1)[0].split(" ", 1)[0]
                if family not in headers:
                    order.append(family)
                    headers[family] = []
                    samples[family] = []
            samples[family].append(inject_label(line, label, source))
    lines: list[str] = []
    for family in order:
        lines.extend(headers[family])
        lines.extend(samples[family])
    return "\n".join(lines) + ("\n" if lines else "")


def set_gauges(registry: MetricsRegistry, values: Mapping[str, float],
               help_texts: Mapping[str, str] | None = None) -> None:
    """Bulk-set unlabeled gauges (scrape-time derived metrics)."""
    helps = help_texts or {}
    for name, value in values.items():
        registry.gauge(name, helps.get(name, name)).set(value)


__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "FIXPOINT_ROUND_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "inject_label",
    "merge_expositions",
    "set_gauges",
]
