"""What every workload shares: calibration, latency samples and the
end-to-end metrics.

**Calibrated time.**  The reference box is a small shared VM whose speed
drifts by ±10 % over seconds to minutes (a fixed pure-Python loop shows it;
CPU time drifts with wall time, so it is contention, not descheduling).
Raw medians of a 20 s window then spread by ~10 % between runs of one
commit, which would drown the regressions the bounds are there to catch.
So a ~0.35 ms pure-Python *calibration kernel* runs before every op, and
every duration is scaled by ``NOMINAL_KERNEL_S ÷ (median kernel time of the
neighbouring ops)``: all reported times are seconds *on a machine where the
kernel takes 350 µs*, which is what this box does when it is quiet.  The
drift cancels (spread ~4 %); a change that slows the ops but not the kernel
shows exactly as before.  ``calibration.kernel_us`` reports the run's
median kernel time, so raw wall times can be recovered.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from ledger import stats
from ledger.ops import ENGINES, Op

NOMINAL_KERNEL_S = 350e-6

#: Kernel timings on each side of an op that make up its local speed.
NEIGHBOURS = 10


def kernel() -> float:
    """Run the calibration kernel; returns the seconds it took."""
    started = time.perf_counter()
    counts: dict[int, int] = {}
    for value in range(4000):
        counts[value % 100] = counts.get(value % 100, 0) + value
    return time.perf_counter() - started


def kernel_burst(repeats: int = 15) -> float:
    """Median of a short burst, for durations too long to interleave with."""
    return stats.median([kernel() for _ in range(repeats)])


def calibrated(seconds: float, kernels: Sequence[float]) -> float:
    """*seconds* scaled to the nominal machine, given kernel timings (or
    burst medians) taken around and within the duration."""
    return seconds * NOMINAL_KERNEL_S / stats.median(kernels)


def speed_factors(kernels: Sequence[float]) -> list[float]:
    """Per position, ``NOMINAL_KERNEL_S`` ÷ the median kernel time of the
    neighbouring positions: multiply a duration measured there by it."""
    return [NOMINAL_KERNEL_S / stats.median(
        kernels[max(0, index - NEIGHBOURS):index + NEIGHBOURS + 1])
        for index in range(len(kernels))]


class Row(NamedTuple):
    """One op as a closed-loop client saw it, before calibration."""

    op: Op
    #: Seconds the system took to answer.
    latency: float
    #: Why the op failed, or ``None``.
    problem: str | None
    #: Seconds the calibration kernel took just before the op.
    kernel: float
    #: Seconds from the op's start until the client was free for the next.
    cycle: float


@dataclass
class Samples:
    """Latencies of the ops that answered correctly, and the failure count.

    A failed op — it raised, the server answered non-2xx, or the answer
    differs from the oracle's — contributes no latency sample.
    """

    latencies: dict[tuple[str, str], list[float]] = field(
        default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    failed_by_class: Counter = field(default_factory=Counter)
    #: The first few failures, for the report.
    failures: list[str] = field(default_factory=list)
    #: Calibrated seconds the closed-loop client spent on its ops (op, answer
    #: check and hand-over; not the calibration kernel).
    busy: float = 0.0
    #: Every calibration kernel timing of the replay.
    kernels: list[float] = field(default_factory=list)

    def record(self, op: Op, seconds: float, problem: str | None) -> None:
        self.attempted += 1
        if problem is None:
            self.latencies[op.cls, op.engine].append(seconds)
            return
        self.failed += 1
        self.failed_by_class[op.cls] += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.cls}/{op.engine or '-'}: {problem} [{op.text[-80:]}]")

    def record_all(self, rows: Sequence[Row]) -> None:
        """Take a replay's rows, in the order they ran, and calibrate them."""
        kernels = [row.kernel for row in rows]
        for row, factor in zip(rows, speed_factors(kernels)):
            self.record(row.op, row.latency * factor, row.problem)
            self.busy += row.cycle * factor
        self.kernels += kernels

    @property
    def ops_per_s(self) -> float:
        """Closed loop: the client always has one op under way, so the rate
        is 1 ÷ the mean calibrated cycle time."""
        return self.succeeded / self.busy

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def mean_latency(self) -> float:
        values = [value for cell in self.latencies.values() for value in cell]
        return sum(values) / len(values)

    def engine_ms(self, engine: str) -> float:
        """Geometric mean over op classes of the class's p50 on *engine*:
        each class weighs the same however often or slowly it runs."""
        medians = [stats.median(values) * 1000.0
                   for (_, cell_engine), values in sorted(self.latencies.items())
                   if cell_engine == engine]
        return stats.geomean(medians)

    def tail_ratio(self, q: float) -> float:
        """The *q*-th percentile over all ops of latency ÷ the median of the
        op's own (class, engine) cell: how far the slow ops are from typical,
        whatever the mix of cheap and expensive classes."""
        ratios = []
        for values in self.latencies.values():
            typical = stats.median(values)
            ratios.extend(value / typical for value in values)
        return stats.percentile(ratios, q)

    def sample_counts(self) -> dict[str, int]:
        return {f"{cls}/{engine or '-'}": len(values)
                for (cls, engine), values in sorted(self.latencies.items())}


def closed_loop(ops: Sequence[Op], run_op: Callable[[int, Op, float], tuple[float, str | None]],
                *, seconds: float | None = None, period: int = 1,
                count: int | None = None) -> Samples:
    """One closed-loop caller: *ops* in order, cycling, for *count* ops or
    for *seconds*, the calibration kernel before each.

    ``run_op(index, op, start)`` performs the op and returns (latency,
    problem-or-None).  A timed window runs on past *seconds* to the next
    multiple of *period* ops — a whole pass of a closure list, a whole write
    period of the service mix — so that it always holds the same mix of cheap
    and dear ops, wherever the clock cut it.
    """
    rows = []
    started = time.perf_counter()
    index = 0
    while True:
        op = ops[index % len(ops)]
        kernel_s = kernel()
        op_started = time.perf_counter()
        latency, problem = run_op(index, op, op_started)
        index += 1
        now = time.perf_counter()
        rows.append(Row(op, latency, problem, kernel_s, now - op_started))
        if index == count or (count is None and now - started >= seconds
                              and index % period == 0):
            break
    samples = Samples()
    samples.record_all(rows)
    return samples


def end_to_end(samples: Samples, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of one run."""
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": samples.ops_per_s,
        "peak_rss_mb": peak_rss_mb,
    }
    for engine in ENGINES:
        metrics[f"{engine}_ms"] = samples.engine_ms(engine)
    return metrics
