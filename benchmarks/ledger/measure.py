"""One run of one workload: set-up, the timed replay, and the metrics.

``measure`` answers with the *end-to-end* metrics (tracing off) or with the
*per-layer* metrics (a traced replay, the layer pass and the check matrix):
one kind per run, so the end-to-end numbers never carry tracing's cost.
Metrics are name → value; ``BENCHMARK.json`` holds the units.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass, field

from ledger import check, corpus, inprocess, layers, service, stats
from ledger.harness import Samples, calibrated, end_to_end, kernel_burst
from ledger.ops import CLOSURE_CLASSES, ENGINES, Op, Scenarios, op_list
from ledger.spans import Recorder, seconds

SETUPS = 3

#: Ops per ``--seconds`` second in a traced run: it replays a fixed number
#: of ops (untraced, then traced), so that its counts repeat exactly.
TRACED_OPS_PER_SECOND = {"closure-delta": 30, "closure-naive": 12, "adhoc": 120,
                         "service-mixed": 30}


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    #: What the report shows beside the metrics: sample counts, failures,
    #: wrong cells, the where-the-time-goes table.
    detail: dict = field(default_factory=dict)


def measure(workload: str, seed: int, run_seconds: float, traced: bool, tiny: bool,
            out_directory: str, source_root: str) -> Outcome:
    size = ("tiny" if tiny or workload == "adhoc"
            else "service" if workload == "service-mixed" else "full")
    documents, datagen_s = corpus.build(size)
    scenarios = Scenarios(documents)
    ops = op_list(workload, scenarios, seed, inprocess.reference_for(documents))
    del scenarios  # the oracle's trees must not sit in the peak-memory figure
    gc.collect()
    os.makedirs(out_directory, exist_ok=True)
    if workload == "service-mixed":
        runner = _Service(documents, ops, seed, out_directory, source_root)
    else:
        runner = _InProcess(documents, ops, closure=workload.startswith("closure-"))
    try:
        if not traced:
            return runner.end_to_end(run_seconds)
        count = max(20, int(TRACED_OPS_PER_SECOND[workload] * run_seconds))
        recorder = Recorder()
        outcome = runner.per_layer(count, recorder)
        recorder.dump(os.path.join(out_directory, f"trace-{workload}.json"))
        outcome.metrics.update(_span_metrics(recorder))
        outcome.metrics.update(layers.layer_pass(documents, ops, out_directory, seed))
        outcome.metrics["datagen.build_s"] = datagen_s
        cells = check.matrix(seed)
        outcome.metrics["check.cells_total"] = cells["total"]
        outcome.metrics["check.cells_wrong"] = len(cells["wrong"])
        outcome.metrics["check.cells_unsupported"] = len(cells["unsupported"])
        outcome.detail["cells_wrong"] = cells["wrong"]
        outcome.detail["cells_unsupported"] = cells["unsupported"]
        outcome.detail["where_the_time_goes"] = _time_table(recorder)
        return outcome
    finally:
        runner.close()


# -- in-process ---------------------------------------------------------------


class _InProcess:
    def __init__(self, documents: dict[str, str], ops: list[Op], closure: bool):
        self.documents = documents
        self.ops = ops
        self.closure = closure
        self.set_up: inprocess.SetUp | None = None

    def close(self) -> None:
        if self.set_up is not None:
            self.set_up.close()

    def _warm_caches(self) -> None:
        """closure-*: one untimed pass, so that the window finds every
        module, analysis and plan cached.  Not part of ``setup_s``: what a
        query text costs the first time is what adhoc measures."""
        if self.closure:
            cold = inprocess.replay(self.set_up.sessions, self.ops, count=len(self.ops))
            if cold.failed:
                raise RuntimeError(f"warming pass failed: {cold.failures}")

    def end_to_end(self, run_seconds: float) -> Outcome:
        self.set_up, setup_s = inprocess.median_set_up(
            self.documents, inprocess.warm_up_ops(self.ops), SETUPS)
        self._warm_caches()
        samples = inprocess.replay(self.set_up.sessions, self.ops, seconds=run_seconds,
                                   period=len(self.ops) if self.closure else 1)
        return Outcome(samples.attempted, samples.failed,
                       end_to_end(samples, setup_s, inprocess.peak_rss_mb()),
                       _sample_detail(samples))

    def per_layer(self, count: int, recorder: Recorder) -> Outcome:
        self.set_up = inprocess.set_up(self.documents, inprocess.warm_up_ops(self.ops))
        self._warm_caches()
        sessions = self.set_up.sessions
        before = [session.cache_stats() for session in sessions.values()]
        untraced = inprocess.replay(sessions, self.ops, count=count)
        after = [session.cache_stats() for session in sessions.values()]
        traced = inprocess.replay(sessions, self.ops, count=count, recorder=recorder)
        metrics = _replay_metrics(untraced, traced)
        for cache in ("module", "plan", "analysis"):
            metrics[f"plancache.{cache}_hit_ratio"] = _hit_ratio(before, after, cache)
        if self.closure:
            for cls, ratio in inprocess.naive_over_delta(sessions, self.ops).items():
                metrics[f"fixpoint.naive_over_delta.{cls}"] = ratio
        return Outcome(untraced.attempted + traced.attempted,
                       untraced.failed + traced.failed, metrics, _sample_detail(untraced))


def _hit_ratio(before: list[dict], after: list[dict], cache: str) -> float:
    hits = sum(new[cache]["hits"] - old[cache]["hits"] for old, new in zip(before, after))
    misses = sum(new[cache]["misses"] - old[cache]["misses"] for old, new in zip(before, after))
    return hits / (hits + misses) if hits + misses else 0.0


# -- service ------------------------------------------------------------------


class _Service:
    def __init__(self, documents: dict[str, str], ops: list[Op], seed: int,
                 out_directory: str, source_root: str):
        self.ops = ops
        self.seed = seed
        self.server = service.Server(
            os.path.join(out_directory, f"service-{os.getpid()}"), documents, source_root)
        self.client: service.Client | None = None
        self.warm_ups = inprocess.warm_up_ops([op for op in ops if op.cls != "write"])

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        self.server.remove()

    def _set_up(self) -> tuple[float, float]:
        """One fresh set-up; returns (calibrated seconds, seconds to /ready)."""
        if self.client is not None:
            self.client.close()
            self.client = None
        speed_before = kernel_burst()
        self.client, setup_s, start_s = service.set_up(self.server, self.warm_ups)
        return calibrated(setup_s, [speed_before, kernel_burst()]), start_s

    def end_to_end(self, run_seconds: float) -> Outcome:
        setup_s = stats.median([self._set_up()[0] for _ in range(SETUPS)])
        samples = service.replay(self.client, self.ops, seconds=run_seconds).samples
        peak_rss_mb = self.server.peak_rss_mb()
        _, lost = service.durability_check(self.server)
        samples.attempted += 1
        samples.failed += lost
        if lost:
            samples.failures.append("the last acknowledged write was lost across SIGKILL")
        return Outcome(samples.attempted, samples.failed,
                       end_to_end(samples, setup_s, peak_rss_mb),
                       _sample_detail(samples))

    def per_layer(self, count: int, recorder: Recorder) -> Outcome:
        _, start_s = self._set_up()
        before = service.server_stats(self.server.port)["session"]
        untraced = service.replay(self.client, self.ops, count=count)
        after = service.server_stats(self.server.port)["session"]
        traced = service.replay(self.client, self.ops, count=count, recorder=recorder)
        metrics = _replay_metrics(untraced.samples, traced.samples)
        for cache in ("module", "plan", "analysis"):
            metrics[f"plancache.{cache}_hit_ratio"] = _hit_ratio([before], [after], cache)
        write_ms = service.write_burst(self.client, self.seed) * 1e3
        replay_s, lost = service.durability_check(self.server)
        metrics.update({
            "service.start_s": start_s,
            "service.write_ms": write_ms,
            "service.http_overhead_ms": stats.median(untraced.http_overhead) * 1e3,
            "service.request_bytes": untraced.request_bytes / untraced.samples.attempted,
            "service.response_bytes": untraced.response_bytes / untraced.samples.attempted,
            "service.rejected_503": untraced.rejected_503 + traced.rejected_503,
            "sqlbackend.reshreds": after["sql_pool"]["created"] - before["sql_pool"]["created"],
            "service.journal.replay_s": replay_s,
            "service.journal.lost_writes": lost,
        })
        return Outcome(untraced.samples.attempted + traced.samples.attempted,
                       untraced.samples.failed + traced.samples.failed + lost,
                       metrics, _sample_detail(untraced.samples))


# -- metrics shared by both kinds of workload ---------------------------------


def _sample_detail(samples: Samples) -> dict:
    return {"samples": samples.sample_counts(), "failures": samples.failures,
            "p50_ms": {f"{cls}/{engine or '-'}": stats.median(values) * 1e3
                       for (cls, engine), values in sorted(samples.latencies.items())}}


def _replay_metrics(untraced: Samples, traced: Samples) -> dict[str, float]:
    """What the two replays of a traced run give without looking at spans."""
    metrics = {
        "failed_share": (untraced.failed + traced.failed)
        / (untraced.attempted + traced.attempted),
        "tail_p95_ratio": untraced.tail_ratio(95.0),
        "tail_p99_ratio": untraced.tail_ratio(99.0),
        # The same ops both times, so the mean latencies compare like for like.
        "trace.overhead_share": 1.0 - untraced.mean_latency() / traced.mean_latency(),
        "calibration.kernel_us": stats.median(untraced.kernels) * 1e6,
        "analysis.verdicts_wrong": untraced.failed_by_class["check"]
        + traced.failed_by_class["check"],
    }
    for engine in ENGINES:
        for cls in (*CLOSURE_CLASSES, "count"):
            if (cls, engine) in untraced.latencies:
                metrics[f"{engine}.{cls}_p50_ms"] = stats.median(
                    untraced.latencies[cls, engine]) * 1e3
    return metrics


def _span_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer figures read off the shipped span trees."""

    def median_ms(spans: list[dict]) -> float:
        return stats.median([seconds(span) for span in spans]) * 1e3 if spans else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def total(spans: list[dict], attribute: str) -> int:
        return sum(span["attributes"].get(attribute, 0) for span in spans)

    own = recorder.self_seconds()
    roots = [span for span in recorder.spans if span["parent"] is None]
    fixpoints = recorder.named("fixpoint")
    sql_fixpoints = recorder.named("fixpoint", engine="sql")
    statements = recorder.named("sql", engine="sql")
    kernels = [span for span in recorder.spans if span["name"].startswith("kernel:")]
    rounds = recorder.named("round", engine="interpreter")
    return {
        "session.overhead_ms": stats.median([own[root["id"]] for root in roots]) * 1e3,
        "xquery.execute_ms": median_ms(recorder.named("execute", engine="interpreter")),
        "xquery.pushdown_batch_share": share(
            total(kernels, "batch"), total(kernels, "batch") + total(kernels, "fallback")),
        "xdm.index_builds": len(recorder.named("index-build")),
        "distributivity.delta_chosen_share": share(
            sum(1 for span in fixpoints if span["attributes"].get("algorithm") == "delta"),
            len(fixpoints)),
        "fixpoint.rounds": len(rounds),
        "fixpoint.nodes_fed_back": total(rounds, "fed"),
        "fixpoint.round_us": median_ms(rounds) * 1e3,
        "algebra.execute_ms": median_ms(recorder.named("execute", engine="algebra")),
        "algebra.decode_ms": median_ms(recorder.named("decode", engine="algebra")),
        "algebra.rows_fed_back": total(recorder.named("round", engine="algebra"), "fed"),
        "sqlbackend.statement_ms": median_ms(statements),
        "sqlbackend.statements_per_op": share(
            len(statements),
            sum(1 for root in roots if root["attributes"]["engine"] == "sql")),
        "sqlbackend.cte_share": share(
            sum(1 for span in sql_fixpoints if span["attributes"].get("path") == "cte"),
            len(sql_fixpoints)),
        "sqlbackend.decode_ms": median_ms(recorder.named("decode", engine="sql")),
    }


def _time_table(recorder: Recorder) -> dict[str, dict[str, float]]:
    """engine → span name → share of that engine's op time spent in the span
    itself (children taken out), and the mean op time: where the time goes."""
    table = {}
    for engine, by_name in recorder.self_by_name("engine").items():
        whole = sum(by_name.values())
        ops = sum(1 for span in recorder.spans
                  if span["parent"] is None and span["attributes"]["engine"] == engine)
        table[engine] = {"ms per op": whole * 1e3 / ops}
        table[engine].update({name: value / whole for name, value in sorted(
            by_name.items(), key=lambda item: -item[1]) if value / whole >= 0.0005})
    return table
