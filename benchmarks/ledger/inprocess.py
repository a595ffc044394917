"""The in-process workloads: closure-delta, closure-naive and adhoc.

One thread, closed loop (a library caller waits for its answer), one
``Session`` per scenario document — the paper's setting, and the only one
in which every (class, engine) cell answers correctly at the seed commit.
"""

from __future__ import annotations

import gc
import resource
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro import Session, analyze_query_text
from repro.xdm.index import clear_index_registry
from repro.xmlio.parser import parse_xml

from ledger import corpus, stats
from ledger.harness import Samples, calibrated, closed_loop, kernel_burst
from ledger.ops import BODIES, CLOSURE_CLASSES, Op, canonical_items
from ledger.spans import Recorder

#: The interpreter with every optimisation off: the oracle for query shapes
#: whose answer no plain closure gives.
REFERENCE = {"engine": "interpreter", "ifp_algorithm": "naive", "optimize": False,
             "analyze": False, "use_index": False, "use_pushdown": False,
             "use_cache": False}


def reference_for(documents: dict[str, str]) -> Callable[[str], tuple[str, ...]]:
    """Answers curriculum queries with the reference-mode interpreter."""
    session = Session({"curriculum.xml": documents["curriculum.xml"]},
                      id_attributes=corpus.ID_ATTRIBUTES)

    def reference(text: str) -> tuple[str, ...]:
        return canonical_items("curriculum", session.evaluate(text, **REFERENCE).items)

    return reference


@dataclass
class SetUp:
    sessions: dict[str, Session]
    #: XML text in hand → first timed op may start (calibrated).
    seconds: float

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()


def warm_up_ops(ops: Sequence[Op]) -> list[Op]:
    """The first op of every (class, engine) cell."""
    first: dict[tuple[str, str], Op] = {}
    for op in ops:
        first.setdefault((op.cls, op.engine), op)
    return list(first.values())


def set_up(documents: dict[str, str], warm_ups: Sequence[Op]) -> SetUp:
    """Parse, register, and run one op per class × engine (which pays the
    index builds and the SQLite shreds)."""
    clear_index_registry()
    speeds = [kernel_burst()]
    started = time.perf_counter()
    sessions = {}
    for uri, text in documents.items():
        sessions[uri] = Session(id_attributes=corpus.ID_ATTRIBUTES)
        sessions[uri].register_document(
            uri, parse_xml(text, id_attributes=corpus.ID_ATTRIBUTES))
    kernels_s = 0.0
    for op in warm_ups:
        kernel_started = time.perf_counter()
        speeds.append(kernel_burst(5))
        kernels_s += time.perf_counter() - kernel_started
        _, problem, _ = execute(sessions, op)
        if problem is not None:
            raise RuntimeError(f"warm-up {op.cls}/{op.engine} failed: {problem}")
    seconds = time.perf_counter() - started - kernels_s
    speeds.append(kernel_burst())
    return SetUp(sessions, calibrated(seconds, speeds))


def median_set_up(documents: dict[str, str], warm_ups: Sequence[Op],
                  repeats: int) -> tuple[SetUp, float]:
    """*repeats* fresh set-ups; the last one stays up, the median is ``setup_s``."""
    seconds = []
    current = None
    for _ in range(repeats):
        if current is not None:
            current.close()
            del current
            gc.collect()
        current = set_up(documents, warm_ups)
        seconds.append(current.seconds)
    return current, stats.median(seconds)


def execute(sessions: dict[str, Session], op: Op, **settings):
    """Run *op*; returns (seconds, problem-or-None, QueryResult-or-None)."""
    result = None
    started = time.perf_counter()
    try:
        if op.cls == "check":
            report = analyze_query_text(op.text)
        else:
            result = sessions[corpus.DOCUMENT_OF[op.cls]].evaluate(
                op.text, engine=op.engine, **settings)
    except Exception as error:  # any failure of the system is a failed op
        return time.perf_counter() - started, f"{type(error).__name__}: {error}", None
    seconds = time.perf_counter() - started
    if op.cls == "check":
        safe = bool(report.fixpoints) and all(fact.safe for fact in report.fixpoints)
        answer = ("safe" if safe else "unsafe",)
    else:
        answer = canonical_items(op.cls, result.items)
    problem = None if answer == op.expected else f"answered {answer[:4]}, expected {op.expected[:4]}"
    return seconds, problem, result


def replay(sessions: dict[str, Session], ops: Sequence[Op], *,
           seconds: float | None = None, period: int = 1, count: int | None = None,
           recorder: Recorder | None = None) -> Samples:
    """Replay *ops* (see :func:`~ledger.harness.closed_loop`).  With a
    *recorder* every op runs with ``trace=True`` and its shipped span tree is
    kept under a root span timed from here."""
    settings = {"trace": True} if recorder is not None else {}

    def run_op(index: int, op: Op, started: float):
        elapsed, problem, result = execute(sessions, op, **settings)
        if recorder is not None:
            root = recorder.add("op", started, started + elapsed, None, index,
                                cls=op.cls, engine=op.engine or "analysis")
            if result is not None and result.trace is not None:
                recorder.add_shipped(result.trace.to_dict(), started, root, index)
        return elapsed, problem

    return closed_loop(ops, run_op, seconds=seconds, period=period, count=count)


def naive_over_delta(sessions: dict[str, Session], ops: Sequence[Op],
                     per_class: int = 8) -> dict[str, float]:
    """Table 2's headline per class: the interpreter's median latency under
    ``using naive`` ÷ under Delta, on the same *per_class* start nodes."""
    ratios = {}
    for cls in CLOSURE_CLASSES:
        texts = list(dict.fromkeys(op.text.replace(" using naive", "")
                                   for op in ops if op.cls == cls))[:per_class]
        latencies: dict[bool, list[float]] = {False: [], True: []}
        for text in texts:
            for naive in (False, True):
                if naive:
                    text = text.replace(BODIES[cls], BODIES[cls] + " using naive")
                op = Op(cls, "interpreter", text, ())
                execute(sessions, op)  # parse and analyze once, untimed
                latencies[naive].append(min(execute(sessions, op)[0] for _ in range(2)))
        ratios[cls] = stats.median(latencies[True]) / stats.median(latencies[False])
    return ratios


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
