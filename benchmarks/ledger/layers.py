"""The layer pass: each layer's public function timed on the workload's inputs.

Steady-state replays hide the front end behind the caches and the document
loaders behind set-up, so those layers are called directly here, from
outside, on the documents and query texts the workload itself uses.  What
lies *inside* ``execute`` is read from the shipped span tree instead (see
``spans``); this module only adds ``algebra.compile_ms``, which it gets by
evaluating with ``use_cache=False`` and reading the ``compile`` span.
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Callable, Sequence

import repro
from repro.analysis import analyze_module
from repro.service.journal import CorpusJournal, make_record
from repro.service.server import serialize_items
from repro.sqlbackend.emitter import emit_fixpoint_sql
from repro.sqlbackend.shredder import SqlDocumentStore
from repro.xdm.index import clear_index_registry, index_for
from repro.xmlio.parser import parse_xml
from repro.xquery.optimizer import optimize_module
from repro.xquery.parser import parse_expression, parse_query

from ledger import corpus, ops, stats
from ledger.ops import Op

REPEATS = 5


def timed(function: Callable, *arguments, repeats: int = REPEATS) -> tuple[float, object]:
    """Median seconds of *repeats* calls, and the last return value."""
    seconds = []
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = function(*arguments)
        seconds.append(time.perf_counter() - started)
    return stats.median(seconds), value


def sample_queries(op_list: Sequence[Op], per_cell: int = 3) -> list[Op]:
    """A few distinct query ops of every (class, engine) cell."""
    taken: dict[tuple[str, str], list[Op]] = {}
    for op in op_list:
        if op.cls in corpus.DOCUMENT_OF:
            cell = taken.setdefault((op.cls, op.engine), [])
            if len(cell) < per_cell and all(op.text != other.text for other in cell):
                cell.append(op)
    return [op for cell in taken.values() for op in cell]


def layer_pass(documents: dict[str, str], op_list: Sequence[Op],
               scratch_directory: str, seed: int) -> dict[str, float]:
    """Per-layer figures (metric name → value) from direct calls."""
    metrics: dict[str, float] = {}
    clear_index_registry()

    # -- xmlio / xdm / sqlbackend: the document loaders ----------------------
    parse_s = index_s = shred_s = 0.0
    nodes = 0
    sessions = {}
    for uri, text in documents.items():
        seconds, document = timed(parse_xml, text, corpus.ID_ATTRIBUTES, repeats=1)
        parse_s += seconds
        index_s += timed(index_for, document, repeats=1)[0]
        store = SqlDocumentStore()
        shred_s += timed(store.shred, document, uri, repeats=1)[0]
        nodes += store.node_count()
        store.close()
        sessions[uri] = repro.Session({uri: document}, id_attributes=corpus.ID_ATTRIBUTES)
    megabytes = sum(len(text.encode("utf-8")) for text in documents.values()) / 1e6
    metrics["xmlio.parse_s"] = parse_s
    metrics["xmlio.parse_mb_per_s"] = megabytes / parse_s
    metrics["xdm.index_build_s"] = index_s
    metrics["sqlbackend.shred_s"] = shred_s
    metrics["sqlbackend.shred_nodes_per_s"] = nodes / shred_s

    # -- xquery front end and analysis, per query text -----------------------
    queries = sample_queries(op_list)
    parse, optimize, analyze, check, compile_, serialize = [], [], [], [], [], []
    for op in queries:
        seconds, module = timed(parse_query, op.text)
        parse.append(seconds)
        seconds, optimized = timed(optimize_module, module)
        optimize.append(seconds)
        analyze.append(timed(analyze_module, optimized)[0])
        check.append(timed(repro.analyze_query_text, op.text)[0])
        session = sessions[corpus.DOCUMENT_OF[op.cls]]
        result = session.evaluate(op.text, engine=op.engine, use_cache=False, trace=True)
        if op.engine == "algebra":
            compile_.append(result.trace.find("compile").seconds)
        serialize.append(timed(serialize_items, result.items)[0])
    metrics["xquery.parse_ms"] = stats.median(parse) * 1e3
    metrics["xquery.optimize_ms"] = stats.median(optimize) * 1e3
    metrics["analysis.analyze_ms"] = stats.median(analyze) * 1e3
    metrics["analysis.check_ms"] = stats.median(check) * 1e3
    metrics["algebra.compile_ms"] = stats.median(compile_) * 1e3
    metrics["xmlio.serialize_ms"] = stats.median(serialize) * 1e3

    # -- the three distributivity judgments and the CTE emitter, per body ----
    functions = parse_query(ops.BIDDER_PROLOG + "()").functions
    resolver = sessions["auction.xml"].snapshot()
    syntactic, algebraic, analysis, emit = [], [], [], []
    for body in ops.BODIES.values():
        expression = parse_expression(body)
        syntactic.append(timed(repro.is_distributive_syntactic, expression, "x", functions)[0])
        algebraic.append(timed(repro.is_distributive_algebraic, expression, "x", functions,
                               resolver)[0])
        analysis.append(timed(repro.is_distributive_static, expression, "x", functions)[0])
        emit.append(timed(emit_fixpoint_sql, expression, "x")[0])
    metrics["distributivity.syntactic_ms"] = stats.median(syntactic) * 1e3
    metrics["distributivity.algebraic_ms"] = stats.median(algebraic) * 1e3
    metrics["distributivity.analysis_ms"] = stats.median(analysis) * 1e3
    metrics["sqlbackend.emit_ms"] = stats.median(emit) * 1e3

    # -- session.register and the journal, per ~5 KB write -------------------
    rng = random.Random(f"layers:{seed}")
    session = next(iter(sessions.values()))
    journal_path = os.path.join(scratch_directory, "layer-pass.journal")
    journal = CorpusJournal(journal_path)
    register, append = [], []
    user_bytes = 0
    for version in range(30):
        text = corpus.notes_xml(rng, version)
        user_bytes += len(text.encode("utf-8"))
        register.append(timed(session.register_document, "notes.xml", text, repeats=1)[0])
        append.append(timed(journal.append, make_record("replace", "notes.xml", text),
                            repeats=1)[0])
    metrics["session.register_ms"] = stats.median(register) * 1e3
    metrics["service.journal.append_ms"] = stats.median(append) * 1e3
    metrics["service.journal.bytes_per_user_byte"] = journal.size() / user_bytes
    os.unlink(journal_path)
    for session in sessions.values():
        session.close()
    return metrics
