"""Shared fixtures for the test suite."""

from __future__ import annotations

import ast as python_ast
import functools
import random
import sys
from pathlib import Path

import pytest

from repro.xmlio.parser import parse_xml
from repro.xquery.context import DocumentResolver

#: The curriculum of Example 1.1 (Figure 1 DTD) with a cycle through c6/c7.
CURRICULUM_XML = """
<!DOCTYPE curriculum [
  <!ELEMENT curriculum (course)*>
  <!ATTLIST course code ID #REQUIRED>
]>
<curriculum>
  <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
  <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
  <course code="c3"><prerequisites/></course>
  <course code="c4"><prerequisites><pre_code>c5</pre_code></prerequisites></course>
  <course code="c5"><prerequisites/></course>
  <course code="c6"><prerequisites><pre_code>c7</pre_code></prerequisites></course>
  <course code="c7"><prerequisites><pre_code>c6</pre_code></prerequisites></course>
</curriculum>
"""


@pytest.fixture()
def curriculum_document():
    return parse_xml(CURRICULUM_XML)


@pytest.fixture()
def curriculum_resolver(curriculum_document):
    resolver = DocumentResolver()
    resolver.register("curriculum.xml", curriculum_document)
    return resolver


def course_codes(nodes) -> list[str]:
    """Sorted @code values of a sequence of course elements."""
    return sorted(node.get_attribute("code").value for node in nodes)


def benchmark_modules():
    """``ledger.corpus``, ``ledger.ops`` and ``check_overhead`` from
    ``benchmarks/``, which is no package and not on the path."""
    benchmarks = str(Path(__file__).resolve().parents[1] / "benchmarks")
    sys.path.insert(0, benchmarks)
    try:
        import check_overhead
        from ledger import corpus, ops
    finally:
        sys.path.remove(benchmarks)
    return corpus, ops, check_overhead


def count_calls(function) -> int:
    """Function calls made while *function* runs, Python-level and built-in
    alike (``call`` and ``c_call`` events of ``sys.setprofile``) — a count
    that repeats exactly, where a timing on a shared box does not."""
    calls = 0

    def profile(frame, event, argument):
        nonlocal calls
        calls += event in ("call", "c_call")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return calls - 1  # (the ``sys.setprofile`` that ends the count)


@functools.lru_cache(maxsize=None)
def front_end_corpus() -> tuple[str, ...]:
    """Every query text the repository itself writes, for the oracle tests of
    the XQuery front end: the Table-2 workloads in all their formulations,
    every string constant of ``examples/`` (queries, documents and prose
    alike — whatever the old front end said about a text, the new one must
    say), every seventh op of one ``adhoc`` pass of the ledger (its 4 356
    texts are six shapes on three engines plus a ``check`` every eleventh op,
    so a stride of seven meets every combination; the whole pass would take
    the oracle tests' time budget alone), the ``check`` bodies, and the
    overhead guard's module."""
    from repro.bench.queries import WORKLOADS

    corpus, ops, check_overhead = benchmark_modules()
    texts: dict[str, None] = {}
    for workload in WORKLOADS.values():
        for algorithm in ("auto", "naive", "delta"):
            texts[workload.ifp_query(algorithm)] = None
            texts[workload.closure_expression(algorithm)] = None
        texts[workload.ifp_query(seed_limit=3)] = None
        for variant in ("fix", "delta"):
            texts[workload.udf_query(variant)] = None
    examples = Path(__file__).resolve().parents[1] / "examples"
    for example in sorted(examples.glob("*.py")):
        for node in python_ast.walk(python_ast.parse(example.read_text())):
            if isinstance(node, python_ast.Constant) and isinstance(node.value, str):
                texts[node.value] = None
    documents, _ = corpus.build("tiny")
    scenarios = ops.Scenarios(documents)
    for op in ops.adhoc_ops(scenarios, 7, reference=lambda text: ())[::7]:
        texts[op.text] = None
    for cls in ops.CLOSURE_CLASSES:
        start = scenarios.start_nodes(cls, random.Random(7))[0]
        texts[ops.closure_text(cls, start, naive=True)] = None
    texts.update(dict.fromkeys(body for body, _verdict in ops.CHECK_BODIES))
    texts[check_overhead.NOTHING_TO_HOIST] = None
    return tuple(texts)
