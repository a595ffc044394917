"""Tests for the observability layer (:mod:`repro.observability`).

Three concerns: the metrics registry (exact counters, Prometheus text
rendering), the trace span machinery (stack discipline, serialization
schema), and the end-to-end wiring — ``evaluate(..., trace=True)`` must
return a schema-stable span tree on all three engines without changing
the query result, and the service must expose the registry at
``GET /metrics``.
"""

from __future__ import annotations

import logging
import math
import sys
import threading

import pytest

from repro.observability import (
    FIXPOINT_ROUND_BUCKETS,
    MetricsRegistry,
    Span,
    TraceContext,
    format_span_tree,
    maybe_span,
)
from repro.service import QueryService
from repro.session import Session
from tests.conftest import CURRICULUM_XML, course_codes

TC_QUERY = ('with $x seeded by doc("curriculum.xml")'
            '/curriculum/course[@code="c1"] '
            'recurse $x/id(./prerequisites/pre_code)')

ALL_ENGINES = ["interpreter", "algebra", "sql"]


def make_session() -> Session:
    return Session(documents={"curriculum.xml": CURRICULUM_XML},
                   id_attributes=("code",))


def validate_span_dict(node: dict) -> None:
    """The serialized span schema service responses promise."""
    assert set(node) == {"name", "elapsed_ms", "attributes", "children"}
    assert isinstance(node["name"], str) and node["name"]
    assert isinstance(node["elapsed_ms"], (int, float))
    assert node["elapsed_ms"] >= 0
    assert isinstance(node["attributes"], dict)
    assert isinstance(node["children"], list)
    for child in node["children"]:
        validate_span_dict(child)


class TestMetricsRegistry:
    def test_counter_is_exact_and_monotonic(self):
        registry = MetricsRegistry()
        requests = registry.counter("t_total", "help", ("engine",))
        for _ in range(7):
            requests.labels(engine="sql").inc()
        requests.labels(engine="sql").inc(3)
        assert registry.value("t_total", engine="sql") == 10
        with pytest.raises(ValueError):
            requests.labels(engine="sql").inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("t_gauge", "help")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4.0

    def test_histogram_buckets_are_cumulative(self):
        histogram = MetricsRegistry().histogram(
            "t_hist", "help", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 0.7, 3.0, 7.0, 100.0):
            histogram.observe(value)
        snap = histogram._solo().snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(111.2)
        assert snap["buckets"] == {1.0: 2, 5.0: 3, 10.0: 4}  # cumulative

    def test_label_names_are_validated(self):
        family = MetricsRegistry().counter("t_total", "help", ("engine",))
        with pytest.raises(ValueError):
            family.labels(backend="row")

    def test_type_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("t_metric", "help")
        with pytest.raises(ValueError):
            registry.gauge("t_metric", "help")
        # same name + same shape is idempotent (returns the family)
        assert registry.counter("t_metric", "help").value == 0.0

    def test_render_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("t_requests_total", "Requests.", ("engine",)) \
                .labels(engine="sql").inc(2)
        registry.gauge("t_in_flight", "In flight.").set(1)
        registry.histogram("t_seconds", "Latency.", buckets=(0.1, 1.0)) \
                .observe(0.05)
        text = registry.render()
        assert "# HELP t_requests_total Requests.\n" in text
        assert "# TYPE t_requests_total counter\n" in text
        assert 't_requests_total{engine="sql"} 2\n' in text
        assert "t_in_flight 1\n" in text
        assert 't_seconds_bucket{le="0.1"} 1\n' in text
        assert 't_seconds_bucket{le="+Inf"} 1\n' in text
        assert "t_seconds_sum 0.05\n" in text
        assert text.endswith("t_seconds_count 1\n")

    def test_render_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "help", ("q",)).labels(q='a"b\nc\\d').inc()
        assert 't_total{q="a\\"b\\nc\\\\d"} 1' in registry.render()

    def test_infinity_renders_as_prometheus_inf(self):
        registry = MetricsRegistry()
        registry.gauge("t_inf", "help").set(math.inf)
        assert "t_inf +Inf" in registry.render()


class TestTraceContext:
    def test_stack_discipline_and_nesting(self):
        trace = TraceContext("query", engine="interpreter")
        outer = trace.begin("execute")
        inner = trace.begin("fixpoint")
        assert trace.current is inner
        trace.end(inner)
        assert trace.current is outer
        trace.end(outer)
        root = trace.finish()
        assert root.name == "query"
        assert [span.name for span in root.children] == ["execute"]
        assert [span.name for span in outer.children] == ["fixpoint"]

    def test_end_pops_through_unwound_children(self):
        trace = TraceContext()
        outer = trace.begin("execute")
        trace.begin("round")  # left open, as an exception unwind would
        trace.end(outer)
        assert trace.current is trace.root
        assert all(span.ended_at is not None
                   for span in trace.root.iter_spans() if span is not trace.root)

    def test_span_contextmanager_closes_on_error(self):
        trace = TraceContext()
        with pytest.raises(RuntimeError):
            with trace.span("execute"):
                raise RuntimeError("boom")
        assert trace.current is trace.root
        assert trace.root.children[0].ended_at is not None

    def test_to_dict_schema_and_rendering(self):
        trace = TraceContext("query", engine="sql")
        with trace.span("execute"):
            with trace.span("round", iteration=0, fed=3):
                pass
        tree = trace.finish().to_dict()
        validate_span_dict(tree)
        text = format_span_tree(tree)
        assert "query" in text and "round (iteration=0, fed=3)" in text
        # dict and Span renderings agree
        assert format_span_tree(trace.root) == text

    def test_maybe_span(self):
        with maybe_span(None, "anything") as span:
            assert span is None
        trace = TraceContext()
        with maybe_span(trace, "execute") as span:
            assert span is not None and span.name == "execute"

class TestTraceThroughEngines:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_trace_true_is_schema_stable_and_result_neutral(self, engine):
        with make_session() as session:
            plain = session.evaluate(TC_QUERY, engine=engine)
            traced = session.evaluate(TC_QUERY, engine=engine, trace=True)
            assert course_codes(traced.items) == course_codes(plain.items)
            assert plain.trace is None
            root = traced.trace
            assert isinstance(root, Span) and root.name == "query"
            assert root.attributes["engine"] == engine
            validate_span_dict(root.to_dict())
            # every engine reports the phases and the fixpoint
            assert root.find("parse") is not None
            assert root.find("execute") is not None
            fixpoint = root.find("fixpoint")
            assert fixpoint is not None
            assert fixpoint.attributes["result_size"] == len(traced.items)

    def test_interpreter_rounds_carry_table2_sizes(self):
        with make_session() as session:
            result = session.evaluate(TC_QUERY, engine="interpreter",
                                      trace=True, ifp_algorithm="delta")
            rounds = result.trace.find_all("round")
            # one span per body application (iterations 0 .. depth-1)
            assert len(rounds) == result.recursion_depth
            assert [span.attributes["iteration"] for span in rounds] == \
                list(range(result.recursion_depth))
            for span in rounds:
                assert {"iteration", "fed", "produced", "new",
                        "result_size"} <= set(span.attributes)
            assert rounds[-1].attributes["new"] == 0  # convergence round

    def test_algebra_compile_span_reports_plan_cache(self):
        with make_session() as session:
            first = session.evaluate(TC_QUERY, engine="algebra", trace=True)
            again = session.evaluate(TC_QUERY, engine="algebra", trace=True)
            assert first.trace.find("compile").attributes["plan_cache"] == "miss"
            assert again.trace.find("compile").attributes["plan_cache"] == "hit"

    def test_sql_engine_traces_statements_or_driver_rounds(self):
        with make_session() as session:
            cte = session.evaluate(TC_QUERY, engine="sql", trace=True)
            fixpoint = cte.trace.find("fixpoint")
            assert fixpoint.attributes["path"] == "cte"
            statements = cte.trace.find_all("sql")
            assert statements and all("statement" in span.attributes
                                      for span in statements)
            # forcing Naive takes the iterative driver loop: real rounds
            driver = session.evaluate(TC_QUERY, engine="sql", trace=True,
                                      ifp_algorithm="naive")
            assert driver.trace.find("fixpoint").attributes["path"] == "driver"
            assert driver.trace.find_all("round")

    def test_trace_includes_kernel_and_index_build_spans(self):
        with make_session() as session:
            result = session.evaluate(TC_QUERY, engine="interpreter", trace=True)
            assert result.trace.find("index-build") is not None
            kernels = [span for span in result.trace.iter_spans()
                       if span.name.startswith("kernel:")]
            assert kernels, "pushdown kernel counters should become spans"
            for span in kernels:
                assert {"batch", "fallback"} <= set(span.attributes)


def kernel_counts(result) -> dict[str, tuple[int, int]]:
    return {span.name: (span.attributes["batch"], span.attributes["fallback"])
            for span in result.trace.iter_spans() if span.name.startswith("kernel:")}


class TestKernelCountersBelongToTheirQuery:
    """The batch-vs-fallback counters ride the query's own TraceContext:
    no process-global accumulator, no session-wide lock."""

    #: Pushdown-heavy untraced traffic: value, existence and positional
    #: predicate kernels plus batch axis steps on every evaluation.
    NOISE_QUERY = ('doc("curriculum.xml")//course[@code = "c3"]'
                   '/prerequisites[pre_code]/pre_code[1]')

    def test_untraced_traffic_does_not_leak_into_a_traced_query(self):
        with make_session() as session:
            for _ in range(2):  # builds the indexes, fills the closure's images
                session.evaluate(TC_QUERY, trace=True)
            alone = kernel_counts(session.evaluate(TC_QUERY, trace=True))
            assert alone and alone == kernel_counts(
                session.evaluate(TC_QUERY, trace=True))

            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    session.evaluate(self.NOISE_QUERY)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave threads inside one query
            try:
                for thread in threads:
                    thread.start()
                crowded = [kernel_counts(session.evaluate(TC_QUERY, trace=True))
                           for _ in range(40)]
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert all(counts == alone for counts in crowded)

    def test_two_traced_queries_run_at_the_same_time(self, monkeypatch):
        from repro.xquery.evaluator import Evaluator

        both_inside = threading.Barrier(2, timeout=2.0)
        original = Evaluator.evaluate_module

        def rendezvous(self, module, context):
            both_inside.wait()  # breaks unless two evaluations overlap
            return original(self, module, context)

        with make_session() as session:
            for _ in range(2):  # builds the indexes, fills the closure's images
                session.evaluate(TC_QUERY)
            monkeypatch.setattr(Evaluator, "evaluate_module", rendezvous)
            outcomes: list = []

            def traced():
                try:
                    outcomes.append(session.evaluate(TC_QUERY, trace=True))
                except threading.BrokenBarrierError as error:
                    outcomes.append(error)

            threads = [threading.Thread(target=traced) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        assert len(outcomes) == 2
        assert not any(isinstance(outcome, Exception) for outcome in outcomes), (
            "traced evaluations serialized on a session-wide lock")
        first, second = (outcome.trace for outcome in outcomes)
        assert first.started_at < second.ended_at and second.started_at < first.ended_at
        assert kernel_counts(outcomes[0]) == kernel_counts(outcomes[1])


class TestServiceObservability:
    def test_metrics_text_exposes_required_families(self):
        with make_session() as session:
            service = QueryService(session=session)
            for engine in ALL_ENGINES:
                service.handle_query({"query": TC_QUERY, "engine": engine})
            text = service.metrics_text()
            for family in ("repro_requests_total", "repro_request_errors_total",
                           "repro_request_seconds", "repro_requests_in_flight",
                           "repro_fixpoint_rounds", "repro_uptime_seconds",
                           "repro_generation", "repro_documents",
                           "repro_cache_hits", "repro_cache_misses",
                           "repro_cache_hit_ratio", "repro_cache_size",
                           "repro_sql_pool_live_stores",
                           "repro_sql_pool_trees_dropped_total"):
                assert f"# TYPE {family} " in text, family
            for engine in ALL_ENGINES:
                assert f'repro_requests_total{{engine="{engine}"}} 1' in text
            assert 'repro_cache_hit_ratio{cache="module"}' in text
            bound = FIXPOINT_ROUND_BUCKETS[0]
            assert (f'repro_fixpoint_rounds_bucket{{engine="interpreter",'
                    f'le="{int(bound)}"}}') in text

    def test_service_stats_snapshot_shape_is_stable(self):
        with make_session() as session:
            service = QueryService(session=session)
            service.handle_query({"query": "1 + 1"})
            snapshot = service.stats.snapshot()
            assert set(snapshot) == {"uptime_seconds", "in_flight",
                                     "peak_in_flight", "requests", "errors",
                                     "rejections", "engines", "reply"}
            assert snapshot["reply"] == {"items_sliced": 0, "items_walked": 0,
                                         "tree_texts_built": 0}
            assert snapshot["rejections"] == 0
            assert snapshot["requests"] == 1 and snapshot["errors"] == 0
            engine = snapshot["engines"]["interpreter"]
            assert set(engine) == {"count", "errors", "total_seconds",
                                   "mean_seconds"}
            assert snapshot["uptime_seconds"] >= 0.0

    def test_query_payload_trace_field(self):
        with make_session() as session:
            service = QueryService(session=session)
            response = service.handle_query({"query": TC_QUERY, "trace": True})
            assert response["ok"] is True
            validate_span_dict(response["trace"])
            assert response["trace"]["name"] == "query"
            untraced = service.handle_query({"query": TC_QUERY})
            assert "trace" not in untraced

    def test_slow_query_log_record(self, caplog):
        with make_session() as session:
            service = QueryService(session=session, slow_query_ms=0.0)
            with caplog.at_level(logging.WARNING, logger="repro.service"):
                service.handle_query({"query": TC_QUERY})
            records = [record for record in caplog.records
                       if getattr(record, "fields", {}).get("event") == "slow_query"]
            assert len(records) == 1
            fields = records[0].fields
            assert fields["engine"] == "interpreter"
            assert fields["elapsed_ms"] >= 0.0
            assert fields["query"].startswith("with $x")

    def test_fixpoint_rounds_histogram_observes_depth(self):
        with make_session() as session:
            service = QueryService(session=session)
            service.handle_query({"query": TC_QUERY, "engine": "interpreter"})
            registry = service.stats.registry
            assert registry.value("repro_fixpoint_rounds",
                                  engine="interpreter") == 1
            service.handle_query({"query": "1 + 1"})  # no fixpoint: no sample
            assert registry.value("repro_fixpoint_rounds",
                                  engine="interpreter") == 1
