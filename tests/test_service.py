"""Integration tests for the HTTP query service (:mod:`repro.service`).

A real :class:`~repro.service.server.QueryServer` runs on an ephemeral
port; clients speak JSON over plain ``urllib``.  The concurrency tests
fire overlapping ``/query`` and ``/batch`` requests across all three
engines and check the responses item-for-item against direct
``Session.evaluate`` calls.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.service import QueryService, ServiceError, create_server, serve
from repro.service.journal import CorpusJournal, make_record
from repro.service.server import serialize_items
from repro.session import Session
from tests.conftest import CURRICULUM_XML

TC_QUERY = ('with $x seeded by doc("curriculum.xml")'
            '/curriculum/course[@code="c1"] '
            'recurse $x/id(./prerequisites/pre_code)')

MUTATED_XML = CURRICULUM_XML.replace(
    '<course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>',
    '<course code="c2"><prerequisites/></course>')

ALL_ENGINES = ["interpreter", "algebra", "sql"]


class ServiceClient:
    """A minimal JSON-over-HTTP client for the test server."""

    def __init__(self, base_url: str):
        self.base_url = base_url

    def request(self, path: str, payload=None):
        status, body, _ = self.request_full(path, payload)
        return status, body

    def request_full(self, path: str, payload=None):
        """Like :meth:`request` but also returns the response headers."""
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            self.base_url + path, data=data,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read()), dict(response.headers)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)

    def query(self, query: str, **fields):
        return self.request("/query", {"query": query, **fields})

    def batch(self, queries, **fields):
        return self.request("/batch", {"queries": queries, **fields})


@pytest.fixture()
def service_session():
    with Session(documents={"curriculum.xml": CURRICULUM_XML},
                 id_attributes=("code",)) as session:
        yield session


@pytest.fixture()
def client(service_session):
    service = QueryService(session=service_session)
    server = create_server(service)
    serve(server)
    host, port = server.server_address[:2]
    yield ServiceClient(f"http://{host}:{port}")
    server.graceful_shutdown(timeout=5)


class TestEndpoints:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_query_matches_direct_evaluate(self, client, service_session, engine):
        status, body = client.query(TC_QUERY, engine=engine)
        direct = service_session.evaluate(TC_QUERY, engine=engine)
        assert status == 200 and body["ok"] is True
        assert body["engine"] == engine
        assert body["count"] == len(direct.items)
        assert sorted(body["items"]) == sorted(serialize_items(direct.items))

    def test_query_with_variables_and_settings(self, client):
        status, body = client.query("$n + 1", variables={"n": 41},
                                    settings={"optimize": False})
        assert status == 200 and body["items"] == ["42"]

    def test_batch_shares_one_snapshot(self, client):
        status, body = client.batch(
            [{"query": "1 + 1"},
             {"query": TC_QUERY, "engine": "sql"},
             {"query": "syntax error (("}],
            settings={"ifp_algorithm": "naive"})
        assert status == 200 and body["ok"] is True and body["count"] == 3
        first, second, third = body["results"]
        assert first["items"] == ["2"]
        assert second["ok"] is True and second["count"] == 4
        assert third["ok"] is False and "XQuerySyntaxError" in third["error"]

    def test_bad_requests_are_4xx(self, client):
        assert client.query("")[0] == 400
        assert client.request("/query", {"query": "1", "bogus": True})[0] == 400
        assert client.query("doc('nope.xml')")[0] == 422
        assert client.request("/nowhere", {})[0] == 404
        status, body = client.query("1", context="unregistered.xml")
        assert status == 400 and "not registered" in body["error"]

    @pytest.mark.parametrize("misspelt", [{"ifp_algorithm": "nave"},
                                          {"distributivity_checker": "algebric"},
                                          {"distributivity_checker": "algebra"}])
    def test_misspelt_decision_settings_are_bad_settings(self, client, misspelt):
        """Through the bad-settings 4xx path, never a 500 — and never a
        silent default (``nave`` ran Delta, ``algebric`` ran Figure 5)."""
        (name, value), = misspelt.items()
        status, body = client.query(TC_QUERY, settings=misspelt)
        assert status == 400 and body["ok"] is False
        assert "bad settings" in body["error"] and name in body["error"]
        # a batch isolates it per entry, as it does every bad request
        status, body = client.batch([{"query": "1 + 1", "settings": misspelt},
                                     {"query": "1 + 1"}])
        assert status == 200
        assert [entry["ok"] for entry in body["results"]] == [False, True]
        failed = body["results"][0]
        assert failed["status"] == 400 and "bad settings" in failed["error"]
        assert value in failed["error"]

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_the_decision_settings_steer_every_engine(self, client, engine):
        """``ifp_algorithm`` over HTTP: µ on the algebra engine too, also
        right after the other variant of the same module was plan-cached."""
        for algorithm in ("delta", "naive", "delta"):
            status, body = client.query(TC_QUERY, engine=engine, trace=True,
                                        settings={"ifp_algorithm": algorithm})
            assert status == 200 and body["count"] == 4

            def spans(span):
                yield span
                for child in span.get("children", ()):
                    yield from spans(child)

            (fixpoint,) = [span for span in spans(body["trace"])
                           if span["name"] == "fixpoint"]
            assert fixpoint["attributes"]["algorithm"] == algorithm
            if engine == "algebra":
                assert fixpoint["attributes"]["variant"] == (
                    "mu_delta" if algorithm == "delta" else "mu")

    def test_health_and_stats(self, client):
        client.query("1 + 1")
        status, health = client.request("/health")
        assert status == 200 and health["status"] == "ok"
        assert health["documents"] == ["curriculum.xml"]
        status, stats = client.request("/stats")
        assert status == 200
        assert stats["service"]["requests"] >= 1
        assert "interpreter" in stats["service"]["engines"]
        assert "module" in stats["session"] and "sql_pool" in stats["session"]

    def test_query_with_trace_returns_span_tree(self, client):
        status, body = client.query(TC_QUERY, engine="algebra", trace=True)
        assert status == 200 and body["ok"] is True
        tree = body["trace"]
        assert tree["name"] == "query"
        assert tree["attributes"]["engine"] == "algebra"
        names = set()
        stack = [tree]
        while stack:
            node = stack.pop()
            assert set(node) == {"name", "elapsed_ms", "attributes", "children"}
            names.add(node["name"])
            stack.extend(node["children"])
        assert {"parse", "execute", "fixpoint", "round"} <= names
        # tracing is opt-in: the plain response carries no span tree
        status, body = client.query(TC_QUERY, engine="algebra")
        assert status == 200 and "trace" not in body
        # and the field is validated
        status, body = client.query(TC_QUERY, trace="yes")
        assert status == 400 and "boolean" in body["error"]

    def test_metrics_endpoint_serves_prometheus_text(self, client):
        client.query(TC_QUERY, engine="interpreter")
        client.query("syntax error ((")  # counted as an error
        request = urllib.request.Request(client.base_url + "/metrics")
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            text = response.read().decode("utf-8")
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{engine="interpreter"}' in text
        assert 'repro_request_errors_total{engine="interpreter"} 1' in text
        assert "# TYPE repro_request_seconds histogram" in text
        assert "repro_requests_in_flight 0" in text
        assert "repro_uptime_seconds" in text
        assert 'repro_cache_hit_ratio{cache="module"}' in text

    def test_a_malformed_character_reference_is_unprocessable(self, service_session):
        """A typed syntax error — it was a ``ValueError``/``OverflowError`` out
        of the parser, which the handler answers with 500 "internal error" —
        and the in-flight slot is released."""
        service = QueryService(session=service_session)
        for query in ('"&#xZZ;"', '"&#;"', '"&#x110000;"', '"&#-5;"',
                      '<a b="&#99999999999;"/>', "<a>&#xZZ;</a>"):
            with pytest.raises(ServiceError, match="invalid character reference") as error:
                service.handle_query({"query": query})
            assert error.value.status == 422
            assert service.stats.in_flight == 0
        assert service.handle_query({"query": "1 + 1"})["items"] == ["2"]

    def test_handle_query_rejects_non_object(self, service_session):
        service = QueryService(session=service_session)
        with pytest.raises(ServiceError):
            service.handle_query(["not", "an", "object"])


class TestConcurrentClients:
    def test_eight_clients_across_engines(self, client, service_session):
        expected = {engine: serialize_items(
                        service_session.evaluate(TC_QUERY, engine=engine).items)
                    for engine in ALL_ENGINES}

        def one_client(index: int):
            engine = ALL_ENGINES[index % len(ALL_ENGINES)]
            if index % 4 == 3:  # every fourth client sends a batch
                status, body = client.batch(
                    [{"query": TC_QUERY, "engine": engine},
                     {"query": "count(doc('curriculum.xml')//course)"}])
                assert status == 200
                assert body["results"][1]["items"] == ["7"]
                return engine, body["results"][0]["items"]
            status, body = client.query(TC_QUERY, engine=engine)
            assert status == 200
            return engine, body["items"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(one_client, range(24)))
        for engine, items in outcomes:
            assert sorted(items) == sorted(expected[engine]), engine

        status, stats = client.request("/stats")
        assert stats["service"]["requests"] >= 24
        assert stats["service"]["errors"] == 0
        assert stats["service"]["in_flight"] == 0

    def test_mutation_mid_traffic(self, client):
        def closure_codes():
            status, body = client.query(TC_QUERY, engine="sql")
            assert status == 200
            return sorted(code.split('code="')[1].split('"')[0]
                          for code in body["items"])

        with ThreadPoolExecutor(max_workers=4) as pool:
            wave1 = [pool.submit(closure_codes) for _ in range(8)]
            for future in wave1:
                assert future.result() == ["c2", "c3", "c4", "c5"]

            status, body = client.request(
                "/documents", {"uri": "curriculum.xml", "xml": MUTATED_XML,
                               "id_attributes": ["code"]})
            assert status == 200 and body["generation"] >= 2

            wave2 = [pool.submit(closure_codes) for _ in range(8)]
            for future in wave2:
                assert future.result() == ["c2", "c3"]

        status, health = client.request("/health")
        assert health["status"] == "ok" and health["in_flight"] == 0


class TestGracefulShutdown:
    def test_drains_and_closes(self, service_session):
        service = QueryService(session=service_session)
        server = create_server(service)
        serve(server)
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        status, health = client.request("/health")
        assert status == 200 and health["status"] == "ok"
        assert server.graceful_shutdown(timeout=5) is True
        with pytest.raises(OSError):
            client.request("/health")

    def test_cli_entrypoint_is_wired(self):
        import repro.service.server as server_module
        assert callable(server_module.main)


class TestResourceGovernance:
    """PR 8: admission control, per-request deadlines, cancellation."""

    def _serve(self, session, **service_kwargs):
        service = QueryService(session=session, **service_kwargs)
        server = create_server(service)
        serve(server)
        host, port = server.server_address[:2]
        return service, server, ServiceClient(f"http://{host}:{port}")

    def _metrics(self, client):
        with urllib.request.urlopen(client.base_url + "/metrics",
                                    timeout=10) as response:
            return response.read().decode("utf-8")

    def test_request_timeout_maps_to_408_with_structured_body(self, service_session):
        service, server, client = self._serve(service_session)
        try:
            with faults.inject(faults.FaultSpec(point="slow-span", sleep_s=0.15)):
                status, body = client.query(
                    TC_QUERY, timeout_s=0.1,
                    settings={"ifp_algorithm": "naive"})
            assert status == 408
            assert body["ok"] is False
            assert body["error_type"] == "QueryTimeout"
            assert body["timeout_s"] == 0.1
            text = self._metrics(client)
            assert 'repro_query_timeouts_total{engine="interpreter"} 1' in text
            assert "repro_admission_rejections_total 0" in text
            # The worker was reclaimed: a clean follow-up query succeeds.
            status, body = client.query(TC_QUERY)
            assert status == 200 and body["count"] == 4
        finally:
            server.graceful_shutdown(timeout=5)

    def test_max_timeout_clamps_every_request(self, service_session):
        service, server, client = self._serve(service_session, max_timeout_s=0.05)
        try:
            with faults.inject(faults.FaultSpec(point="slow-span", sleep_s=0.1)):
                # No timeout_s at all: the server-wide ceiling still applies.
                status, body = client.query(
                    TC_QUERY, settings={"ifp_algorithm": "naive"})
                assert status == 408 and body["timeout_s"] == 0.05
                # Asking for more than the ceiling is clamped, not honoured.
                status, body = client.query(
                    TC_QUERY, timeout_s=100.0,
                    settings={"ifp_algorithm": "naive"})
                assert status == 408 and body["timeout_s"] == 0.05
        finally:
            server.graceful_shutdown(timeout=5)

    def test_bad_timeout_field_is_400(self, service_session):
        service, server, client = self._serve(service_session)
        try:
            assert client.query(TC_QUERY, timeout_s="soon")[0] == 400
            assert client.query(TC_QUERY, timeout_s=-1)[0] == 400
            assert client.query(TC_QUERY, timeout_s=True)[0] == 400
        finally:
            server.graceful_shutdown(timeout=5)

    def test_budget_exceeded_maps_to_429(self, service_session):
        service, server, client = self._serve(service_session)
        try:
            status, body = client.query(
                TC_QUERY,
                settings={"ifp_algorithm": "naive",
                          "limits": {"max_fixpoint_rounds": 1}})
            assert status == 429
            assert body["error_type"] == "BudgetExceeded"
            assert body["budget"] == "max_fixpoint_rounds"
            assert body["limit"] == 1 and body["observed"] == 2
        finally:
            server.graceful_shutdown(timeout=5)

    def test_saturated_server_rejects_with_503_and_retry_after(self, service_session):
        service, server, client = self._serve(service_session, max_concurrency=1)
        try:
            with faults.inject(faults.FaultSpec(point="slow-span", sleep_s=0.2)):
                slow_result = {}

                def slow():
                    slow_result["response"] = client.query(
                        TC_QUERY, settings={"ifp_algorithm": "naive"})

                thread = threading.Thread(target=slow)
                thread.start()
                time.sleep(0.15)  # let the slow query take the only slot
                status, body, headers = client.request_full(
                    "/query", {"query": "1 + 1"})
                thread.join(timeout=30)
            assert status == 503
            assert body["error_type"] == "Saturated"
            assert headers.get("Retry-After") == "1"
            assert slow_result["response"][0] == 200  # admitted one finished
            assert service.stats.snapshot()["rejections"] == 1
            text = self._metrics(client)
            assert "repro_admission_rejections_total 1" in text
        finally:
            server.graceful_shutdown(timeout=5)

    def test_batch_carries_structured_per_query_errors(self, service_session):
        service, server, client = self._serve(service_session)
        try:
            status, body = client.batch([
                {"query": "1 + 1"},
                {"query": TC_QUERY,
                 "settings": {"ifp_algorithm": "naive",
                              "limits": {"max_fixpoint_rounds": 1}}},
            ])
            assert status == 200
            ok, failed = body["results"]
            assert ok["ok"] is True and ok["items"] == ["2"]
            assert failed["ok"] is False
            assert failed["error_type"] == "BudgetExceeded"
            assert failed["status"] == 429
        finally:
            server.graceful_shutdown(timeout=5)

    def test_graceful_drain_cancels_in_flight_queries(self, service_session):
        from tests.test_limits import ring_query, ring_xml

        # A 60-round fixpoint at 50ms per round (~3s total): long enough
        # that the drain below must cancel it rather than outwait it.
        service_session.register_document("ring.xml", ring_xml(60))
        service, server, client = self._serve(service_session)
        outcome = {}
        with faults.inject(faults.FaultSpec(point="slow-span", sleep_s=0.05)):

            def long_query():
                outcome["response"] = client.query(
                    ring_query(), settings={"ifp_algorithm": "naive"})

            thread = threading.Thread(target=long_query)
            thread.start()
            time.sleep(0.2)  # the query is mid-fixpoint now
            drained = server.graceful_shutdown(timeout=0.05)
            thread.join(timeout=30)
        assert drained is True  # cancellation reclaimed the worker
        status, body = outcome["response"]
        assert status == 503
        assert body["error_type"] == "QueryCancelled"
        assert body["reason"] == "server draining"
        assert service.stats.in_flight == 0

    def test_client_disconnect_cancels_the_evaluation(self, service_session):
        from tests.test_limits import ring_query, ring_xml

        service_session.register_document("ring.xml", ring_xml(60))
        service, server, client = self._serve(service_session)
        try:
            host, port = server.server_address[:2]
            payload = json.dumps({
                "query": ring_query(),
                "settings": {"ifp_algorithm": "naive"},
            }).encode()
            request = (f"POST /query HTTP/1.1\r\nHost: {host}\r\n"
                       f"Content-Type: application/json\r\n"
                       f"Content-Length: {len(payload)}\r\n\r\n"
                       ).encode("ascii") + payload
            with faults.inject(faults.FaultSpec(point="slow-span", sleep_s=0.05)):
                raw = socket.create_connection((host, port), timeout=5)
                raw.sendall(request)
                time.sleep(0.2)   # evaluation is mid-fixpoint
                raw.close()       # hang up without reading the response
                deadline = time.monotonic() + 5.0
                registry = service.stats.registry
                while time.monotonic() < deadline:
                    if registry.value("repro_query_cancellations_total",
                                      engine="interpreter") >= 1:
                        break
                    time.sleep(0.05)
            assert registry.value("repro_query_cancellations_total",
                                  engine="interpreter") == 1
            assert service.stats.in_flight == 0
        finally:
            server.graceful_shutdown(timeout=5)


class TestReadinessAndJournal:
    """The liveness/readiness split and journal-backed registration."""

    def test_ready_endpoint_reports_single_process_defaults(self, client):
        status, body = client.request("/ready")
        assert status == 200 and body["ready"] is True
        assert body["journal_replayed"] is True
        assert body["draining"] is False
        assert body["workers_alive"] == 1 and body["workers_target"] == 1
        assert body["degraded"] is False

    def test_drain_flips_ready_but_not_health(self, service_session):
        service = QueryService(session=service_session)
        server = create_server(service)
        serve(server)
        host, port = server.server_address[:2]
        probe = ServiceClient(f"http://{host}:{port}")
        try:
            service.begin_drain()
            status, health = probe.request("/health")
            assert status == 200 and health["status"] == "ok"
            status, body = probe.request("/ready")
            assert status == 503 and body["draining"] is True
        finally:
            server.graceful_shutdown(timeout=5)

    def test_cluster_status_surfaces_in_health_and_ready(self, service_session):
        service = QueryService(session=service_session)
        service.update_cluster({"workers_alive": 1, "workers_target": 4,
                                "degraded": True})
        health = service.health()
        assert health["status"] == "ok"  # liveness never flips on fleet state
        assert health["degraded"] is True
        status, body = service.ready()
        assert status == 200  # one worker alive is still serving
        assert body["workers_alive"] == 1 and body["workers_target"] == 4
        assert body["degraded"] is True

    def test_journal_gates_readiness_until_replayed(self, tmp_path):
        journal = CorpusJournal(tmp_path / "corpus.journal")
        journal.append(make_record("register", "seed.xml", "<r><a/></r>"))
        with Session() as session:
            service = QueryService(session=session, journal=journal)
            status, body = service.ready()
            assert status == 503 and body["journal_replayed"] is False
            assert service.replay_journal() == 1
            status, body = service.ready()
            assert status == 200 and body["journal_replayed"] is True
            assert session.document_uris() == ["seed.xml"]

    def test_two_services_one_journal_converge(self, tmp_path):
        journal_path = tmp_path / "corpus.journal"
        with Session() as session_a, Session() as session_b:
            service_a = QueryService(session=session_a,
                                     journal=CorpusJournal(journal_path))
            service_b = QueryService(session=session_b,
                                     journal=CorpusJournal(journal_path))
            service_a.replay_journal()
            service_b.replay_journal()

            body = service_a.handle_register(
                {"uri": "d.xml", "xml": "<r><a id='1'/><a id='2'/></r>"})
            assert body["ok"] is True and body["op"] == "register"

            applied = service_b.catch_up_journal()
            assert applied == 1
            result = service_b.handle_query(
                {"query": 'count(doc("d.xml")//a)'})
            assert result["items"] == ["2"]

            # Replacement flows through too, tagged as such.
            body = service_a.handle_register(
                {"uri": "d.xml", "xml": "<r><a id='1'/></r>"})
            assert body["op"] == "replace"
            service_b.catch_up_journal()
            result = service_b.handle_query(
                {"query": 'count(doc("d.xml")//a)'})
            assert result["items"] == ["1"]

    def test_invalid_xml_is_rejected_before_touching_the_journal(self, tmp_path):
        journal = CorpusJournal(tmp_path / "corpus.journal")
        with Session() as session:
            service = QueryService(session=session, journal=journal)
            service.replay_journal()
            with pytest.raises(ServiceError) as excinfo:
                service.handle_register({"uri": "bad.xml", "xml": "<r><un"})
            assert excinfo.value.status == 422
            assert journal.size() == 0  # nothing was appended

    def test_journal_metrics_appear_when_attached(self, tmp_path):
        journal = CorpusJournal(tmp_path / "corpus.journal")
        with Session() as session:
            service = QueryService(session=session, journal=journal)
            service.replay_journal()
            service.handle_register({"uri": "d.xml", "xml": "<r/>"})
            text = service.metrics_text()
            assert "repro_journal_records_total 1" in text
            assert "repro_journal_offset_bytes" in text


# -- raw-socket helpers (PR 20: the reply path and hostile framing) -----------


def raw_request(path: str, body: bytes = b"", content_length: str | None = None) -> bytes:
    """One HTTP/1.1 ``POST`` as bytes; *content_length* overrides the header."""
    if content_length is None:
        content_length = str(len(body))
    return (f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n").encode("ascii") + body


def query_bytes(query: str, path: str = "/query", **fields) -> bytes:
    return raw_request(path, json.dumps({"query": query, **fields}).encode())


def address_of(client: ServiceClient) -> tuple[str, int]:
    host, port = client.base_url.removeprefix("http://").split(":")
    return host, int(port)


def read_reply(stream) -> tuple[int, dict]:
    """The next reply on *stream* (``socket.makefile("rb")``): status, JSON."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    length = 0
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.lower() == "content-length":
            length = int(value)
    return int(status_line.split()[1]), json.loads(stream.read(length))


class CountingConnection:
    """The request socket, counting the calls a look at it makes
    (``select`` asks for ``fileno``, the peek is a ``recv``)."""

    def __init__(self, connection, looks: list[str]):
        self._connection = connection
        self._looks = looks

    def fileno(self):
        self._looks.append("fileno")
        return self._connection.fileno()

    def recv(self, *args):
        self._looks.append("recv")
        return self._connection.recv(*args)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def count_socket_looks(server) -> list[str]:
    """Make *server*'s handlers see their connection through a
    :class:`CountingConnection`; returns the shared list of looks."""
    from repro.service.server import _Handler

    looks: list[str] = []

    class CountingHandler(_Handler):
        def setup(self):
            super().setup()  # rfile and wfile keep the real socket
            self.connection = CountingConnection(self.connection, looks)

    server.RequestHandlerClass = CountingHandler
    return looks


class TestHostileContentLength:
    """``Content-Length`` is the peer's claim: a bad one gets a JSON error
    within 2 s and the connection is closed, never a parked thread."""

    DEADLINE_S = 2.0

    def _exchange(self, client, request: bytes) -> tuple[int, dict, bytes]:
        with socket.create_connection(address_of(client), timeout=self.DEADLINE_S) as raw:
            raw.sendall(request)
            with raw.makefile("rb") as stream:
                status, body = read_reply(stream)
                rest = stream.read()  # returns at EOF: the server closed
        return status, body, rest

    @pytest.mark.parametrize("claimed", ["-1", "abc", "", "1_0", "+5", "1.5"])
    def test_a_length_that_is_no_number_is_400(self, client, claimed):
        status, body, rest = self._exchange(
            client, raw_request("/query", content_length=claimed))
        assert status == 400
        assert body == {"ok": False,
                        "error": "Content-Length must be a non-negative integer"}
        assert rest == b""

    @pytest.mark.parametrize("claimed", [str(64 * 1024 * 1024 + 1), "9" * 5000],
                             ids=["one-over", "more-digits-than-int-converts"])
    def test_a_length_over_the_limit_is_413(self, client, claimed):
        status, body, rest = self._exchange(
            client, raw_request("/query", content_length=claimed))
        assert status == 413
        assert body == {"ok": False, "error": "request body too large"}
        assert rest == b""

    def test_an_unknown_post_path_closes_too(self, client):
        status, body, rest = self._exchange(
            client, raw_request("/nowhere", b'{"query": "1"}'))
        assert status == 404 and "unknown path" in body["error"]
        assert rest == b""

    def test_leading_zeros_and_keep_alive_still_work(self, client):
        payload = json.dumps({"query": "1 + 1"}).encode()
        with socket.create_connection(address_of(client), timeout=self.DEADLINE_S) as raw, \
                raw.makefile("rb") as stream:
            for claimed in (f"000{len(payload)}", str(len(payload))):
                raw.sendall(raw_request("/query", payload, content_length=claimed))
                status, body = read_reply(stream)
                assert status == 200 and body["items"] == ["2"]


class TestBufferedReply:
    """Head and body leave in one write; nothing a client waits for may sit
    in the buffer."""

    def test_expect_100_continue_is_answered_before_the_body_is_read(self, client):
        payload = json.dumps({"query": "1 + 1"}).encode()
        head = (f"POST /query HTTP/1.1\r\nHost: test\r\nExpect: 100-continue\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n").encode("ascii")
        with socket.create_connection(address_of(client), timeout=2) as raw, \
                raw.makefile("rb") as stream:
            raw.sendall(head)  # the body waits for the interim reply
            assert stream.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert stream.readline() == b"\r\n"
            raw.sendall(payload)
            status, body = read_reply(stream)
        assert status == 200 and body["items"] == ["2"]

    def test_head_and_body_arrive_in_one_segment(self, client):
        with socket.create_connection(address_of(client), timeout=2) as raw:
            raw.sendall(query_bytes(TC_QUERY))
            first = raw.recv(65536)
        head, _, body = first.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert json.loads(body)["count"] == 4  # the whole body came with the head


class TestNoThreadPerRequest:
    """The disconnect watch is a polling cancel token, not a thread: same
    cancellation, no per-request thread, no syscall for a short read."""

    def _serve(self, session):
        service = QueryService(session=session)
        server = create_server(service)
        serve(server)
        return service, server

    def _cancellations(self, service, engine="interpreter"):
        return service.stats.registry.value(
            "repro_query_cancellations_total", engine=engine) or 0

    def test_keep_alive_requests_start_no_threads(self, service_session, monkeypatch):
        service, server = self._serve(service_session)
        started: list[str] = []
        original_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            original_start(thread)

        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as raw, \
                    raw.makefile("rb") as stream:
                raw.sendall(query_bytes(TC_QUERY))
                assert read_reply(stream)[0] == 200
                before = threading.active_count()  # the connection's thread is up
                monkeypatch.setattr(threading.Thread, "start", recording_start)
                for _ in range(50):
                    raw.sendall(query_bytes(TC_QUERY))
                    status, body = read_reply(stream)
                    assert status == 200 and body["count"] == 4
                    assert not any(thread.name == "repro-serve-disconnect"
                                   for thread in threading.enumerate())
                monkeypatch.undo()
                assert threading.active_count() == before
            assert started == []
        finally:
            server.graceful_shutdown(timeout=5)

    def test_a_short_query_never_looks_at_the_socket(self, service_session):
        service, server = self._serve(service_session)
        looks = count_socket_looks(server)
        try:
            host, port = server.server_address[:2]
            slowest = 0.0
            with socket.create_connection((host, port), timeout=10) as raw, \
                    raw.makefile("rb") as stream:
                for index, engine in enumerate(ALL_ENGINES * 6):
                    if index == len(ALL_ENGINES):
                        looks.clear()  # the first pass warmed caches and stores
                        slowest = 0.0
                    raw.sendall(query_bytes(TC_QUERY, engine=engine))
                    status, body = read_reply(stream)
                    assert status == 200 and body["count"] == 4
                    slowest = max(slowest, body["elapsed_ms"])
            if slowest >= 25:  # not far inside the first interval
                pytest.skip(f"a warm read took {slowest} ms: too slow a box to tell")
            assert looks == []
        finally:
            server.graceful_shutdown(timeout=5)

    def test_a_long_query_looks_about_every_50_ms(self, service_session):
        service, server = self._serve(service_session)
        looks = count_socket_looks(server)
        try:
            host, port = server.server_address[:2]
            with faults.inject(faults.FaultSpec(point="slow-span", sleep_s=0.03)), \
                    socket.create_connection((host, port), timeout=10) as raw, \
                    raw.makefile("rb") as stream:
                raw.sendall(query_bytes(TC_QUERY, settings={"ifp_algorithm": "naive"}))
                status, body = read_reply(stream)
            assert status == 200 and body["count"] == 4
            # the client neither hung up nor sent more: select only, no peek
            assert looks and set(looks) == {"fileno"}
            assert len(looks) <= (body["elapsed_ms"] + 1.0) / 50.0
            assert self._cancellations(service) == 0
        finally:
            server.graceful_shutdown(timeout=5)

    def test_a_pipelined_request_is_not_a_hang_up(self, service_session):
        service, server = self._serve(service_session)
        looks = count_socket_looks(server)
        try:
            host, port = server.server_address[:2]
            with faults.inject(faults.FaultSpec(point="slow-span", sleep_s=0.04)), \
                    socket.create_connection((host, port), timeout=10) as raw, \
                    raw.makefile("rb") as stream:
                slow = {"ifp_algorithm": "naive"}
                raw.sendall(query_bytes(TC_QUERY, settings=slow))
                time.sleep(0.02)  # the first request is evaluating now
                # written before the first reply is read: pending bytes
                raw.sendall(query_bytes(TC_QUERY, settings=slow, engine="sql"))
                first = read_reply(stream)
                looks_after_first = list(looks)
                second = read_reply(stream)
            assert first[0] == 200 and first[1]["count"] == 4
            assert first[1]["engine"] == "interpreter"
            assert second[0] == 200 and second[1]["count"] == 4
            assert second[1]["engine"] == "sql"
            # the first token saw the pending bytes once and stood down
            assert first[1]["elapsed_ms"] > 100
            assert looks_after_first == ["fileno", "recv"]
            assert self._cancellations(service) == 0
            assert self._cancellations(service, "sql") == 0
        finally:
            server.graceful_shutdown(timeout=5)

    def test_batch_shares_one_token_and_a_disconnect_cancels_it(self, service_session):
        from repro.service.server import _ConnectionToken
        from tests.test_limits import ring_query, ring_xml

        service_session.register_document("ring.xml", ring_xml(60))
        service, server = self._serve(service_session)
        tokens = []
        evaluate = service_session.evaluate

        def recording_evaluate(*args, **kwargs):
            tokens.append(kwargs["cancel_token"])
            return evaluate(*args, **kwargs)

        service_session.evaluate = recording_evaluate
        try:
            host, port = server.server_address[:2]
            payload = json.dumps({"queries": [
                {"query": "1 + 1"},
                {"query": TC_QUERY, "engine": "sql"},
                {"query": ring_query(), "settings": {"ifp_algorithm": "naive"}},
            ]}).encode()
            with faults.inject(faults.FaultSpec(point="slow-span", sleep_s=0.05)):
                raw = socket.create_connection((host, port), timeout=5)
                raw.sendall(raw_request("/batch", payload))
                time.sleep(0.3)   # the third query is mid-fixpoint
                raw.close()       # hang up without reading the response
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and not self._cancellations(service):
                    time.sleep(0.05)
            assert self._cancellations(service) == 1
            assert self._cancellations(service, "sql") == 0
            assert service.stats.in_flight == 0
            assert len(tokens) == 3 and len({id(token) for token in tokens}) == 1
            assert isinstance(tokens[0], _ConnectionToken)
            assert tokens[0].cancelled() and tokens[0].reason == "client disconnected"
        finally:
            del service_session.evaluate
            server.graceful_shutdown(timeout=5)


class TestConnectionToken:
    """The token alone, looking at one end of a socket pair on every call."""

    @pytest.fixture()
    def pair(self, monkeypatch):
        from repro.service.server import _ConnectionToken

        monkeypatch.setattr(_ConnectionToken, "POLL_INTERVAL_S", 0.0)
        ours, peer = socket.socketpair()
        yield _ConnectionToken(ours), ours, peer
        ours.close()
        peer.close()

    def test_an_open_quiet_peer_is_not_cancelled(self, pair):
        token, _, _ = pair
        assert token.cancelled() is False and token.cancelled() is False
        assert token.reason is None

    def test_a_hang_up_trips_once_and_stays(self, pair):
        token, ours, peer = pair
        peer.close()
        assert token.cancelled() is True
        assert token.reason == "client disconnected"
        ours.close()  # nothing looks at the socket any more
        assert token.cancelled() is True
        assert token.reason == "client disconnected"

    def test_pending_bytes_make_the_token_stand_down(self, pair):
        token, ours, peer = pair
        peer.sendall(b"POST /query HTTP/1.1\r\n")
        assert token.cancelled() is False
        peer.close()  # a later hang-up is the handler loop's to find
        assert token.cancelled() is False
        assert ours.recv(4) == b"POST"  # the peek consumed nothing

    def test_a_closed_socket_counts_as_a_hang_up(self, pair):
        token, ours, _ = pair
        ours.close()  # select() raises ValueError on fileno() == -1
        assert token.cancelled() is True
        assert token.reason == "client disconnected"

    def test_a_socket_error_counts_as_a_hang_up(self, pair):
        from repro.service.server import _ConnectionToken

        _, ours, peer = pair
        peer.sendall(b"x")  # readable, so the peek runs

        class Resetting:
            def fileno(self):
                return ours.fileno()

            def recv(self, *args):
                raise ConnectionResetError("reset by peer")

        token = _ConnectionToken(Resetting())
        assert token.cancelled() is True
        assert token.reason == "client disconnected"

    def test_an_outside_cancel_wins_and_keeps_its_reason(self, pair):
        token, _, peer = pair
        token.cancel("server draining")
        peer.close()
        assert token.cancelled() is True
        assert token.reason == "server draining"

    def test_no_look_inside_the_first_interval(self):
        from repro.service.server import _ConnectionToken

        assert _ConnectionToken.POLL_INTERVAL_S == 0.05

        class Untouchable:
            def fileno(self):
                raise AssertionError("looked at the socket")

        token = _ConnectionToken(Untouchable())
        for _ in range(1000):
            assert token.cancelled() is False
