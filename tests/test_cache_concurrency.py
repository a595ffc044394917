"""Thread-safety hammers for the serving caches (:mod:`repro.plancache`).

Before PR 6, ``LRUCache`` mutated a plain ``OrderedDict`` with no lock, so
concurrent ``evaluate()`` calls could corrupt the cache or the hit/miss
counters (``RuntimeError: OrderedDict mutated during iteration``, lost
entries, ``stats()`` torn between two updates).  These tests drive the
cache — directly and through the public API — from many threads at once.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro import faults
from repro.errors import GovernanceError, InjectedFault, ReproError
from repro.limits import CancelToken, ResourceLimits
from repro.observability import Span
from repro.plancache import LRUCache
from repro.service import QueryService
from repro.session import Session
from repro.settings import EvalSettings
from tests.conftest import CURRICULUM_XML, course_codes

THREADS = 8
ROUNDS = 60


def _run_in_threads(worker, count: int = THREADS) -> list:
    """Start *count* threads on *worker* behind a barrier; re-raise errors."""
    barrier = threading.Barrier(count)
    errors: list[BaseException] = []

    def trampoline(index: int) -> None:
        barrier.wait()
        try:
            worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=trampoline, args=(index,))
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return errors


class TestLRUCacheHammer:
    def test_concurrent_get_put_keeps_counters_consistent(self):
        cache = LRUCache(16)
        per_thread = 400

        def worker(index: int) -> None:
            for round_number in range(per_thread):
                key = (index * per_thread + round_number) % 24
                if cache.get(key) is None:
                    cache.put(key, key * 2)
                stats = cache.stats()
                assert stats["size"] <= 16
                assert stats["hits"] >= 0 and stats["misses"] >= 0

        _run_in_threads(worker)
        stats = cache.stats()
        # Every get() recorded exactly one hit or one miss — no lost updates.
        assert stats["hits"] + stats["misses"] == THREADS * per_thread
        assert len(cache) <= 16
        for key in range(24):
            value = cache.get(key)
            assert value is None or value == key * 2

    def test_concurrent_clear_and_put(self):
        cache = LRUCache(8)

        def worker(index: int) -> None:
            for round_number in range(200):
                if index == 0 and round_number % 10 == 0:
                    cache.clear()
                else:
                    cache.put(round_number % 12, index)
                    cache.get(round_number % 12)

        _run_in_threads(worker)
        assert len(cache) <= 8

    def test_rejected_entry_is_a_miss_and_is_dropped(self):
        cache = LRUCache(8)
        cache.put("plan", "old")
        assert cache.get("plan", lambda value: value == "old") == "old"
        assert cache.get("plan", lambda value: value == "new") is None
        assert cache.get("plan") is None  # the rejected entry is gone
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 2, 0)


class TestPlanValidationBetweenThreads:
    """A cached plan bakes in the documents its compilation resolved.  One
    thread replaces the document while seven read it through the plan
    cache: whatever a reader is served — hit or fresh compilation — answers
    from the document *its* resolver holds, never from one replaced since."""

    QUERY = 'doc("d.xml")//item'
    VERSIONS = ['<r><item n="0"/></r>',
                '<r><item n="1"/><item n="1"/></r>',
                '<r><item n="2"/><item n="2"/><item n="2"/></r>']

    def test_a_plan_is_never_served_for_a_replaced_document(self):
        with Session(documents={"d.xml": self.VERSIONS[0]}) as session:
            session.evaluate(self.QUERY, engine="algebra")  # warm: one entry

            def worker(index: int) -> None:
                for round_number in range(ROUNDS):
                    if index == 0:
                        session.register_document(
                            "d.xml", self.VERSIONS[round_number % len(self.VERSIONS)])
                        continue
                    snapshot = session.snapshot()
                    result = session.evaluate(self.QUERY, engine="algebra",
                                              documents=snapshot)
                    document = snapshot.resolve("d.xml")
                    assert result.items, "an empty answer would pass vacuously"
                    assert all(item.document() is document for item in result.items)
                    assert len(result.items) == len(document.document_element().children)

            _run_in_threads(worker)
            # After the last write every thread converges on the last document.
            final = session.snapshot().resolve("d.xml")
            result = session.evaluate(self.QUERY, engine="algebra")
            assert all(item.document() is final for item in result.items)
            plan = session.cache_stats()["plan"]
            assert plan["size"] == 1  # one entry per (module, settings), replaced in place
            assert plan["hits"] + plan["misses"] == (THREADS - 1) * ROUNDS + 2


class TestChangeTokensUnderLoad:
    """Stores on eight threads take and hand back the change tokens of two
    shared trees while a ninth thread keeps mutating one of them, under a
    shortened switch interval.  A lost update to a token's watcher count
    would leave an entry behind (or remove one still watched: a KeyError);
    a lost change would let a store keep a stale tree."""

    def test_tokens_balance_and_no_store_keeps_a_mutated_tree(self):
        import sys

        from repro.sqlbackend.shredder import SqlDocumentStore
        from repro.xdm.index import watched_trees
        from repro.xmlio.parser import parse_xml

        stable = parse_xml("<s><a/><b/></s>")
        edited = parse_xml('<e><a k="0"/></e>')
        attribute = edited.document_element().children[0].get_attribute("k")
        tokens = watched_trees()
        stop = threading.Event()

        def worker(index: int) -> None:
            if index == THREADS:  # the mutator
                value = 0
                while not stop.is_set():
                    value += 1
                    attribute.set_value(str(value))
                return
            try:
                store = SqlDocumentStore()  # connections stay on their thread
                for round_number in range(ROUNDS):
                    store.shred(stable)
                    store.shred(edited)
                    shredded_at = int(store.connection.execute(
                        "SELECT value FROM attr").fetchone()[0])
                    attribute.set_value(str(shredded_at + 1_000_000))
                    # Mutated since: whatever else happened, `edited` must go.
                    assert store.retain([stable, edited]) == 1
                    assert store.doc_id_of(edited) is None
                    assert store.doc_id_of(stable) is not None
                    if round_number % 3 == 0:
                        assert store.retain([]) == 1
                store.close()
            finally:
                if index == 0:
                    stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_in_threads(worker, THREADS + 1)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert watched_trees() == tokens


class TestConcurrentEvaluate:
    QUERIES = [
        ('with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"] '
         'recurse $x/id(./prerequisites/pre_code)',
         ["c2", "c3", "c4", "c5"]),
        ('with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c6"] '
         'recurse $x/id(./prerequisites/pre_code)',
         ["c6", "c7"]),
        ('doc("curriculum.xml")//course[prerequisites/pre_code = "c4"]',
         ["c2"]),
        ('count(doc("curriculum.xml")//pre_code)', [6]),
    ]

    def test_mixed_queries_across_engines_under_load(self):
        with Session(documents={"curriculum.xml": CURRICULUM_XML},
                     id_attributes=("code",)) as session:
            engines = ["interpreter", "algebra", "sql"]

            def worker(index: int) -> None:
                for round_number in range(ROUNDS):
                    query, expected = self.QUERIES[
                        (index + round_number) % len(self.QUERIES)]
                    engine = engines[(index + round_number) % len(engines)]
                    result = session.evaluate(query, engine=engine)
                    got = (course_codes(result.items)
                           if expected and isinstance(expected[0], str)
                           else result.items)
                    assert got == expected, (query, engine)

            _run_in_threads(worker)

            module = session.cache_stats()["module"]
            # Four distinct query texts — every other parse was a cache hit,
            # and no (hit|miss) increment was lost in the stampede.
            assert module["size"] == len(self.QUERIES)
            assert module["hits"] + module["misses"] == THREADS * ROUNDS
            assert module["misses"] >= len(self.QUERIES)
            # Each worker thread got (and kept) exactly one SQLite store.
            assert session.stats()["sql_pool"]["live_stores"] <= THREADS

    def test_metrics_registry_counters_exact_under_load(self):
        """N threads × M queries must read exactly N·M on the registry.

        The registry serializes every mutation under one lock; a lost
        increment (the pre-registry dict-of-ints failure mode) shows up
        here as a count below THREADS × ROUNDS.
        """
        with Session(documents={"curriculum.xml": CURRICULUM_XML},
                     id_attributes=("code",)) as session:
            service = QueryService(session=session)
            engines = ["interpreter", "algebra", "sql"]

            def worker(index: int) -> None:
                for round_number in range(ROUNDS):
                    engine = engines[(index + round_number) % len(engines)]
                    response = service.handle_query(
                        {"query": self.QUERIES[0][0], "engine": engine})
                    assert response["ok"] is True

            _run_in_threads(worker)

            registry = service.stats.registry
            per_engine = [int(registry.value("repro_requests_total", engine=name))
                          for name in engines]
            assert sum(per_engine) == THREADS * ROUNDS
            snapshot = service.stats.snapshot()
            assert snapshot["requests"] == THREADS * ROUNDS
            assert snapshot["errors"] == 0
            assert snapshot["in_flight"] == 0
            assert 1 <= snapshot["peak_in_flight"] <= THREADS
            for name in engines:
                latency = service.stats._latency.labels(engine=name).snapshot()
                assert latency["count"] == int(
                    registry.value("repro_requests_total", engine=name))

    def test_trace_schema_stable_across_engines_under_load(self):
        """Concurrent traced queries return intact per-thread span trees."""
        with Session(documents={"curriculum.xml": CURRICULUM_XML},
                     id_attributes=("code",)) as session:
            engines = ["interpreter", "algebra", "sql"]
            expected = course_codes(session.evaluate(self.QUERIES[0][0]).items)

            def worker(index: int) -> None:
                for round_number in range(ROUNDS // 4):
                    engine = engines[(index + round_number) % len(engines)]
                    result = session.evaluate(self.QUERIES[0][0],
                                              engine=engine, trace=True)
                    assert course_codes(result.items) == expected
                    root = result.trace
                    assert isinstance(root, Span) and root.name == "query"
                    assert root.attributes["engine"] == engine
                    assert root.find("fixpoint") is not None
                    assert root.find("execute") is not None
                    tree = root.to_dict()
                    assert set(tree) == {"name", "elapsed_ms", "attributes",
                                         "children"}

            _run_in_threads(worker)

    def test_chaos_hammer_with_faults_timeouts_and_cancellation(self):
        """PR 8's governance chaos drill: N threads × mixed engines with
        injected faults, tiny deadlines and mid-flight cancellations must
        leave every shared structure consistent.

        Each worker mixes four behaviours, picked deterministically from
        its (thread, round) coordinates: clean queries (result checked),
        queries under an impossible deadline, queries with a raising
        fault armed, and queries cancelled via a pre-fired token.  After
        the storm the caches, generation stamps and the SQLite store pool
        must serve item-identical results on all three engines.
        """
        with Session(documents={"curriculum.xml": CURRICULUM_XML},
                     id_attributes=("code",)) as session:
            engines = ["interpreter", "algebra", "sql"]
            plan = faults.FaultPlan([
                # Every ~7th fixpoint round raises; every other one of the
                # remaining behaviours exercises deadlines/cancellation.
                faults.FaultSpec(point="slow-span", probability=1 / 7),
            ])
            outcomes = {"ok": 0, "fault": 0, "governed": 0}
            tally = threading.Lock()

            def worker(index: int) -> None:
                for round_number in range(ROUNDS):
                    query, expected = self.QUERIES[
                        (index + round_number) % len(self.QUERIES)]
                    engine = engines[(index + round_number) % len(engines)]
                    mode = (index * 31 + round_number) % 4
                    try:
                        if mode == 3:
                            token = CancelToken()
                            token.cancel("chaos")
                            session.evaluate(query, engine=engine,
                                             cancel_token=token)
                        elif mode == 2:
                            session.evaluate(
                                query, engine=engine, ifp_algorithm="naive",
                                settings=EvalSettings(
                                    engine=engine, ifp_algorithm="naive",
                                    limits=ResourceLimits(
                                        max_fixpoint_rounds=1)))
                        else:
                            result = session.evaluate(query, engine=engine)
                            got = (course_codes(result.items)
                                   if expected and isinstance(expected[0], str)
                                   else result.items)
                            assert got == expected, (query, engine)
                            with tally:
                                outcomes["ok"] += 1
                    except InjectedFault:
                        with tally:
                            outcomes["fault"] += 1
                    except GovernanceError:
                        with tally:
                            outcomes["governed"] += 1
                    except ReproError:
                        # Injected round faults may also surface through
                        # engine-specific wrappers; typed is what matters.
                        with tally:
                            outcomes["fault"] += 1

            previous = faults.activate(plan)
            try:
                _run_in_threads(worker)
            finally:
                faults.activate(previous)

            assert outcomes["ok"] > 0
            assert outcomes["governed"] > 0
            # Aftermath: with the chaos disarmed, every engine answers
            # every query correctly from the same warm session.
            for query, expected in self.QUERIES:
                reference = None
                for engine in engines:
                    result = session.evaluate(query, engine=engine)
                    got = (course_codes(result.items)
                           if expected and isinstance(expected[0], str)
                           else result.items)
                    assert got == expected, (query, engine)
                    if reference is None:
                        reference = got
                    assert got == reference
            # The pool never leaked a store and the counters stayed sane.
            pool = session.stats()["sql_pool"]
            assert pool["live_stores"] <= THREADS + 1
            module = session.cache_stats()["module"]
            assert module["size"] <= len(self.QUERIES)

    def test_prepared_query_shared_between_threads(self):
        with Session(documents={"curriculum.xml": CURRICULUM_XML},
                     id_attributes=("code",),
                     settings=EvalSettings(engine="algebra")) as session:
            prepared = session.prepare(self.QUERIES[0][0])

            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                results = list(pool.map(lambda _: prepared(), range(32)))
            for result in results:
                assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]
            plan = session.cache_stats()["plan"]
            assert plan["hits"] >= 32 - THREADS  # at most one compile per thread
