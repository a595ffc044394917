"""Fault-injection harness (PR 8): every injected failure must surface as
a typed error — never a hung worker, a poisoned cache or a corrupted
SQLite store."""

from __future__ import annotations

import sqlite3

import pytest

from repro import faults
from repro.errors import InjectedFault, ReproError, SqlBackendError
from repro.faults import FaultPlan, FaultSpec, parse_plan, plan_from_env
from repro.session import Session
from tests.conftest import CURRICULUM_XML, course_codes

CHAIN_QUERY = ('with $x seeded by doc("curriculum.xml")'
               '/curriculum/course[@code="c1"] '
               'recurse $x/id(./prerequisites/pre_code)')
CHAIN_CODES = ["c2", "c3", "c4", "c5"]


@pytest.fixture()
def session():
    with Session(documents={"curriculum.xml": CURRICULUM_XML},
                 id_attributes=("code",)) as s:
        yield s


class TestSpecMechanics:
    def test_unknown_point_is_rejected_loudly(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultPlan([FaultSpec(point="sqlite-exeucte")])  # typo

    def test_probability_gate_is_deterministic(self):
        spec = FaultSpec(point="slow-span", probability=0.25)
        fired = [spec.should_fire() for _ in range(100)]
        assert sum(fired) == 25
        # Identical spec, identical firing pattern — no randomness.
        again = FaultSpec(point="slow-span", probability=0.25)
        assert [again.should_fire() for _ in range(100)] == fired

    def test_after_and_limit(self):
        spec = FaultSpec(point="slow-span", after=3, limit=2)
        fired = [spec.should_fire() for _ in range(10)]
        assert fired == [False, False, False, True, True,
                         False, False, False, False, False]

    def test_trigger_is_inert_without_a_plan(self):
        assert faults.active_plan() is None
        faults.trigger("slow-span")  # must be a no-op, not an error

    def test_inject_restores_previous_plan(self):
        outer = FaultPlan([FaultSpec(point="slow-span", sleep_s=0.0)])
        previous = faults.activate(outer)
        try:
            with faults.inject(FaultSpec(point="index-build")) as inner:
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        finally:
            faults.activate(previous)

    def test_parse_plan_syntax(self):
        plan = parse_plan("slow-span:sleep=0.05;"
                          "sqlite-execute:error,probability=0.5,after=2,limit=9")
        slow = plan.spec_for("slow-span")
        assert slow.sleep_s == 0.05 and slow.probability == 1.0
        sql = plan.spec_for("sqlite-execute")
        assert sql.sleep_s is None and sql.probability == 0.5
        assert sql.after == 2 and sql.limit == 9

    def test_parse_plan_rejects_unknown_options(self):
        with pytest.raises(ValueError, match="unknown fault option"):
            parse_plan("slow-span:slep=0.05")

    def test_plan_from_env(self):
        assert plan_from_env({}) is None
        assert plan_from_env({"REPRO_FAULTS": ""}) is None
        plan = plan_from_env({"REPRO_FAULTS": "index-build"})
        assert plan.spec_for("index-build") is not None


class TestSessionActivation:
    def test_session_arms_and_disarms_its_plan(self):
        with Session(documents={"curriculum.xml": CURRICULUM_XML},
                     id_attributes=("code",),
                     faults="index-build") as s:
            plan = faults.active_plan()
            assert plan is not None
            with pytest.raises(InjectedFault):
                s.evaluate(CHAIN_QUERY)
            assert plan.fired("index-build") >= 1
        assert faults.active_plan() is None

    def test_session_accepts_a_plan_object(self):
        plan = FaultPlan([FaultSpec(point="slow-span", sleep_s=0.0)])
        with Session(documents={"curriculum.xml": CURRICULUM_XML},
                     id_attributes=("code",), faults=plan):
            assert faults.active_plan() is plan
        assert faults.active_plan() is None


class TestInjectionPoints:
    def test_sqlite_execute_default_fault_is_typed(self, session):
        with faults.inject(FaultSpec(point="sqlite-execute")) as plan:
            with pytest.raises(InjectedFault) as info:
                session.evaluate(CHAIN_QUERY, engine="sql")
            assert info.value.point == "sqlite-execute"
            assert plan.fired("sqlite-execute") == 1
        # The pooled store survived: the same query runs clean.
        result = session.evaluate(CHAIN_QUERY, engine="sql")
        assert course_codes(result.items) == CHAIN_CODES

    def test_sqlite_native_error_maps_to_backend_error(self, session):
        spec = FaultSpec(point="sqlite-execute",
                         error=lambda: sqlite3.OperationalError("disk I/O error"))
        with faults.inject(spec):
            with pytest.raises(SqlBackendError, match="disk I/O error"):
                session.evaluate(CHAIN_QUERY, engine="sql")
        result = session.evaluate(CHAIN_QUERY, engine="sql")
        assert course_codes(result.items) == CHAIN_CODES

    def test_shredder_fault_does_not_poison_the_store(self, session):
        with faults.inject(FaultSpec(point="shredder-load", after=5, limit=1)):
            with pytest.raises(InjectedFault):
                session.evaluate(CHAIN_QUERY, engine="sql")
        # The failed shred rolled back and unstaged its node↔pre mappings:
        # the retry re-shreds from scratch and answers correctly.
        result = session.evaluate(CHAIN_QUERY, engine="sql")
        assert course_codes(result.items) == CHAIN_CODES
        count = session.evaluate(
            'count(doc("curriculum.xml")//course)', engine="sql")
        assert count.items == [7]

    def test_shredder_fault_releases_the_change_token_it_took(self):
        from repro.sqlbackend.shredder import SqlDocumentStore
        from repro.xdm.index import watched_trees
        from repro.xmlio.parser import parse_xml

        store = SqlDocumentStore()
        kept = parse_xml("<kept><a/><b/></kept>")
        store.shred(kept)
        tokens, version = watched_trees(), store.version
        state = (store.node_count(), dict(store._pre_of), dict(store._trees))
        document = parse_xml(CURRICULUM_XML)
        with faults.inject(FaultSpec(point="shredder-load", after=5, limit=1)):
            with pytest.raises(InjectedFault):
                store.shred(document)
        # Mid-shred failure: rows, mappings, version and token table as before.
        assert (store.node_count(), store._pre_of, store._trees) == state
        assert (watched_trees(), store.version) == (tokens, version)
        assert store.doc_id_of(document) is None
        store.shred(document)
        assert watched_trees() == tokens + 1
        store.close()
        assert watched_trees() == tokens - 1

    def test_index_build_fault_leaves_registry_clean(self, session):
        with faults.inject(FaultSpec(point="index-build")):
            with pytest.raises(InjectedFault):
                session.evaluate(CHAIN_QUERY)
        result = session.evaluate(CHAIN_QUERY)
        assert course_codes(result.items) == CHAIN_CODES

    def test_slow_span_fires_once_per_round(self, session):
        with faults.inject(FaultSpec(point="slow-span", sleep_s=0.0)) as plan:
            session.evaluate(CHAIN_QUERY, ifp_algorithm="naive")
            rounds_fired = plan.fired("slow-span")
        assert rounds_fired >= 3  # the c1 chain converges in several rounds

    @pytest.mark.parametrize("engine", ["interpreter", "algebra", "sql"])
    def test_faults_surface_as_repro_errors_on_every_engine(self, session,
                                                            engine):
        """No engine lets an injected fault escape untyped (the service
        maps ReproError subclasses to structured HTTP statuses)."""
        spec = FaultSpec(point="index-build" if engine == "interpreter"
                         else "sqlite-execute" if engine == "sql"
                         else "slow-span", sleep_s=None)
        if spec.point == "slow-span":
            # The algebra engine's µ loop hits slow-span; make it raise.
            spec = FaultSpec(point="slow-span")
        # sqlite-execute fires before a WITH RECURSIVE statement; forced
        # Naive runs no statement (the shared driver never touches SQLite).
        algorithm = "auto" if engine == "sql" else "naive"
        with faults.inject(spec):
            try:
                session.evaluate(CHAIN_QUERY, engine=engine,
                                 ifp_algorithm=algorithm)
            except ReproError:
                pass  # typed — exactly what the robustness contract wants
            else:  # pragma: no cover - failure path
                pytest.fail(f"fault did not surface on {engine}")
        result = session.evaluate(CHAIN_QUERY, engine=engine)
        assert course_codes(result.items) == CHAIN_CODES


class TestFiringApi:
    """:func:`faults.firing` — the hook for points whose effect is not
    "sleep or raise" (SIGKILL yourself, corrupt bytes on disk)."""

    def test_firing_returns_the_spec_and_consumes_a_firing(self):
        with faults.inject(FaultSpec("worker-kill", limit=1)) as plan:
            spec = faults.firing("worker-kill")
            assert spec is not None and spec.point == "worker-kill"
            assert faults.firing("worker-kill") is None  # limit exhausted
            assert plan.fired("worker-kill") == 1

    def test_firing_respects_after_gate(self):
        with faults.inject(FaultSpec("journal-corrupt", after=2)):
            assert faults.firing("journal-corrupt") is None
            assert faults.firing("journal-corrupt") is None
            assert faults.firing("journal-corrupt") is not None

    def test_firing_is_inert_without_a_plan(self):
        assert faults.active_plan() is None
        assert faults.firing("worker-kill") is None

    def test_supervision_points_are_registered(self):
        for point in ("worker-kill", "worker-hang", "journal-corrupt"):
            assert point in faults.POINTS
        with pytest.raises(ValueError):
            FaultPlan([FaultSpec("worker-implode")])
