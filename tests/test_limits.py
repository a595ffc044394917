"""Resource governance: deadlines, budgets, cancellation (PR 8).

The paper's IFP operator only guarantees termination on finite structures,
and even terminating closures over cyclic IDREFS graphs can run long.
These tests drive the :mod:`repro.limits` layer through all three engines:
the cooperative checkpoints of the interpreter, the round-boundary checks
of the fixpoint drivers and algebra µ/µ∆ loops, and the SQLite progress
handler that makes one monster ``WITH RECURSIVE`` statement interruptible.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import faults
from repro.errors import (
    BudgetExceeded,
    FixpointError,
    GovernanceError,
    QueryCancelled,
    QueryTimeout,
    ReproError,
)
from repro.limits import (
    CHECKPOINT_STRIDE,
    CancelToken,
    Deadline,
    Governor,
    ResourceLimits,
)
from repro.session import Session
from repro.settings import EvalSettings
from tests.conftest import CURRICULUM_XML, course_codes

#: Transitive closure through the deliberate c6 ↔ c7 cycle — the shape of
#: query an unbounded graph would keep alive forever.
CYCLIC_QUERY = ('with $x seeded by doc("curriculum.xml")'
                '/curriculum/course[@code="c6"] '
                'recurse $x/id(./prerequisites/pre_code)')

#: Acyclic closure c1 → {c2, c3} → c4 → c5 (several rounds, finite).
CHAIN_QUERY = ('with $x seeded by doc("curriculum.xml")'
               '/curriculum/course[@code="c1"] '
               'recurse $x/id(./prerequisites/pre_code)')

ALL_ENGINES = ["interpreter", "algebra", "sql"]


def ring_xml(n: int) -> str:
    """A ring graph of *n* courses: closure from any node visits all of
    them one new node per round — a predictable long-running fixpoint."""
    courses = "".join(
        f'<course code="c{i}"><prerequisites><pre_code>c{(i + 1) % n}'
        f"</pre_code></prerequisites></course>"
        for i in range(n))
    return ('<?xml version="1.0"?>'
            "<!DOCTYPE curriculum [<!ATTLIST course code ID #REQUIRED>]>"
            f"<curriculum>{courses}</curriculum>")


def chain_xml(n: int) -> str:
    """:func:`ring_xml` cut open after c{n-1}: a closure from c0 adds one
    new node per round for n - 1 rounds, and its body is a CTE on sql."""
    return ring_xml(n).replace(f"<pre_code>c0</pre_code>", "")


def ring_query(uri: str = "ring.xml") -> str:
    return (f'with $x seeded by doc("{uri}")/curriculum/course[@code="c0"] '
            f"recurse $x/id(./prerequisites/pre_code)")


def fallback_ring_query(algorithm: str, uri: str = "ring.xml") -> str:
    """:func:`ring_query` with the body written as a ``for``, so the SQL
    engine cannot emit a CTE and takes its fallback under Delta as well as
    under Naive (one new node per round either way)."""
    return (f'with $x seeded by doc("{uri}")/curriculum/course[@code="c0"] recurse '
            f"(for $y in $x return $y/id(./prerequisites/pre_code)) using {algorithm}")


@pytest.fixture()
def session():
    with Session(documents={"curriculum.xml": CURRICULUM_XML},
                 id_attributes=("code",)) as s:
        yield s


class TestPrimitives:
    def test_resource_limits_defaults_are_unlimited(self):
        limits = ResourceLimits()
        assert limits.unlimited()
        assert not ResourceLimits(timeout_s=1.0).unlimited()
        assert not ResourceLimits(max_memory_kb=1).unlimited()

    def test_resource_limits_is_frozen_and_hashable(self):
        limits = ResourceLimits(timeout_s=1.0)
        with pytest.raises(Exception):
            limits.timeout_s = 2.0
        assert hash(limits) == hash(ResourceLimits(timeout_s=1.0))
        # Hashability is what lets EvalSettings stay a frozen dataclass.
        assert hash(EvalSettings(limits=limits))

    def test_deadline(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired()
        assert 0.0 < deadline.remaining() <= 60.0
        assert Deadline(time.monotonic() - 1.0).expired()

    def test_cancel_token_is_one_shot_and_keeps_first_reason(self):
        token = CancelToken()
        assert not token.cancelled()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled()
        assert token.reason == "first"

    def test_governor_checkpoint_observes_cancel_within_one_stride(self):
        token = CancelToken()
        governor = Governor(ResourceLimits(), token=token)
        governor.checkpoint()  # not cancelled yet, nothing to do
        token.cancel("stop")
        with pytest.raises(QueryCancelled) as info:
            for _ in range(CHECKPOINT_STRIDE + 1):
                governor.checkpoint()
        assert info.value.reason == "stop"

    def test_governor_checkpoint_observes_deadline_within_one_stride(self):
        governor = Governor(ResourceLimits(timeout_s=0.0))
        with pytest.raises(QueryTimeout) as info:
            for _ in range(CHECKPOINT_STRIDE + 1):
                governor.checkpoint()
        assert info.value.timeout_s == 0.0

    def test_governor_round_budgets(self):
        governor = Governor(ResourceLimits(max_fixpoint_rounds=3))
        governor.check_round(3)
        with pytest.raises(BudgetExceeded) as info:
            governor.check_round(4)
        assert info.value.budget == "max_fixpoint_rounds"
        assert info.value.limit == 3 and info.value.observed == 4

        governor = Governor(ResourceLimits(max_frontier_nodes=10))
        with pytest.raises(BudgetExceeded) as info:
            governor.check_round(1, frontier=11)
        assert info.value.budget == "max_frontier_nodes"

        governor = Governor(ResourceLimits(max_result_items=10))
        with pytest.raises(BudgetExceeded) as info:
            governor.check_round(1, result_size=11)
        assert info.value.budget == "max_result_items"

    def test_cancellation_wins_over_expired_deadline(self):
        token = CancelToken()
        token.cancel("drain")
        governor = Governor(ResourceLimits(timeout_s=0.0), token=token)
        assert governor.tripped()
        with pytest.raises(QueryCancelled):
            governor.raise_tripped()

    def test_governance_errors_are_repro_errors(self):
        for kind in (QueryTimeout, BudgetExceeded("x"), QueryCancelled):
            instance = kind if isinstance(kind, Exception) else kind()
            assert isinstance(instance, GovernanceError)
            assert isinstance(instance, ReproError)


class TestEngineTimeouts:
    """A deliberately slow cyclic fixpoint + a deadline → typed timeout,
    on every engine, within ~2× the deadline."""

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_timeout_is_typed_and_prompt(self, session, engine):
        limits = ResourceLimits(timeout_s=0.1)
        # slow-span makes every fixpoint round sleep; forcing Naive on the
        # SQL engine routes it through the driver loop whose rounds hit
        # the injection point (the one-statement CTE path is covered by
        # TestCteTimeout below).
        settings = EvalSettings(engine=engine, limits=limits,
                                ifp_algorithm="naive")
        with faults.inject(faults.FaultSpec(point="slow-span", sleep_s=0.15)):
            started = time.monotonic()
            with pytest.raises(QueryTimeout) as info:
                session.evaluate(CYCLIC_QUERY, settings=settings)
            elapsed = time.monotonic() - started
        assert info.value.timeout_s == 0.1
        assert elapsed < 1.0, f"timeout took {elapsed:.3f}s on {engine}"

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_clean_query_after_timeout_is_unaffected(self, session, engine):
        settings = EvalSettings(engine=engine,
                                limits=ResourceLimits(timeout_s=0.05),
                                ifp_algorithm="naive")
        with faults.inject(faults.FaultSpec(point="slow-span", sleep_s=0.1)):
            with pytest.raises(QueryTimeout):
                session.evaluate(CYCLIC_QUERY, settings=settings)
        result = session.evaluate(CHAIN_QUERY, engine=engine)
        assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]

    def test_ring_closure_times_out_without_faults(self, session):
        """A genuinely long fixpoint (no injected sleeps) is bounded too
        (1600 Naive rounds, about half a second unbounded)."""
        session.register_document("ring.xml", ring_xml(1600))
        settings = EvalSettings(limits=ResourceLimits(timeout_s=0.05),
                                ifp_algorithm="naive")
        started = time.monotonic()
        with pytest.raises(QueryTimeout):
            session.evaluate(ring_query(), settings=settings)
        assert time.monotonic() - started < 2.0


class TestCteTimeout:
    """The SQL engine's single ``WITH RECURSIVE`` statement is interrupted
    by the progress handler — no round boundaries ever happen in Python."""

    def test_progress_handler_interrupts_recursive_cte(self):
        with Session(id_attributes=("code",)) as session:
            session.register_document("ring.xml", ring_xml(8000))
            # Warm the shred with a cheap query so parse/shred time does
            # not eat the deadline of the governed query below.
            session.evaluate('count(doc("ring.xml")/curriculum/course)',
                             engine="sql")
            settings = EvalSettings(engine="sql", ifp_algorithm="delta",
                                    limits=ResourceLimits(timeout_s=0.05))
            started = time.monotonic()
            with pytest.raises(QueryTimeout):
                session.evaluate(ring_query(), settings=settings)
            elapsed = time.monotonic() - started
            assert elapsed < 1.0, f"CTE interrupt took {elapsed:.3f}s"
            # The pooled connection is left clean (handler removed,
            # store usable): the same query without limits completes.
            result = session.evaluate(ring_query(), engine="sql",
                                      ifp_algorithm="delta")
            assert len(result.items) == 8000

    def test_cold_shred_is_interruptible(self):
        """An on-demand shred of a large unseen document honours the
        governor too — without the walk checkpoint a cold shred would run
        to completion before the deadline or a cancellation could fire."""
        with Session(id_attributes=("code",)) as session:
            session.register_document("ring.xml", ring_xml(8000))
            token = CancelToken()
            token.cancel("caller gave up")
            with pytest.raises(QueryCancelled):
                session.evaluate(ring_query(), engine="sql",
                                 ifp_algorithm="delta", cancel_token=token)
            # The interrupted shred rolled back cleanly: the same session
            # re-shreds and completes without limits.
            result = session.evaluate(ring_query(), engine="sql",
                                      ifp_algorithm="delta")
            assert len(result.items) == 8000


class TestBudgets:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_round_budget(self, session, engine):
        settings = EvalSettings(engine=engine, ifp_algorithm="naive",
                                limits=ResourceLimits(max_fixpoint_rounds=1))
        with pytest.raises(BudgetExceeded) as info:
            session.evaluate(CHAIN_QUERY, settings=settings)
        assert info.value.budget == "max_fixpoint_rounds"

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_result_budget(self, session, engine):
        settings = EvalSettings(engine=engine, ifp_algorithm="naive",
                                limits=ResourceLimits(max_result_items=1))
        with pytest.raises(BudgetExceeded) as info:
            session.evaluate(CHAIN_QUERY, settings=settings)
        assert info.value.budget == "max_result_items"

    def test_frontier_budget(self, session):
        settings = EvalSettings(ifp_algorithm="naive",
                                limits=ResourceLimits(max_frontier_nodes=1))
        with pytest.raises(BudgetExceeded) as info:
            session.evaluate(CHAIN_QUERY, settings=settings)
        assert info.value.budget == "max_frontier_nodes"

    def test_generous_budgets_do_not_trip(self, session):
        settings = EvalSettings(
            limits=ResourceLimits(timeout_s=60.0, max_fixpoint_rounds=1000,
                                  max_frontier_nodes=10_000,
                                  max_result_items=10_000))
        result = session.evaluate(CHAIN_QUERY, settings=settings)
        assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]


class TestOneDriverOnEveryEngine:
    """All three engines iterate through the one fixpoint driver, so a
    budget trips in the same round with the same numbers everywhere and
    non-convergence is the same typed error."""

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("algorithm, limits, tripped", [
        # Naive feeds the whole result: six nodes in round 6
        ("naive", {"max_frontier_nodes": 5}, ("max_frontier_nodes", 5, 6)),
        # Delta feeds one new node per round on the ring: never more than 5
        ("delta", {"max_frontier_nodes": 5}, None),
        ("naive", {"max_fixpoint_rounds": 4}, ("max_fixpoint_rounds", 4, 5)),
        ("delta", {"max_fixpoint_rounds": 4}, ("max_fixpoint_rounds", 4, 5)),
        ("naive", {"max_result_items": 8}, ("max_result_items", 8, 9)),
        ("delta", {"max_result_items": 8}, ("max_result_items", 8, 9)),
    ])
    def test_budgets_trip_identically(self, engine, algorithm, limits, tripped):
        query = fallback_ring_query(algorithm)
        with Session(documents={"ring.xml": ring_xml(31)}) as session:
            if engine == "sql":
                # a body the sql engine cannot emit: the driver either way
                trace = session.evaluate(query, engine="sql", trace=True).trace
                assert [span.attributes["path"]
                        for span in trace.find_all("fixpoint")] == ["driver"]
            settings = EvalSettings(engine=engine, limits=ResourceLimits(**limits))
            if tripped is None:
                assert len(session.evaluate(query, settings=settings).items) == 31
                return
            with pytest.raises(BudgetExceeded) as info:
                session.evaluate(query, settings=settings)
            error = info.value
            assert (error.budget, error.limit, error.observed) == tripped

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("limits, tripped", [
        ({"max_fixpoint_rounds": 3}, ("max_fixpoint_rounds", 3, 4)),
        ({"max_result_items": 4}, ("max_result_items", 4, 5)),
        ({"max_frontier_nodes": 0}, ("max_frontier_nodes", 0, 1)),
    ])
    def test_budgets_trip_identically_on_a_cte_body(self, engine, limits, tripped):
        """A body the sql engine runs as one ``WITH RECURSIVE`` statement,
        whose rounds SQLite does not show: a budget sends the run to the
        driver, whose ``fixpoint`` span says why."""
        query = ring_query()
        with Session(documents={"ring.xml": chain_xml(10)}) as session:
            settings = EvalSettings(engine=engine, limits=ResourceLimits(**limits))
            with pytest.raises(BudgetExceeded) as info:
                session.evaluate(query, settings=settings)
            error = info.value
            assert (error.budget, error.limit, error.observed) == tripped
            if engine == "sql":
                unbudgeted = session.evaluate(query, engine="sql", trace=True)
                assert len(unbudgeted.items) == 9
                assert [span.attributes["path"] for span in
                        unbudgeted.trace.find_all("fixpoint")] == ["cte"]
                generous = EvalSettings(engine="sql", trace=True, limits=ResourceLimits(
                    **{name: 100 for name in limits}))
                (span,) = session.evaluate(query, settings=generous).trace.find_all("fixpoint")
                assert (span.attributes["path"], span.attributes["fallback"]) == (
                    "driver", next(iter(limits)))

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_a_cte_body_past_the_iteration_bound_is_a_fixpoint_error(self, engine):
        query = ring_query()
        with Session(documents={"ring.xml": chain_xml(10)}) as session:
            with pytest.raises(FixpointError, match="within 8 iterations"):
                session.evaluate(query, engine=engine, max_ifp_iterations=8)
            # nine rounds: the bound that lets them all run answers
            assert len(session.evaluate(query, engine=engine, max_ifp_iterations=9).items) == 9

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("algorithm", ["naive", "delta"])
    def test_non_convergence_is_a_fixpoint_error(self, engine, algorithm):
        query = fallback_ring_query(algorithm)
        with Session(documents={"ring.xml": ring_xml(10)}) as session:
            with pytest.raises(FixpointError):
                session.evaluate(query, engine=engine, max_ifp_iterations=3)
            # the session is intact: the same closure, unbounded, answers
            assert len(session.evaluate(query, engine=engine).items) == 10


class TestCancellation:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_pre_cancelled_token(self, session, engine):
        token = CancelToken()
        token.cancel("caller changed its mind")
        with pytest.raises(QueryCancelled) as info:
            session.evaluate(CYCLIC_QUERY, engine=engine,
                             ifp_algorithm="naive", cancel_token=token)
        assert info.value.reason == "caller changed its mind"

    def test_mid_flight_cancellation(self, session):
        session.register_document("ring.xml", ring_xml(50))
        token = CancelToken()
        outcome: dict = {}

        def run():
            started = time.monotonic()
            try:
                session.evaluate(ring_query(), ifp_algorithm="naive",
                                 cancel_token=token)
                outcome["result"] = "completed"
            except QueryCancelled as exc:
                outcome["result"] = "cancelled"
                outcome["reason"] = exc.reason
            outcome["elapsed"] = time.monotonic() - started

        with faults.inject(faults.FaultSpec(point="slow-span", sleep_s=0.05)):
            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.1)
            token.cancel("test cancel")
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome["result"] == "cancelled"
        assert outcome["reason"] == "test cancel"
        assert outcome["elapsed"] < 1.0  # 50 rounds × 50ms would be 2.5s

    def test_cancel_token_without_limits_still_works(self, session):
        """A token alone (no ResourceLimits) builds a governor."""
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            session.evaluate(CHAIN_QUERY, cancel_token=token)


class TestRecursionLimitHygiene:
    """Satellite: importing/running the evaluator must not permanently
    change the process-wide ``sys.setrecursionlimit``."""

    def test_limit_restored_after_evaluation(self, session):
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(2500)
        try:
            result = session.evaluate(CHAIN_QUERY)
            assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]
            assert sys.getrecursionlimit() == 2500
        finally:
            sys.setrecursionlimit(before)

    def test_headroom_is_refcounted(self):
        from repro.xquery.evaluator import (
            PYTHON_RECURSION_LIMIT,
            recursion_headroom,
        )

        before = sys.getrecursionlimit()
        sys.setrecursionlimit(2000)
        try:
            with recursion_headroom():
                assert sys.getrecursionlimit() == PYTHON_RECURSION_LIMIT
                with recursion_headroom():
                    assert sys.getrecursionlimit() == PYTHON_RECURSION_LIMIT
                # The inner exit must not restore while the outer holds.
                assert sys.getrecursionlimit() == PYTHON_RECURSION_LIMIT
            assert sys.getrecursionlimit() == 2000
        finally:
            sys.setrecursionlimit(before)

    def test_headroom_respects_external_changes(self):
        from repro.xquery.evaluator import recursion_headroom

        before = sys.getrecursionlimit()
        sys.setrecursionlimit(2000)
        try:
            with recursion_headroom():
                sys.setrecursionlimit(70_000)  # somebody else intervened
            # The holder must not clobber the external change on exit.
            assert sys.getrecursionlimit() == 70_000
        finally:
            sys.setrecursionlimit(before)

    def test_deep_user_function_recursion_still_works(self, session):
        query = ("declare function local:down($n) "
                 "{ if ($n = 0) then 0 else local:down($n - 1) }; "
                 "local:down(450)")
        result = session.evaluate(query)
        assert result.items == [0]


class TestCliGovernanceFlags:
    def test_timeout_flag_exits_3(self, tmp_path, capsys):
        from repro.cli import main

        doc = tmp_path / "curriculum.xml"
        doc.write_text(CURRICULUM_XML)
        with faults.inject(faults.FaultSpec(point="slow-span", sleep_s=0.15)):
            code = main(["-e", CYCLIC_QUERY, "--doc",
                         f"curriculum.xml={doc}", "--id-attribute", "code",
                         "--timeout-s", "0.1"])
        assert code == 3
        assert "QueryTimeout" in capsys.readouterr().err

    def test_round_budget_flag_exits_3(self, tmp_path, capsys):
        from repro.cli import main

        doc = tmp_path / "curriculum.xml"
        doc.write_text(CURRICULUM_XML)
        code = main(["-e", CHAIN_QUERY, "--doc", f"curriculum.xml={doc}",
                     "--id-attribute", "code", "--max-fixpoint-rounds", "1"])
        assert code == 3
        assert "BudgetExceeded" in capsys.readouterr().err

    def test_ungoverned_cli_run_still_works(self, tmp_path, capsys):
        from repro.cli import main

        doc = tmp_path / "curriculum.xml"
        doc.write_text(CURRICULUM_XML)
        code = main(["-e", CHAIN_QUERY, "--doc", f"curriculum.xml={doc}",
                     "--id-attribute", "code"])
        assert code == 0


class TestSettingsPlumbing:
    def test_plan_key_drops_limits(self):
        settings = EvalSettings(limits=ResourceLimits(timeout_s=1.0))
        # Plan-cache keys must not fragment on governance knobs.
        assert settings.plan_key() == EvalSettings().plan_key()

    def test_prepared_query_accepts_cancel_token(self, session):
        prepared = session.prepare(CHAIN_QUERY)
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            prepared(cancel_token=token)
        assert course_codes(prepared().items) == ["c2", "c3", "c4", "c5"]
