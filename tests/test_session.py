"""Tests for the Session API and EvalSettings (:mod:`repro.session`)."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.api import evaluate, evaluate_query
from repro.limits import Governor, ResourceLimits
from repro.observability import TraceContext
from repro.session import PreparedQuery, Session, default_session
from repro.settings import Engine, EvalSettings, coerce_settings
from repro.xquery.context import StaticContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_query
from tests.conftest import CURRICULUM_XML, course_codes

TC_QUERY = ('with $x seeded by doc("curriculum.xml")'
            '/curriculum/course[@code="c1"] '
            'recurse $x/id(./prerequisites/pre_code)')

#: The c2 course with its prerequisite dropped — a corpus mutation that
#: changes the transitive closure (c4/c5 no longer reachable from c1).
MUTATED_XML = CURRICULUM_XML.replace(
    '<course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>',
    '<course code="c2"><prerequisites/></course>')

ALL_ENGINES = ["interpreter", "algebra", "sql"]


@pytest.fixture()
def session():
    with Session(documents={"curriculum.xml": CURRICULUM_XML},
                 id_attributes=("code",)) as session:
        yield session


class TestEvalSettings:
    def test_frozen_and_hashable(self):
        settings = EvalSettings(engine="sql")
        with pytest.raises(dataclasses.FrozenInstanceError):
            settings.engine = Engine.ALGEBRA
        assert settings == EvalSettings(engine=Engine.SQL)
        assert hash(settings) == hash(EvalSettings(engine=Engine.SQL))

    def test_engine_strings_are_coerced(self):
        assert EvalSettings(engine="algebra").engine is Engine.ALGEBRA
        with pytest.raises(ValueError):
            EvalSettings(engine="cobol")

    def test_one_settings_type_without_superseded_fields(self):
        """Tracing superseded ``profile`` and ``collect_statistics``."""
        names = {f.name for f in dataclasses.fields(EvalSettings)}
        assert not names & {"profile", "collect_statistics"}
        assert StaticContext().settings == EvalSettings()

    def test_plan_key_normalizes_evaluation_only_fields(self):
        a = EvalSettings(engine="algebra", ifp_algorithm="naive", trace=True)
        b = EvalSettings(engine="interpreter", use_index=False)
        assert a.plan_key("columnar") == b.plan_key("columnar")
        assert a.plan_key("columnar") != a.plan_key("row")
        assert (a.plan_key("columnar")
                != a.replace(use_pushdown=False).plan_key("columnar"))

    def test_coerce_settings_accepts_mappings(self):
        base = EvalSettings(engine="sql")
        merged = coerce_settings({"use_index": False}, base)
        assert merged.engine is Engine.SQL and merged.use_index is False
        assert coerce_settings(None, base) is base
        with pytest.raises(TypeError):
            coerce_settings(42)

    def test_coerce_settings_applies_overrides_last(self):
        """base < settings= < field overrides."""
        resolved = coerce_settings({"use_index": False}, EvalSettings(engine="sql"),
                                   engine="interpreter")
        assert resolved.engine is Engine.INTERPRETER
        assert resolved.use_index is False

    def test_evaluate_overrides_work_without_warning(self, curriculum_resolver):
        """The module-level spelling is Session.evaluate's, not deprecated."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = evaluate(TC_QUERY, documents=curriculum_resolver,
                              engine="sql", use_index=False)
            parsed = evaluate_query(parse_query(TC_QUERY),
                                    documents=curriculum_resolver,
                                    engine="algebra", ifp_algorithm="naive")
        assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]
        assert course_codes(parsed.items) == ["c2", "c3", "c4", "c5"]

    def test_unknown_override_name_is_a_type_error(self, curriculum_resolver, session):
        with pytest.raises(TypeError, match="profile"):
            evaluate("1", documents=curriculum_resolver, profile=True)
        with pytest.raises(TypeError, match="no_such_knob"):
            session.evaluate("1", no_such_knob=1)
        with pytest.raises(TypeError):
            session.prepare("1").run(settings={"collect_statistics": False})


class TestTypedLiveSlots:
    """``trace``/``governor`` reach the engines only as the live objects."""

    def test_static_context_rejects_stand_ins(self):
        with pytest.raises(TypeError, match="TraceContext"):
            StaticContext(trace=True)
        with pytest.raises(TypeError, match="Governor"):
            StaticContext(governor=ResourceLimits(timeout_s=1.0))

    @pytest.mark.parametrize("engine", ["interpreter", "sql"])
    def test_session_installs_the_live_objects(self, session, monkeypatch, engine):
        seen = []
        original = Evaluator.evaluate_module

        def spy(self, module, context):
            seen.append(context.static)
            return original(self, module, context)

        monkeypatch.setattr(Evaluator, "evaluate_module", spy)
        settings = EvalSettings(engine=engine, trace=True,
                                limits=ResourceLimits(timeout_s=30.0))
        session.evaluate("1 + 1", settings=settings)
        session.evaluate("1 + 1", engine=engine)
        governed, plain = seen
        assert governed.settings is settings
        assert isinstance(governed.trace, TraceContext)
        assert isinstance(governed.governor, Governor)
        assert governed.governor.limits is settings.limits
        assert plain.trace is None and plain.governor is None


class TestSessionEvaluate:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_matches_module_level_evaluate(self, session, curriculum_resolver,
                                           engine):
        direct = evaluate(TC_QUERY, documents=curriculum_resolver,
                          settings=EvalSettings(engine=engine))
        via_session = session.evaluate(TC_QUERY, engine=engine)
        assert (course_codes(via_session.items) == course_codes(direct.items)
                == ["c2", "c3", "c4", "c5"])

    def test_settings_resolution_order(self, session):
        """session defaults < settings= < field overrides."""
        session.settings = EvalSettings(engine="sql")
        def engine_of(**kwargs):
            return session.evaluate("1 + 1", trace=True, **kwargs).trace.attributes["engine"]

        assert engine_of() == "sql"
        assert engine_of(settings={"engine": "algebra"}) == "algebra"
        assert engine_of(settings={"engine": "algebra"}, engine="interpreter") == "interpreter"

    def test_module_cache_serves_repeat_queries(self, session):
        session.evaluate(TC_QUERY)
        before = session.cache_stats()["module"]
        session.evaluate(TC_QUERY)
        after = session.cache_stats()["module"]
        assert after["hits"] == before["hits"] + 1

    def test_plan_cache_keys_on_settings(self, session):
        session.evaluate(TC_QUERY, engine="algebra")
        before = session.cache_stats()["plan"]
        session.evaluate(TC_QUERY, engine="algebra")
        hit = session.cache_stats()["plan"]
        assert hit["hits"] == before["hits"] + 1
        # A different plan-shaping knob must compile its own plan.
        session.evaluate(TC_QUERY, engine="algebra", use_pushdown=False)
        miss = session.cache_stats()["plan"]
        assert miss["hits"] == hit["hits"]
        assert miss["misses"] == hit["misses"] + 1

    def test_sessions_are_isolated(self, session):
        other = Session(documents={"curriculum.xml": MUTATED_XML},
                        id_attributes=("code",))
        try:
            session.evaluate(TC_QUERY)
            assert len(other.cache_stats()["module"]) == 0 or True
            ours = session.evaluate(TC_QUERY)
            theirs = other.evaluate(TC_QUERY)
            assert course_codes(ours.items) == ["c2", "c3", "c4", "c5"]
            assert course_codes(theirs.items) == ["c2", "c3"]
        finally:
            other.close()

    def test_variables_and_context_item(self, session):
        result = session.evaluate("$n * 2", variables={"n": 21})
        assert result.items == [42]
        doc = session.snapshot().resolve("curriculum.xml")
        result = session.evaluate("count(./curriculum/course)", context_item=doc)
        assert result.items == [7]


class TestPreparedQuery:
    def test_prepare_skips_reparse(self, session):
        prepared = session.prepare(TC_QUERY)
        assert isinstance(prepared, PreparedQuery)
        before = session.cache_stats()["module"]
        first = prepared()
        second = prepared.run()
        after = session.cache_stats()["module"]
        assert course_codes(first.items) == course_codes(second.items)
        # Runs never touch the parser: module cache traffic is unchanged.
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]

    def test_prepared_algebra_run_hits_plan_cache(self, session):
        prepared = session.prepare(TC_QUERY, engine="algebra")
        prepared()
        before = session.cache_stats()["plan"]
        prepared()
        after = session.cache_stats()["plan"]
        assert after["hits"] == before["hits"] + 1

    def test_per_run_overrides(self, session):
        prepared = session.prepare("$n + 1")
        assert prepared(variables={"n": 1}).items == [2]
        assert prepared(variables={"n": 2}, engine="interpreter").items == [3]


class TestSnapshotSemantics:
    def test_register_document_bumps_generation(self, session):
        generation = session.generation
        new_generation = session.register_document("curriculum.xml", MUTATED_XML,
                                                   id_attributes=("code",))
        assert new_generation == generation + 1
        assert session.generation == new_generation

    def test_in_flight_snapshot_survives_mutation(self, session):
        old_snapshot = session.snapshot()
        session.register_document("curriculum.xml", MUTATED_XML,
                                  id_attributes=("code",))
        # A query pinned to the captured snapshot still sees the old corpus…
        old = session.evaluate(TC_QUERY, documents=old_snapshot)
        assert course_codes(old.items) == ["c2", "c3", "c4", "c5"]
        # …while an unpinned query sees the new one.
        new = session.evaluate(TC_QUERY)
        assert course_codes(new.items) == ["c2", "c3"]

    def test_mutation_invalidates_plan_cache(self, session):
        session.evaluate(TC_QUERY, engine="algebra")
        session.evaluate(TC_QUERY, engine="algebra")
        assert session.cache_stats()["plan"]["hits"] >= 1
        session.register_document("curriculum.xml", MUTATED_XML,
                                  id_attributes=("code",))
        result = session.evaluate(TC_QUERY, engine="algebra")
        assert course_codes(result.items) == ["c2", "c3"]

    def test_remove_document(self, session):
        session.remove_document("curriculum.xml")
        assert session.document_uris() == []
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            session.evaluate(TC_QUERY)


class TestSqlStorePool:
    def test_store_reused_within_a_thread(self, session):
        session.evaluate(TC_QUERY, engine="sql")
        created = session.stats()["sql_pool"]["created"]
        session.evaluate(TC_QUERY, engine="sql")
        assert session.stats()["sql_pool"]["created"] == created

    def test_mutation_rebuilds_the_store(self, session):
        session.evaluate(TC_QUERY, engine="sql")
        created = session.stats()["sql_pool"]["created"]
        session.register_document("curriculum.xml", MUTATED_XML,
                                  id_attributes=("code",))
        result = session.evaluate(TC_QUERY, engine="sql")
        assert course_codes(result.items) == ["c2", "c3"]
        assert session.stats()["sql_pool"]["created"] == created + 1

    def test_wal_mode_stores(self, tmp_path):
        with Session(documents={"curriculum.xml": CURRICULUM_XML},
                     id_attributes=("code",),
                     sql_store="wal", sql_store_dir=str(tmp_path)) as session:
            result = session.evaluate(TC_QUERY, engine="sql")
            assert course_codes(result.items) == ["c2", "c3", "c4", "c5"]
            pool = session.stats()["sql_pool"]
            assert pool["mode"] == "wal" and pool["live_stores"] == 1
            assert any(path.name.startswith("store-")
                       for path in tmp_path.iterdir())


class TestDefaultSession:
    def test_module_level_evaluate_uses_default_session(self, curriculum_resolver):
        session = default_session()
        assert default_session() is session
        before = session.cache_stats()["module"]["misses"]
        evaluate("2 + 2", documents=curriculum_resolver)
        assert session.cache_stats()["module"]["misses"] >= before

    def test_close_is_idempotent(self):
        session = Session()
        session.close()
        session.close()
