"""Tests for the Session API and EvalSettings (:mod:`repro.session`)."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import random
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import evaluate, evaluate_query
from repro.limits import Governor, ResourceLimits
from repro.observability import TraceContext
from repro.session import PreparedQuery, Session, default_session
from repro.settings import Engine, EvalSettings, coerce_settings
from repro.sqlbackend.shredder import SqlDocumentStore
from repro.xdm.index import clear_index_registry, index_for, watched_trees
from repro.xdm.node import AttributeNode, ElementNode
from repro.xmlio.parser import parse_xml
from repro.xmlio.serializer import serialize
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

    def test_reference_mode_is_the_ledgers_oracle(self):
        """One name for the mode the ledger's ``adhoc`` oracle spells out by
        hand: everything off but the interpreter, Naive everywhere."""
        import sys
        from pathlib import Path
        benchmarks = str(Path(__file__).resolve().parents[1] / "benchmarks")
        sys.path.insert(0, benchmarks)
        try:
            from ledger.inprocess import REFERENCE
        finally:
            sys.path.remove(benchmarks)
        assert EvalSettings.reference() == EvalSettings(**REFERENCE)

    def test_plan_key_normalizes_evaluation_only_fields(self):
        a = EvalSettings(engine="algebra", max_ifp_iterations=7, trace=True)
        b = EvalSettings(engine="interpreter", use_index=False)
        assert a.plan_key() == b.plan_key()
        assert a.plan_key() != a.replace(use_pushdown=False).plan_key()
        # what decides µ or µ∆ is baked into the plan
        assert a.plan_key() != a.replace(ifp_algorithm="naive").plan_key()
        assert a.plan_key() != a.replace(distributivity_checker="algebraic").plan_key()

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


class TestResolvedSettings:
    """``Session.resolve_settings`` keeps what ``evaluate(q, **overrides)``
    resolves, per session settings object and override set."""

    def test_a_repeated_override_set_reuses_its_value(self, session):
        first = session.resolve_settings(None, {"engine": "sql"})
        assert first.engine.value == "sql"
        assert session.resolve_settings(None, {"engine": "sql"}) is first
        assert session.resolve_settings() is session.settings

    def test_new_session_settings_are_resolved_again(self, session):
        first = session.resolve_settings(None, {"engine": "sql"})
        session.settings = EvalSettings(use_index=False)
        again = session.resolve_settings(None, {"engine": "sql"})
        assert again is not first and again.use_index is False

    def test_bad_and_unhashable_overrides(self, session):
        with pytest.raises(ValueError):
            session.resolve_settings(None, {"engine": "nope"})
        with pytest.raises(TypeError):
            session.resolve_settings(None, {"no_such_field": 1})
        limits = ResourceLimits(timeout_s=5.0)
        resolved = session.resolve_settings({"limits": limits}, {"engine": "sql"})
        assert resolved.limits is limits and resolved.engine.value == "sql"


class TestWarmCost:
    """What one warm ``Session.evaluate`` of a ledger closure costs, in
    Python calls (``sys.setprofile`` ``call`` events: a count repeats
    exactly, a timing on a shared box does not), with the module, the
    analysis, the plan and the image memo cached.  Each bound is a share of
    what this harness counted (CPython 3.11) before settings were resolved
    once per override set, per-node decisions kept on the AST, idle hooks
    made callless, the round loop cut to three calls and the
    ``child::name[n]`` / ``@name`` / ``data()`` column kernels added — a
    bound, not an exact pin: CI runs another CPython."""

    #: engine → the earlier count per class, and the share allowed of it
    BEFORE = {
        "interpreter": ({"hospital": 265, "dialogs": 384, "curriculum": 306,
                         "bidder": 461}, 0.70),
        "sql": ({"hospital": 283, "dialogs": 394, "curriculum": 330,
                 "bidder": 471}, 0.75),
        "algebra": ({"hospital": 313, "dialogs": 407, "curriculum": 343,
                     "bidder": 468}, 1.0),
    }

    @pytest.fixture(scope="class")
    def ledger_sessions(self):
        from tests.conftest import benchmark_modules

        corpus, ops, _ = benchmark_modules()
        documents, _ = corpus.build("full")
        scenarios = ops.Scenarios(documents)
        sessions = {}
        for cls in ops.CLOSURE_CLASSES:
            uri = corpus.DOCUMENT_OF[cls]
            session = Session(id_attributes=corpus.ID_ATTRIBUTES)
            session.register_document(
                uri, parse_xml(documents[uri], id_attributes=corpus.ID_ATTRIBUTES))
            start = scenarios.start_nodes(cls, random.Random(7))[0]
            sessions[cls] = (session, ops.closure_text(cls, start))
        yield sessions
        for session, _ in sessions.values():
            session.close()

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("cls", ["hospital", "dialogs", "curriculum", "bidder"])
    def test_a_warm_closure_costs_its_kernels(self, ledger_sessions, cls, engine):
        from tests.conftest import count_calls

        session, text = ledger_sessions[cls]
        for _ in range(3):  # module, analysis, plan, stores and images warm
            session.evaluate(text, engine=engine)
        calls = count_calls(lambda: session.evaluate(text, engine=engine),
                            python_only=True)
        before, share = self.BEFORE[engine]
        assert calls <= share * before[cls], (calls, before[cls])


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

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_in_flight_snapshot_survives_mutation(self, session, engine):
        old_snapshot = session.snapshot()
        session.evaluate(TC_QUERY, engine=engine)  # plan cached, tree shredded
        session.register_document("curriculum.xml", MUTATED_XML,
                                  id_attributes=("code",))
        # A query pinned to the captured snapshot still sees the old corpus…
        old = session.evaluate(TC_QUERY, documents=old_snapshot, engine=engine)
        assert course_codes(old.items) == ["c2", "c3", "c4", "c5"]
        # …while an unpinned query sees the new one…
        new = session.evaluate(TC_QUERY, engine=engine)
        assert course_codes(new.items) == ["c2", "c3"]
        # …and the old snapshot keeps answering from the old document.
        old = session.evaluate(TC_QUERY, documents=old_snapshot, engine=engine)
        assert course_codes(old.items) == ["c2", "c3", "c4", "c5"]

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

    def test_mutation_forgets_the_replaced_tree(self, session):
        # The next SQL read sees the new document; the store itself stays
        # and forgets exactly the replaced tree.
        session.evaluate(TC_QUERY, engine="sql")
        before = session.stats()["sql_pool"]
        session.register_document("curriculum.xml", MUTATED_XML,
                                  id_attributes=("code",))
        result = session.evaluate(TC_QUERY, engine="sql")
        assert course_codes(result.items) == ["c2", "c3"]
        after = session.stats()["sql_pool"]
        assert after["created"] == before["created"]
        assert after["trees_dropped"] == before["trees_dropped"] + 1

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


def _graph_xml(rng: random.Random, label: str, size: int = 7) -> str:
    """A small linked, nested document: ``n`` elements with ``id``/``next``
    (a value-join graph), a ``k`` value and ``n`` children one level down."""
    def node(index: int, nested: bool) -> str:
        inner = "".join(f'<n id="{label}{index}.{j}" k="v{rng.randrange(3)}"/>'
                        for j in range(rng.randrange(3))) if nested else ""
        return (f'<n id="{label}{index}" next="{label}{rng.randrange(size)}" '
                f'k="v{rng.randrange(3)}">{inner}<item>{rng.randrange(4)}</item></n>')
    return f"<g>{''.join(node(index, True) for index in range(size))}</g>"


#: A handful of closure / count / ``//`` queries over a.xml, b.xml, c.xml;
#: every one answers with atomics, so two sessions can be compared.  The
#: first bakes a prolog variable into its algebra plan, the third is a
#: step chain the sql engine runs as a recursive CTE over its shred.
INVARIANCE_QUERIES = [
    'declare variable $d := doc("a.xml"); '
    'data((with $x seeded by $d/g/n[1] recurse $d//n[@id = $x/@next])/@id)',
    'count(doc("b.xml")//n)',
    'data((with $x seeded by doc("c.xml")/g/n recurse $x/n)[@k = "v1"]/@id)',
    'data(doc("c.xml")//n[@k = "v1"][1]/@id)',
    'count(doc("a.xml")//item) + count(doc("c.xml")//n[item = "1"])',
]


class TestReRegistrationInvariance:
    """Whatever happened to the corpus — registrations, replacements,
    removals, in-place value and structure mutations — every engine answers
    like a fresh session over the current documents (ROADMAP item 3's
    relation), and a write costs only what it wrote."""

    @staticmethod
    def _answers(session, engine, **settings):
        return [session.evaluate(query, engine=engine, **settings).items
                for query in INVARIANCE_QUERIES]

    @pytest.mark.parametrize("sql_store", ["memory", "wal"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_engine_answers_like_a_fresh_session(self, sql_store, seed):
        rng = random.Random(seed)
        serial = itertools.count()
        with Session({uri: _graph_xml(rng, uri[0]) for uri in ("a.xml", "b.xml", "c.xml")},
                     sql_store=sql_store) as session:
            def register_new():
                session.register_document(f"extra{next(serial)}.xml", _graph_xml(rng, "e"))

            def replace_a():
                session.register_document("a.xml", _graph_xml(rng, "a"))

            def remove_and_re_add_b():
                session.remove_document("b.xml")
                session.register_document("b.xml", _graph_xml(rng, "b"))

            def set_value_in_c():
                nodes = session.evaluate('doc("c.xml")//n').items
                rng.choice(nodes).get_attribute("k").set_value(f"v{rng.randrange(3)}")

            def append_child_under_c():
                nodes = session.evaluate('doc("c.xml")/g/n').items
                child = ElementNode("n")
                child.add_attribute(AttributeNode("id", f"new{next(serial)}"))
                child.add_attribute(AttributeNode("k", "v1"))
                # (at the very end of the document: order keys are handed out
                # at creation, so only there is creation order document order)
                nodes[-1].append_child(child)

            def only_read():
                pass

            steps = [register_new, replace_a, remove_and_re_add_b, set_value_in_c,
                     append_child_under_c, only_read]
            for _ in range(24):
                rng.choice(steps)()
                snapshot = session.snapshot()
                current = {uri: serialize(snapshot.resolve(uri))
                           for uri in snapshot.known_uris()}
                with Session(current) as fresh:
                    expected = self._answers(fresh, "interpreter", use_cache=False)
                for engine in ALL_ENGINES:
                    assert self._answers(session, engine) == expected, engine

    def test_a_write_costs_only_what_it_wrote(self):
        rng = random.Random(7)
        read_a, read_b = INVARIANCE_QUERIES[0], INVARIANCE_QUERIES[1]
        with Session({uri: _graph_xml(rng, uri[0]) for uri in ("a.xml", "b.xml")},
                     sql_store="wal") as session:
            shred_b = 'count(with $x seeded by doc("b.xml")/g/n recurse $x/n)'
            shred_a = shred_b.replace("b.xml", "a.xml")
            for query in (read_a, read_b):
                session.evaluate(query, engine="algebra")
            session.evaluate(shred_b, engine="sql")
            before = session.stats()
            # A was never shredded: replacing it drops no tree.
            session.register_document("a.xml", _graph_xml(rng, "a"))
            session.evaluate(shred_b, engine="sql")
            session.evaluate(shred_a, engine="sql")
            after = session.stats()
            assert after["sql_pool"]["created"] == before["sql_pool"]["created"] == 1
            assert after["sql_pool"]["trees_dropped"] == before["sql_pool"]["trees_dropped"]
            # Now it is: the next write to A drops A's tree and nothing else.
            session.register_document("a.xml", _graph_xml(rng, "a"))
            session.evaluate(shred_b, engine="sql")
            dropped = session.stats()["sql_pool"]["trees_dropped"]
            assert dropped == after["sql_pool"]["trees_dropped"] + 1
            session.evaluate(shred_a, engine="sql")
            assert session.stats()["sql_pool"]["trees_dropped"] == dropped
            assert session.stats()["sql_pool"]["created"] == 1
            # The plan that reads only B is served; the one that reads A is not.
            plans = session.cache_stats()["plan"]
            session.evaluate(read_b, engine="algebra")
            assert session.cache_stats()["plan"]["hits"] == plans["hits"] + 1
            session.evaluate(read_a, engine="algebra")
            assert session.cache_stats()["plan"]["misses"] == plans["misses"] + 1
            session.evaluate(read_a, engine="algebra")
            assert session.cache_stats()["plan"]["hits"] == plans["hits"] + 2

    def test_a_plan_that_enumerated_the_corpus_depends_on_all_of_it(self):
        # fn:id on algebra resolves in the only document of a one-document
        # corpus: a plan compiled that way cannot name what it depends on.
        with Session({"curriculum.xml": CURRICULUM_XML}, id_attributes=("code",)) as session:
            session.evaluate(TC_QUERY, engine="algebra")
            session.evaluate(TC_QUERY, engine="algebra")
            assert session.cache_stats()["plan"]["hits"] == 1
            session.register_document("notes.xml", "<notes/>")
            from repro.errors import AlgebraError
            with pytest.raises(AlgebraError, match="fn:id"):  # two documents now
                session.evaluate(TC_QUERY, engine="algebra")
            assert session.cache_stats()["plan"]["hits"] == 1

    def test_constructed_trees_do_not_accumulate_in_the_store(self):
        query = "count(with $x seeded by (<a/>, <b><c/></b>) recurse $x/*)"
        with Session({"curriculum.xml": CURRICULUM_XML}, id_attributes=("code",)) as session:
            session.evaluate(TC_QUERY, engine="sql")
            snapshot = session.snapshot()
            store = session._sql_pool.store(snapshot)
            rows, mapped = store.node_count(), len(store._pre_of)
            for round_number in range(200):
                assert session.evaluate(query, engine="sql").items == [1]
                # One acquisition later the two seed trees are gone again.
                assert session._sql_pool.store(snapshot) is store
                assert (store.node_count(), len(store._pre_of)) == (rows, mapped)
            pool = session.stats()["sql_pool"]
            assert pool["trees_dropped"] == 400 and pool["created"] == 1

    def test_a_second_thread_converges_on_its_next_read(self):
        with Session({"curriculum.xml": CURRICULUM_XML}, id_attributes=("code",)) as session, \
                ThreadPoolExecutor(max_workers=1) as other:
            read = lambda: course_codes(  # noqa: E731
                session.evaluate(TC_QUERY, engine="sql").items)
            assert other.submit(read).result() == ["c2", "c3", "c4", "c5"]
            assert read() == ["c2", "c3", "c4", "c5"]
            session.register_document("curriculum.xml", MUTATED_XML,
                                      id_attributes=("code",))
            assert read() == ["c2", "c3"]
            # Each thread's store forgets the replaced tree at its own next
            # acquisition, on its own thread — not before.
            assert session.stats()["sql_pool"]["trees_dropped"] == 1
            assert other.submit(read).result() == ["c2", "c3"]
            pool = session.stats()["sql_pool"]
            assert (pool["trees_dropped"], pool["created"], pool["live_stores"]) == (2, 2, 2)


def _live_elements() -> int:
    # Node has no __weakref__ slot: count instances through the collector.
    return sum(1 for candidate in gc.get_objects() if type(candidate) is ElementNode)


def _leaves(value):
    if isinstance(value, dict):
        for key, inner in value.items():
            yield key
            yield from _leaves(inner)
    elif isinstance(value, (list, tuple, set)):
        for inner in value:
            yield from _leaves(inner)
    else:
        yield value


class TestNothingIsPinned:
    """The change tokens extend no tree's lifetime, and go when their store
    goes — closed, or just dropped; the index's pre-space maps name nodes
    by rank and hold none."""

    BIG_XML = "<big>" + "".join(f'<e id="e{i}"><f>e{i + 1}</f></e>'
                                for i in range(500)) + "</big>"
    CHAIN = 'count(with $x seeded by doc("big.xml")/big recurse $x/*)'
    REFERENCES = ('count(with $x seeded by doc("big.xml")/big/e[@id = "e0"] '
                  'recurse $x/id(./f))')

    def test_after_close_the_documents_are_collectable(self):
        # The registry is bounded: were it full, the index built here would
        # evict an earlier test's tree and free its elements mid-count.
        clear_index_registry()
        gc.collect()
        tokens, elements = watched_trees(), _live_elements()
        session = Session({"big.xml": self.BIG_XML}, sql_store="wal")
        for engine in ALL_ENGINES:
            assert session.evaluate(self.CHAIN, engine=engine).items == [1000]
            assert session.evaluate(self.REFERENCES, engine=engine).items == [499]
        index = index_for(session.snapshot().resolve("big.xml"))
        maps = {"children": index._child_pres, "references": index._idref_targets}
        assert len(index.child_pres_named("f")) == len(index.idref_targets("f")) + 1 == 500
        assert {type(leaf) for leaf in _leaves(maps)} == {str, int}
        del index, maps
        assert watched_trees() == tokens + 1
        assert _live_elements() >= elements + 1001
        session.close()
        del session
        clear_index_registry()  # the (global, bounded) index registry pins its roots
        gc.collect()
        assert watched_trees() == tokens
        assert _live_elements() <= elements

    def test_a_dropped_store_lets_go_of_its_tokens(self):
        gc.collect()
        tokens, elements = watched_trees(), _live_elements()
        document = parse_xml(self.BIG_XML)
        store = SqlDocumentStore()  # never pooled, never closed
        store.shred(document)
        assert watched_trees() == tokens + 1
        del store, document
        gc.collect()
        assert watched_trees() == tokens
        assert _live_elements() <= elements


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
