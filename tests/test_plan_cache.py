"""Tests for the compiled-plan / parsed-module caches (:mod:`repro.plancache`)."""

from __future__ import annotations

import pytest

from repro.api import clear_query_caches, evaluate, query_cache_stats
from repro.plancache import DocumentsRead, LRUCache, module_cache_safe
from repro.xquery.parser import parse_expression, parse_query


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_query_caches()
    yield
    clear_query_caches()


class TestLRUCache:
    def test_get_put_and_stats(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["size"] == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")       # refresh a
        cache.put("c", 3)    # evicts b
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestCacheSafety:
    def test_constructor_detection(self):
        assert parse_expression("<a>{ 1 }</a>").contains_node_constructor()
        assert parse_expression("element a { 2 }").contains_node_constructor()
        assert not parse_expression("1 + count((1, 2))").contains_node_constructor()

    def test_module_with_constructor_variable_is_unsafe(self):
        unsafe = parse_query('declare variable $v := <a/>; count($v)')
        assert not module_cache_safe(unsafe)
        safe = parse_query('declare variable $v := (1, 2, 3); count($v)')
        assert module_cache_safe(safe)


class TestDocumentsRead:
    """What a compilation asked its resolver for is what its plan depends on."""

    @staticmethod
    def _resolver(**documents):
        from repro.xmlio.parser import parse_xml
        from repro.xquery.context import DocumentResolver

        resolver = DocumentResolver()
        for name, text in documents.items():
            resolver.register(f"{name}.xml", parse_xml(text))
        return resolver

    def test_a_named_document_is_the_whole_dependency(self):
        resolver = self._resolver(a="<a/>", b="<b/>")
        read = DocumentsRead(resolver)
        assert read.resolve("a.xml") is resolver.resolve("a.xml")
        entry = read.cached("plan")
        assert entry.corpus is None and [stamp[0] for stamp in entry.stamps] == ["a.xml"]
        assert entry.serves(resolver)
        # Another corpus holding the same a.xml is served; b.xml never mattered.
        other = self._resolver(b="<b2/>", c="<c/>")
        other.register("a.xml", resolver.resolve("a.xml"))
        assert entry.serves(other)
        other.register("a.xml", self._resolver(a="<a/>").resolve("a.xml"))
        assert not entry.serves(other)          # equal text, another object
        assert not entry.serves(self._resolver(b="<b/>"))  # a.xml gone

    def test_mutations_of_the_document_end_the_entry(self):
        from repro.xdm.document import element

        resolver = self._resolver(a='<a k="1"/>')
        root = resolver.resolve("a.xml").document_element()
        entry = self._entry_reading(resolver, "a.xml")
        root.get_attribute("k").set_value("2")            # value generation
        assert not entry.serves(resolver)
        entry = self._entry_reading(resolver, "a.xml")
        root.append_child(element("child"))               # index identity
        assert not entry.serves(resolver)
        assert self._entry_reading(resolver, "a.xml").serves(resolver)

    @staticmethod
    def _entry_reading(resolver, uri):
        read = DocumentsRead(resolver)
        read.resolve(uri)
        entry = read.cached("plan")
        assert entry.serves(resolver)
        return entry

    def test_enumerating_or_missing_makes_it_the_whole_corpus(self):
        from repro.errors import XQueryDynamicError

        resolver = self._resolver(a="<a/>", b="<b/>")
        enumerated = DocumentsRead(resolver)
        assert enumerated.known_uris() == ["a.xml", "b.xml"]
        missed = DocumentsRead(resolver)
        with pytest.raises(XQueryDynamicError):
            missed.resolve("nowhere.xml")
        for read in (enumerated, missed):
            entry = read.cached("plan")
            assert entry.corpus == ("a.xml", "b.xml") and len(entry.stamps) == 2
            assert entry.serves(resolver)
            grown = self._resolver(c="<c/>")
            for uri in ("a.xml", "b.xml"):
                grown.register(uri, resolver.resolve(uri))
            assert not entry.serves(grown)  # same two documents, one more URI

    def test_a_loader_backed_resolver_is_never_asked_to_load_by_validation(self):
        from repro.xmlio.parser import parse_xml
        from repro.xquery.context import DocumentResolver

        loads = []

        def loader(uri):
            loads.append(uri)
            return parse_xml("<lazy/>")

        resolver = DocumentResolver(loader)
        read = DocumentsRead(resolver)
        document = read.resolve("lazy.xml")
        first = read.cached("plan")
        # Loaded on demand: the plan depends on the corpus as it was (empty),
        # so it is rebuilt once, against the corpus with the document in it.
        assert first.corpus == () and not first.serves(resolver)
        again = DocumentsRead(resolver)
        assert again.resolve("lazy.xml") is document
        assert again.cached("plan").serves(resolver)
        assert not again.cached("plan").serves(DocumentResolver(loader))
        assert loads == ["lazy.xml"]


class TestServingCaches:
    QUERY = 'count(doc("curriculum.xml")//pre_code)'

    def test_module_cache_hit_on_repeat(self, curriculum_resolver):
        first = evaluate(self.QUERY, documents=curriculum_resolver)
        second = evaluate(self.QUERY, documents=curriculum_resolver)
        assert first.items == second.items == [6]
        assert query_cache_stats()["module"]["hits"] >= 1

    def test_plan_cache_hit_for_algebra_engine(self, curriculum_resolver):
        evaluate(self.QUERY, documents=curriculum_resolver, engine="algebra")
        before = query_cache_stats()["plan"]
        result = evaluate(self.QUERY, documents=curriculum_resolver, engine="algebra")
        after = query_cache_stats()["plan"]
        assert result.items == [6]
        assert after["hits"] == before["hits"] + 1

    def test_plan_cache_does_not_leak_across_documents(self):
        from repro.xmlio.parser import parse_xml
        from repro.xquery.context import DocumentResolver

        results = []
        for text in ('<r><a/><a/></r>', '<r><a/></r>'):
            resolver = DocumentResolver()
            resolver.register("doc.xml", parse_xml(text))
            result = evaluate('count(doc("doc.xml")//a)', documents=resolver,
                              engine="algebra")
            results.append(result.items)
        assert results == [[2], [1]]

    def test_plan_cache_invalidated_by_document_mutation(self):
        # Mutating a registered document must not serve a plan whose
        # prolog-variable values were baked in against the old tree: the
        # entry carries the document's structural-index identity, and
        # mutation replaces the index.
        from repro.xdm.document import element
        from repro.xmlio.parser import parse_xml
        from repro.xquery.context import DocumentResolver

        doc = parse_xml("<r><a/><a/></r>")
        resolver = DocumentResolver()
        resolver.register("doc.xml", doc)
        query = 'declare variable $v := count(doc("doc.xml")//a); $v'
        assert evaluate(query, documents=resolver, engine="algebra").items == [2]
        doc.document_element().append_child(element("a"))
        assert evaluate(query, documents=resolver, engine="algebra").items == [3]
        assert evaluate(query, documents=resolver).items == [3]

    def test_absence_of_a_document_is_a_dependency_too(self):
        # The prolog value saw that x.xml does not exist; registering it —
        # a write to a document the plan "never read" — must be noticed.
        from repro.session import Session

        query = 'declare variable $has := doc-available("x.xml"); $has'
        with Session({"d.xml": "<d/>"}) as session:
            assert session.evaluate(query, engine="algebra").items == [False]
            assert session.evaluate(query, engine="algebra").items == [False]
            assert session.cache_stats()["plan"]["hits"] == 1
            session.register_document("x.xml", "<x/>")
            assert session.evaluate(query, engine="algebra").items == [True]

    def test_constructed_nodes_keep_fresh_identities(self, curriculum_resolver):
        # A prolog variable that mints nodes must not be frozen into a
        # cached plan: each evaluation returns a distinct element.
        query = 'declare variable $v := <a>x</a>; $v'
        first = evaluate(query, documents=curriculum_resolver, engine="algebra")
        second = evaluate(query, documents=curriculum_resolver, engine="algebra")
        assert first.items[0] is not second.items[0]
        assert first.string_values() == second.string_values() == ["x"]

    def test_use_cache_false_bypasses_both_caches(self, curriculum_resolver):
        evaluate(self.QUERY, documents=curriculum_resolver, engine="algebra",
                 use_cache=False)
        stats = query_cache_stats()
        assert stats["module"]["size"] == 0
        assert stats["plan"]["size"] == 0

    def test_interpreter_and_cached_algebra_agree(self, curriculum_resolver):
        query = ('(with $x seeded by doc("curriculum.xml")//course[@code = "c1"]'
                 ' recurse $x/id (./prerequisites/pre_code))')
        for _ in range(2):  # second round is fully cache-served
            interpreter = evaluate(query, documents=curriculum_resolver)
            algebra = evaluate(query, documents=curriculum_resolver, engine="algebra")
            assert [id(i) for i in interpreter.items] == [id(i) for i in algebra.items]
