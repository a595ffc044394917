"""Compiled-plan caching for the repeated-evaluation serving path.

Production traffic overwhelmingly re-runs the same query texts against
long-lived documents, so :func:`repro.api.evaluate` keeps two process-wide
LRU caches:

* the **module cache** — query text → parsed (and optionally optimized)
  :class:`~repro.xquery.ast.Module`, shared by every engine: a warm hit
  skips lexing, parsing and the AST rewrites entirely;
* the **plan cache** — ``(module, engine knobs)`` → compiled algebra plan,
  so the algebra engine also skips compilation and prolog-variable
  evaluation.

A plan bakes in the documents its compilation resolved — the
``DocumentRoot`` of every literal ``doc("…")``, the values of prolog and
hoisted variables — and can observe no other.  So an entry
(:class:`CachedPlan`) carries exactly those, recorded by the resolver the
compilation was handed (:class:`DocumentsRead`), each as ``(uri, document,
structural index, value generation)``, pinned by strong reference (``id()``
reuse after garbage collection is harmless), and is served only to a
resolver under which every one of them is still *the same object,
unmutated*: replacing or mutating a document costs the plans that read it
and no other.  A compilation that could not name its documents — it
enumerated the corpus (the one-document ``fn:id`` default), asked for a URI
the resolver did not hold (absent, or loaded on demand) — depends on the
whole corpus: the URI set and every document in it.  Plans whose prolog
variables construct nodes are never cached: re-running such a declaration
must mint fresh node identities (see :func:`contains_constructor`).

The AST and plans are immutable once built (evaluation state lives in the
per-run engine objects), which is what makes sharing across calls sound:
Table 2 evaluates one cached module once per seed.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from threading import Lock
from collections.abc import Callable, Hashable, Iterable
from typing import Any

from repro.xdm.index import cached_index, index_for
from repro.xquery import ast


class LRUCache:
    """A small thread-safe LRU mapping with hit/miss accounting.

    Every operation — including :meth:`stats`, :meth:`clear` and
    :meth:`__len__` — runs under one lock, so concurrent ``evaluate()``
    traffic can never observe a half-updated cache (the PR 3 version
    locked ``get``/``put`` but read counters and size unlocked, which let
    ``query_cache_stats()`` race with eviction).

    :meth:`get` takes an optional *valid* predicate for entries whose
    validity depends on the caller (a :class:`CachedPlan` and the caller's
    documents): a found value it rejects is dropped and counted as a miss,
    so the hit ratio keeps meaning "served from the cache".
    """

    __slots__ = ("capacity", "_entries", "_lock", "hits", "misses")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable,
            valid: Callable[[Any], bool] | None = None) -> Any | None:
        with self._lock:
            value = self._entries.get(key)
            if value is not None and valid is not None and not valid(value):
                del self._entries[key]
                value = None
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }


def iter_expressions(expr: Any):
    """Generic pre-order walk over an AST expression (dataclass fields)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (tuple, list)):
            stack.extend(node)
            continue
        if not isinstance(node, ast.Expr):
            continue
        yield node
        for field in dataclasses.fields(node):
            stack.append(getattr(node, field.name))


def contains_constructor(expr: Any) -> bool:
    """Does *expr* (or any subexpression) construct nodes?

    Used to keep plans with node-minting prolog variables out of the plan
    cache: their values are baked in at compile time, and XQuery requires a
    fresh identity per evaluation.
    """
    for node in iter_expressions(expr):
        if isinstance(node, (ast.DirectElementConstructor, ast.ComputedConstructor)):
            return True
    return False


def module_cache_safe(module: ast.Module) -> bool:
    """Is a compiled plan of *module* reusable across evaluations?

    The body may construct nodes (the plan's constructor operators mint
    fresh identities each run); prolog variable *values* may not, because
    they are evaluated once at compile time and frozen into the plan.
    External variables also disqualify a module: their caller-supplied
    bindings are baked into the plan (literal tables, pushed predicate
    constants), and the plan key does not cover those values.
    """
    return not any(
        declaration.external or (
            declaration.value is not None and contains_constructor(declaration.value))
        for declaration in module.variables
    )


class DocumentsRead:
    """The resolver a plan's compilation is handed: a view of the caller's
    that notes which documents were asked for.

    Each document is stamped when it is first handed out — before anything
    is computed from it — with the object itself, its *structural index*
    object and that index's ``value_generation``: mutating a tree drops its
    index registry entry (see :mod:`repro.xdm.index`), so the rebuilt index
    is a different object; a *value* mutation keeps the index but bumps the
    generation, and a prolog variable — written by the user or synthesized
    by the optimizer's hoisting rule — may hold the result of a value
    predicate.

    A URI the caller's resolver does not hold (absent, or about to be loaded
    on demand) and any enumeration (:meth:`known_uris`) make the compilation
    depend on the corpus as a whole: its URI set is noted and every document
    in it stamped, at that moment.
    """

    def __init__(self, resolver):
        self._resolver = resolver
        self._stamps: dict[str, tuple] = {}
        self._corpus: tuple[str, ...] | None = None

    def resolve(self, uri: str) -> Any:
        document = self._resolver.loaded(uri)
        if document is None:
            self.known_uris()
            document = self._resolver.resolve(uri)
        self._stamp(uri, document)
        return document

    def loaded(self, uri: str) -> Any:
        """The document the caller's resolver already holds under *uri*, or
        ``None`` (what a step relation checks its documents with; its
        answer does not depend on the outcome, so nothing is noted)."""
        return self._resolver.loaded(uri)

    def known_uris(self) -> list[str]:
        uris = self._resolver.known_uris()
        if self._corpus is None:
            self._corpus = tuple(uris)
            for uri in uris:
                self._stamp(uri, self._resolver.loaded(uri))
        return uris

    def _stamp(self, uri: str, document: Any) -> None:
        if uri not in self._stamps:
            index = index_for(document)
            self._stamps[uri] = (uri, document, index, index.value_generation)

    def cached(self, plan: Any) -> "CachedPlan":
        """*plan* as a cache entry depending on what was read through here."""
        return CachedPlan(plan, tuple(self._stamps.values()), self._corpus)


class CachedPlan:
    """A compiled plan plus the documents its compilation resolved."""

    __slots__ = ("plan", "stamps", "corpus")

    def __init__(self, plan: Any, stamps: tuple[tuple, ...],
                 corpus: tuple[str, ...] | None):
        self.plan = plan
        #: (uri, document, structural index, value generation) per document
        self.stamps = stamps
        #: the URI set, if the compilation depended on the corpus as a whole
        self.corpus = corpus

    def serves(self, resolver) -> bool:
        """Would a compilation against *resolver* read the very same,
        unmutated documents?  Asks for nothing the resolver does not already
        hold and builds no index (an evicted one is a mismatch: the next
        compilation stamps the rebuilt one)."""
        if self.corpus is not None and tuple(resolver.known_uris()) != self.corpus:
            return False
        for uri, document, index, value_generation in self.stamps:
            if (resolver.loaded(uri) is not document
                    or cached_index(document) is not index
                    or index.value_generation != value_generation):
                return False
        return True


class _Pinned:
    """Identity-hashed strong reference used inside cache keys."""

    __slots__ = ("obj",)

    def __init__(self, obj: Any):
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj) & 0x7FFFFFFF

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Pinned) and self.obj is other.obj


def fingerprint(values: Iterable[Any]) -> tuple:
    """Pin arbitrary objects into a hashable, identity-compared key part."""
    return tuple(_Pinned(value) for value in values)
