"""Compiled-plan caching for the repeated-evaluation serving path.

Production traffic overwhelmingly re-runs the same query texts against
long-lived documents, so :func:`repro.api.evaluate` keeps two process-wide
LRU caches:

* the **module cache** — query text → parsed (and optionally optimized)
  :class:`~repro.xquery.ast.Module`, shared by every engine: a warm hit
  skips lexing, parsing and the AST rewrites entirely;
* the **plan cache** — ``(query, engine knobs, document identities)`` →
  compiled algebra plan, so the algebra engine also skips compilation and
  prolog-variable evaluation.

Plan entries pin the document nodes they were compiled against (strong
references in the key object) and are only served when the caller's
documents are *the same objects*, which both prevents cross-corpus mixups
and makes ``id()`` reuse after garbage collection harmless.  Plans whose
prolog variables construct nodes are never cached: re-running such a
declaration must mint fresh node identities (see
:func:`contains_constructor`).

The AST and plans are immutable once built (evaluation state lives in the
per-run engine objects), which is what makes sharing across calls sound —
the benchmark harness has relied on module reuse since PR 1.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from threading import Lock
from collections.abc import Hashable, Iterable
from typing import Any

from repro.xquery import ast


class LRUCache:
    """A small thread-safe LRU mapping with hit/miss accounting.

    Every operation — including :meth:`stats`, :meth:`clear` and
    :meth:`__len__` — runs under one lock, so concurrent ``evaluate()``
    traffic can never observe a half-updated cache (the PR 3 version
    locked ``get``/``put`` but read counters and size unlocked, which let
    ``query_cache_stats()`` race with eviction).

    Entries carry a *generation* stamped at :meth:`put` time.  Bumping the
    cache generation (:meth:`bump_generation`) makes every existing entry
    stale without touching it: a stale entry is reported as a miss and
    evicted lazily on the next ``get``.  :class:`~repro.session.Session`
    uses this for snapshot semantics — re-registering a document bumps the
    plan-cache generation, in-flight evaluations keep the plan objects they
    already fetched, and new requests rebuild lazily.
    """

    __slots__ = ("capacity", "_entries", "_lock", "hits", "misses",
                 "generation")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        #: key → (value, generation at put time)
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0
        self.generation = 0

    def get(self, key: Hashable) -> Any | None:
        with self._lock:
            try:
                value, generation = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            if generation != self.generation:
                del self._entries[key]
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = (value, self.generation)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def bump_generation(self) -> int:
        """Invalidate every current entry; return the new generation."""
        with self._lock:
            self.generation += 1
            return self.generation

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
                "generation": self.generation,
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


def documents_fingerprint(resolver) -> tuple:
    """A hashable identity key over a resolver's registered documents.

    The returned tuple holds the document objects themselves (hashed by
    identity), so a cache entry keyed by it can never outlive a mismatch:
    equal keys imply the very same document nodes.  Each document's
    *structural index* object is part of the key too: mutating a tree
    drops its index registry entry (see :mod:`repro.xdm.index`), so the
    rebuilt index is a different object and plans whose prolog-variable
    values were baked in against the old tree can never be served again.
    A *value* mutation keeps the index object but bumps its
    ``value_generation``, which is part of the key for the same reason: a
    prolog variable — written by the user or synthesized by the optimizer's
    hoisting rule — may hold the result of a value predicate.
    """
    from repro.xdm.index import index_for

    parts = []
    for uri in resolver.known_uris():
        doc = resolver.resolve(uri)
        index = index_for(doc)
        parts.append((uri, _Pinned(doc), _Pinned(index), index.value_generation))
    return tuple(parts)


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
