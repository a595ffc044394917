"""Per-worker-thread SQLite store pool for the serving path.

The SQL engine historically built a fresh in-memory
:class:`~repro.sqlbackend.shredder.SqlDocumentStore` per evaluation — every
request re-shredded every document it touched.  Under a long-running
service that is the dominant cost: the shred of a stable corpus should be
paid once per worker and then reused across requests.

:class:`SqlStorePool` hands each *thread* its own store (SQLite connections
are bound to their creating thread by default, and a private store per
worker needs no statement-level locking at all), built once and kept for
the life of the pool.  What changes over that life is which *trees* the
store holds, and the unit of that is the document.  :meth:`SqlStorePool.store`
takes the resolver of the evaluation about to run and, whenever anything
moved since this thread last asked, applies one rule:

    keep exactly the shredded trees that evaluation can name — the roots
    of its resolver — and that have not changed since they were shredded;
    forget the rest.

So a replaced or removed document, an in-place mutation, a caller-supplied
``documents=`` corpus that is gone and the constructed trees a query shreds
on demand each cost their own rows and nothing else; a write to a document
no query reads costs nothing.  "Anything moved" is two O(1) tests — the
resolver is not the object last seen (the session makes a new snapshot per
registry change), or the global mutation generation of
:mod:`repro.xdm.index` moved (some tree somewhere was built or mutated) —
so constructor-free traffic over a stable corpus takes the fast path on
every request.  *Which* trees changed is read off their change tokens.

The rule runs on the owning thread, at acquisition: a request in flight
finishes on the store as it was handed out (snapshot semantics), and a
connection thread that has not served a request since a write still holds
the replaced tree until its next one.

In ``"wal"`` mode stores are file-backed databases in write-ahead-log mode
under a pool-owned temporary directory; ``"memory"`` (the default, used by
the in-process default session) keeps them in ``:memory:``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading

from repro.sqlbackend.shredder import SqlDocumentStore
from repro.xdm.index import mutation_generation


class SqlStorePool:
    """Thread-local :class:`SqlDocumentStore` instances, one per worker.

    Parameters
    ----------
    mode:
        ``"memory"`` (private in-memory store per worker) or ``"wal"``
        (file-backed store per worker, WAL journal, under *directory*).
    directory:
        Directory for ``"wal"`` store files; a private temporary directory
        (removed by :meth:`close`) is created when omitted.
    """

    def __init__(self, mode: str = "memory", directory: str | None = None):
        if mode not in ("memory", "wal"):
            raise ValueError(f"unknown store pool mode: {mode!r}")
        self.mode = mode
        self._directory = directory
        self._own_directory: str | None = None
        #: Per thread: (store, mutation generation, resolver) as of its last
        #: acquisition.
        self._local = threading.local()
        self._lock = threading.Lock()
        #: All live stores, for close()/stats() (thread-local access only
        #: ever touches the calling thread's own store).
        self._stores: list[SqlDocumentStore] = []
        self._created = 0
        self._trees_dropped = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close every pooled store and remove the pool's scratch files."""
        with self._lock:
            self._closed = True
            stores, self._stores = self._stores, []
            own_directory, self._own_directory = self._own_directory, None
        # Every thread's entry goes with the old thread-local object, and
        # with it the last resolver (its documents) each of them had seen.
        self._local = threading.local()
        for store in stores:
            try:
                store.close()
            except Exception:
                pass  # a worker thread may still hold the connection
        if own_directory is not None:
            shutil.rmtree(own_directory, ignore_errors=True)

    # -- acquisition ---------------------------------------------------------

    def store(self, resolver) -> SqlDocumentStore:
        """This thread's store, for an evaluation over *resolver*'s documents
        (the retention rule of the module docstring is applied here)."""
        if self._closed:
            raise RuntimeError("store pool is closed")
        # Read before the rule runs: a mutation racing it is seen next time.
        generation = mutation_generation()
        entry = getattr(self._local, "entry", None)
        if entry is None:
            store = self._create()
        else:
            store, seen_generation, seen_resolver = entry
            if seen_generation == generation and seen_resolver is resolver:
                return store
            dropped = store.retain(
                resolver.resolve(uri) for uri in resolver.known_uris())
            if dropped:
                with self._lock:
                    self._trees_dropped += dropped
        self._local.entry = (store, generation, resolver)
        return store

    def _create(self) -> SqlDocumentStore:
        with self._lock:
            self._created += 1
            sequence = self._created
            directory = self._directory
            if self.mode == "wal" and directory is None:
                if self._own_directory is None:
                    self._own_directory = tempfile.mkdtemp(prefix="repro-sqlpool-")
                directory = self._own_directory
        if self.mode == "wal":
            path = os.path.join(
                directory, f"store-{threading.get_ident()}-{sequence}.db")
            store = SqlDocumentStore(path, wal=True)
        else:
            store = SqlDocumentStore()
        with self._lock:
            self._stores.append(store)
        return store

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "mode": self.mode,
                "live_stores": len(self._stores),
                "created": self._created,
                "trees_dropped": self._trees_dropped,
            }


__all__ = ["SqlStorePool"]
