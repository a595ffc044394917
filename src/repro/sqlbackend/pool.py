"""Per-worker-thread SQLite store pool for the serving path.

The SQL engine historically built a fresh in-memory
:class:`~repro.sqlbackend.shredder.SqlDocumentStore` per evaluation — every
request re-shredded every document it touched.  Under a long-running
service that is the dominant cost: the shred of a stable corpus should be
paid once per worker and then reused across requests.

:class:`SqlStorePool` hands each *thread* its own store (SQLite connections
are bound to their creating thread by default, and a private store per
worker needs no statement-level locking at all).  A thread keeps its store
— and therefore its shredded relations and indexes — across requests until
one of two generations moves:

* the **pool generation**, bumped by :meth:`invalidate` when the owning
  session re-registers documents (snapshot semantics: requests already
  holding a store finish on it; the next acquisition rebuilds); or
* the **global mutation generation** of :mod:`repro.xdm.index`, bumped by
  every structural/value mutation hook — if *any* live tree changed, a
  pooled shred of it would be stale, so the store is dropped and the next
  request re-shreds lazily.  Constructor-free query traffic (the serving
  common case) never moves this counter, so stores stay warm.

In ``"wal"`` mode stores are file-backed databases in write-ahead-log mode
under a pool-owned temporary directory; ``"memory"`` (the default, used by
the in-process default session) keeps them in ``:memory:``.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import threading

from repro.sqlbackend.shredder import SqlDocumentStore
from repro.xdm import index as _index_module


class SqlStorePool:
    """Thread-local :class:`SqlDocumentStore` instances with invalidation.

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
        self._local = threading.local()
        self._lock = threading.Lock()
        #: All live stores, for close()/stats() (thread-local access only
        #: ever touches the calling thread's own store).
        self._stores: dict[int, SqlDocumentStore] = {}
        self._sequence = itertools.count(1)
        self._generation = 0
        self._created = 0
        self._invalidated = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def invalidate(self) -> None:
        """Make every pooled store stale (documents changed).

        In-flight evaluations keep the store object they already acquired
        and finish on that snapshot; the next :meth:`store` call on each
        worker builds a fresh one.
        """
        with self._lock:
            self._generation += 1

    def close(self) -> None:
        """Close every pooled store and remove the pool's scratch files."""
        with self._lock:
            self._closed = True
            stores = list(self._stores.values())
            self._stores.clear()
            own_directory, self._own_directory = self._own_directory, None
        for store in stores:
            try:
                store.close()
            except Exception:
                pass  # a worker thread may still hold the connection
        if own_directory is not None:
            shutil.rmtree(own_directory, ignore_errors=True)

    # -- acquisition ---------------------------------------------------------

    def store(self) -> SqlDocumentStore:
        """This thread's store, rebuilt if any generation moved."""
        if self._closed:
            raise RuntimeError("store pool is closed")
        mutation_generation = _index_module.mutation_generation()
        entry = getattr(self._local, "entry", None)
        if (entry is not None
                and entry[1] == self._generation
                and entry[2] == mutation_generation):
            return entry[0]
        return self._rebuild(entry, mutation_generation)

    def _rebuild(self, entry, mutation_generation: int) -> SqlDocumentStore:
        with self._lock:
            pool_generation = self._generation
            sequence = next(self._sequence)
            if entry is not None:
                self._stores.pop(id(entry[0]), None)
                self._invalidated += 1
            if self.mode == "wal":
                directory = self._directory
                if directory is None:
                    if self._own_directory is None:
                        self._own_directory = tempfile.mkdtemp(prefix="repro-sqlpool-")
                    directory = self._own_directory
        if entry is not None:
            old_store = entry[0]
            old_path = getattr(old_store, "path", ":memory:")
            old_store.close()
            if old_path != ":memory:":
                for suffix in ("", "-wal", "-shm"):
                    try:
                        os.unlink(old_path + suffix)
                    except OSError:
                        pass
        if self.mode == "wal":
            path = os.path.join(
                directory, f"store-{threading.get_ident()}-{sequence}.db")
            store = SqlDocumentStore(path, wal=True)
        else:
            store = SqlDocumentStore()
        with self._lock:
            self._stores[id(store)] = store
            self._created += 1
        self._local.entry = (store, pool_generation, mutation_generation)
        return store

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "mode": self.mode,
                "live_stores": len(self._stores),
                "created": self._created,
                "invalidated": self._invalidated,
                "generation": self._generation,
            }

    def journal_mode(self) -> str | None:
        """The journal mode of this thread's store (for tests/stats)."""
        row = self.store().connection.execute("PRAGMA journal_mode").fetchone()
        return row[0] if row else None


__all__ = ["SqlStorePool"]
