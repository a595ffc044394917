"""Shredding XDM trees into the SQLite pre/post store.

A :class:`SqlDocumentStore` owns one SQLite connection (in-memory by
default) plus the bidirectional mapping between live XDM nodes and their
``pre`` ranks.  Shredding walks a tree once in document order, assigning
``pre`` at node entry and ``post`` at node exit from one shared counter
(see :mod:`repro.sqlbackend.schema` for the resulting invariants), and bulk
inserts the ``node``/``attr``/``id_attr`` rows.

The store shreds *any* rooted tree, not only parsed documents: the fixpoint
executor encodes seed and body-result nodes on demand, so constructed
subtrees (e.g. the Example 2.4 seed ``(<a/>, <b><c><d/></c></b>)``) are
shredded lazily the first time they participate in a recursion.

A store outlives the trees it holds: :meth:`SqlDocumentStore.retain` forgets
the ones that are no longer wanted or were mutated since they were shredded
— rows, mappings and all — and keeps the rest.  "Mutated" is read off the
per-tree change tokens of :mod:`repro.xdm.index`, which the store takes at
shred time and hands back when it forgets the tree, is closed or is simply
garbage collected.
"""

from __future__ import annotations

import itertools
import sqlite3
import weakref
from collections.abc import Callable, Iterable
from typing import NamedTuple

from repro import faults
from repro.errors import SqlBackendError
from repro.sqlbackend.schema import create_schema
from repro.xdm import index as _index
from repro.xdm.node import DocumentNode, ElementNode, Node, TextNode


class _ShreddedTree(NamedTuple):
    """One shredded tree.  A single counter hands out pre and post ranks
    (attributes included), so the tree's rows are exactly the ranks in
    ``[first, last]`` — the root's pre and post."""

    doc_id: int
    first: int
    last: int
    #: the tree's change count (:func:`repro.xdm.index.watch_tree`) at shred time
    changes: int


class SqlDocumentStore:
    """A SQLite database of shredded XDM trees plus the pre↔node mapping.

    Parameters
    ----------
    path:
        SQLite database path; the default ``":memory:"`` keeps the store
        in-process, a file path persists the shredded relations.
    wal:
        Put a file-backed store into write-ahead-log mode (readers never
        block the single shredding writer; ``synchronous=NORMAL`` keeps
        commits cheap).  Ignored for ``":memory:"`` databases, which have
        no journal.  The service's per-worker store pool
        (:mod:`repro.sqlbackend.pool`) turns this on.
    """

    def __init__(self, path: str = ":memory:", wal: bool = False):
        self.path = path
        self.connection = sqlite3.connect(path)
        self.connection.execute("PRAGMA foreign_keys = OFF")
        if wal and path != ":memory:":
            self.connection.execute("PRAGMA journal_mode = WAL")
            self.connection.execute("PRAGMA synchronous = NORMAL")
        create_schema(self.connection)
        self._counter = itertools.count(1)
        self._pre_of: dict[int, int] = {}
        self._node_of: dict[int, Node] = {}
        #: id(root) → what was shredded from it (the mapped nodes pin the root)
        self._trees: dict[int, _ShreddedTree] = {}
        self._version = 0
        #: (version, probe SQL → verdict), see verdict()
        self._verdicts: tuple[int, dict[str, bool]] = (0, {})
        # The change tokens go back on close() or, for a store that is
        # simply dropped, when it is collected — before the nodes it pins.
        # The callback holds the table of trees, never the store.
        self._release_tokens = weakref.finalize(self, _index.unwatch_trees, self._trees)
        self._release_tokens.atexit = False

    @property
    def version(self) -> int:
        """Bumped whenever the store's content changes (a shred, a forgotten
        tree).

        Data-dependent verdicts derived from the store's content (the
        executor's EXISTS guard probes) stay valid exactly while this
        number is unchanged: :meth:`verdict` keys them on it.
        """
        return self._version

    def verdict(self, probe: str, run: Callable[[str], bool]) -> bool:
        """The answer *run* gives for the data-dependent check *probe* (a
        ``SELECT EXISTS(…)`` over the store), memoised per store version.

        *run* is called once per probe text and :attr:`version`, so a hot
        store — one per thread in :mod:`repro.sqlbackend.pool` — proves a
        check once and re-proves it after the next shred or forgotten tree.
        Only the current version's verdicts are kept.
        """
        version, verdicts = self._verdicts
        if version != self._version:
            verdicts = {}
            self._verdicts = (self._version, verdicts)
        verdict = verdicts.get(probe)
        if verdict is None:
            verdict = verdicts[probe] = run(probe)
        return verdict

    # -- shredding -----------------------------------------------------------

    def shred(self, root: Node, uri: str | None = None,
              governor=None) -> int:
        """Shred the tree rooted at *root*; return its ``doc_id``.

        Shredding the same root twice is a no-op returning the original
        ``doc_id``.  When a *governor* is given, the walk checkpoints it
        (amortized) so a deadline or cancellation interrupts a large
        shred mid-walk; the failure path below rolls the store back to
        its pre-shred state.
        """
        existing = self._trees.get(id(root))
        if existing is not None:
            return existing.doc_id
        if root.parent is not None:
            raise SqlBackendError("shred() expects the root of a tree "
                                  f"(got a node with a parent: {root!r})")
        cursor = self.connection.execute("INSERT INTO doc (uri) VALUES (?)", (uri,))
        doc_id = cursor.lastrowid
        # Watched from before the walk: a mutation racing it counts as a
        # change to the shred, not as part of it.
        changes = _index.watch_tree(root)

        # The node↔pre mappings are staged locally and merged into the
        # store's dicts only after the bulk insert commits: a failure
        # mid-load (I/O error, injected fault) must leave the store exactly
        # as it was, never with mappings that denote uninserted rows.
        local_pre: dict[int, int] = {}
        local_node: dict[int, Node] = {}

        # node_rows entries are mutable: post (index 1) and the string value
        # (index 7) of container nodes are only known at subtree exit.  Text
        # chunks accumulate in one flat list; a container's string value is
        # the concatenation of the chunks appended while it was open, so the
        # whole walk stays O(nodes + total text) instead of the O(n · depth)
        # a per-node ``string_value()`` call would cost.
        node_rows: list[list] = []
        attr_rows: list[tuple] = []
        chunks: list[str] = []
        row_index: dict[int, int] = {}      # pre -> index into node_rows
        chunk_start: dict[int, int] = {}    # pre -> len(chunks) at entry
        stack: list[tuple[str, Node, int | None, int]] = [("enter", root, None, 0)]
        try:
            self._shred_walk(root, doc_id, local_pre, local_node, node_rows,
                             attr_rows, chunks, row_index, chunk_start, stack,
                             governor=governor)

            id_rows: list[tuple] = []
            if isinstance(root, DocumentNode):
                for value in root.id_values():
                    element = root.lookup_id(value)
                    if element is not None:
                        id_rows.append((doc_id, value, local_pre[id(element)]))

            with self.connection:
                self.connection.executemany(
                    "INSERT INTO node (pre, post, doc_id, parent, level, kind, name, value) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?)", node_rows)
                self.connection.executemany(
                    "INSERT INTO attr (pre, doc_id, owner, name, value, is_id) "
                    "VALUES (?, ?, ?, ?, ?, ?)", attr_rows)
                self.connection.executemany(
                    "INSERT INTO id_attr (doc_id, value, pre) VALUES (?, ?, ?)", id_rows)
        except BaseException:
            # Abort the implicit transaction holding the doc row (walk-time
            # failures happen before the `with self.connection` block, whose
            # own rollback only covers the bulk inserts).
            self.connection.rollback()
            _index.unwatch_trees((id(root),))
            raise
        self._pre_of.update(local_pre)
        self._node_of.update(local_node)
        root_pre, root_post = node_rows[0][:2]
        self._trees[id(root)] = _ShreddedTree(doc_id, root_pre, root_post, changes)
        self._version += 1
        return doc_id

    def _shred_walk(self, root: Node, doc_id: int,
                    local_pre: dict[int, int], local_node: dict[int, Node],
                    node_rows: list[list], attr_rows: list[tuple],
                    chunks: list[str], row_index: dict[int, int],
                    chunk_start: dict[int, int], stack: list,
                    governor=None) -> None:
        while stack:
            action, node, parent_pre, level = stack.pop()
            if action == "exit":
                pre = local_pre[id(node)]
                row = node_rows[row_index[pre]]
                row[1] = next(self._counter)
                if row[7] is None:
                    row[7] = "".join(chunks[chunk_start[pre]:])
                continue
            if governor is not None and governor.tick():
                governor.check_now()
            faults.trigger("shredder-load")
            pre = next(self._counter)
            local_pre[id(node)] = pre
            local_node[pre] = node
            if node.children:
                value = None                       # filled at exit
                chunk_start[pre] = len(chunks)
            else:
                value = node.string_value()        # leaf: no subtree walk
                if isinstance(node, TextNode):
                    chunks.append(value)
                elif isinstance(node, (DocumentNode, ElementNode)):
                    value = ""                     # empty container
            row_index[pre] = len(node_rows)
            # post (index 1) is patched at exit; 0 is a placeholder.
            node_rows.append([pre, 0, doc_id, parent_pre, level,
                              node.node_kind.value, node.name, value])
            if isinstance(node, ElementNode):
                for attribute in node.attributes:
                    attr_pre = next(self._counter)
                    local_pre[id(attribute)] = attr_pre
                    local_node[attr_pre] = attribute
                    attr_rows.append((attr_pre, doc_id, pre, attribute.name,
                                      attribute.value, int(attribute.is_id)))
            stack.append(("exit", node, parent_pre, level))
            for child in reversed(node.children):
                stack.append(("enter", child, pre, level + 1))

    # -- forgetting ----------------------------------------------------------

    def retain(self, roots: Iterable[Node]) -> int:
        """Forget every shredded tree that is not rooted at one of *roots*,
        or that was mutated since it was shredded; returns how many went.

        What stays is exactly what an evaluation over *roots* may read as it
        is.  A forgotten tree loses its rows (by its contiguous rank range
        and its ``doc_id`` — primary-key deletes), its node↔pre mappings and
        its change token, and is shredded afresh should a query reach it
        again.  A failure leaves the store as it was.
        """
        wanted = {id(root) for root in roots}
        stale = [root_id for root_id, tree in self._trees.items()
                 if root_id not in wanted
                 or _index.tree_changes(root_id) != tree.changes]
        if not stale:
            return 0
        with self.connection:
            for root_id in stale:
                tree = self._trees[root_id]
                ranks = (tree.first, tree.last)
                self.connection.execute("DELETE FROM node WHERE pre BETWEEN ? AND ?", ranks)
                self.connection.execute("DELETE FROM attr WHERE pre BETWEEN ? AND ?", ranks)
                self.connection.execute("DELETE FROM id_attr WHERE doc_id = ?", (tree.doc_id,))
                self.connection.execute("DELETE FROM doc WHERE doc_id = ?", (tree.doc_id,))
        _index.unwatch_trees(stale)
        for root_id in stale:
            tree = self._trees.pop(root_id)
            for rank in range(tree.first, tree.last + 1):
                node = self._node_of.pop(rank, None)
                # A node moved into another tree since may be mapped there.
                if node is not None and self._pre_of.get(id(node)) == rank:
                    del self._pre_of[id(node)]
        self._version += 1
        return len(stale)

    # -- encode / decode -----------------------------------------------------

    def doc_id_of(self, root: Node) -> int | None:
        """The ``doc_id`` of a shredded tree's root (``None`` if unseen)."""
        tree = self._trees.get(id(root))
        return None if tree is None else tree.doc_id

    def encode(self, nodes: Iterable[Node],
               governor=None) -> list[int]:
        """Map nodes to ``pre`` ranks, shredding unseen trees on demand.

        *governor* (a :class:`~repro.limits.Governor`) makes an on-demand
        shred of a large unseen tree interruptible — without it a cold
        shred would run to completion before the deadline could fire.
        """
        pres: list[int] = []
        for node in nodes:
            key = id(node)
            pre = self._pre_of.get(key)
            if pre is None:
                self.shred(node.root(), governor=governor)
                pre = self._pre_of.get(key)
                if pre is None:  # pragma: no cover - defensive
                    raise SqlBackendError(f"node {node!r} is unreachable from its root")
            pres.append(pre)
        return pres

    def decode(self, pres: Iterable[int]) -> list[Node]:
        """Map ``pre`` ranks back to the live XDM nodes (input order)."""
        nodes: list[Node] = []
        for pre in pres:
            node = self._node_of.get(pre)
            if node is None:
                raise SqlBackendError(f"pre rank {pre} does not denote a shredded node")
            nodes.append(node)
        return nodes

    def node_count(self) -> int:
        """Number of tree rows in the ``node`` table (attributes excluded)."""
        return self.connection.execute("SELECT count(*) FROM node").fetchone()[0]

    def close(self) -> None:
        """Release the change tokens and the pinned nodes (from any thread),
        then close the connection (which only its own thread may)."""
        self._release_tokens()
        self._trees.clear()
        self._pre_of.clear()
        self._node_of.clear()
        self.connection.close()


__all__ = ["SqlDocumentStore"]
