"""Relational schema of the shredded XDM store (DESIGN.md §5.1).

The encoding is the classic *pre/post plane* of the Pathfinder / MonetDB
"Relational XQuery" substrate — the very representation DESIGN.md §2 notes
this reproduction previously simplified away.  Every tree node receives a
``pre`` rank (entry tick of a document-order walk) and a ``post`` rank
(exit tick of the same walk, drawn from the same counter), so within one
document

* document order  == ascending ``pre``,
* ``d`` is a descendant of ``v``  ⟺  ``d.pre > v.pre AND d.post < v.post``,

which turns the XPath axes into range/equality joins over integers.  ``pre``
values are globally unique across all documents shredded into one store
(one shared counter), so a bare ``pre`` identifies a node during fixpoint
iteration; ``doc_id`` scopes the per-document operations (descendant
ranges, ``fn:id``).

Tables
------
``doc``
    One row per shredded tree (parsed document or constructed subtree).
``node``
    Tree nodes (document, element, text, comment, PI).  ``value`` holds the
    XDM string value; for elements it is *materialised* at shred time (the
    concatenated descendant text) so value joins — ``fn:id`` in particular —
    need no recursive reassembly.
``attr``
    Attribute nodes, keyed by their own ``pre`` (same counter) but kept out
    of the ``node`` table so they never pollute the pre/post descendant
    ranges.
``id_attr``
    The ID-attribute index: DTD/option-declared ID values to the ``pre`` of
    the carrying element — the relational counterpart of
    ``DocumentNode._id_map`` and the join target of ``fn:id``.

Indexes cover the access paths of the emitted step joins: ``pre`` (primary
key), ``(doc_id, post)`` for descendant/ancestor ranges, ``(parent, name,
kind)`` for child steps with name tests (the composite is what keeps the
recursive CTE walking frontier→child instead of scanning all elements of a
name and filtering upwards; with ``kind`` in it a child step whose row is
read no further never touches the table), ``name`` for name-only scans,
``(owner, name)`` on attributes and ``(doc_id, value, pre)`` on the ID table
(covering: an ``fn:id`` hop reads the index alone).

The store keeps **no planner statistics** (no ``ANALYZE``): with
``sqlite_stat1`` rows for ``node`` SQLite ≥ 3.38 builds a Bloom filter over
the whole table in every recursive member (DESIGN.md §5.1 has the
measurement), a per-statement O(store) price.  The access paths the
statistics used to choose are instead *pinned* by the emitter (``INDEXED
BY`` / ``NOT INDEXED``, :data:`CHILD_INDEX` and friends below), and
:func:`create_schema` clears statistics a file written by an older version
(or ``ANALYZE``d by hand) still carries.
"""

from __future__ import annotations

import sqlite3

#: Bump on incompatible schema changes.
SCHEMA_VERSION = 1

#: The indexes the emitter pins its joins to (``INDEXED BY``): child and
#: sibling steps walk ``(parent, name, kind)``, ancestor steps the context
#: document's ``(doc_id, post)`` range, attribute probes ``(owner, name)``,
#: ``fn:id`` joins ``(doc_id, value, pre)``; the multi-token guard probes scan
#: one element name.  The two covering shapes are named apart from the
#: narrower indexes they replace, so a pinned ``INDEXED BY`` never meets an
#: older file's index (``create_schema`` adds the new ones on open).
CHILD_INDEX = "idx_node_parent_name_kind"
RANGE_INDEX = "idx_node_post"
NAME_INDEX = "idx_node_name"
ATTRIBUTE_INDEX = "idx_attr_owner"
ID_INDEX = "idx_id_attr_value_pre"

SCHEMA_STATEMENTS: tuple[str, ...] = (
    """
    CREATE TABLE IF NOT EXISTS doc (
        doc_id INTEGER PRIMARY KEY,
        uri    TEXT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS node (
        pre    INTEGER PRIMARY KEY,
        post   INTEGER NOT NULL,
        doc_id INTEGER NOT NULL REFERENCES doc(doc_id),
        parent INTEGER,
        level  INTEGER NOT NULL,
        kind   TEXT NOT NULL,
        name   TEXT,
        value  TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS attr (
        pre    INTEGER PRIMARY KEY,
        doc_id INTEGER NOT NULL REFERENCES doc(doc_id),
        owner  INTEGER NOT NULL REFERENCES node(pre),
        name   TEXT NOT NULL,
        value  TEXT NOT NULL,
        is_id  INTEGER NOT NULL DEFAULT 0
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS id_attr (
        doc_id INTEGER NOT NULL REFERENCES doc(doc_id),
        value  TEXT NOT NULL,
        pre    INTEGER NOT NULL REFERENCES node(pre),
        PRIMARY KEY (doc_id, value)
    )
    """,
    f"CREATE INDEX IF NOT EXISTS {RANGE_INDEX} ON node(doc_id, post)",
    f"CREATE INDEX IF NOT EXISTS {CHILD_INDEX} ON node(parent, name, kind)",
    f"CREATE INDEX IF NOT EXISTS {NAME_INDEX} ON node(name)",
    f"CREATE INDEX IF NOT EXISTS {ATTRIBUTE_INDEX} ON attr(owner, name)",
    f"CREATE INDEX IF NOT EXISTS {ID_INDEX} ON id_attr(doc_id, value, pre)",
)


def create_schema(connection: sqlite3.Connection) -> None:
    """Create the shredding tables and their indexes (idempotent), and make
    the planner forget any statistics the database file carries."""
    for statement in SCHEMA_STATEMENTS:
        connection.execute(statement)
    stale = [row[0] for row in connection.execute(
        "SELECT name FROM sqlite_master WHERE name LIKE 'sqlite_stat_'")]
    for table in stale:
        connection.execute(f"DELETE FROM {table}")
    if stale:
        # Statistics are cached per connection when the schema loads;
        # analysing the schema table alone makes SQLite re-read the (now
        # empty) statistics tables without gathering new ones.
        connection.execute("ANALYZE sqlite_master")
    connection.commit()
