"""The SQL execution backend: XDM shredded into SQLite, µ as ``WITH RECURSIVE``.

This package gives the reproduction its third execution path next to the
tree-walking interpreter and the in-memory relational algebra engine — the
paper's actual substrate contrast (XQuery IFP vs. SQL:1999 recursion on an
RDBMS):

* :mod:`repro.sqlbackend.schema` — the pre/post/level/kind/name/value
  relational encoding plus the ID-attribute table and its indexes;
* :mod:`repro.sqlbackend.shredder` — document-order shredding of XDM trees
  into SQLite and the pre↔node mapping;
* :mod:`repro.sqlbackend.emitter` — recursion bodies to parameterized
  ``WITH RECURSIVE`` CTEs (linear step chains only);
* :mod:`repro.sqlbackend.executor` — CTE execution, with the shared
  fixpoint driver over the interpreter body as the fallback;
  :class:`SQLEvaluator` wires it into the XQuery evaluator
  (``engine="sql"``);
* :mod:`repro.sqlbackend.decode` — relational results back to XDM items.
"""

from repro.sqlbackend.decode import decode_result_table
from repro.sqlbackend.emitter import FixpointSql, emit_fixpoint_sql
from repro.sqlbackend.executor import (
    SQLEvaluator,
    SqlFixpointExecutor,
    fixpoint_statements,
)
from repro.sqlbackend.shredder import SqlDocumentStore

__all__ = [
    "FixpointSql",
    "SQLEvaluator",
    "SqlDocumentStore",
    "SqlFixpointExecutor",
    "decode_result_table",
    "emit_fixpoint_sql",
    "fixpoint_statements",
]
