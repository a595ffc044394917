"""Decoding relational results back into XDM item sequences.

Two decoders live here:

* :func:`decode_result_table` — the shared "last mile" of both relational
  execution paths (`algebra` and `sql`): extract the item sequence from an
  ``iter|pos|item`` result table.  It is duck-typed over the table-storage
  protocol (row tables, columnar tables, and the SQL backend's
  :class:`ResultTable` all qualify), so :mod:`repro.api` uses one helper
  for every engine instead of inlining the ``item``-column fallback logic.
* :func:`decode_pres` — map a sequence of ``pre`` ranks from the SQLite
  store back to live XDM nodes, in document order (ascending ``order_key``,
  i.e. exactly the order ``fs:ddo`` — and therefore the interpreter's
  fixpoint — produces).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.xdm.node import Node
from repro.xdm.sequence import doc_order


@dataclass
class ResultTable:
    """A minimal ``iter|pos|item`` result table (SQL backend output)."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def column_index(self, name: str) -> int:
        return self.columns.index(name)

    def __len__(self) -> int:
        return len(self.rows)


def decode_result_table(table) -> list:
    """Extract the item sequence from an ``iter|pos|item`` result table.

    Plans normally deliver the interface schema ``iter|pos|item``; plans
    that end in a projection with renamed columns deliver their payload in
    the last column, hence the fallback.
    """
    columns = tuple(table.columns)
    if "item" in columns:
        item_index = (table.column_index("item") if hasattr(table, "column_index")
                      else columns.index("item"))
    else:
        item_index = len(columns) - 1
    return [row[item_index] for row in table.rows]


def decode_pres(store, pres: Iterable[int]) -> list[Node]:
    """Decode ``pre`` ranks from *store* into nodes in document order."""
    return doc_order(store.decode(pres), distinct=True)


__all__ = ["ResultTable", "decode_result_table", "decode_pres"]
