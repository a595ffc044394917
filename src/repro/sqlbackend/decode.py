"""Decoding relational results back into XDM item sequences.

Two decoders live here:

* :func:`decode_result_table` — the "last mile" of the algebra engine:
  extract the item sequence from an ``iter|pos|item``
  :class:`~repro.algebra.columnar.ColumnarTable`, reading one column.
* :func:`decode_pres` — map a sequence of ``pre`` ranks from the SQLite
  store back to live XDM nodes, in document order (ascending ``order_key``,
  i.e. exactly the order ``fs:ddo`` — and therefore the interpreter's
  fixpoint — produces).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.xdm.node import Node
from repro.xdm.sequence import doc_order


def decode_result_table(table) -> list:
    """Extract the item sequence from an ``iter|pos|item`` result table.

    Plans normally deliver the interface schema ``iter|pos|item``; plans
    that end in a projection with renamed columns deliver their payload in
    the last column, hence the fallback.
    """
    return table.column_values("item" if "item" in table.columns else table.columns[-1])


def decode_pres(store, pres: Iterable[int]) -> list[Node]:
    """Decode ``pre`` ranks from *store* into nodes in document order."""
    return doc_order(store.decode(pres), distinct=True)


__all__ = ["decode_result_table", "decode_pres"]
