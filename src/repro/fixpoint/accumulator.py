"""The accumulated result of a fixed point iteration, kept as a set.

Figure 3 writes the loop state as a sequence ``res`` that is re-united with
the body's output every round.  Doing that literally — ``node_except`` then
``node_union`` over the whole accumulated result — makes a round cost
O(|res| log |res|) no matter how few nodes it was fed, which is exactly the
work Delta exists to avoid.  The driver
(:meth:`~repro.fixpoint.engine.FixpointEngine.run`) therefore keeps this
accumulator: an identity set for membership plus an insertion-ordered list,
so folding a round's output in costs O(|produced|) and document order is
restored once, when the fixed point is reached (Naive, which feeds the whole
result back, re-sorts it per
round — a near-linear Timsort over an already sorted prefix).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import XQueryTypeError
from repro.xdm.node import Node
from repro.xdm.sequence import doc_order


class ResultAccumulator:
    """Identity set + insertion-ordered list of the nodes found so far."""

    __slots__ = ("items", "_seen")

    def __init__(self):
        self.items: list = []
        self._seen: set[int] = set()

    def __len__(self) -> int:
        return len(self.items)

    def add_new(self, candidates: Iterable) -> list:
        """Append the not-yet-seen *candidates*; return them (the delta),
        duplicate-free and in candidate order.

        A candidate that is not a node is the type error ``union``/
        ``except`` would raise on it.  ``items`` pins every accepted node,
        so its ``id()`` cannot be reused while the accumulator lives.
        """
        seen = self._seen
        fresh = []
        for item in candidates:
            key = id(item)
            if key not in seen:
                if not isinstance(item, Node):
                    raise XQueryTypeError(
                        "inflationary fixed point body result requires a sequence "
                        f"of nodes, got {type(item).__name__}")
                seen.add(key)
                fresh.append(item)
        self.items.extend(fresh)
        return fresh

    def in_document_order(self) -> list:
        """The accumulated nodes, put in document order (in place)."""
        return doc_order(self.items, distinct=True)
