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

A body that is a step relation runs in pre-space instead
(:class:`PreAccumulator`): the state is a set of pre ranks, and the set is
all there is — nothing to re-sort per round, one decode at the end.  The
body there is :meth:`~repro.xdm.index.ImageSpace.image`, the union of the
fed pres' images.

Both accumulators answer the driver's three questions the same way:
:meth:`add_new` folds a round in and returns its delta, :meth:`frontier`
is what Delta feeds next, :meth:`everything` what Naive feeds next.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import XQueryTypeError
from repro.xdm.index import ImageSpace
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

    def frontier(self, new: list) -> list:
        """A round's delta as the body is fed it: in document order."""
        return doc_order(new, distinct=True)

    def everything(self) -> list:
        """The whole result as the body is fed it (a copy: the
        accumulator's own list grows)."""
        return list(self.in_document_order())

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


class PreAccumulator:
    """The pre ranks found so far by a run in pre-space.

    The body (:meth:`ImageSpace.image`) is a set function of what it is fed,
    so neither the frontier nor the whole result needs an order; document
    order is ascending pre, restored once by :meth:`in_document_order`.
    """

    __slots__ = ("space", "seen")

    def __init__(self, space: ImageSpace):
        self.space = space
        self.seen: set[int] = set()

    def __len__(self) -> int:
        return len(self.seen)

    def add_new(self, candidates: Iterable[int]) -> set[int]:
        """Add the not-yet-seen *candidates*; return them (the delta).  A
        set is taken over — the round's image, which
        :meth:`ImageSpace.image` builds fresh — and reduced in place to the
        delta instead of copied."""
        fresh = candidates if type(candidates) is set else set(candidates)
        fresh -= self.seen
        self.seen |= fresh
        return fresh

    def frontier(self, new: set[int]) -> set[int]:
        return new

    def everything(self) -> set[int]:
        """The result itself, not a copy: the body has read it before the
        round's :meth:`add_new` grows it."""
        return self.seen

    def in_document_order(self) -> list:
        """The fixed point, decoded to nodes in document order."""
        return self.space.decode(self.seen)
