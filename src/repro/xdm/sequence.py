"""Sequence-level operations of the XQuery Data Model.

The functions in this module are the vocabulary the paper's definitions are
written in:

* :func:`ddo` — ``fs:distinct-doc-order``, the duplicate-eliminating,
  document-order-restoring function applied after every path step
  (:func:`doc_order` is its unchecked core, for callers that hold nodes).
* :func:`node_union`, :func:`node_except`, :func:`node_intersect` — the
  ``union``/``except``/``intersect`` operators on node sequences.
* :func:`set_equal` — the paper's relaxed set-equality ``s=`` that ignores
  duplicates and order (Section 2); for node sequences it coincides with
  ``fs:ddo(X1) = fs:ddo(X2)``.
* :func:`atomize` and :func:`effective_boolean_value` — the coercions the
  evaluator applies to operands of comparisons, predicates and conditions.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import repeat
from operator import attrgetter
from typing import Any

from repro.errors import XQueryTypeError
from repro.xdm.items import UntypedAtomic, atomize_item, is_node, is_numeric
from repro.xdm.node import AttributeNode, Node

#: ``all(map(isinstance, items, NODES))`` asks :func:`is_node` of a whole
#: sequence in one C-level pass: no Python frame per item.
NODES = repeat(Node)
_ATTRIBUTES = repeat(AttributeNode)
_VALUE = attrgetter("value")


def nodes_only(sequence: Iterable[Any]) -> bool:
    """Return ``True`` if every item in *sequence* is a node."""
    return all(map(isinstance, sequence, NODES))


def ensure_node_sequence(sequence: Sequence[Any], operation: str) -> list[Node]:
    """Validate that *sequence* contains only nodes and return it as a list.

    Raises :class:`~repro.errors.XQueryTypeError` otherwise — this is the
    error an XQuery processor raises when ``union``/``except`` (or a path
    step) is applied to atomic values.
    """
    items = list(sequence)
    if not all(map(isinstance, items, NODES)):
        item = next(item for item in items if not is_node(item))
        raise XQueryTypeError(
            f"{operation} requires a sequence of nodes, got {type(item).__name__}")
    return items


_ORDER_KEY = attrgetter("order_key")


def doc_order(nodes: list[Node], distinct: bool = False) -> list[Node]:
    """*nodes* without repeated identities, in document order.

    The one spelling of dedup-then-sort: :func:`ddo`, the batch kernels
    and the fixpoint driver all end here.  A caller that knows its nodes
    *distinct* skips the dedup and has its list sorted in place; otherwise
    the result is a new list.
    """
    if not distinct:
        nodes = list({id(node): node for node in nodes}.values())
    if len(nodes) > 1:
        nodes.sort(key=_ORDER_KEY)
    return nodes


def ddo(sequence: Iterable[Any]) -> list[Node]:
    """``fs:distinct-doc-order``: deduplicate by identity, sort by doc order."""
    items = sequence if isinstance(sequence, list) else list(sequence)
    if not all(map(isinstance, items, NODES)):
        item = next(item for item in items if not is_node(item))
        raise XQueryTypeError(f"fs:ddo requires nodes, got {type(item).__name__}")
    return doc_order(items)


def node_union(left: Sequence[Any], right: Sequence[Any]) -> list[Node]:
    """The XQuery ``union`` operator (duplicate-free, document order)."""
    left_nodes = ensure_node_sequence(left, "union")
    right_nodes = ensure_node_sequence(right, "union")
    return ddo([*left_nodes, *right_nodes])


def node_except(left: Sequence[Any], right: Sequence[Any]) -> list[Node]:
    """The XQuery ``except`` operator (left minus right, document order)."""
    left_nodes = ensure_node_sequence(left, "except")
    right_nodes = ensure_node_sequence(right, "except")
    removed = {id(node) for node in right_nodes}
    return ddo([node for node in left_nodes if id(node) not in removed])


def node_intersect(left: Sequence[Any], right: Sequence[Any]) -> list[Node]:
    """The XQuery ``intersect`` operator (document order)."""
    left_nodes = ensure_node_sequence(left, "intersect")
    right_nodes = ensure_node_sequence(right, "intersect")
    kept = {id(node) for node in right_nodes}
    return ddo([node for node in left_nodes if id(node) in kept])


def set_equal(left: Sequence[Any], right: Sequence[Any]) -> bool:
    """The paper's set-equality ``s=`` on item sequences.

    Duplicates and order are ignored.  For node sequences this is identity
    based (``fs:ddo(X1) = fs:ddo(X2)``); for mixed/atomic sequences the
    comparison falls back to value equality of the atomic items, mirroring
    the ``(1,"a") s= ("a",1,1)`` example of Section 2.
    """
    left_items = list(left)
    right_items = list(right)
    if nodes_only(left_items) and nodes_only(right_items):
        left_ids = {id(node) for node in left_items}
        right_ids = {id(node) for node in right_items}
        return left_ids == right_ids
    return _atomic_multiset(left_items) == _atomic_multiset(right_items)


def _atomic_multiset(items: Sequence[Any]) -> set:
    values = set()
    for item in items:
        if is_node(item):
            values.add(("node", id(item)))
        else:
            values.add(("atom", type(item).__name__ if isinstance(item, bool) else "", item))
    return values


def atomize(sequence: Iterable[Any]) -> list[Any]:
    """Atomize a sequence (``fn:data``): nodes become their typed values —
    an attribute column (``data(E/@a)``) in one C-level pass."""
    items = sequence if isinstance(sequence, list) else list(sequence)
    if items and all(map(isinstance, items, _ATTRIBUTES)):
        return list(map(UntypedAtomic, map(_VALUE, items)))
    return [atomize_item(item) for item in items]


def effective_boolean_value(sequence: Sequence[Any]) -> bool:
    """The effective boolean value (EBV) of a sequence.

    Rules (XQuery 1.0, 2.4.3): the empty sequence is false; a sequence whose
    first item is a node is true; a singleton boolean/number/string follows
    its value; anything else is a type error.
    """
    items = list(sequence)
    if not items:
        return False
    if is_node(items[0]):
        return True
    if len(items) == 1:
        value = items[0]
        if isinstance(value, bool):
            return value
        if is_numeric(value):
            return value != 0 and value == value
        if isinstance(value, str):
            return len(value) > 0
    raise XQueryTypeError("invalid argument to effective boolean value", code="FORG0006")


def predicate_truth(value: Sequence[Any], position: int) -> bool:
    """Does a predicate whose value is *value* keep the item at *position*?

    A single number selects by position (``E[2]``, ``E[$n]``); any other
    value by its :func:`effective_boolean_value`.
    """
    if len(value) == 1 and is_numeric(value[0]) and not isinstance(value[0], bool):
        return value[0] == position
    return effective_boolean_value(value)
