"""XDM node classes: identity, document order and the tree axes.

Every node carries an ``order_key`` drawn from a process-global counter at
construction time.  Both the XML parser (:mod:`repro.xmlio.parser`) and the
node-construction helpers (:mod:`repro.xdm.document`) materialise nodes in
document (pre-)order, so sorting by ``order_key`` *is* sorting by document
order — including across independently constructed trees, for which XQuery
only requires a stable implementation-defined order.

The axis methods (``descendants``, ``ancestors``, ``following_siblings``,
...) return lists already in the natural order of the axis; the path
evaluator applies ``fs:ddo`` on top as required by the XQuery semantics.
"""

from __future__ import annotations

import itertools
from enum import Enum
from collections.abc import Iterator

from repro.errors import XQueryTypeError
from repro.xdm.items import UntypedAtomic


class NodeKind(str, Enum):
    """The seven XDM node kinds (namespace nodes are not modelled)."""

    DOCUMENT = "document"
    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"
    COMMENT = "comment"
    PROCESSING_INSTRUCTION = "processing-instruction"


_node_counter = itertools.count(1)


def _next_order_key() -> int:
    return next(_node_counter)


def reset_node_counter() -> None:
    """Reset the global node counter (test isolation only).

    Node identity is never recycled during normal operation; tests that
    assert on concrete order keys may reset the counter to get reproducible
    values.
    """
    global _node_counter
    _node_counter = itertools.count(1)


#: Hook installed by :mod:`repro.xdm.index` on import: called with a node
#: whose tree is about to change structurally, so a cached structural index
#: covering it can be dropped.  ``None`` until that module is imported —
#: no index can exist before then, so construction pays nothing.
_structure_change_hook = None

#: Companion hook for *value* mutations (attribute rewrites, text edits,
#: newly registered IDs):
#: the pre/post plane of a cached structural index stays valid, but its
#: lazily built value inverted indexes must be dropped.  Also ``None``
#: until :mod:`repro.xdm.index` is imported.
_value_change_hook = None


def _notify_structure_change(node: "Node") -> None:
    if _structure_change_hook is not None:
        _structure_change_hook(node)


def _notify_value_change(node: "Node") -> None:
    if _value_change_hook is not None:
        _value_change_hook(node)


class Node:
    """Base class of all XDM nodes.

    Attributes
    ----------
    order_key:
        Globally unique integer; document order == ascending ``order_key``.
    parent:
        The parent node, or ``None`` for roots and detached nodes.
    """

    __slots__ = ("order_key", "parent")

    node_kind: NodeKind

    def __init__(self) -> None:
        self.order_key: int = _next_order_key()
        self.parent: Node | None = None

    # -- identity and order -------------------------------------------------

    def is_same_node(self, other: "Node") -> bool:
        """Node identity comparison (the ``is`` operator of XQuery)."""
        return self is other

    def precedes(self, other: "Node") -> bool:
        """Document-order comparison (the ``<<`` operator of XQuery)."""
        return self.order_key < other.order_key

    def follows(self, other: "Node") -> bool:
        """Document-order comparison (the ``>>`` operator of XQuery)."""
        return self.order_key > other.order_key

    # -- structure ----------------------------------------------------------

    @property
    def children(self) -> list["Node"]:
        """Child nodes; empty for leaf node kinds."""
        return []

    @property
    def name(self) -> str | None:
        """The node name (elements, attributes, PIs) or ``None``."""
        return None

    def root(self) -> "Node":
        """The root of the tree containing this node."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def document(self) -> "DocumentNode" | None:
        """The containing document node, if the tree is document-rooted."""
        root = self.root()
        return root if isinstance(root, DocumentNode) else None

    # -- values -------------------------------------------------------------

    def string_value(self) -> str:
        """The string value as defined per node kind by the XDM."""
        raise NotImplementedError

    def typed_value(self):
        """The typed value used by atomization.

        Without schema awareness, element and attribute content atomizes to
        ``xs:untypedAtomic``; text nodes likewise.
        """
        return UntypedAtomic(self.string_value())

    # -- axes ---------------------------------------------------------------

    def self_axis(self) -> list["Node"]:
        return [self]

    def child_axis(self) -> list["Node"]:
        return list(self.children)

    def descendant_axis(self) -> list["Node"]:
        result: list[Node] = []
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(reversed(node.children))
        return result

    def descendant_or_self_axis(self) -> list["Node"]:
        return [self, *self.descendant_axis()]

    def parent_axis(self) -> list["Node"]:
        return [self.parent] if self.parent is not None else []

    def ancestor_axis(self) -> list["Node"]:
        result: list[Node] = []
        node = self.parent
        while node is not None:
            result.append(node)
            node = node.parent
        return result

    def ancestor_or_self_axis(self) -> list["Node"]:
        return [self, *self.ancestor_axis()]

    def following_sibling_axis(self) -> list["Node"]:
        if self.parent is None or isinstance(self, AttributeNode):
            return []
        siblings = self.parent.children
        try:
            index = next(i for i, n in enumerate(siblings) if n is self)
        except StopIteration:  # pragma: no cover - defensive
            return []
        return list(siblings[index + 1:])

    def preceding_sibling_axis(self) -> list["Node"]:
        if self.parent is None or isinstance(self, AttributeNode):
            return []
        siblings = self.parent.children
        try:
            index = next(i for i, n in enumerate(siblings) if n is self)
        except StopIteration:  # pragma: no cover - defensive
            return []
        return list(reversed(siblings[:index]))

    def following_axis(self) -> list["Node"]:
        """All nodes after this one in document order, excluding descendants."""
        result: list[Node] = []
        node: Node = self
        while node is not None:
            for sibling in node.following_sibling_axis():
                result.append(sibling)
                result.extend(sibling.descendant_axis())
            node = node.parent  # type: ignore[assignment]
            if node is None:
                break
        return result

    def preceding_axis(self) -> list["Node"]:
        """All nodes before this one in document order, excluding ancestors."""
        ancestors = set(id(a) for a in self.ancestor_or_self_axis())
        root = self.root()
        result = []
        for node in root.descendant_or_self_axis():
            if node.order_key >= self.order_key:
                break
            if id(node) not in ancestors:
                result.append(node)
        return list(reversed(result))

    def attribute_axis(self) -> list["AttributeNode"]:
        return []

    # -- misc ---------------------------------------------------------------

    def iter_tree(self) -> Iterator["Node"]:
        """Pre-order iteration over this node and all descendants.

        Iterative (explicit stack) so arbitrarily deep documents cannot hit
        Python's recursion limit — same discipline as ``descendant_axis``.
        """
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            children = node.children
            if children:
                stack.extend(reversed(children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.node_kind.value} #{self.order_key}>"


class DocumentNode(Node):
    """A document node: the root of a parsed XML document."""

    __slots__ = ("_children", "base_uri", "_id_map")

    node_kind = NodeKind.DOCUMENT

    def __init__(self, base_uri: str | None = None):
        super().__init__()
        self._children: list[Node] = []
        self.base_uri = base_uri
        self._id_map: dict[str, "ElementNode"] = {}

    @property
    def children(self) -> list[Node]:
        return self._children

    def append_child(self, child: Node) -> None:
        _notify_structure_change(child)  # invalidate the child's old tree
        child.parent = self
        self._children.append(child)
        _notify_structure_change(self)

    def document_element(self) -> "ElementNode" | None:
        """The single element child of the document, if any."""
        for child in self._children:
            if isinstance(child, ElementNode):
                return child
        return None

    def string_value(self) -> str:
        return "".join(
            child.string_value() for child in self._children if not isinstance(child, (CommentNode, ProcessingInstructionNode))
        )

    # -- ID handling (fn:id) -----------------------------------------------

    def register_id(self, value: str, element: "ElementNode") -> None:
        """Register *element* as the bearer of ID *value* (first one wins).

        A new ID changes what ``fn:id`` answers, which is a *value* change
        of the tree: the ID-reference index and a store's shredded ID table
        are built from the map."""
        if value not in self._id_map:
            self._id_map[value] = element
            _notify_value_change(self)

    def lookup_id(self, value: str) -> "ElementNode" | None:
        """Return the element carrying ID *value*, or ``None``."""
        return self._id_map.get(value)

    def id_values(self) -> list[str]:
        """All registered ID values (document order of their elements)."""
        return sorted(self._id_map, key=lambda v: self._id_map[v].order_key)


class ElementNode(Node):
    """An element node with attributes and children."""

    __slots__ = ("_name", "_children", "_attributes")

    node_kind = NodeKind.ELEMENT

    def __init__(self, name: str):
        super().__init__()
        self._name = name
        self._children: list[Node] = []
        self._attributes: list[AttributeNode] = []

    @property
    def name(self) -> str:
        return self._name

    @property
    def children(self) -> list[Node]:
        return self._children

    @property
    def attributes(self) -> list["AttributeNode"]:
        return self._attributes

    def append_child(self, child: Node) -> None:
        if isinstance(child, AttributeNode):
            raise XQueryTypeError("attributes must be added with add_attribute()")
        _notify_structure_change(child)  # invalidate the child's old tree
        child.parent = self
        self._children.append(child)
        _notify_structure_change(self)

    def add_attribute(self, attribute: "AttributeNode") -> None:
        _notify_structure_change(attribute)
        attribute.parent = self
        self._attributes.append(attribute)
        _notify_structure_change(self)

    def attribute_axis(self) -> list["AttributeNode"]:
        return list(self._attributes)

    def get_attribute(self, name: str) -> "AttributeNode" | None:
        """Look up an attribute node by name, or ``None``."""
        for attribute in self._attributes:
            if attribute.name == name:
                return attribute
        return None

    def string_value(self) -> str:
        children = self._children
        if len(children) == 1 and isinstance(children[0], TextNode):
            return children[0].content  # a leaf: no subtree to walk
        parts: list[str] = []
        for node in self.descendant_or_self_axis():
            if isinstance(node, TextNode):
                parts.append(node.content)
        return "".join(parts)


class AttributeNode(Node):
    """An attribute node; ``is_id`` marks DTD-declared ID attributes."""

    __slots__ = ("_name", "value", "is_id")

    node_kind = NodeKind.ATTRIBUTE

    def __init__(self, name: str, value: str, is_id: bool = False):
        super().__init__()
        self._name = name
        self.value = value
        self.is_id = is_id

    @property
    def name(self) -> str:
        return self._name

    def set_value(self, value: str) -> None:
        """Rewrite the attribute value, invalidating cached value indexes."""
        self.value = value
        _notify_value_change(self)

    def string_value(self) -> str:
        return self.value


class TextNode(Node):
    """A text node."""

    __slots__ = ("content",)

    node_kind = NodeKind.TEXT

    def __init__(self, content: str):
        super().__init__()
        self.content = content

    def set_value(self, content: str) -> None:
        """Rewrite the text content, invalidating cached value indexes.

        Element string values are concatenations of descendant text, so a
        text edit changes the value of every ancestor element as well — the
        hook drops the whole tree's value indexes.
        """
        self.content = content
        _notify_value_change(self)

    def string_value(self) -> str:
        return self.content


class CommentNode(Node):
    """A comment node."""

    __slots__ = ("content",)

    node_kind = NodeKind.COMMENT

    def __init__(self, content: str):
        super().__init__()
        self.content = content

    def string_value(self) -> str:
        return self.content

    def typed_value(self):
        return self.content


class ProcessingInstructionNode(Node):
    """A processing-instruction node."""

    __slots__ = ("_target", "content")

    node_kind = NodeKind.PROCESSING_INSTRUCTION

    def __init__(self, target: str, content: str):
        super().__init__()
        self._target = target
        self.content = content

    @property
    def name(self) -> str:
        return self._target

    def string_value(self) -> str:
        return self.content

    def typed_value(self):
        return self.content
