"""Serialization of XDM nodes and sequences back to XML text.

:func:`serialize` turns one node into text; :func:`serialize_items` turns
the items of a result into one text each (the service's reply, also
re-exported as ``repro.service.server.serialize_items``), and
:func:`serialize_sequence` joins those into one line (the CLI's output).

There is one walker, :func:`_write`, for compact and indented output.  It
dispatches on the exact class (the six node classes of
:mod:`repro.xdm.node`; an instance of a subclass is mapped to its base by
an ``isinstance`` pass first), writes an element's text children in the
element's own loop instead of recursing for them, escapes a value only
when it holds one of ``& < >`` (``"`` in attributes), and does no padding
work when ``indent`` is ``None``.  The recursive ``isinstance`` ladder it
replaced lives on in ``tests/test_serializer.py`` as the oracle: the
output is byte-identical for every node kind and every ``indent``.

A reply does not walk every node it serves.  A 308-``course`` curriculum
answer is 1 800 nodes, and walking them cost four times what computing the
answer did; so an indexed tree keeps its *tree text*
(:meth:`repro.xdm.index.StructuralIndex.tree_text`): the walker run once
over the whole tree, noting where each element's text starts and ends.
An element or document of that tree is then ``text[start:end]``.  The
first reply out of a tree walks as before and only notes the tree, the
second builds the text, and a tree without a cached index (a constructed
one) is always walked: serializing never builds an index, and a one-shot
caller never pays for a whole document to print a piece of it.  The text
is a value index, dropped by every edit the index hooks see.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, NamedTuple

from repro.xdm.index import StructuralIndex, cached_index
from repro.xdm.items import format_atomic, is_node
from repro.xdm.node import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    ProcessingInstructionNode,
    TextNode,
)


def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attribute(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")


def serialize(node: Node, indent: int | None = None) -> str:
    """Serialize a single node to XML text.

    ``indent`` enables pretty printing with the given indentation width;
    by default output is compact (no insignificant whitespace is added).
    """
    parts: list[str] = []
    _write(node, parts, indent, 0)
    return "".join(parts)


def serialize_sequence(sequence: Sequence[Any], indent: int | None = None) -> str:
    """Serialize an item sequence (nodes as XML, atomic values space-joined)."""
    parts: list[str] = []
    pending_atomics: list[str] = []
    texts = (serialize_items(sequence) if indent is None else
             [serialize(item, indent) if is_node(item) else format_atomic(item)
              for item in sequence])
    for item, text in zip(sequence, texts):
        if is_node(item):
            if pending_atomics:
                parts.append(" ".join(pending_atomics))
                pending_atomics = []
            parts.append(text)
        else:
            pending_atomics.append(text)
    if pending_atomics:
        parts.append(" ".join(pending_atomics))
    return " ".join(part for part in parts if part)


class TreeText(NamedTuple):
    """A tree serialized once: the compact text of its root, and for each
    pre of an element (and of the root) the ``[start, end)`` of that node's
    own text in it; ``end`` is 0 at every other pre."""

    text: str
    start: array
    end: array


@dataclass
class ReplyTally:
    """What the node items of replies cost: served as a slice of a tree
    text, or walked; and how many tree texts the replies built."""

    sliced: int = 0
    walked: int = 0
    built: int = 0


def _tree_text(index: StructuralIndex) -> TreeText:
    """The walker run once over the root of *index*'s tree, noting the
    parts each element's text starts and ends at.  It visits the elements
    in document order, which is the order of ``index.elem_pres``."""
    parts: list[str] = []
    marks: list[int] = []
    _write(index.root, parts, None, 0, marks)
    offsets = list(accumulate(map(len, parts), initial=0))
    start = [0] * len(index.nodes)
    end = start.copy()
    for pre, first, last in zip(index.elem_pres, marks[::2], marks[1::2]):
        start[pre] = offsets[first]
        end[pre] = offsets[last]
    end[0] = offsets[-1]  # the root, whatever its kind, is the whole text
    return TreeText("".join(parts), array("l", start), array("l", end))


def serialize_items(items: Sequence[Any], tally: ReplyTally | None = None) -> list[str]:
    """Per-item compact serialization: nodes as XML text, atomics lexically.

    An element or document of a tree replied from before is a slice of its
    tree text; the tree's index is looked up once per run of items from
    one tree, and asked for its text once per call.  Every other node is
    walked.  *tally*, if given, adds up what the items cost.
    """
    built = 0

    def build(index: StructuralIndex) -> TreeText:
        nonlocal built
        built += 1
        return _tree_text(index)

    texts: list[str] = []
    asked: dict[StructuralIndex, TreeText | None] = {}
    pre_of: dict[int, int] = {}  # the current run's tree: node id → pre
    tree = None                  # and its text, or None: walk
    sliced = walked = 0
    for item in items:
        if not is_node(item):
            texts.append(format_atomic(item))
            continue
        pre = pre_of.get(id(item))
        if pre is None and type(item) is not AttributeNode:  # attributes have no pre
            index = cached_index(item)
            if index is None:
                pre_of, tree = {}, None
            else:
                if index not in asked:
                    asked[index] = index.tree_text(build)
                pre_of, tree = index.pre_of, asked[index]
                pre = pre_of.get(id(item))
        if tree is not None and pre is not None and tree.end[pre]:
            texts.append(tree.text[tree.start[pre]:tree.end[pre]])
            sliced += 1
        else:
            texts.append(serialize(item))
            walked += 1
    if tally is not None:
        tally.sliced += sliced
        tally.walked += walked
        tally.built += built
    return texts


#: The node classes the walker knows, most frequent first: the exact-type
#: dispatch of :func:`_write` and the ``isinstance`` fallback for subclasses.
_KINDS = (ElementNode, TextNode, AttributeNode, CommentNode,
          ProcessingInstructionNode, DocumentNode)


def _kind_of(node: Node) -> type:
    """The class of ``_KINDS`` an instance of a *subclass* serializes as."""
    for kind in _KINDS:
        if isinstance(node, kind):
            return kind
    raise TypeError(f"cannot serialize {type(node).__name__}")


def _pad(parts: list[str], indent: int | None, depth: int) -> str:
    """What goes in front of a tag: under indentation a new line and the
    indent, except before the very first thing written."""
    if indent is None or not (depth or parts):
        return ""
    return "\n" + " " * (indent * depth)


def _write(node: Node, parts: list[str], indent: int | None, depth: int,
           marks: list[int] | None = None) -> None:
    """Append the XML text of *node*'s subtree to *parts*.

    One walker for compact and indented output.  Under indentation every
    element, comment and processing instruction starts on a line of its
    own, text never does, and an element closes on its own line unless
    all its children are text.  With *marks*, every element appends the
    index in *parts* of its first part and of the part after its last.
    """
    kind = type(node)
    if kind not in _KINDS:
        kind = _kind_of(node)
    if kind is ElementNode:
        if marks is not None:
            slot = len(marks)
            marks += (len(parts), 0)
        name = node.name
        tag = f"<{name}" if indent is None else f"{_pad(parts, indent, depth)}<{name}"
        for attribute in node.attributes:
            value = attribute.value
            if "&" in value or "<" in value or ">" in value or '"' in value:
                value = _escape_attribute(value)
            tag += f' {attribute.name}="{value}"'
        children = node.children
        if not children:
            parts.append(tag + "/>")
        else:
            parts.append(tag + ">")
            own_line = False  # the end tag's, under indentation: a child is no text
            for child in children:
                if type(child) is TextNode:
                    text = child.content
                    if "&" in text or "<" in text or ">" in text:
                        text = _escape_text(text)
                    parts.append(text)
                else:
                    _write(child, parts, indent, depth + 1, marks)
                    if indent is not None and not own_line:
                        own_line = not isinstance(child, TextNode)
            parts.append(f"{_pad(parts, indent, depth)}</{name}>" if own_line else f"</{name}>")
        if marks is not None:
            marks[slot + 1] = len(parts)
    elif kind is TextNode:
        parts.append(_escape_text(node.content))
    elif kind is AttributeNode:
        parts.append(f'{node.name}="{_escape_attribute(node.value)}"')
    elif kind is CommentNode:
        parts.append(f"{_pad(parts, indent, depth)}<!--{node.content}-->")
    elif kind is ProcessingInstructionNode:
        parts.append(f"{_pad(parts, indent, depth)}<?{node.name} {node.content}?>")
    else:
        for child in node.children:  # the document node
            _write(child, parts, indent, depth, marks)
