"""Serialization of XDM nodes and sequences back to XML text.

:func:`serialize` turns one node into text, :func:`serialize_sequence` an
item sequence (the CLI's output), and the service's ``serialize_items``
calls :func:`serialize` once per result node — a 329-``course`` reply is
1 800 nodes, so the per-node cost of the walker is the cost of the reply.

There is one walker, :func:`_write`, for compact and indented output.  It
dispatches on the exact class (the six node classes of
:mod:`repro.xdm.node`; an instance of a subclass is mapped to its base by
an ``isinstance`` pass first), writes an element's text children in the
element's own loop instead of recursing for them, escapes a value only
when it holds one of ``& < >`` (``"`` in attributes), and does no padding
work when ``indent`` is ``None``.  The recursive ``isinstance`` ladder it
replaced lives on in ``tests/test_serializer.py`` as the oracle: the
output is byte-identical for every node kind and every ``indent``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

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
    for item in sequence:
        if is_node(item):
            if pending_atomics:
                parts.append(" ".join(pending_atomics))
                pending_atomics = []
            parts.append(serialize(item, indent=indent))
        else:
            pending_atomics.append(format_atomic(item))
    if pending_atomics:
        parts.append(" ".join(pending_atomics))
    return " ".join(part for part in parts if part)


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


def _write(node: Node, parts: list[str], indent: int | None, depth: int) -> None:
    """Append the XML text of *node*'s subtree to *parts*.

    One walker for compact and indented output.  Under indentation every
    element, comment and processing instruction starts on a line of its
    own, text never does, and an element closes on its own line unless
    all its children are text.
    """
    kind = type(node)
    if kind not in _KINDS:
        kind = _kind_of(node)
    if kind is ElementNode:
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
            return
        parts.append(tag + ">")
        own_line = False  # the end tag's, under indentation: a child is no text
        for child in children:
            if type(child) is TextNode:
                text = child.content
                if "&" in text or "<" in text or ">" in text:
                    text = _escape_text(text)
                parts.append(text)
            else:
                _write(child, parts, indent, depth + 1)
                if indent is not None and not own_line:
                    own_line = not isinstance(child, TextNode)
        parts.append(f"{_pad(parts, indent, depth)}</{name}>" if own_line else f"</{name}>")
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
            _write(child, parts, indent, depth)
