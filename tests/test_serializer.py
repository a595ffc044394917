"""The serializer's one walker against the recursive ladder it replaced.

``_serialize_node`` below is the previous implementation of
``repro.xmlio.serializer``, kept verbatim as the reference: the walker must
produce the same bytes for every node kind and every ``indent``.
"""

from __future__ import annotations

import random

import pytest

from repro.datagen.curriculum import CurriculumConfig, generate_curriculum
from repro.datagen.hospital import HospitalConfig, generate_hospital
from repro.datagen.plays import PlayConfig, generate_play
from repro.datagen.xmark import XMarkConfig, generate_auction_site
from repro.xdm.node import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xmlio.parser import parse_xml
from repro.xmlio.serializer import serialize, serialize_sequence

INDENTS = (None, 0, 2, 4)


# -- the oracle: the implementation before the single walker, verbatim --------


def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attribute(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")


def _serialize_node(node: Node, parts: list[str], indent: int | None, depth: int) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * depth) if depth or parts else " " * (indent * depth)
    if isinstance(node, DocumentNode):
        for child in node.children:
            _serialize_node(child, parts, indent, depth)
        return
    if isinstance(node, TextNode):
        parts.append(_escape_text(node.content))
        return
    if isinstance(node, CommentNode):
        parts.append(f"{pad}<!--{node.content}-->")
        return
    if isinstance(node, ProcessingInstructionNode):
        parts.append(f"{pad}<?{node.name} {node.content}?>")
        return
    if isinstance(node, AttributeNode):
        parts.append(f'{node.name}="{_escape_attribute(node.value)}"')
        return
    if isinstance(node, ElementNode):
        attrs = "".join(f' {a.name}="{_escape_attribute(a.value)}"' for a in node.attributes)
        if not node.children:
            parts.append(f"{pad}<{node.name}{attrs}/>")
            return
        parts.append(f"{pad}<{node.name}{attrs}>")
        only_text = all(isinstance(child, TextNode) for child in node.children)
        for child in node.children:
            _serialize_node(child, parts, None if only_text else indent, depth + 1)
        if indent is not None and not only_text:
            parts.append("\n" + " " * (indent * depth))
        parts.append(f"</{node.name}>")
        return
    raise TypeError(f"cannot serialize {type(node).__name__}")  # pragma: no cover


def oracle(node: Node, indent: int | None = None) -> str:
    parts: list[str] = []
    _serialize_node(node, parts, indent, 0)
    return "".join(parts)


# -- documents ---------------------------------------------------------------


def every_node(document: DocumentNode) -> list[Node]:
    """The document node, every node below it and every attribute."""
    nodes: list[Node] = []
    for node in document.descendant_or_self_axis():
        nodes.append(node)
        nodes.extend(node.attribute_axis())
    return nodes


def notes_document() -> DocumentNode:
    """The shape of the ledger's ``notes.xml``: attributes and long texts."""
    notes = "".join(f'<note id="n{index}">{index:08x} lorem ipsum dolor sit amet</note>'
                    for index in range(12))
    return parse_xml(f'<notes version="3">{notes}</notes>')


TINY_DOCUMENTS = {
    "curriculum": lambda: generate_curriculum(CurriculumConfig.tiny()),
    "auction": lambda: generate_auction_site(XMarkConfig.tiny()),
    "hospital": lambda: generate_hospital(HospitalConfig.tiny()),
    "play": lambda: generate_play(PlayConfig.tiny()),
    "notes": notes_document,
}

SPECIAL_TEXTS = ("plain", "a &amp; b", "1 &lt; 2", "3 &gt; 2", "&lt;&amp;&gt;", " ", "tail ")
SPECIAL_VALUES = ("v", "a&amp;b", "&lt;tag&gt;", "say &quot;hi&quot;", "&amp;&lt;&gt;&quot;", "")


def random_document(seed: int) -> DocumentNode:
    """Every node kind, mixed content, empty and text-only elements, and
    values that need escaping next to values that do not."""
    rng = random.Random(seed)

    def subtree(depth: int) -> str:
        name = rng.choice("abcde")
        attrs = "".join(f' {attr}="{rng.choice(SPECIAL_VALUES)}"'
                        for attr in ("x", "y") if rng.random() < 0.4)
        if rng.random() < 0.15:
            return f"<{name}{attrs}/>"
        if depth > 3 or rng.random() < 0.25:
            return f"<{name}{attrs}>{rng.choice(SPECIAL_TEXTS)}</{name}>"
        inner = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.6:
                inner.append(subtree(depth + 1))
            elif roll < 0.8:
                inner.append(rng.choice(SPECIAL_TEXTS))  # mixed content
            elif roll < 0.9:
                inner.append("<!-- a comment -->")
            else:
                inner.append("<?target some data?>")
        return f"<{name}{attrs}>{''.join(inner)}</{name}>"

    prolog = "<!-- before --><?style sheet?>" if rng.random() < 0.5 else ""
    epilog = "<!-- after -->" if rng.random() < 0.5 else ""
    return parse_xml(f"{prolog}<root>{subtree(0)}{subtree(0)}</root>{epilog}")


# -- the walker is the oracle, byte for byte ----------------------------------


class TestWalkerMatchesTheLadder:
    @pytest.mark.parametrize("name", sorted(TINY_DOCUMENTS))
    def test_every_node_of_the_tiny_corpus(self, name):
        document = TINY_DOCUMENTS[name]()
        nodes = every_node(document)
        assert len(nodes) > 20
        for indent in INDENTS:
            for node in nodes:
                assert serialize(node, indent) == oracle(node, indent)

    @pytest.mark.parametrize("seed", range(50))
    def test_every_node_of_random_documents(self, seed):
        document = random_document(seed)
        for indent in INDENTS:
            for node in every_node(document):
                assert serialize(node, indent) == oracle(node, indent)

    def test_random_documents_cover_every_node_kind(self):
        kinds = {type(node) for seed in range(50) for node in every_node(random_document(seed))}
        assert kinds == {DocumentNode, ElementNode, AttributeNode, TextNode,
                         CommentNode, ProcessingInstructionNode}

    @pytest.mark.parametrize("seed", range(50))
    def test_round_trip(self, seed):
        document = random_document(seed)
        text = serialize(document)
        assert serialize(parse_xml(text)) == text


class TestEscaping:
    def test_text_escapes_only_markup_characters(self):
        element = ElementNode("t")
        element.append_child(TextNode('a & b < c > d "quoted"'))
        assert serialize(element) == '<t>a &amp; b &lt; c &gt; d "quoted"</t>'
        assert serialize(element.children[0]) == 'a &amp; b &lt; c &gt; d "quoted"'

    def test_attribute_escapes_quotes_too(self):
        element = ElementNode("t")
        element.add_attribute(AttributeNode("v", '& < > "'))
        assert serialize(element) == '<t v="&amp; &lt; &gt; &quot;"/>'
        assert serialize(element.attributes[0]) == 'v="&amp; &lt; &gt; &quot;"'

    @pytest.mark.parametrize("special", ["&", "<", ">", '"'])
    def test_each_special_character_alone(self, special):
        element = ElementNode("t")
        element.add_attribute(AttributeNode("v", f"x{special}y"))
        element.append_child(TextNode(f"x{special}y"))
        assert serialize(element) == oracle(element)

    def test_values_that_need_no_escaping_pass_through(self):
        element = ElementNode("t")
        element.add_attribute(AttributeNode("v", "it's plain"))
        element.append_child(TextNode("it's plain; really"))
        assert serialize(element) == "<t v=\"it's plain\">it's plain; really</t>"


class TestIndentation:
    def test_text_only_elements_stay_on_one_line(self):
        document = parse_xml("<a><b>one</b><c>two<!--x-->three</c></a>")
        assert serialize(document, indent=2) == (
            "<a>\n  <b>one</b>\n  <c>two\n    <!--x-->three\n  </c>\n</a>")

    def test_empty_elements_and_mixed_content(self):
        document = parse_xml("<a><e/>text<b><e/></b>tail</a>")
        assert serialize(document, indent=2) == (
            "<a>\n  <e/>text\n  <b>\n    <e/>\n  </b>tail\n</a>")
        assert serialize(document) == "<a><e/>text<b><e/></b>tail</a>"

    def test_document_level_comments_and_instructions(self):
        document = parse_xml("<!--c--><?pi d?><a/>")
        assert serialize(document) == "<!--c--><?pi d?><a/>"
        assert serialize(document, indent=2) == "<!--c-->\n<?pi d?>\n<a/>"

    def test_a_nested_item_starts_without_a_line_break(self):
        inner = parse_xml("<a><b><c/></b></a>").document_element().children[0]
        assert serialize(inner, indent=4) == "<b>\n    <c/>\n</b>"


class TestSubclasses:
    """Exact-type dispatch is the fast path, not the contract."""

    def test_subclasses_serialize_as_their_base(self):
        class MyElement(ElementNode):
            pass

        class MyText(TextNode):
            pass

        class MyAttribute(AttributeNode):
            pass

        root = MyElement("root")
        root.add_attribute(MyAttribute("k", "<v>"))
        leaf = MyElement("leaf")
        leaf.append_child(MyText("a & b"))
        root.append_child(leaf)
        root.append_child(ElementNode("plain"))
        for indent in INDENTS:
            assert serialize(root, indent) == oracle(root, indent)
        assert serialize(root) == '<root k="&lt;v&gt;"><leaf>a &amp; b</leaf><plain/></root>'
        # all children of <leaf> are text, by isinstance: it closes on its line
        assert serialize(root, indent=2) == (
            '<root k="&lt;v&gt;">\n  <leaf>a &amp; b</leaf>\n  <plain/>\n</root>')

    def test_an_unknown_node_class_is_a_type_error(self):
        class Strange(Node):
            pass

        with pytest.raises(TypeError, match="cannot serialize Strange"):
            serialize(Strange())


def test_serialize_sequence_keeps_its_shape():
    document = parse_xml("<a><b>x &amp; y</b></a>")
    element = document.document_element()
    assert serialize_sequence([1, "x", element, 2.5, element.children[0]]) == (
        "1 x <a><b>x &amp; y</b></a> 2.5 <b>x &amp; y</b>")
    assert serialize_sequence([element], indent=2) == "<a>\n  <b>x &amp; y</b>\n</a>"
