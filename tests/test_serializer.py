"""The serializer's one walker against the recursive ladder it replaced,
and the reply path's tree text against the walker.

``_serialize_node`` below is the previous implementation of
``repro.xmlio.serializer``, kept verbatim as the reference: the walker must
produce the same bytes for every node kind and every ``indent``.  A reply
item sliced out of a tree text must be the bytes the walker writes for it.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.xdm.index import cached_index, index_for
from repro.xdm.items import format_atomic
from repro.xmlio.parser import parse_xml
from repro.xmlio.serializer import ReplyTally, serialize, serialize_items, serialize_sequence

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


# -- the tree text: a served node is a slice, byte for byte the walker's -------


def reply(items: list) -> tuple[list[str], ReplyTally]:
    tally = ReplyTally()
    return serialize_items(items, tally=tally), tally


def walked(items: list) -> list[str]:
    """The reply as the walker writes it: the oracle of the tree text."""
    return [serialize(item) if isinstance(item, Node) else format_atomic(item)
            for item in items]


def elements_of(root: Node) -> list[Node]:
    return [node for node in root.descendant_or_self_axis()
            if isinstance(node, (ElementNode, DocumentNode))]


NAMES = st.sampled_from(["a", "b", "c-d", "e.f", "g_h"])
SPECIALS = st.text(alphabet='xy &<>"', max_size=6)
LEAVES = st.one_of(
    st.tuples(st.just("text"), SPECIALS),
    st.tuples(st.just("comment"), st.text(alphabet="xy &<>", max_size=5)),
    st.tuples(st.just("pi"), st.sampled_from(["t", "x-y"]),
              st.text(alphabet="xy &<>", max_size=5)),
    st.tuples(st.just("element"), NAMES,
              st.dictionaries(NAMES, SPECIALS, max_size=2), st.just([])),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.tuples(st.just("element"), NAMES,
                               st.dictionaries(NAMES, SPECIALS, max_size=3),
                               st.lists(children, max_size=4)),
    max_leaves=25)


def built(spec) -> Node:
    kind = spec[0]
    if kind == "text":
        return TextNode(spec[1])
    if kind == "comment":
        return CommentNode(spec[1])
    if kind == "pi":
        return ProcessingInstructionNode(spec[1], spec[2])
    _, name, attributes, children = spec
    element = ElementNode(name)
    for attribute, value in attributes.items():
        element.add_attribute(AttributeNode(attribute, value))
    for child in children:
        element.append_child(built(child))
    return element


def tree_of(specs: list, in_document: bool) -> Node:
    """The specs under a document node, or the first element's tree alone."""
    nodes = [built(spec) for spec in specs]
    if not in_document:
        return next((node for node in nodes if isinstance(node, ElementNode)),
                    ElementNode("a"))
    document = DocumentNode()
    for node in nodes:
        document.append_child(node)
    return document


class TestTreeText:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(TREES, min_size=1, max_size=3), st.booleans())
    def test_every_element_of_a_random_tree_is_the_walkers_text(self, specs, in_document):
        root = tree_of(specs, in_document)
        index_for(root)
        nodes = elements_of(root)
        first, tally = reply(nodes)
        assert first == walked(nodes)
        assert (tally.sliced, tally.walked, tally.built) == (0, len(nodes), 0)
        second, tally = reply(nodes)
        assert second == walked(nodes)
        assert (tally.sliced, tally.walked, tally.built) == (len(nodes), 0, 1)

    @pytest.mark.parametrize("name", sorted(TINY_DOCUMENTS))
    def test_every_node_of_the_tiny_corpus(self, name):
        document = TINY_DOCUMENTS[name]()
        index_for(document)
        nodes = every_node(document)
        reply(nodes)
        texts, tally = reply(nodes)
        assert texts == [oracle(node) for node in nodes]
        assert tally.sliced == len(elements_of(document)) and tally.built == 1

    def test_items_interleave_two_trees_atomics_attributes_and_texts(self):
        one = parse_xml('<a k="1 &amp; 2"><b>x &lt; y</b><c/></a>')
        two = parse_xml("<p><q>r</q><!--s--></p>")
        for document in (one, two):
            index_for(document)
        a, b = one.document_element(), one.document_element().children[0]
        p = two.document_element()
        items = [a, 1, p.children[0], a.attributes[0], "z", b.children[0], b,
                 p.children[1], two, p, 2.5, True, one, a.children[1]]
        assert reply(items)[0] == walked(items)
        texts, tally = reply(items)
        assert texts == walked(items)
        assert (tally.sliced, tally.walked, tally.built) == (7, 3, 2)
        assert serialize_sequence(items) == (
            '<a k="1 &amp; 2"><b>x &lt; y</b><c/></a> 1 <q>r</q> k="1 &amp; 2" z '
            "x &lt; y <b>x &lt; y</b> <!--s--> <p><q>r</q><!--s--></p> "
            '<p><q>r</q><!--s--></p> 2.5 true <a k="1 &amp; 2"><b>x &lt; y</b>'
            "<c/></a> <c/>")

    def test_a_tree_without_an_index_is_walked_and_gets_none(self):
        element = built(("element", "a", {"k": "<"}, [("element", "b", {}, [("text", "&")])]))
        nodes = elements_of(element)
        for _ in range(3):
            texts, tally = reply(nodes)
            assert texts == walked(nodes)
            assert (tally.sliced, tally.walked, tally.built) == (0, 2, 0)
        assert cached_index(element) is None

    def test_the_first_reply_builds_no_text_and_the_second_does(self):
        document = random_document(7)
        index_for(document)
        nodes = elements_of(document)
        assert reply(nodes[:3])[1].built == 0
        assert reply(nodes[:1])[1].built == 1  # the tree's second reply
        texts, tally = reply(nodes)
        assert texts == walked(nodes) and tally.built == 0 and tally.walked == 0

    def test_one_reply_asks_for_a_tree_once(self):
        """Two runs of one tree in one reply are still its first reply."""
        one, two = parse_xml("<a><b/></a>"), parse_xml("<c/>")
        for document in (one, two):
            index_for(document)
        items = [one, two, one.document_element(), two]
        assert reply(items)[1].built == 0
        assert reply(items)[1].built == 2

    @pytest.mark.parametrize("edit, expected", [
        ("text", '<a><b k="old">new &amp; more</b><c/></a>'),
        ("attribute", '<a><b k="&quot;new&quot;">old</b><c/></a>'),
        ("register_id", '<a><b k="new">old</b><c/></a>'),
        ("append_child", '<a><b k="old">old</b><c>new</c></a>'),
    ])
    def test_a_reply_after_an_edit_shows_the_new_content(self, edit, expected):
        document = parse_xml('<a><b k="old">old</b><c/></a>')
        index_for(document)
        a = document.document_element()
        b, c = a.children
        items = [document, a, b, c]
        reply(items)
        assert reply(items)[1].sliced == 4
        if edit == "text":
            b.children[0].set_value("new & more")
        elif edit == "attribute":
            b.attributes[0].set_value('"new"')
        elif edit == "register_id":
            # a write no hook sees, then one the value hook does
            b.attributes[0].value = "new"
            document.register_id("i", c)
        else:
            c.append_child(TextNode("new"))
        index_for(document)
        for _ in range(3):  # walked, then built, then sliced
            texts = reply(items)[0]
            assert texts == walked(items) and texts[0] == expected

    def test_concurrent_replies_and_an_edit(self):
        """Threads replying from one tree while another edits a text: no
        reply is anything but the walker's bytes before the edit or after
        it, and once the edit is done every reply shows it."""
        document = random_document(11)
        index_for(document)
        nodes = elements_of(document)
        text = next(node for node in document.descendant_axis() if isinstance(node, TextNode))
        before = walked(nodes)
        replies: list[list[str]] = []
        edited = threading.Event()

        def read() -> None:
            for _ in range(40):
                replies.append(reply(nodes)[0])
                if len(replies) == 60:
                    edited.set()

        def edit() -> None:
            edited.wait(10)
            text.set_value("edited & new")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(6)]
            threads.append(threading.Thread(target=edit))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        after = walked(nodes)
        assert after != before and len(replies) == 240
        for texts in replies:
            assert all(text in (old, new) for text, old, new in zip(texts, before, after))
        for _ in range(3):
            assert reply(nodes)[0] == after
