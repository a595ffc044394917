"""Unit tests for the XDM node model: identity, order, axes, values."""

import pytest

from repro.errors import XQueryTypeError
from repro.xdm import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    ProcessingInstructionNode,
    TextNode,
    attribute,
    comment,
    copy_node,
    document,
    element,
    processing_instruction,
    text,
)


@pytest.fixture()
def tree():
    #         <root>
    #           <a id="1"> "alpha" <c/> </a>
    #           <b> <d/> <e/> </b>
    #         </root>
    return document(
        element(
            "root",
            element("a", attribute("id", "1", is_id=True), text("alpha"), element("c")),
            element("b", element("d"), element("e")),
        )
    )


def _by_name(root, name):
    return next(node for node in root.iter_tree() if node.name == name)


class TestIdentityAndOrder:
    def test_order_keys_follow_document_order(self, tree):
        names = [node.name for node in tree.document_element().iter_tree()
                 if isinstance(node, ElementNode)]
        assert names == ["root", "a", "c", "b", "d", "e"]
        keys = [node.order_key for node in tree.document_element().iter_tree()]
        assert keys == sorted(keys)

    def test_precedes_and_follows(self, tree):
        a = _by_name(tree, "a")
        e = _by_name(tree, "e")
        assert a.precedes(e)
        assert e.follows(a)
        assert not a.precedes(a)

    def test_is_same_node_is_identity(self, tree):
        a = _by_name(tree, "a")
        other = element("a")
        assert a.is_same_node(a)
        assert not a.is_same_node(other)

    def test_copy_creates_fresh_identity(self, tree):
        a = _by_name(tree, "a")
        copy = copy_node(a)
        assert not copy.is_same_node(a)
        assert copy.name == "a"
        assert copy.order_key > a.order_key
        assert [child.name for child in copy.children if child.name] == ["c"]


class TestAxes:
    def test_child_and_descendant(self, tree):
        root = tree.document_element()
        assert [n.name for n in root.child_axis()] == ["a", "b"]
        assert [n.name for n in root.descendant_axis() if isinstance(n, ElementNode)] == \
            ["a", "c", "b", "d", "e"]

    def test_parent_and_ancestor(self, tree):
        c = _by_name(tree, "c")
        assert [n.name for n in c.parent_axis()] == ["a"]
        assert [getattr(n, "name", None) for n in c.ancestor_axis()] == ["a", "root", None]
        assert c.ancestor_or_self_axis()[0] is c

    def test_sibling_axes(self, tree):
        d = _by_name(tree, "d")
        assert [n.name for n in d.following_sibling_axis()] == ["e"]
        e = _by_name(tree, "e")
        assert [n.name for n in e.preceding_sibling_axis()] == ["d"]
        assert _by_name(tree, "root").following_sibling_axis() == []

    def test_following_and_preceding(self, tree):
        a = _by_name(tree, "a")
        following_names = [n.name for n in a.following_axis() if isinstance(n, ElementNode)]
        assert following_names == ["b", "d", "e"]
        e = _by_name(tree, "e")
        preceding = [n.name for n in e.preceding_axis() if isinstance(n, ElementNode)]
        assert "a" in preceding and "c" in preceding and "d" in preceding
        assert "root" not in preceding  # ancestors are excluded

    def test_attribute_axis(self, tree):
        a = _by_name(tree, "a")
        assert [attr.name for attr in a.attribute_axis()] == ["id"]
        assert a.get_attribute("id").value == "1"
        assert a.get_attribute("missing") is None

    def test_attributes_have_no_siblings(self, tree):
        a = _by_name(tree, "a")
        attr = a.get_attribute("id")
        assert attr.following_sibling_axis() == []
        assert attr.preceding_sibling_axis() == []


class TestValues:
    def test_string_value_of_element_concatenates_text(self, tree):
        a = _by_name(tree, "a")
        assert a.string_value() == "alpha"
        assert tree.document_element().string_value() == "alpha"

    @pytest.mark.parametrize("content, expected", [
        ([text("only")], "only"),                                   # the leaf fast path
        ([], ""),
        ([text("one"), text("two")], "onetwo"),
        ([text("a"), element("x", text("b"), element("y", text("c"))), text("d")], "abcd"),
        ([element("x", text("deep"))], "deep"),                     # one child, not text
        ([comment("no"), text("yes"), processing_instruction("t", "no")], "yes"),
        ([comment("no")], ""),
    ])
    def test_string_value_of_element_shapes(self, content, expected):
        assert element("e", *content).string_value() == expected

    def test_string_value_sees_a_text_rewrite(self):
        leaf = element("e", text("before"))
        assert leaf.string_value() == "before"
        leaf.children[0].set_value("after")
        assert leaf.string_value() == "after"
        assert leaf.typed_value() == "after"

    def test_typed_value_is_untyped_atomic(self, tree):
        from repro.xdm.items import UntypedAtomic

        value = _by_name(tree, "a").typed_value()
        assert isinstance(value, UntypedAtomic)
        assert value == "alpha"

    def test_leaf_node_values(self):
        assert text("hi").string_value() == "hi"
        assert comment("note").string_value() == "note"
        assert processing_instruction("target", "data").string_value() == "data"
        assert attribute("a", 3).string_value() == "3"

    def test_root_and_document(self, tree):
        c = _by_name(tree, "c")
        assert isinstance(c.root(), DocumentNode)
        assert c.document() is tree
        detached = element("loose")
        assert detached.document() is None
        assert detached.root() is detached


class TestDocumentNode:
    def test_document_element(self, tree):
        assert tree.document_element().name == "root"
        empty = DocumentNode()
        assert empty.document_element() is None

    def test_id_registration(self, tree):
        assert tree.lookup_id("1").name == "a"
        assert tree.lookup_id("nope") is None
        assert tree.id_values() == ["1"]

    def test_element_rejects_attribute_children(self):
        with pytest.raises(XQueryTypeError):
            element("x").append_child(AttributeNode("a", "1"))

    def test_builder_flattens_nested_iterables(self):
        node = element("list", [element("item", str(i)) for i in range(3)])
        assert [child.name for child in node.children] == ["item"] * 3
        assert node.children[1].string_value() == "1"

    def test_builder_rejects_unsupported_content(self):
        with pytest.raises(XQueryTypeError):
            element("bad", object())


class TestNodeKinds:
    def test_repr_and_kind_strings(self, tree):
        a = _by_name(tree, "a")
        assert "element" in repr(a)
        assert TextNode("x").node_kind.value == "text"
        assert CommentNode("x").node_kind.value == "comment"
        assert ProcessingInstructionNode("t", "x").node_kind.value == "processing-instruction"

    def test_pi_and_comment_typed_values_are_strings(self):
        assert ProcessingInstructionNode("t", "d").typed_value() == "d"
        assert CommentNode("c").typed_value() == "c"
