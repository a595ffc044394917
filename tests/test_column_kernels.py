"""Column kernels of a path step against the reference mode.

Three steps run over a whole column of context nodes on the structural
index instead of once per node:

* ``child::name[n]`` picks each context node's n-th child of that name from
  the child-by-name map (``repro.xdm.index.nth_child``);
* ``E/@name`` reads the owners' attributes of that name from the
  attribute-by-name map in one pass;
* ``data(E/@name)`` atomizes an attribute column in one pass.

The Hypothesis cases hold every engine on default settings to the
interpreter in reference mode (``EvalSettings.reference()``: no index, no
kernel, no rewrite) over random trees of elements, text and comments —
positions at and below 0 and past the last child, ``*`` and kind tests,
attribute and document context nodes, and columns that span two trees.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlgebraError, ReproError
from repro.session import Session
from repro.settings import EvalSettings
from repro.xdm.index import index_for, nth_child
from repro.xdm.items import is_node
from repro.xmlio.parser import parse_xml

ENGINES = ("interpreter", "algebra", "sql")

_ATTRIBUTES = st.sampled_from(("", ' k="x"', ' k="y"', ' k="x" j="z"'))
_NAME = st.sampled_from(("a", "b", "c"))
_leaf = st.one_of(
    st.sampled_from(("t", "u")),
    st.just("<!--m-->"),
    st.builds(lambda name, attributes: f"<{name}{attributes}/>", _NAME, _ATTRIBUTES),
)
_tree = st.recursive(_leaf, lambda children: st.builds(
    lambda name, attributes, content: f"<{name}{attributes}>{''.join(content)}</{name}>",
    _NAME, _ATTRIBUTES, st.lists(children, max_size=5)), max_leaves=24)
_document = st.lists(_tree, min_size=1, max_size=6).map(lambda parts: f"<r>{''.join(parts)}</r>")

#: Positions: below and at 0, inside, and past any generated child list.
_POSITION = st.integers(-1, 7)

#: ``{C}`` is the column, ``{n}`` the position.
CHILD_TEMPLATES = (
    "{C}/b[{n}]", "{C}/a[{n}]", "{C}/*[{n}]", "{C}/node()[{n}]", "{C}/text()[{n}]",
    "{C}/comment()[{n}]", "{C}/element(b)[{n}]", "{C}/b[{n}][@k]",
    "{C}/b[{n}][@k = 'x']", "{C}/b[{n}]/c[{n}]", "count({C}/b[{n}])",
    "{C}/b[position() = {n}]",
)
ATTRIBUTE_TEMPLATES = (
    "{C}/@k", "{C}/@j", "{C}/@*", "{C}/attribute(k)", "data({C}/@k)", "data({C}/@*)",
    "string-join(data({C}/@k), ',')", "count({C}/@k)", "{C}/@k/..",
)
#: Columns: elements of one tree, the document node, attributes, a mix of
#: both, and elements of two trees.
COLUMNS = (
    'doc("r.xml")//a', 'doc("r.xml")//*', 'doc("r.xml")/r', 'doc("r.xml")',
    'doc("r.xml")//@k', '(doc("r.xml")//b | doc("r.xml")//@k)',
    '(doc("r.xml")//a | doc("s.xml")//a)', '(doc("s.xml")//*, doc("r.xml")//b)',
)


def _answer(session: Session, query: str, **options):
    """The items — nodes by identity — or the error's type."""
    try:
        items = session.evaluate(query, use_cache=False, **options).items
    except ReproError as error:
        return type(error)
    return [("node", id(item)) if is_node(item) else (type(item), item) for item in items]


def _assert_like_reference(first: str, second: str, query: str) -> None:
    session = Session({"r.xml": parse_xml(first), "s.xml": parse_xml(second)})
    expected = _answer(session, query, settings=EvalSettings.reference())
    for engine in ENGINES:
        for pushdown in (True, False):
            got = _answer(session, query, engine=engine, use_pushdown=pushdown)
            if engine == "algebra" and got is AlgebraError:
                continue  # a plan the algebra engine declines is no answer
            assert got == expected, (engine, pushdown, query, first, second)


@settings(max_examples=60, deadline=None)
@given(_document, _document, st.sampled_from(CHILD_TEMPLATES),
       st.sampled_from(COLUMNS), _POSITION)
def test_nth_child_steps_answer_like_the_reference(first, second, template, column, n):
    _assert_like_reference(first, second, template.format(C=column, n=n))


@settings(max_examples=60, deadline=None)
@given(_document, _document, st.sampled_from(ATTRIBUTE_TEMPLATES), st.sampled_from(COLUMNS))
def test_attribute_columns_answer_like_the_reference(first, second, template, column):
    _assert_like_reference(first, second, template.format(C=column))


class TestNthChild:
    """The kernel itself, and where it hands the column back."""

    XML = "<r><a><b/>t<b k='1'/><!--m--><c/><b/></a><a><b/></a><a/></r>"

    def test_picks_each_parents_nth_child_in_document_order(self):
        root = parse_xml(self.XML)
        columns = root.children[0].children
        second = nth_child(list(reversed(columns)), "b", 2)
        assert [node.get_attribute("k").value for node in second] == ["1"]
        first = nth_child(columns, "b", 1)
        pre = index_for(root).pre_of
        assert [pre[id(node)] for node in first] == sorted(pre[id(node)] for node in first)
        assert len(first) == 2

    def test_past_the_last_child_contributes_nothing(self):
        root = parse_xml(self.XML)
        assert nth_child(root.children[0].children, "b", 4) == []

    @pytest.mark.parametrize("column", ["attribute", "two trees"])
    def test_declines_what_one_index_does_not_cover(self, column):
        root, other = parse_xml(self.XML), parse_xml(self.XML)
        first = root.children[0].children[0]
        nodes = ([first.children[2].attributes[0], first] if column == "attribute"
                 else [first, other.children[0].children[0]])
        assert nth_child(nodes, "b", 1) is None
