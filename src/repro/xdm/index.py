"""Per-document structural index: axis steps as array slices and dict hits.

This is the in-memory counterpart of the pre/post plane the SQL backend
shreds documents into (:mod:`repro.sqlbackend.schema`): one document-order
walk assigns every tree node a ``pre`` rank (entry tick) and ``post`` rank
(exit tick), after which

* document order      == ascending ``pre``,
* the descendants of the node at ``pre`` ``p`` are exactly the contiguous
  slice ``(p, p + size[p]]`` of the pre-order array (``size[p]`` being the
  subtree's descendant count), and
* ``a`` is an ancestor of ``d``  ⟺  ``pre[a] < pre[d] and post[a] > post[d]``.

On top of the plain arrays (``nodes``, ``post``, ``level``, ``parent_pre``,
``size``, ``sib_pos``) the index keeps a *name inverted index* — element
name → sorted list of ``pre`` ranks — so a ``descendant::n`` step is two
bisections into that list, lazy *child-by-name maps*, one per element name
(parent pre → ascending child pres), so a ``child::n`` step is a dict
lookup that stays in pre-space, and lazy *value indexes* (attribute
owners, the path-value index) that answer value predicates — from the
candidate's side as a membership test, or from the index's side
(:func:`batch_probe`) without enumerating candidates at all — among them
the *ID-reference index* (:meth:`StructuralIndex.idref_targets`): parent
pre → pres of the elements its ``name`` children's ID references resolve
to.  The value indexes hold integers and strings only and pin no node; a
text or attribute edit and a newly registered ID drop them.

The batch kernels (:func:`batch_step`; :func:`batch_id` for ``fn:id`` over
a column of references; :func:`batch_id_path` for ``id(n1/…/nk)`` over a
column of context nodes) take a whole column at once; :func:`nth_sibling`
answers a sibling step with a ``[n]`` predicate by a walk that stops at the
n-th match, for both engines.  For the descendant
axes the context intervals are merged (nested intervals are skipped, which
is what makes the result duplicate-free *by construction*).  The downward
named steps — ``child::n``, and a chain of them under ``fn:id`` — are
integer work: pres in, dict probes, ``sorted`` pres out, node objects
gathered once at the end.  Intermediate columns need neither dedup nor
sort, because the children of distinct parents are distinct and document
order is ascending pre.  For every other axis results are deduplicated by
identity and sorted once by ``order_key`` — never the quadratic per-node
filtering the naive axis methods would add up to.

A whole fixpoint can stay in pre-space too: a recursion body Figure 5
proves distributive that reads nothing but its node's tree is a
:class:`StepRelation` (Definition 3.1: the body is the relation
``x ↦ e({x})``), which the fixpoint driver binds to the seed's tree
(:class:`ImageSpace`) — the seed encoded once, every round the union of
the fed pres' images, the fixed point decoded once.  The images are a
value index (:meth:`StructuralIndex.memo`), filled by the calling engine's
own body on one node the second time that node misses — or, by the SQL
engine, from the one recursive CTE that reaches every source at once —
up to as many pres as the tree has nodes.

The reply path keeps one more value index, the *tree text*
(:meth:`StructuralIndex.tree_text`): the serializer's compact text of the
whole tree with each element pre's offsets into it, built the second time
a reply asks for the tree, so that a served node is a slice of one string.

Indexes are built lazily, once per tree root, and shared by every engine
(interpreter and algebra; the SQL backend has its own shredded copy).  A
small registry keeps the most recently used indexes; structural mutations
(``append_child``, ``add_attribute``, the builders' ``_renumber_subtree``)
invalidate the affected tree's entry through the hook this module installs
into :mod:`repro.xdm.node` on import — before that import no index exists,
so node construction pays nothing.  The same hooks keep a *change token*
per tree a SQLite store has shredded (:func:`watch_tree`), which is how a
store learns that one of its trees, and not some other, was mutated.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from collections import OrderedDict
from collections.abc import Callable, Iterable, KeysView
from threading import RLock

from repro import faults
from repro.errors import FixpointError
from repro.observability.tracing import current_trace
from repro.xdm import node as _node_module
from repro.xdm.items import string_value_of_item
from repro.xdm.node import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xdm.sequence import doc_order

#: Axes whose natural order is reverse document order (mirrors the
#: evaluator's REVERSE_AXES; kept here so the index has no xquery import).
_REVERSE_AXES = {"ancestor", "ancestor-or-self", "parent", "preceding",
                 "preceding-sibling"}

_KIND_CLASSES = {
    "text": TextNode,
    "comment": CommentNode,
    "processing-instruction": ProcessingInstructionNode,
    "document-node": DocumentNode,
}

#: :meth:`StructuralIndex.memo` key of :meth:`StructuralIndex.ids_in_tree`.
_IDS_IN_TREE = object()

#: :meth:`StructuralIndex.memo` key of :meth:`StructuralIndex.tree_text`.
_TREE_TEXT = object()

#: Shared empty results for value-index misses (never mutated).
_EMPTY_SET: frozenset = frozenset()
_EMPTY_DICT: dict = {}


class StructuralIndex:
    """Pre/post-plane arrays plus name indexes for one tree.

    Attribute nodes are deliberately *not* part of the pre-order arrays
    (exactly as in the SQL shredding): they never appear on the descendant
    or sibling axes, and the attribute axis reads the owning element's
    attribute list directly.
    """

    __slots__ = ("root", "value_generation", "nodes", "pre_of", "post", "level",
                 "parent_pre", "size", "sib_pos", "name_pres", "elem_pres",
                 "kind_pres", "_child_pres", "_attributes", "_attr_owner_sets",
                 "_attr_value_sets", "_path_value_sets", "_idref_targets",
                 "_memos")

    def __init__(self, root: Node):
        self.root = root
        #: Bumped whenever a value mutation drops the value indexes: holders
        #: of anything computed from node *values* (the plan cache's baked-in
        #: prolog variables) key on it beside the index object itself.
        self.value_generation = 0
        nodes: list[Node] = []
        post: list[int] = []
        level: list[int] = []
        parent_pre: list[int] = []
        size: list[int] = []
        sib_pos: list[int] = []
        pre_of: dict[int, int] = {}
        name_pres: dict[str, list[int]] = {}
        elem_pres: list[int] = []
        kind_pres: dict[type, list[int]] = {}

        # One explicit-stack walk assigns pre (entry tick) and post (exit
        # tick) from a shared counter, so deep documents cannot exhaust the
        # Python stack.  Frames are (node, parent_pre, level, sib_pos,
        # closing) — each node is pushed twice: once to enter, once to
        # close.  At close time every node entered after it is one of its
        # descendants (siblings enter only later), which yields the subtree
        # size directly.
        tick = 0
        stack: list[tuple[Node, int, int, int, bool]] = [(root, -1, 0, 0, False)]
        while stack:
            node, par, lvl, sib, closing = stack.pop()
            if closing:
                pre = pre_of[id(node)]
                size[pre] = len(nodes) - pre - 1
                post[pre] = tick
                tick += 1
                continue
            pre = len(nodes)
            nodes.append(node)
            pre_of[id(node)] = pre
            level.append(lvl)
            parent_pre.append(par)
            sib_pos.append(sib)
            size.append(0)   # patched at close time
            post.append(0)   # patched at close time
            tick += 1
            if isinstance(node, ElementNode):
                elem_pres.append(pre)
                name_pres.setdefault(node.name, []).append(pre)
            else:
                kind_pres.setdefault(type(node), []).append(pre)
            # Close-frame first so it pops only after all children closed.
            stack.append((node, par, lvl, sib, True))
            children = node.children
            for position in range(len(children) - 1, -1, -1):
                stack.append((children[position], pre, lvl + 1, position, False))

        self.nodes = nodes
        self.pre_of = pre_of
        self.post = post
        self.level = level
        self.parent_pre = parent_pre
        self.size = size
        self.sib_pos = sib_pos
        self.name_pres = name_pres
        self.elem_pres = elem_pres
        self.kind_pres = kind_pres
        #: element name → parent pre → ascending pres of its children of
        #: that name (see :meth:`child_pres_named`)
        self._child_pres: dict[str, dict[int, list[int]]] = {}
        #: attribute name → owner pre → its attribute node of that name
        #: (see :meth:`attributes_named`)
        self._attributes: dict[str, dict[int, Node]] = {}
        self._reset_value_indexes()

    # -- value inverted indexes ----------------------------------------------
    #
    # Built lazily from the pre-order arrays on the first value-predicate
    # kernel call; dropped (only these — the plane arrays stay valid) by the
    # value-mutation hook (:func:`invalidate_value_indexes`).

    def _reset_value_indexes(self) -> None:
        #: attribute name → set of owner-element pres
        self._attr_owner_sets: dict[str, set[int]] | None = None
        #: attribute name → value → set of owner-element pres
        self._attr_value_sets: dict[str, dict[str, set[int]]] | None = None
        #: (child-step names, target, name) → value → set of owner pres
        #: (see :meth:`path_value_owners`)
        self._path_value_sets: dict[tuple, dict[str, set[int]]] = {}
        #: element name → parent pre → target pres, or ``None``
        #: (see :meth:`idref_targets`)
        self._idref_targets: dict[str, dict[int, list[int]] | None] = {}
        #: step relation → its images (see :meth:`memo`), the verdict of
        #: :meth:`ids_in_tree` and the tree's text (see :meth:`tree_text`)
        self._memos: dict[object, object] = {}

    def clear_value_indexes(self) -> None:
        """Drop the lazy value indexes (after a value mutation)."""
        self.value_generation += 1
        self._reset_value_indexes()

    def _build_attr_indexes(self) -> tuple[dict, dict]:
        owner_sets: dict[str, set[int]] = {}
        value_sets: dict[str, dict[str, set[int]]] = {}
        nodes = self.nodes
        for pre in self.elem_pres:
            for attribute in nodes[pre].attributes:
                owner_sets.setdefault(attribute.name, set()).add(pre)
                value_sets.setdefault(attribute.name, {}).setdefault(
                    attribute.value, set()).add(pre)
        self._attr_owner_sets = owner_sets
        self._attr_value_sets = value_sets
        return owner_sets, value_sets

    # The lazy accessors read the built structure into a local before use:
    # a concurrent clear_value_indexes() then only costs a rebuild on the
    # next call instead of a None dereference mid-lookup.  Two threads
    # building the same index concurrently is benign (same content, last
    # assignment wins).

    def attr_owner_pres(self, name: str) -> set[int]:
        """Pres of elements carrying an attribute called *name*."""
        sets = self._attr_owner_sets
        if sets is None:
            sets, _ = self._build_attr_indexes()
        return sets.get(name, _EMPTY_SET)

    def idref_targets(self, name: str) -> dict[int, list[int]] | None:
        """The ID-reference index of ``child::name``: parent pre → pres of
        the elements that the whitespace-separated tokens of its *name*
        children's string values resolve to through
        :meth:`DocumentNode.lookup_id` — ``fn:id(child::name)`` for every
        parent at once.  Dangling tokens resolve to nothing, the first
        bearer of an ID wins, every token of a multi-token value counts; a
        target may repeat.  Empty when the tree is not document-rooted (no
        document, no IDs).

        ``None`` when some ID resolves to an element outside this tree,
        which pres cannot name.  A value index like the others: a text edit
        drops it, and so does a newly registered ID
        (:meth:`DocumentNode.register_id` reports one as a value change).
        The returned mapping is shared — callers must not mutate it.
        """
        root = self.root
        if not isinstance(root, DocumentNode):
            return _EMPTY_DICT
        cache = self._idref_targets  # see path_value_owners on a concurrent clear
        if name not in cache:
            cache[name] = self._resolve_idrefs(name, root)
        return cache[name]

    def _resolve_idrefs(self, name: str,
                        root: DocumentNode) -> dict[int, list[int]] | None:
        nodes = self.nodes
        parent_pre = self.parent_pre
        pre_of = self.pre_of
        lookup = root.lookup_id
        targets: dict[int, list[int]] = {}
        for pre in self.name_pres.get(name, ()):
            parent = parent_pre[pre]
            if parent < 0:
                continue
            for token in nodes[pre].string_value().split():
                element = lookup(token)
                if element is not None:
                    target = pre_of.get(id(element))
                    if target is None:
                        return None
                    targets.setdefault(parent, []).append(target)
        return targets

    def memo(self, relation: "StepRelation") -> "ImageMemo":
        """The images of *relation* in this tree (:class:`ImageMemo`: source
        pre → the pres its body produces), empty the first time.  Filled by
        the engine's own body (:meth:`ImageSpace.image`); a value index —
        the body reads values — so a text edit and a newly registered ID
        drop it, and a structural change drops the whole index.  Shared —
        only the binding space adds to it."""
        memos = self._memos  # see path_value_owners on a concurrent clear
        memo = memos.get(relation)
        if memo is None:
            memo = memos.setdefault(relation, ImageMemo())
        return memo

    def ids_in_tree(self) -> bool:
        """Does every ID registered on this tree's document name an element
        of this tree?  (True without a document: no IDs.)  A value index:
        a newly registered ID drops it."""
        root = self.root
        if not isinstance(root, DocumentNode):
            return True
        memos = self._memos
        verdict = memos.get(_IDS_IN_TREE)
        if verdict is None:
            pre_of = self.pre_of
            verdict = memos[_IDS_IN_TREE] = all(
                id(element) in pre_of for element in root.id_bearers())
        return verdict

    def tree_text(self, build: Callable[["StructuralIndex"], object]) -> object | None:
        """What *build* makes of this index — the serializer's text of the
        whole tree — from the second call on.  The first call only notes the
        tree and answers ``None``: a tree asked once never pays *build*.  A
        value index (the text spells every value): a text or attribute edit
        and a newly registered ID drop it and the note, and a structural
        change drops the whole index."""
        memos = self._memos  # see path_value_owners on a concurrent clear
        text = memos.get(_TREE_TEXT)
        if text is None:
            memos[_TREE_TEXT] = False
            return None
        if text is False:
            text = memos[_TREE_TEXT] = build(self)
        return text

    def path_value_owners(self, path: tuple[str, ...], target: str,
                          name: str) -> dict[str, set[int]]:
        """The path-value index of ``path…/target::name``: value → pres of
        the nodes ``N`` for which ``N/child::p1/…/child::pk/@name`` (*target*
        ``"attr"``) or ``…/child::name`` (``"child"``) has a node whose
        string value is exactly that value — the membership sets of
        ``[p1/…/pk/@name = "value"]``.

        Built once per ``(path, target, name)`` for all values: the empty
        path comes straight from the attribute/element values, a longer one
        lifts the index of its tail through one more child step.  The
        returned mapping is shared — callers must not mutate it.
        """
        key = (path, target, name)
        cache = self._path_value_sets  # a concurrent clear swaps the dict:
        owners = cache.get(key)        # what is built here then lands in the old one
        if owners is not None:
            return owners
        parent_pre = self.parent_pre
        if path:
            step_pres = set(self.name_pres.get(path[0], ()))
            owners = {}
            for value, pres in self.path_value_owners(path[1:], target, name).items():
                lifted = {parent_pre[p] for p in pres & step_pres if parent_pre[p] >= 0}
                if lifted:
                    owners[value] = lifted
        elif target == "attr":
            sets = self._attr_value_sets
            if sets is None:
                _, sets = self._build_attr_indexes()
            owners = sets.get(name, _EMPTY_DICT)
        else:
            owners = {}
            nodes = self.nodes
            for pre in self.name_pres.get(name, ()):
                if parent_pre[pre] >= 0:
                    owners.setdefault(nodes[pre].string_value(), set()).add(parent_pre[pre])
        cache[key] = owners
        return owners

    # -- basic lookups --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def pre(self, node: Node) -> int | None:
        """The pre rank of *node* in this tree, or ``None`` (attributes,
        nodes of other trees)."""
        return self.pre_of.get(id(node))

    def is_ancestor(self, ancestor: Node, descendant: Node) -> bool:
        a = self.pre_of.get(id(ancestor))
        d = self.pre_of.get(id(descendant))
        if a is None or d is None:
            return False
        return a < d <= a + self.size[a]

    # -- single-node kernels --------------------------------------------------
    #
    # Every kernel returns the matched nodes in the axis's natural order
    # (reverse axes nearest-first), exactly like the naive axis methods, or
    # ``None`` when this index cannot answer (node not covered).

    def step(self, node: Node, axis: str, kind: str,
             name: str | None) -> list[Node] | None:
        """One axis step with node test, answered from the index."""
        if axis == "attribute":
            return _match_attributes(node, kind, name)
        if axis == "self":
            return [node] if _matches(node, kind, name, axis) else []
        if isinstance(node, AttributeNode):
            # Attributes are outside the pre-order plane; their only
            # non-empty tree axes go upward through the owner element.
            return _attribute_upward(node, axis, kind, name)
        pre = self.pre_of.get(id(node))
        if pre is None:
            return None
        if axis == "descendant":
            return self._range_matches(pre + 1, pre + self.size[pre], kind, name)
        if axis == "descendant-or-self":
            return self._range_matches(pre, pre + self.size[pre], kind, name)
        if axis == "child":
            return self._children(pre, kind, name)
        if axis == "parent":
            parent = self.parent_pre[pre]
            if parent < 0:
                return []
            return [n for n in (self.nodes[parent],) if _matches(n, kind, name, axis)]
        if axis in ("ancestor", "ancestor-or-self"):
            result = []
            p = pre if axis == "ancestor-or-self" else self.parent_pre[pre]
            while p >= 0:
                candidate = self.nodes[p]
                if _matches(candidate, kind, name, axis):
                    result.append(candidate)
                p = self.parent_pre[p]
            return result
        if axis == "following-sibling":
            parent = self.parent_pre[pre]
            if parent < 0:
                return []
            siblings = self.nodes[parent].children
            return [s for s in siblings[self.sib_pos[pre] + 1:]
                    if _matches(s, kind, name, axis)]
        if axis == "preceding-sibling":
            parent = self.parent_pre[pre]
            if parent < 0:
                return []
            siblings = self.nodes[parent].children
            return [s for s in reversed(siblings[:self.sib_pos[pre]])
                    if _matches(s, kind, name, axis)]
        if axis == "following":
            return self._range_matches(pre + self.size[pre] + 1,
                                       len(self.nodes) - 1, kind, name)
        if axis == "preceding":
            matches = self._range_matches(0, pre - 1, kind, name)
            if matches:
                ancestors = set()
                p = self.parent_pre[pre]
                while p >= 0:
                    ancestors.add(id(self.nodes[p]))
                    p = self.parent_pre[p]
                matches = [n for n in matches if id(n) not in ancestors]
            matches.reverse()
            return matches
        return None

    def range_matches(self, lo: int, hi: int, kind: str,
                      name: str | None) -> list[Node]:
        """Nodes in the inclusive pre interval ``[lo, hi]`` passing the test."""
        return self._range_matches(lo, hi, kind, name)

    # -- internals ------------------------------------------------------------

    def _range_matches(self, lo: int, hi: int, kind: str,
                       name: str | None) -> list[Node]:
        if hi < lo:
            return []
        nodes = self.nodes
        if kind == "node":
            return nodes[lo:hi + 1]
        pres = self._test_pres(kind, name)
        if pres is None:
            # Rare tests (e.g. a PI with a target name): slice then filter.
            return [n for n in nodes[lo:hi + 1] if _matches(n, kind, name, "descendant")]
        start = bisect_left(pres, lo)
        stop = bisect_right(pres, hi, start)
        return [nodes[p] for p in pres[start:stop]]

    def _test_pres(self, kind: str, name: str | None) -> list[int] | None:
        """The sorted pre list matching a node test, or ``None``."""
        if kind == "name":
            if name == "*":
                return self.elem_pres
            return self.name_pres.get(name, [])
        if kind == "element":
            if name is None:
                return self.elem_pres
            return self.name_pres.get(name, [])
        if kind == "attribute":
            return []  # the tree walk never yields attribute nodes
        cls = _KIND_CLASSES.get(kind)
        if cls is None:
            return None
        if kind == "processing-instruction" and name is not None:
            return None  # needs a per-node target check
        return self.kind_pres.get(cls, [])

    def child_pres_named(self, name: str) -> dict[int, list[int]]:
        """The child-by-name map of *name*: parent pre → ascending pres of
        its element children called *name* (parents without one are absent).
        Built once per name, in one pass over the name's inverted list; the
        returned mapping is shared — callers must not mutate it."""
        children = self._child_pres.get(name)
        if children is None:
            children = {}
            parent_pre = self.parent_pre
            for pre in self.name_pres.get(name, ()):
                if parent_pre[pre] >= 0:
                    children.setdefault(parent_pre[pre], []).append(pre)
            self._child_pres[name] = children
        return children

    def attributes_named(self, name: str) -> dict[int, Node]:
        """The attribute-by-name map of *name*: owner pre → the owner's
        attribute node called *name* (owners without one are absent).
        Built once per name, in one pass over the elements; structural like
        the child-by-name map — a value edit keeps the node it names — and
        shared: callers must not mutate it."""
        attributes = self._attributes.get(name)
        if attributes is None:
            nodes = self.nodes
            attributes = {pre: attribute for pre in self.elem_pres
                          for attribute in nodes[pre].attributes
                          if attribute.name == name}
            self._attributes[name] = attributes
        return attributes

    def child_name_parent_pres(self, name: str) -> KeysView[int]:
        """Pres of nodes having an element child called *name*."""
        return self.child_pres_named(name).keys()

    def _children(self, pre: int, kind: str, name: str | None) -> list[Node]:
        nodes = self.nodes
        if named_element_test(kind, name):
            return [nodes[child] for child in self.child_pres_named(name).get(pre, ())]
        return [c for c in nodes[pre].children if _matches(c, kind, name, "child")]


# ---------------------------------------------------------------------------
# node tests (mirrors Evaluator._node_test; cross-checked by the property
# test suite in tests/test_structural_index.py)
# ---------------------------------------------------------------------------


def named_element_test(kind: str, name: str | None) -> bool:
    """A test for elements of one given name (``n``, ``element(n)``)."""
    return kind in ("name", "element") and name not in (None, "*")


def _matches(node: Node, kind: str, name: str | None, axis: str) -> bool:
    if kind == "name":
        if axis == "attribute":
            if not isinstance(node, AttributeNode):
                return False
        elif not isinstance(node, ElementNode):
            return False
        return name == "*" or node.name == name
    if kind == "node":
        return True
    if kind == "text":
        return isinstance(node, TextNode)
    if kind == "comment":
        return isinstance(node, CommentNode)
    if kind == "processing-instruction":
        return isinstance(node, ProcessingInstructionNode) and (
            name is None or node.name == name)
    if kind == "element":
        return isinstance(node, ElementNode) and (name is None or node.name == name)
    if kind == "attribute":
        return isinstance(node, AttributeNode) and (name is None or node.name == name)
    if kind == "document-node":
        return isinstance(node, DocumentNode)
    return False


def _match_attributes(node: Node, kind: str, name: str | None) -> list[Node]:
    attributes = node.attribute_axis()
    return [a for a in attributes if _matches(a, kind, name, "attribute")]


def _attribute_upward(node: AttributeNode, axis: str, kind: str,
                      name: str | None) -> list[Node] | None:
    if axis in ("descendant", "child", "following-sibling", "preceding-sibling"):
        return []
    if axis == "descendant-or-self":
        return [node] if _matches(node, kind, name, axis) else []
    if axis == "parent":
        owner = node.parent
        return [owner] if owner is not None and _matches(owner, kind, name, axis) else []
    if axis in ("ancestor", "ancestor-or-self"):
        result = []
        current = node if axis == "ancestor-or-self" else node.parent
        while current is not None:
            if _matches(current, kind, name, axis):
                result.append(current)
            current = current.parent
        return result
    # following / preceding of attribute nodes keep their naive definitions;
    # fall back rather than re-deriving them here.
    return None


# ---------------------------------------------------------------------------
# the per-root registry and its invalidation hook
# ---------------------------------------------------------------------------

#: Most-recently-used cache of live indexes: id(root) → (root, index).  The
#: root is kept as a strong reference both to pin the id() and because a
#: cached index is only useful while its document is reachable anyway.
_REGISTRY: "OrderedDict[int, tuple[Node, StructuralIndex]]" = OrderedDict()

#: Guards the registry against concurrent service traffic.  The lock is
#: held only for registry bookkeeping, never while *building* would-be-hot
#: state inside an index (the lazy value indexes build lock-free); the
#: worst concurrent case is two threads building the same index and one
#: winning the registry slot.  Lock order (see DESIGN.md §8): a thread
#: holding a Session lock may take this lock; never the reverse.
_REGISTRY_LOCK = RLock()

#: Monotonic counter bumped on every structural or value mutation that
#: reaches the hooks below.  It says only that *something, somewhere* moved
#: — parsing a new document and constructing a node count — so it is the
#: O(1) "nothing moved since I last looked" test of the SQLite store pool
#: and nothing more; *which* tree changed is what the tokens below record.
_MUTATION_GENERATION = 0

#: Change tokens of the trees some SQLite store has shredded: ``id(root)`` →
#: ``[changes, watchers]``.  The hooks count a mutation against the token of
#: the tree it happened in; a store remembers the count it shredded at.  The
#: table holds no reference to the tree — a watching store pins the nodes it
#: maps, and lets go of the token (:func:`unwatch_trees`) before it lets go
#: of them — so an entry can neither keep a document alive nor outlive the
#: ``id`` it is filed under.  Guarded by the registry lock.
_TREE_TOKENS: dict[int, list[int]] = {}

#: Bound on live indexes (evaluation constructs many small transient trees;
#: their indexes must not accumulate).
REGISTRY_LIMIT = 64


def _root_of(node: Node) -> Node:
    while node.parent is not None:
        node = node.parent
    return node


def mutation_generation() -> int:
    """The current global mutation generation (monotonic, process-wide)."""
    return _MUTATION_GENERATION


def index_for(node: Node, build: bool = True) -> StructuralIndex | None:
    """The structural index of *node*'s tree (built lazily, cached per root)."""
    root = _root_of(node)
    with _REGISTRY_LOCK:
        entry = _REGISTRY.get(id(root))
        if entry is not None and entry[0] is root:
            _REGISTRY.move_to_end(id(root))
            return entry[1]
    if not build:
        return None
    faults.trigger("index-build")
    trace = current_trace()
    if trace is not None:
        with trace.span("index-build") as span:
            built = StructuralIndex(root)
            span.set(nodes=len(built))
    else:
        built = StructuralIndex(root)
    with _REGISTRY_LOCK:
        # A racing thread may have registered its own build meanwhile;
        # serve that one so every caller shares a single index object.
        entry = _REGISTRY.get(id(root))
        if entry is not None and entry[0] is root:
            _REGISTRY.move_to_end(id(root))
            return entry[1]
        _REGISTRY[id(root)] = (root, built)
        if len(_REGISTRY) > REGISTRY_LIMIT:
            _REGISTRY.popitem(last=False)
    return built


def cached_index(node: Node) -> StructuralIndex | None:
    """The cached index of *node*'s tree, or ``None`` (never builds)."""
    return index_for(node, build=False)


def invalidate_index(node: Node) -> None:
    """Drop the cached index of the tree currently containing *node*.

    Installed into :mod:`repro.xdm.node` as the structure-change hook; the
    mutators call it *before* re-parenting (to catch the old tree) and after
    (to catch the new one).  The empty-registry fast path keeps bulk
    document construction at O(1) per mutation until a first index exists.
    """
    global _MUTATION_GENERATION
    with _REGISTRY_LOCK:
        _MUTATION_GENERATION += 1
        if not _REGISTRY and not _TREE_TOKENS:
            return
        root_id = id(_root_of(node))
        _REGISTRY.pop(root_id, None)
        _trip(root_id)


def invalidate_value_indexes(node: Node) -> None:
    """Drop the *value* indexes of the tree containing *node*.

    Installed into :mod:`repro.xdm.node` as the value-change hook
    (``set_value`` on attributes and text nodes).  Structural arrays stay
    valid — only the lazy value inverted indexes are reset, so the next
    value predicate rebuilds them from the current values.
    """
    global _MUTATION_GENERATION
    with _REGISTRY_LOCK:
        _MUTATION_GENERATION += 1
        if not _REGISTRY and not _TREE_TOKENS:
            return
        root_id = id(_root_of(node))
        entry = _REGISTRY.get(root_id)
        if entry is not None:
            entry[1].clear_value_indexes()
        _trip(root_id)


def _trip(root_id: int) -> None:
    token = _TREE_TOKENS.get(root_id)
    if token is not None:
        token[0] += 1


def watch_tree(root: Node) -> int:
    """Start counting the mutations of the tree under *root*; returns its
    change count so far.  The caller must keep *root* alive until it calls
    :func:`unwatch_trees` — the token is filed under ``id(root)``."""
    with _REGISTRY_LOCK:
        token = _TREE_TOKENS.setdefault(id(root), [0, 0])
        token[1] += 1
        return token[0]


def tree_changes(root_id: int) -> int:
    """The change count of a watched tree.  Taken under the registry lock: a
    caller that saw :func:`mutation_generation` move waits here for the hook
    that moved it to finish."""
    with _REGISTRY_LOCK:
        return _TREE_TOKENS[root_id][0]


def unwatch_trees(root_ids: Iterable[int]) -> None:
    """Let go of one :func:`watch_tree` per id; the last watcher of a tree
    takes its token out of the table."""
    with _REGISTRY_LOCK:
        for root_id in root_ids:
            token = _TREE_TOKENS[root_id]
            token[1] -= 1
            if not token[1]:
                del _TREE_TOKENS[root_id]


def watched_trees() -> int:
    """Number of trees with a change token (tests: nothing is left behind)."""
    with _REGISTRY_LOCK:
        return len(_TREE_TOKENS)


def clear_index_registry() -> None:
    """Drop every cached index (test isolation / memory pressure)."""
    global _MUTATION_GENERATION
    with _REGISTRY_LOCK:
        _MUTATION_GENERATION += 1
        _REGISTRY.clear()


def registry_size() -> int:
    with _REGISTRY_LOCK:
        return len(_REGISTRY)


_node_module._structure_change_hook = invalidate_index
_node_module._value_change_hook = invalidate_value_indexes


# ---------------------------------------------------------------------------
# step entry points used by the engines
# ---------------------------------------------------------------------------

#: Axes where the index beats the naive axis methods for a *single* context
#: node.  The pointer-chasing axes (child, parent, ancestor, attribute,
#: self) are already answered optimally from the node objects; the indexed
#: variants would only add a root walk on top.
_SINGLE_NODE_AXES = {"descendant", "descendant-or-self", "following",
                     "preceding", "following-sibling", "preceding-sibling"}


def indexed_step(node: Node, axis: str, kind: str,
                 name: str | None) -> list[Node] | None:
    """One context node's axis step via the structural index.

    Returns the matched nodes in the axis's natural order, or ``None`` when
    the index does not expect to beat the naive axis methods (the caller
    falls back to them).
    """
    if axis not in _SINGLE_NODE_AXES:
        return None
    if isinstance(node, AttributeNode):
        return _attribute_upward(node, axis, kind, name)
    return index_for(node).step(node, axis, kind, name)


#: The axes :func:`nth_sibling` walks.
SIBLING_AXES = frozenset({"following-sibling", "preceding-sibling"})


def nth_sibling(node: Node, axis: str, kind: str, name: str | None, n: int,
                index_set: "IndexSet | None" = None) -> list[Node] | None:
    """``node/axis::test[n]`` for a sibling *axis* and ``n ≥ 1``: the n-th
    sibling passing the test, counted along the axis (nearest first) —
    one node, or none when fewer pass.  The walk starts at the node's
    ``sib_pos`` and stops at the n-th match, so ``following-sibling::
    SPEECH[1]`` reads the next few siblings instead of listing all of them
    and slicing.  ``None`` when the index does not cover *node*."""
    if isinstance(node, AttributeNode):
        return []
    idx = index_for(node) if index_set is None else index_set.for_node(node)
    pre = idx.pre_of.get(id(node))
    if pre is None:
        return None
    parent = idx.parent_pre[pre]
    if parent < 0:
        return []
    siblings = idx.nodes[parent].children
    position = idx.sib_pos[pre]
    walk = (range(position + 1, len(siblings)) if axis == "following-sibling"
            else range(position - 1, -1, -1))
    for at in walk:
        sibling = siblings[at]
        if _matches(sibling, kind, name, axis):
            n -= 1
            if not n:
                return [sibling]
    return []


def nth_child(nodes: list[Node], name: str, n: int) -> list[Node] | None:
    """``nodes/child::name[n]`` for ``n ≥ 1``: each context node's *n*-th
    element child called *name* — the ``n``-th entry of its list in the
    child-by-name map (:meth:`StructuralIndex.child_pres_named`), as
    :func:`nth_sibling` answers the sibling axes — duplicate-free and in
    document order (children of distinct parents are distinct, and their
    pres sort as integers).  A node with fewer such children contributes
    nothing.  ``None`` — the per-node path — for a column that does not lie
    in one tree (:func:`_one_tree`)."""
    if not nodes:
        return []
    column = _one_tree(nodes)
    if column is None:
        return None
    idx, pres = column
    at = n - 1
    picked = [children[at] for children in
              map(idx.child_pres_named(name).get, dict.fromkeys(pres))
              if children is not None and len(children) > at]
    if len(picked) > 1:
        picked.sort()
    tree_nodes = idx.nodes
    return [tree_nodes[pre] for pre in picked]


class IndexSet:
    """Resolves nodes to their tree's index, walking to a root only once
    per distinct tree rather than once per context node.

    The engines keep one per batch (the algebra step macro: one per
    ``compute`` call) so that per-node kernel dispatch — including the
    pointer-cheap axes the bare :func:`indexed_step` does not index —
    amortizes the root walk across the whole context column.
    """

    __slots__ = ("indexes",)

    def __init__(self):
        self.indexes: list[StructuralIndex] = []

    def for_node(self, node: Node) -> StructuralIndex:
        for idx in self.indexes:
            if id(node) in idx.pre_of:
                return idx
        idx = index_for(node)
        self.indexes.append(idx)
        return idx

    def step(self, node: Node, axis: str, kind: str,
             name: str | None) -> list[Node] | None:
        """One node's axis step, any axis, in the axis's natural order."""
        if axis == "attribute":
            return _match_attributes(node, kind, name)
        if axis == "self":
            return [node] if _matches(node, kind, name, axis) else []
        if isinstance(node, AttributeNode):
            return _attribute_upward(node, axis, kind, name)
        return self.for_node(node).step(node, axis, kind, name)


def batch_step(nodes: list[Node], axis: str, kind: str,
               name: str | None) -> list[Node] | None:
    """A whole column of context nodes through one axis step.

    Returns the union of the per-node step results, deduplicated and in
    document order (the ``fs:ddo`` the step macro encapsulates), or ``None``
    when the kernels cannot answer for some context node.

    The descendant axes use pre-order interval merging: context intervals
    are visited in ascending ``pre`` and nested intervals contribute nothing
    new, so the concatenated slice lookups are duplicate-free and sorted by
    construction.  ``following`` unions to a single suffix slice.
    ``child::name`` over a column in one tree is integer work on the
    child-by-name map (:func:`_child_named_in_one_tree`).  The other
    pointer-chasing axes stay on the node objects; everything is
    deduplicated once by identity and sorted once by ``order_key``.
    """
    if not nodes:
        return []
    if axis == "child" and named_element_test(kind, name):
        result = _child_named_in_one_tree(nodes, name)
        if result is not None:
            return result
    elif axis == "attribute" and kind == "name" and name != "*":
        result = _attribute_named_in_one_tree(nodes, name)
        if result is not None:
            return result
    distinct = nodes
    if len(nodes) > 1:
        distinct = list({id(node): node for node in nodes}.values())

    if axis in ("descendant", "descendant-or-self", "following"):
        return _batch_plane(distinct, axis, kind, name)

    collected: list[Node] = []
    if axis == "attribute":
        for node in distinct:
            collected.extend(_match_attributes(node, kind, name))
    elif axis == "self":
        collected = [n for n in distinct if _matches(n, kind, name, axis)]
    elif axis == "parent":
        for node in distinct:
            parent = node.parent
            if parent is not None and _matches(parent, kind, name, axis):
                collected.append(parent)
    elif axis in ("ancestor", "ancestor-or-self"):
        for node in distinct:
            current = node if axis == "ancestor-or-self" else node.parent
            while current is not None:
                if _matches(current, kind, name, axis):
                    collected.append(current)
                current = current.parent
    elif axis == "child":
        indexes = IndexSet()
        for node in distinct:
            if isinstance(node, AttributeNode):
                continue
            idx = indexes.for_node(node)
            pre = idx.pre_of.get(id(node))
            if pre is None:
                return None
            collected.extend(idx._children(pre, kind, name))
    elif axis in ("following-sibling", "preceding-sibling", "preceding"):
        indexes = IndexSet()
        for node in distinct:
            if isinstance(node, AttributeNode):
                result = _attribute_upward(node, axis, kind, name)
                if result is None:
                    return None
                collected.extend(result)
                continue
            idx = indexes.for_node(node)
            result = idx.step(node, axis, kind, name)
            if result is None:
                return None
            collected.extend(result)
    else:
        return None

    if len(distinct) == 1 and axis not in _REVERSE_AXES:
        return collected  # one node's forward axis: distinct and in order
    return doc_order(collected)


def _one_tree(nodes: list[Node]) -> tuple[StructuralIndex, list[int]] | None:
    """The index of a non-empty column that lies in one tree, and the
    column's pres (one C-level pass through ``pre_of``); ``None`` — the
    general path — for a column with an attribute or nodes of a second
    tree."""
    first = nodes[0]
    if isinstance(first, AttributeNode):
        return None
    idx = index_for(first)
    pres = list(map(idx.pre_of.get, map(id, nodes)))
    return None if None in pres else (idx, pres)


def _child_named_in_one_tree(nodes: list[Node], name: str) -> list[Node] | None:
    """``nodes/child::name`` in pre-space, for a column that lies in one
    tree (:func:`_one_tree`): pres in, the child-by-name map, sorted pres
    out, one gather.  Children of distinct parents are distinct, so once
    the input's repeats are gone nothing needs an identity set, and
    integers sort without a key."""
    column = _one_tree(nodes)
    if column is None:
        return None
    idx, pres = column
    tree_nodes = idx.nodes
    return [tree_nodes[child] for child in sorted(
        _mapped(idx.child_pres_named(name), dict.fromkeys(pres)))]


def _attribute_named_in_one_tree(nodes: list[Node], name: str) -> list[Node] | None:
    """``nodes/attribute::name`` for a column that lies in one tree
    (:func:`_one_tree`), in one C-level pass: distinct owner pres, the
    attribute-by-name map (:meth:`StructuralIndex.attributes_named`), one
    sort.  An element has at most one attribute of a name, so the
    attributes are distinct."""
    column = _one_tree(nodes)
    if column is None:
        return None
    idx, pres = column
    return doc_order(list(filter(None, map(idx.attributes_named(name).get, set(pres)))),
                     distinct=True)


def _merged(per_tree: list[list[Node]]) -> list[Node]:
    """Per-tree results, each distinct and in document order, as one."""
    if len(per_tree) == 1:
        return per_tree[0]
    return doc_order([node for matches in per_tree for node in matches], distinct=True)


def _mapped(mapping: dict[int, list[int]], pres: Iterable[int]) -> Iterable[int]:
    """The concatenation of ``mapping[pre]`` over the *pres* it has."""
    return chain.from_iterable(filter(None, map(mapping.get, pres)))


def batch_id(document: DocumentNode, items: Iterable) -> list[Node]:
    """``fn:id`` over a whole column: the elements of *document* whose ID is
    a whitespace-separated token of some item's string value.

    One tokenizing pass and one ID-map probe per *distinct* token — the
    set-at-a-time counterpart of calling ``fn:id`` once per context node.
    Dangling references resolve to nothing.  The elements come in no
    particular order and may repeat (two IDs of one element); the caller
    applies the ``fs:ddo`` its result needs anyway.
    """
    tokens: set[str] = set()
    for item in items:
        tokens.update(string_value_of_item(item).split())
    lookup = document.lookup_id
    return [element for token in tokens if (element := lookup(token)) is not None]


def batch_id_path(nodes: Iterable, names: tuple[str, ...]) -> list[Node] | None:
    """``nodes/id(child::n1/…/child::nk)`` (``k ≥ 1``, no predicates) in
    pre-space: the elements, duplicate-free and in document order, that the
    ID references under the *names* chain of some context node resolve to —
    each in the document of its context node.

    The column is split by covering index through ``pre_of`` membership
    (the index's root *is* the document: no per-node root walk), the chain
    is one probe per pre of each child-by-name map
    (:meth:`StructuralIndex.child_pres_named`) and of the ID-reference index
    (:meth:`StructuralIndex.idref_targets`), and nodes are gathered once,
    from the sorted set of target pres; a repeated context node only
    repeats work.

    Returns ``None`` — the caller walks the chain step by step — when an
    item is not a node, a node is covered by no index, or an ID resolves
    outside its tree.
    """
    # One pass per tree, each a C-level map of the column through ``pre_of``.
    groups: list[tuple[StructuralIndex, list[int]]] = []
    rest = nodes if isinstance(nodes, list) else list(nodes)
    while rest:
        first = rest[0]
        if isinstance(first, AttributeNode):  # no children, so no references
            rest = [node for node in rest if not isinstance(node, AttributeNode)]
            continue
        if not isinstance(first, Node):
            return None
        idx = index_for(first)
        pres = list(map(idx.pre_of.get, map(id, rest)))
        if None in pres:
            if pres[0] is None:
                return None
            rest = [node for node, pre in zip(rest, pres) if pre is None]
            pres = [pre for pre in pres if pre is not None]
        else:
            rest = []
        groups.append((idx, pres))

    per_tree: list[list[Node]] = []
    for idx, pres in groups:
        targets = idx.idref_targets(names[-1])
        if targets is None:
            return None
        for name in names[:-1]:
            pres = _mapped(idx.child_pres_named(name), pres)
        tree_nodes = idx.nodes
        per_tree.append([tree_nodes[pre] for pre in sorted(set(_mapped(targets, pres)))])

    return _merged(per_tree)


@dataclass(frozen=True, slots=True)
class StepRelation:
    """A recursion body read as a relation on pre ranks: a closed body that
    Figure 5 proves distributive (Definition 3.1: ``e(X) = ∪_{x∈X}
    e({x})``) is the relation ``x ↦ e({x})``, and each node's image depends
    on nothing but that node and its document.

    *key* is what the recognizer made of the body — opaque here: the
    canonical body and the prolog declarations it reaches — *documents*
    the URIs it reads through ``fn:doc`` (directly or in those
    declarations), *ids* whether it calls ``fn:id``/``fn:idref``.  The
    images are memoised per tree (:meth:`StructuralIndex.memo`) under this
    relation, *engine* included: each engine fills them with its own body
    (sql's from its recursive CTE), and never reads what another filled.

    The engines recognize it on the AST
    (:func:`repro.xquery.pushdown.recognize_step_relation`: the interpreter
    and sql's driver per evaluation, the algebra compiler into its
    ``Fixpoint`` operator) and hand it to the fixpoint driver, which
    :meth:`bind` s it to the seed; the rounds then never touch a node
    (:class:`ImageSpace`) — but to fill an image.
    """

    key: object
    #: whose body fills the memo: ``"interpreter"`` (also sql's driver,
    #: which evaluates bodies with the interpreter), ``"algebra"`` or
    #: ``"sql"`` (images from a recursive CTE)
    engine: str = "interpreter"
    documents: tuple[str, ...] = field(default=(), compare=False)
    ids: bool = field(default=False, compare=False)
    #: the relation is the memo key: hashed once, not per lookup (the
    #: body's AST hashes recursively)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.key, self.engine)))

    def __hash__(self) -> int:
        return self._hash

    def bind(self, nodes: list, body: Callable[[list], list],
             documents: Callable[[str], Node | None] | None = None,
             fill: Callable[[list[int]], dict[int, tuple[int, ...]]] | None = None
             ) -> "ImageSpace | None":
        """The relation over the tree of *nodes*, with *nodes* encoded as
        pres (repeats kept: the first round is fed the seed as written), or
        ``None`` — the driver iterates on nodes — before round 1 for an
        empty seed, a seed with an item no index covers (an attribute, a
        node of a second tree), a URI of :attr:`documents` that *documents*
        (the engine's lookup: the document held under a URI, or ``None``)
        does not resolve to the seed's tree, and — with :attr:`ids` — an ID
        registered on the document for an element outside the tree.  Every
        other node kind may be seeded: a document node, an element, a text,
        comment or processing-instruction node.  *body* is the engine's
        node-level body, which fills the missing images — or, given a
        *fill*, answers only what a full memo leaves to it
        (:class:`ImageSpace`)."""
        if not nodes or not isinstance(nodes[0], Node):
            return None
        idx = index_for(nodes[0])
        seed = list(map(idx.pre_of.get, map(id, nodes)))
        if None in seed:
            return None
        root = idx.root
        for uri in self.documents:
            document = documents(uri) if documents is not None else None
            if document is None or _root_of(document) is not root:
                return None
        if self.ids and not idx.ids_in_tree():
            return None
        return ImageSpace(idx, seed, idx.memo(self), body, fill)


class ImageMemo(dict):
    """A step relation's memo on one tree (:meth:`StructuralIndex.memo`):
    source pre → the pres the body produces from that node alone;
    :attr:`stored`, the number of pres held — bounded by the tree's node
    count — and :attr:`missed`, the sources that missed once
    (:class:`ImageSpace`)."""

    __slots__ = ("stored", "missed")

    def __init__(self):
        super().__init__()
        self.stored = 0
        self.missed: set[int] = set()


class ImageSpace:
    """A :class:`StepRelation` bound to one tree.

    :meth:`image` is the union of the fed pres' memoised images — on a warm
    memo one C-level pass over them, as cheap as probing an index map.  A pre
    without one (a *miss*) is decided by the engine's own node-level
    *body*: Definition 3.1 makes ``body(S)`` the union of the images of
    ``S``'s nodes, however ``S`` is split.  A source that missed in no
    earlier run is answered with the round's other such misses by one
    set-at-a-time call, as on the node path — a relation run once costs
    what the node path costs, also under Naive, which feeds a source again
    every round — and noted; one that missed in an earlier run is filled:
    the body runs on that node alone, in document order, and its image is
    stored once every call of the round has returned.  A body that raises
    raises in its round, as the node path would, and stores and notes
    nothing.  The memo holds at most as many pres as the tree has nodes:
    an image that does not fit is not stored, and once the memo is full a
    round answers all its misses with one call.  A fed set that is empty (a
    Naive round after an empty round 0) is handed to *body* as it is.

    A *fill* — a *lifted* body, ``fill(pres) -> {source: image}``, that
    returns the images of the given sources and of whatever else it
    evaluated on the way (the SQL engine's recursive CTE: every source it
    reached) — replaces both policies: a round's misses go to one call,
    and every image it returns is stored, within the memo's room.  When
    to offer one is the caller's choice: the SQL engine answers a seed's
    first miss without it (:meth:`first_miss`) and fills from the next run.
    :attr:`filled` counts the sources the last round evaluated on nodes or
    handed to the fill."""

    __slots__ = ("idx", "seed", "memo", "body", "fill", "filled", "noted")

    def __init__(self, idx: StructuralIndex, seed: list[int], memo: ImageMemo,
                 body: Callable[[list], list],
                 fill: Callable[[list[int]], dict[int, tuple[int, ...]]] | None = None):
        self.idx = idx
        self.seed = seed
        self.memo = memo
        self.body = body
        self.fill = fill
        self.filled = 0
        #: the sources this run noted in ``memo.missed``
        self.noted: set[int] = set()

    def full(self) -> bool:
        """Does the memo hold as many pres as the tree has nodes?"""
        return self.memo.stored >= len(self.idx.nodes)

    def first_miss(self) -> bool:
        """Whether a seed source misses that missed in no earlier run; the
        seed's misses are noted.  A caller with a *fill* answers such a run
        its own way and fills on a later one — the body's policy, for a
        fill that costs more than the answer alone."""
        memo = self.memo
        misses = [pre for pre in self.seed if pre not in memo]
        first = not memo.missed.issuperset(misses)
        memo.missed.update(misses)
        return first

    def image(self, pres: Iterable[int]) -> set[int]:
        """The pres the body produces from some of *pres*."""
        memo = self.memo
        if not pres:  # a Naive round after an empty round 0
            self.filled = 0
            return self._encoded(self.body([]))
        try:
            found = set(chain.from_iterable(map(memo.__getitem__, pres)))
        except KeyError:  # a miss: the loop below sorts out which
            pass
        else:
            self.filled = 0
            return found
        found = set()
        misses: list[int] = []
        for pre in pres:
            image = memo.get(pre)
            if image is None:
                misses.append(pre)
            else:
                found.update(image)
        self.filled = len(misses)
        nodes = self.idx.nodes
        misses.sort()
        if memo.stored >= len(nodes):
            found.update(self._encoded(self.body([nodes[pre] for pre in misses])))
            return found
        if self.fill is not None:
            images = self.fill(misses)
            for pre in misses:
                found.update(images[pre])
            self._store(images)
            return found
        missed, noted = memo.missed, self.noted
        first = [pre for pre in misses if pre not in missed or pre in noted]
        again = ([pre for pre in misses if pre in missed and pre not in noted]
                 if len(first) < len(misses) else [])
        if first:
            found.update(self._encoded(self.body([nodes[pre] for pre in first])))
        fresh = [tuple(self._encoded(self.body([nodes[pre]]))) for pre in again]
        missed.update(first)
        noted.update(first)
        for image in fresh:
            found.update(image)
        self._store(dict(zip(again, fresh)))
        return found

    def _store(self, images: dict[int, tuple[int, ...]]) -> None:
        """Keep the *images* of sources the memo does not hold yet, each
        while it fits in the memo's room."""
        memo = self.memo
        room = len(self.idx.nodes) - memo.stored
        size = sum(map(len, images.values()))
        if size <= room and images.keys().isdisjoint(memo):
            # all of them (a fill into a cold memo), at C speed
            memo.update(images)
            memo.stored += size
            return
        for pre, image in images.items():
            if len(image) <= room and pre not in memo:
                memo[pre] = image
                room -= len(image)
        memo.stored = len(self.idx.nodes) - room

    def _encoded(self, produced: list) -> set[int]:
        pre_of = self.idx.pre_of
        pres = set(map(pre_of.get, map(id, produced)))
        if None in pres:
            raise FixpointError("a step relation's body left the seed's tree")
        return pres

    def decode(self, pres: Iterable[int]) -> list[Node]:
        """*pres* as nodes, in document order (ascending pre)."""
        nodes = self.idx.nodes
        return [nodes[pre] for pre in sorted(pres)]


#: Axes :func:`batch_probe` can verify from the owner's side.
PROBE_AXES = frozenset({"child", "descendant"})


def batch_probe(nodes: list[Node], axis: str, name: str, owners_of,
                index_set: "IndexSet | None" = None) -> list[Node] | None:
    """``nodes/axis::name[value predicate]`` answered from the index side.

    *owners_of* maps a :class:`StructuralIndex` to the pres of the nodes in
    its tree that satisfy the predicate (a value-index lookup), or ``None``
    when it cannot tell.  Instead of enumerating every ``axis::name``
    candidate and testing it, the kernel enumerates those — typically few —
    owners and keeps the elements called *name* that stand in the axis
    relation to a context node: a parent lookup for ``child``, a bisection
    into the merged context intervals for ``descendant``.  The result is
    duplicate-free (owners are a set) and in document order (sorted pres).

    The candidates are counted first (child-by-name maps, name-index
    ranges) and *owners_of* is only asked when there is one: a step without
    candidates never evaluates its predicate, so neither may this kernel.

    Returns ``None`` — the caller enumerates as before — for other axes,
    for context nodes the index does not cover, when *owners_of* does, and
    when the owners outnumber the candidates, where enumerating is the
    cheaper side.
    """
    if axis not in PROBE_AXES:
        return None
    if index_set is None:
        index_set = IndexSet()
    by_index: dict[int, tuple[StructuralIndex, list[int]]] = {}
    for node in nodes:
        if isinstance(node, AttributeNode):
            continue  # attributes have neither children nor descendants
        idx = index_set.for_node(node)
        pre = idx.pre_of.get(id(node))
        if pre is None:
            return None
        by_index.setdefault(id(idx), (idx, []))[1].append(pre)

    trees: list[tuple[StructuralIndex, list[int], int]] = []
    for idx, pres in by_index.values():
        if axis == "child":
            children = idx.child_pres_named(name)
            candidates = sum(len(children.get(pre, ())) for pre in pres)
        else:
            named = idx.name_pres.get(name, ())
            candidates = sum(bisect_right(named, pre + idx.size[pre])
                             - bisect_right(named, pre) for pre in pres)
        if candidates:
            trees.append((idx, pres, candidates))

    per_tree: list[list[Node]] = []
    for idx, pres, candidates in trees:
        owners = owners_of(idx)
        if owners is None or len(owners) > candidates:
            return None
        if axis == "child":
            contexts = set(pres)
            parent_pre = idx.parent_pre
            matched = [p for p in owners if parent_pre[p] in contexts]
        else:
            # Maximal context intervals (lo, hi]: nested contexts add nothing.
            starts: list[int] = []
            ends: list[int] = []
            for pre in sorted(pres):
                if not ends or pre + idx.size[pre] > ends[-1]:
                    starts.append(pre)
                    ends.append(pre + idx.size[pre])
            matched = []
            for p in owners:
                slot = bisect_left(starts, p) - 1
                if slot >= 0 and p <= ends[slot]:
                    matched.append(p)
        matched.sort()
        per_tree.append([node for node in map(idx.nodes.__getitem__, matched)
                         if isinstance(node, ElementNode) and node.name == name])

    return _merged(per_tree)


def _batch_plane(distinct: list[Node], axis: str, kind: str,
                 name: str | None) -> list[Node] | None:
    """Batch kernels over the pre-order plane (descendant axes, following)."""
    indexes = IndexSet()
    by_index: "OrderedDict[int, tuple[StructuralIndex, list[int]]]" = OrderedDict()
    or_self = axis == "descendant-or-self"
    for node in distinct:
        if isinstance(node, AttributeNode):
            if axis == "following":
                return None  # keeps its naive attribute definition
            if or_self and _matches(node, kind, name, axis):
                # An attribute context contributes only itself; merge below
                # would lose it, so fall back to the generic sort path.
                return None
            continue
        idx = indexes.for_node(node)
        pre = idx.pre_of.get(id(node))
        if pre is None:
            return None
        entry = by_index.get(id(idx))
        if entry is None:
            by_index[id(idx)] = (idx, [pre])
        else:
            entry[1].append(pre)

    per_tree: list[list[Node]] = []
    for idx, pres in by_index.values():
        if axis == "following":
            # The union of per-node suffixes is the suffix of the earliest
            # subtree end.
            start = min(pre + idx.size[pre] + 1 for pre in pres)
            per_tree.append(idx.range_matches(start, len(idx.nodes) - 1, kind, name))
            continue
        pres.sort()
        matches: list[Node] = []
        covered_hi = -1
        for pre in pres:
            hi = pre + idx.size[pre]
            if hi <= covered_hi:
                continue  # nested inside an already-covered subtree
            lo = pre if or_self else pre + 1
            if lo <= covered_hi:
                lo = covered_hi + 1
            matches.extend(idx.range_matches(lo, hi, kind, name))
            covered_hi = hi
        per_tree.append(matches)

    return _merged(per_tree)
