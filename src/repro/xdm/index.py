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
to.  The value indexes hold integers only and pin no node; a text or
attribute edit and a newly registered ID drop them.

The batch kernels (:func:`batch_step`; :func:`batch_id` for ``fn:id`` over
a column of references; :func:`batch_id_path` for ``id(n1/…/nk)`` over a
column of context nodes) take a whole column at once.  For the descendant
axes the context intervals are merged (nested intervals are skipped, which
is what makes the result duplicate-free *by construction*).  The downward
named steps — ``child::n``, and a chain of them under ``fn:id`` — are
integer work: pres in, dict probes, ``sorted`` pres out, node objects
gathered once at the end.  Intermediate columns need neither dedup nor
sort, because the children of distinct parents are distinct and document
order is ascending pre.  For every other axis results are deduplicated by
identity and sorted once by ``order_key`` — never the quadratic per-node
filtering the naive axis methods would add up to.

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
from itertools import chain
from collections import OrderedDict
from collections.abc import Iterable, KeysView
from threading import RLock

from repro import faults
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
                 "kind_pres", "_child_pres", "_attr_owner_sets",
                 "_attr_value_sets", "_path_value_sets", "_idref_targets")

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

    def descendant_interval(self, node: Node,
                            or_self: bool = False) -> tuple[int, int] | None:
        """The inclusive pre-order interval covering *node*'s subtree."""
        pre = self.pre_of.get(id(node))
        if pre is None:
            return None
        return (pre if or_self else pre + 1, pre + self.size[pre])

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


def _child_named_in_one_tree(nodes: list[Node], name: str) -> list[Node] | None:
    """``nodes/child::name`` in pre-space, for a column that lies in one
    tree: pres in, the child-by-name map, sorted pres out, one gather.
    Children of distinct parents are distinct, so once the input's repeats
    are gone nothing needs an identity set, and integers sort without a key.
    ``None`` — the general path — for a column with an attribute or nodes
    of a second tree."""
    first = nodes[0]
    if isinstance(first, AttributeNode):
        return None
    idx = index_for(first)
    pres = list(map(idx.pre_of.get, map(id, nodes)))
    if None in pres:
        return None
    tree_nodes = idx.nodes
    return [tree_nodes[child] for child in sorted(
        _mapped(idx.child_pres_named(name), dict.fromkeys(pres)))]


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


def batch_id_path(nodes: Iterable, names: tuple[str, ...],
                  document: DocumentNode | None = None) -> list[Node] | None:
    """``nodes/id(child::n1/…/child::nk)`` (``k ≥ 1``, no predicates) in
    pre-space: the elements, duplicate-free and in document order, that the
    ID references under the *names* chain of some context node resolve to —
    each in the document of its context node, or only in *document* when
    one is given.

    The column is split by covering index through ``pre_of`` membership
    (the index's root *is* the document: no per-node root walk), the chain
    but for its last step walks the child-by-name maps, the last step and
    the dereference are one probe of the ID-reference index
    (:meth:`StructuralIndex.idref_targets`), and nodes are gathered once,
    from the sorted set of target pres.  The intermediate columns need
    neither dedup nor sort: children of distinct parents are distinct, a
    repeated context node only repeats work, and the final set orders all.

    Returns ``None`` — the caller walks the chain step by step — when an
    item is not a node, a node is covered by no index, an ID resolves
    outside its tree, or (with *document*) a context node lies outside it.
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
        if document is not None and idx.root is not document:
            return None
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
