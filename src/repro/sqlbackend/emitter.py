"""Emission of ``WITH RECURSIVE`` SQL from XQuery recursion bodies.

The paper's central contrast is the XQuery IFP against SQL:1999's
``WITH RECURSIVE`` evaluated on an RDBMS.  This module closes that loop:
when a ``with $x seeded by … recurse e`` body is a *linear step chain* —
a path of axis steps and ``fn:id`` hops applied to the recursion variable —
the whole fixpoint becomes one recursive CTE over the shredded pre/post
tables:

.. code-block:: sql

    WITH RECURSIVE
      seed(pre) AS (
        VALUES (?), (?)
      ),
      fixpoint(pre) AS (
        SELECT c3.pre
          FROM seed AS s
          CROSS JOIN node AS c1 INDEXED BY … ON c1.parent = s.pre AND …
          CROSS JOIN node AS c2 INDEXED BY … ON c2.parent = c1.pre AND …
          CROSS JOIN id_attr AS c3 INDEXED BY … ON c3.doc_id = c2.doc_id
                                                AND c3.value = TRIM(c2.value, …)
        UNION
        SELECT c3.pre
          FROM fixpoint AS s
          CROSS JOIN … (the same chain)
      )
    SELECT pre FROM fixpoint

(the member of ``$x/id(./prerequisites/pre_code)``).  The anchor member
applies the step chain to the seed (``res_0 = e_rec(e_seed)`` of
Definition 2.1), the recursive member re-applies it to newly discovered
rows, and SQLite's deduplicating ``UNION`` *is* the inflationary
accumulation — it also guarantees termination on cyclic data, where ``UNION
ALL`` would loop forever.  Because a pure step chain is distributive in the
recursion variable (they are exactly the STEP rules of the Figure 5
analysis), handing the iteration to the RDBMS's semi-naive CTE evaluator is
always sound here.

A member joins only the rows its clauses read.  Child and ``self`` steps
and ``fn:id`` hops need nothing of their context but its ``pre``, which the
frontier (``s.pre``) and an ``id_attr`` hop already hold; a ``node`` row for
such a ``pre`` is joined only when a later clause reads another of its
columns (``parent``, sibling, descendant and ancestor steps, an ``fn:id``
argument's value).  With the covering ``(parent, name, kind)`` and
``(doc_id, value, pre)`` indexes, the chain above never reads a ``node``
row for ``c1`` nor any row of ``id_attr``.

The member above rebuilds the stored ``C(course, prerequisite)`` relation of
the paper's Section 2 listing from the shredded tables for every frontier
row.  A chain of two or more joins that never leaves its context row's tree
(axis steps and step-position ``fn:id`` hops, :attr:`FixpointSql.tree_local`)
also offers that relation itself, :meth:`FixpointSql.edge_select`; the
store materialises it per tree as a ``(src, dst)`` table
(:meth:`~repro.sqlbackend.shredder.SqlDocumentStore.edge_table`) and both
members become one primary-key search, ``CROSS JOIN edges_k AS e ON e.src =
s.pre``.  Whether a store has the table is decided at run time, so
``--emit-sql`` prints the joined member.

Steps may carry *recognized predicate shapes* (the pushdown fragment of
:mod:`repro.xquery.pushdown`): ``[@a = "v"]``, ``[name = $v]`` and the
existence tests ``[@a]`` / ``[name]`` become ``EXISTS`` probes against the
shredded ``attr``/``node`` tables — riding the ``(owner, name)`` attribute
index and the ``(parent, name, kind)`` child index — *inside* the recursive
members, so the filter runs in SQLite every round instead of being
re-evaluated in Python after decoding.  Variable right-hand sides are
inlined from the caller's bindings when every bound value is a string.

Every join and probe *names its access path* (``INDEXED BY`` / ``NOT
INDEXED``, see ``_AXIS_JOINS``): the store keeps no planner statistics —
with them SQLite >= 3.38 scans ``node`` into a Bloom filter in every
recursive member (DESIGN.md §5.1) — so nothing about the plan is left to
the planner's defaults or its version.

Anything beyond such a chain — positional or unrecognized predicates,
conditionals, aggregates, user-defined functions, sequence/union bodies —
makes :func:`emit_fixpoint_sql` return ``None`` and the executor falls
back to the iterative driver loop (:mod:`repro.sqlbackend.executor`).

Known simplification: the ``fn:id`` join matches a *single* ID token per
argument node — the string value with surrounding whitespace trimmed —
whereas XQuery tokenizes multi-token IDREFS lists on internal whitespace.
Single-token references (the curriculum encoding, padded or not) behave
identically; for multi-token IDREFS content every emitted ``fn:id`` hop
carries a guard probe (:attr:`FixpointSql.guards`), and a store where one
finds such content runs the fixpoint through the driver loop instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sqlbackend.schema import (
    ATTRIBUTE_INDEX,
    CHILD_INDEX,
    ID_INDEX,
    NAME_INDEX,
    RANGE_INDEX,
)
from repro.xquery import ast
from repro.xquery.pushdown import (
    ValueShape,
    recognize_predicate,
    string_values_or_none,
)

#: Access path of a join on the ``pre`` rowid: SQLite's ``NOT INDEXED``
#: rules every secondary index out and leaves the primary-key lookup/range.
_BY_PRE = "NOT INDEXED"

#: Axis name → (join condition template, pinned access path); ``{b}`` is the
#: new alias, ``{a}`` the context rows (a :class:`_Rows`: ``{a.pre}`` costs
#: nothing, any other column joins the context's ``node`` row).  The store
#: keeps no planner statistics (see :mod:`repro.sqlbackend.schema`), so every
#: join names its access path instead of leaving it to the planner's
#: defaults: child and sibling steps walk ``(parent, name, kind)``, ``self``
#: and ``parent`` are ``pre`` lookups, the descendant axes are the ``pre``
#: range of the subtree — ``pre`` and ``post`` tick from one counter, so
#: ``{a.pre} < pre < {a.post}`` bounds it on both sides — and the ancestor
#: axes scan the context document's ``(doc_id, post)`` range.
_AXIS_JOINS: dict[str, tuple[str, str]] = {
    "child": ("{b}.parent = {a.pre}", f"INDEXED BY {CHILD_INDEX}"),
    "descendant": (
        "{b}.pre > {a.pre} AND {b}.pre < {a.post} "
        "AND {b}.doc_id = {a.doc_id} AND {b}.post < {a.post}", _BY_PRE),
    "descendant-or-self": (
        "{b}.pre >= {a.pre} AND {b}.pre < {a.post} "
        "AND {b}.doc_id = {a.doc_id} AND {b}.post <= {a.post}", _BY_PRE),
    "self": ("{b}.pre = {a.pre}", _BY_PRE),
    "parent": ("{b}.pre = {a.parent}", _BY_PRE),
    "ancestor": (
        "{b}.doc_id = {a.doc_id} AND {b}.post > {a.post} AND {b}.pre < {a.pre}",
        f"INDEXED BY {RANGE_INDEX}"),
    "ancestor-or-self": (
        "{b}.doc_id = {a.doc_id} AND {b}.post >= {a.post} AND {b}.pre <= {a.pre}",
        f"INDEXED BY {RANGE_INDEX}"),
    "following-sibling": ("{b}.parent = {a.parent} AND {b}.pre > {a.pre}",
                          f"INDEXED BY {CHILD_INDEX}"),
    "preceding-sibling": ("{b}.parent = {a.parent} AND {b}.pre < {a.pre}",
                          f"INDEXED BY {CHILD_INDEX}"),
}

#: The ``node`` columns other than ``pre`` a clause may read off a context.
_NODE_COLUMNS = frozenset(("post", "doc_id", "parent", "level", "kind", "name", "value"))

#: Kind-test name → ``node.kind`` value (no extra filter for ``node()``).
_KIND_FILTERS: dict[str, str | None] = {
    "node": None,
    "text": "text",
    "comment": "comment",
    "processing-instruction": "processing-instruction",
    "element": "element",
    "document-node": "document",
}


class _NotEmittable(Exception):
    """Internal: the body is not a linear step chain."""


def _cross_join(table: str, alias: str, access: str, condition: str) -> str:
    # CROSS JOIN is SQLite's manual join-order override: the member must
    # stay frontier-driven (read s first, then walk the chain), and the
    # planner's cost model demonstrably inverts the order once pushed
    # EXISTS probes enter the picture — scanning all name-test matches
    # per round instead of the frontier.  Semantically identical to
    # JOIN … ON in SQLite.  *access* pins the access path the same way
    # (``INDEXED BY …`` / ``NOT INDEXED``).
    return f"CROSS JOIN {table} AS {alias} {access} ON {condition}"


class _Rows:
    """A step's result as the member sees it.

    ``pre`` is what the member already holds: ``s.pre`` for the frontier, an
    axis step's ``alias.pre``, an ``fn:id`` hop's ``id_attr`` ``pre``.  Any
    other ``node`` column (``rows.post``, ``rows.doc_id``, …) is read off
    ``alias``; for rows that are not a ``node`` alias yet, the first such
    read fills the join slot reserved right after the rows were produced
    with ``node AS alias ON alias.pre = <pre>`` — so the member joins a row
    exactly when a later clause reads it.
    """

    def __init__(self, alias: str, pre: str, joins: list[str | None] | None = None):
        self.alias = alias
        self.pre = pre
        #: the emitter's join list and the slot reserved in it, for rows whose
        #: ``node`` row is not joined yet
        self._joins = joins
        self._slot = -1
        if joins is not None:
            self._slot = len(joins)
            joins.append(None)

    def __getattr__(self, column: str) -> str:
        if column not in _NODE_COLUMNS:
            raise AttributeError(column)
        if self._joins is not None and self._joins[self._slot] is None:
            self._joins[self._slot] = _cross_join(
                "node", self.alias, _BY_PRE, f"{self.alias}.pre = {self.pre}")
        return f"{self.alias}.{column}"


def format_with_recursive(name: str, columns: tuple[str, ...],
                          seed_sql: str, step_sql: str,
                          union: str = "UNION ALL",
                          final_select: str | None = None,
                          preamble: tuple[tuple[str, str], ...] = ()) -> str:
    """Pretty-print a standard ``WITH RECURSIVE`` statement.

    ``preamble`` lists extra non-recursive CTEs (``(header, body)`` pairs)
    placed before the recursive one — the parameterized seed table of the
    emitted fixpoints.  ``union`` is ``UNION ALL`` in the standard's listing
    style (Section 2's ``P(course_code)`` example prints with the defaults);
    SQLite's deduplicating ``UNION`` is what actually gives the inflationary
    set semantics (and termination on cycles), so the executable statements
    of :class:`FixpointSql` use that.
    """

    def indent(sql: str) -> str:
        return "\n".join(f"  {line}" for line in sql.strip().splitlines())

    ctes = [f"{header} AS (\n{indent(body)}\n)" for header, body in preamble]
    ctes.append(
        f"{name}({', '.join(columns)}) AS (\n"
        f"{indent(seed_sql)}\n  {union}\n{indent(step_sql)}\n)"
    )
    head = (f"WITH RECURSIVE {ctes[0]}" if len(ctes) == 1
            else "WITH RECURSIVE\n" + ",\n".join(ctes))
    return f"{head}\n{final_select or f'SELECT DISTINCT * FROM {name}'}"


@dataclass(frozen=True)
class FixpointSql:
    """A recursion body emitted as a parameterized recursive CTE.

    The seed enters as a ``VALUES`` CTE of ``pre`` ranks
    (:meth:`statement`) or, for seed sets near SQLite's host-parameter
    limit, as a ``SELECT`` from a pre-loaded table
    (:meth:`statement_from_table`).  Either reads the step relation through
    the chain's joins or, given the name of a ``(src, dst)`` table holding
    it (*edges*, built from :meth:`edge_select`), through one primary-key
    search.
    """

    #: The column the member selects: the ``pre`` of the chain's result.
    result: str
    #: The step chain's ``CROSS JOIN`` clauses, in order, starting from the
    #: context rows ``s``.
    joins: tuple[str, ...]
    #: ``SELECT EXISTS(…)`` probes that detect data the chain would handle
    #: incorrectly (multi-token IDREFS content); any probe returning 1 means
    #: the executor must fall back to the driver loop.
    guards: tuple[str, ...] = ()
    #: Whether every row the chain reaches lies in its context row's tree:
    #: false once a top-level ``id(…)`` looks up in the anchor document.
    tree_local: bool = True

    def member(self, source: str, edges: str | None = None) -> str:
        """The chain as one SQL member reading its context rows from
        *source* — through its joins, or as the step relation in the
        ``(src, dst)`` table *edges*."""
        if edges is not None:
            return "\n".join(["SELECT e.dst", f"  FROM {source} AS s",
                              f"  CROSS JOIN {edges} AS e ON e.src = s.pre"])
        return "\n".join([f"SELECT {self.result}", f"  FROM {source} AS s",
                          *(f"  {join}" for join in self.joins)])

    def edge_select(self) -> str | None:
        """The chain's step relation over one tree, for the store to
        materialise (:meth:`SqlDocumentStore.edge_table`): ``SELECT DISTINCT
        src, dst`` with ``s`` ranging over the ``node`` rows of a rank range
        (parameters: first, last, row limit).  ``None`` when the member is one
        index search already (a single join) or may leave the tree (then no
        set of trees bounds the edges a closure reads)."""
        if not self.tree_local or len(self.joins) < 2:
            return None
        return "\n".join([f"SELECT DISTINCT s.pre, {self.result}",
                          f"  FROM node AS s {_BY_PRE}",
                          *(f"  {join}" for join in self.joins),
                          "  WHERE s.pre BETWEEN ? AND ?", "  LIMIT ?"])

    def images(self, edges: str | None = None) -> str:
        """The final ``SELECT`` of an image statement: the member once more,
        from every source the fixpoint holds or was seeded with, as distinct
        ``(src, dst)`` rows.  A source without rows has an empty image —
        every node the fixpoint holds is some source's ``dst``, so seed and
        rows together name every source."""
        reached = "  FROM (SELECT pre FROM seed UNION SELECT pre FROM fixpoint) AS s"
        if edges is not None:  # its pairs are distinct (its primary key)
            return "\n".join(["SELECT s.pre, e.dst", reached,
                              f"  CROSS JOIN {edges} AS e ON e.src = s.pre"])
        return "\n".join([f"SELECT DISTINCT s.pre, {self.result}", reached,
                          *(f"  {join}" for join in self.joins)])

    def _statement(self, seed_body: str, edges: str | None, images: bool = False) -> str:
        return format_with_recursive(
            "fixpoint", ("pre",),
            self.member("seed", edges), self.member("fixpoint", edges),
            union="UNION",
            # No ORDER BY: decode_pres puts the nodes in document order,
            # which across trees is order_key's, not pre's.
            final_select=self.images(edges) if images else "SELECT pre FROM fixpoint",
            preamble=(("seed(pre)", seed_body),),
        )

    def statement(self, seed_count: int, edges: str | None = None,
                  images: bool = False) -> str:
        """The executable statement for *seed_count* seed parameters: the
        fixed point's ``pre`` ranks, or with *images* the ``(src, dst)``
        rows of :meth:`images`."""
        return self._statement("VALUES " + ", ".join(["(?)"] * max(seed_count, 1)),
                               edges, images)

    def statement_from_table(self, table: str, edges: str | None = None,
                             images: bool = False) -> str:
        """The statement reading seed ``pre`` ranks from *table*."""
        return self._statement(f"SELECT pre FROM {table}", edges, images)

    def display(self) -> str:
        """The statement with a symbolic seed list (for ``--emit-sql``): the
        joined member, since whether a store reads a materialised edge table
        instead is decided at run time, per tree."""
        return self._statement("VALUES (?) /* one row per seed node */", None)


def emit_fixpoint_sql(body: ast.Expr, variable: str,
                      variables: dict | None = None,
                      push_predicates: bool = True,
                      anchor_doc_id=None) -> FixpointSql | None:
    """Emit the recursive-CTE step member for *body*, or ``None``.

    *body* must be a linear step chain over *variable*: axis steps with
    name/kind tests, optionally ending in (or passing through) an ``fn:id``
    call whose argument is itself a step chain from the context item — or a
    top-level ``id(chain-from-$var)`` call (the Q1 shape the strengthened
    static analysis proves distributive).  Step predicates are pushed as
    ``EXISTS`` probes when they are recognized value/existence shapes
    (*push_predicates*); *variables* supplies bindings used to inline
    variable right-hand sides.

    *anchor_doc_id* scopes top-level ``id(...)`` lookups: ``fn:id`` anchors
    at the evaluation's context node, whose document is unknown to the SQL
    text, so the executor passes its ``doc_id`` — as an ``int`` or a
    zero-argument callable resolved only if the body actually needs it.
    Without one, top-level ``id(...)`` bodies are not emittable (the driver
    loop gives them the interpreter's semantics).
    """
    try:
        return _Emitter(variable, variables, push_predicates,
                        anchor_doc_id=anchor_doc_id).emit(body)
    except _NotEmittable:
        return None


#: What :class:`_Emitter` records for an input it never read.
_UNREAD = object()


def _variable_values(variables: dict, name: str):
    """What the emitter inlines for the variable *name*: its string values,
    ``None`` when one is not a string, :data:`_UNREAD` when unbound."""
    return string_values_or_none(variables[name]) if name in variables else _UNREAD


def emitted_for(expr: ast.WithExpr, variables: dict | None = None,
                push_predicates: bool = True, anchor_doc_id=None) -> FixpointSql | None:
    """:func:`emit_fixpoint_sql` of *expr*'s body, memoised on the node.

    The statement — or ``None`` — depends on the body and on what emitting
    it read: *push_predicates*, the string values of every variable it
    inlined (or looked for), and the anchor's ``doc_id`` when a top-level
    ``id(…)`` resolved it.  The memo keeps those beside the statement and
    serves it while they are what they were: a run in another scope (a
    ``let`` that rebinds an inlined name) or over another anchor document
    emits again.
    """
    variables = variables or {}
    memo = expr._emitted
    if memo is not None:
        pushed, reads, anchor, emitted = memo
        if anchor is not _UNREAD and callable(anchor_doc_id):
            anchor_doc_id = anchor_doc_id()  # once, for the check and the emitter
        if (pushed == push_predicates
                and (not reads or all(_variable_values(variables, name) == values
                                      for name, values in reads))
                and (anchor is _UNREAD or anchor == anchor_doc_id)):
            return emitted
    emitter = _Emitter(expr.var, variables, push_predicates, anchor_doc_id=anchor_doc_id)
    try:
        emitted = emitter.emit(expr.body)
    except _NotEmittable:
        emitted = None
    object.__setattr__(expr, "_emitted", (push_predicates, tuple(emitter.reads),
                                          emitter.anchor, emitted))
    return emitted


class _Emitter:
    def __init__(self, variable: str, variables: dict | None = None,
                 push_predicates: bool = True, anchor_doc_id=None):
        self.variable = variable
        self.variables = variables or {}
        self.push_predicates = push_predicates
        self.anchor_doc_id = anchor_doc_id
        #: ``(name, values)`` of every variable looked up (:func:`emitted_for`)
        self.reads: list[tuple[str, object]] = []
        #: the resolved anchor ``doc_id``, once read
        self.anchor = _UNREAD
        #: ``CROSS JOIN`` clauses in chain order; ``None`` is a node row
        #: reserved by a :class:`_Rows` and never read
        self.joins: list[str | None] = []
        self.guards: list[str] = []
        self.tree_local = True
        self._tests: dict[str, ast.NodeTest] = {}
        self._aliases = 0

    def _resolve_anchor(self) -> int:
        """The ``doc_id`` anchoring top-level ``id(...)`` lookups."""
        if callable(self.anchor_doc_id):
            self.anchor_doc_id = self.anchor_doc_id()
        self.anchor = self.anchor_doc_id
        if not isinstance(self.anchor_doc_id, int):
            raise _NotEmittable
        return self.anchor_doc_id

    # -- infrastructure ------------------------------------------------------

    def _fresh(self) -> str:
        alias = f"c{self._aliases}"
        self._aliases += 1
        return alias

    def _join(self, table: str, alias: str, access: str, condition: str) -> None:
        self.joins.append(_cross_join(table, alias, access, condition))

    def _unjoined(self, pre: str) -> _Rows:
        """Rows known by their ``pre`` alone (the node row joins on demand)."""
        return _Rows(self._fresh(), pre, self.joins)

    # -- entry point ---------------------------------------------------------

    def emit(self, body: ast.Expr) -> FixpointSql:
        frontier = self._unjoined("s.pre")
        result = self._chain(body, frontier)
        if result is frontier:
            # ``recurse $x``: no step would reject the executor's ``-1``
            # placeholder seed — and there is nothing to iterate.
            raise _NotEmittable
        return FixpointSql(result=result.pre,
                           joins=tuple(join for join in self.joins if join is not None),
                           guards=tuple(self.guards), tree_local=self.tree_local)

    # -- translation ---------------------------------------------------------

    def _chain(self, expr: ast.Expr, context_alias: _Rows,
               in_id_argument: bool = False) -> _Rows:
        """Translate *expr* into joins; return its result rows.

        At the top level the chain must start from the recursion variable
        (``.`` in the body denotes the *outer* context item, which the
        emitter cannot see — such bodies fall back to the driver loop,
        where the interpreter gives them their real semantics).  Inside an
        ``fn:id`` argument the roles flip: the chain is relative to the
        context item rebound by the enclosing path step, while the
        recursion variable would denote the whole frontier sequence.
        """
        if isinstance(expr, ast.VarRef):
            if in_id_argument or expr.name != self.variable:
                raise _NotEmittable
            return context_alias
        if isinstance(expr, ast.ContextItem):
            if not in_id_argument:
                raise _NotEmittable
            return context_alias
        if isinstance(expr, ast.PathExpr):
            left = self._chain(expr.left, context_alias, in_id_argument)
            return self._apply_step(expr.right, left)
        if (isinstance(expr, ast.FunctionCall) and not in_id_argument
                and expr.name in ("id", "fn:id") and len(expr.args) == 1):
            # Top-level ``id(chain-from-$var)``: the argument walks from the
            # recursion variable, the lookup anchors at the context node's
            # document (supplied by the executor as anchor_doc_id).
            return self._id_join(expr.args[0], context_alias,
                                 from_variable=True)
        if isinstance(expr, ast.AxisStep):
            # A bare step is relative to the context item (inside id()).
            if not in_id_argument:
                raise _NotEmittable
            return self._apply_step(expr, context_alias)
        raise _NotEmittable

    def _apply_step(self, step: ast.Expr, context_alias: _Rows) -> _Rows:
        if isinstance(step, ast.AxisStep):
            return self._axis_join(step, context_alias)
        if isinstance(step, ast.FunctionCall) and step.name in ("id", "fn:id") \
                and len(step.args) == 1:
            return self._id_join(step.args[0], context_alias)
        raise _NotEmittable

    def _axis_join(self, step: ast.AxisStep, context_alias: _Rows) -> _Rows:
        if step.axis not in _AXIS_JOINS:
            raise _NotEmittable  # attribute/following/preceding: driver loop
        condition, access = _AXIS_JOINS[step.axis]
        alias = self._fresh()
        clauses = [condition.format(a=context_alias, b=alias)]
        clauses.extend(self._node_test_clauses(step.node_test, alias))
        for predicate in step.predicates:
            clauses.append(self._predicate_clause(predicate, alias))
        self._join("node", alias, access, " AND ".join(clauses))
        self._tests[alias] = step.node_test
        return _Rows(alias, f"{alias}.pre")

    def _predicate_clause(self, predicate: ast.Expr, alias: str) -> str:
        """A recognized value/existence predicate as an ``EXISTS`` probe.

        Positional shapes cannot be expressed per-context-node inside a
        recursive member (no window functions there), so they — like every
        unrecognized shape — hand the fixpoint to the driver loop.
        """
        if not self.push_predicates:
            raise _NotEmittable
        shape = recognize_predicate(predicate)
        if not isinstance(shape, ValueShape):
            raise _NotEmittable
        values = self._shape_values(shape)
        if shape.target == "attr":
            clauses = [f"p.owner = {alias}.pre", f"p.name = {_quote(shape.name)}"]
            source = f"attr AS p INDEXED BY {ATTRIBUTE_INDEX}"
        else:
            clauses = [f"p.parent = {alias}.pre", "p.kind = 'element'",
                       f"p.name = {_quote(shape.name)}"]
            source = f"node AS p INDEXED BY {CHILD_INDEX}"
        if values is not None:
            if not values:
                return "0"  # empty comparison sequence matches nothing
            if len(values) == 1:
                clauses.append(f"p.value = {_quote(values[0])}")
            else:
                quoted = ", ".join(_quote(value) for value in values)
                clauses.append(f"p.value IN ({quoted})")
        return f"EXISTS (SELECT 1 FROM {source} WHERE {' AND '.join(clauses)})"

    def _shape_values(self, shape: ValueShape):
        """Constant strings of the shape's right-hand side (``None`` for
        existence tests); non-string operands are not emittable."""
        if shape.path:
            # A relative-path shape (``seller/@person = …``) would need a
            # join chain inside the probe: declined, the driver loop's
            # interpreted body answers it from the path-value index.
            raise _NotEmittable
        if shape.rhs is None:
            return None
        if isinstance(shape.rhs, ast.Literal):
            values = string_values_or_none([shape.rhs.value])
        elif isinstance(shape.rhs, ast.VarRef):
            values = _variable_values(self.variables, shape.rhs.name)
            self.reads.append((shape.rhs.name, values))
            if values is _UNREAD:
                raise _NotEmittable
        else:
            # A computed right-hand side has no value the SQL text could
            # inline: declined (driver loop).
            values = None
        if values is None:
            raise _NotEmittable
        return values

    def _node_test_clauses(self, test: ast.NodeTest, alias: str) -> list[str]:
        if test.kind == "name":
            clauses = [f"{alias}.kind = 'element'"]
            if test.name != "*":
                clauses.append(f"{alias}.name = {_quote(test.name)}")
            return clauses
        if test.kind in _KIND_FILTERS:
            kind = _KIND_FILTERS[test.kind]
            clauses = [] if kind is None else [f"{alias}.kind = {_quote(kind)}"]
            if test.name is not None and test.kind in ("element", "processing-instruction"):
                clauses.append(f"{alias}.name = {_quote(test.name)}")
            return clauses
        raise _NotEmittable

    def _id_join(self, argument: ast.Expr, context_alias: _Rows,
                 from_variable: bool = False) -> _Rows:
        """``fn:id(arg)``: join the ID table on the argument's string value.

        In step position (``…/id(./chain)``) the argument walks from the
        context item and the lookup is scoped to the argument node's
        document — the context node's, since the chain stays in its tree.
        In top-level position (``id(chain-from-$var)``, *from_variable*) the
        argument walks from the recursion variable and the lookup is scoped
        to the anchor document the executor supplies — ``fn:id`` anchors at
        the evaluation's context node, which the SQL cannot otherwise see.
        Either way the string values come straight from the materialised
        ``value`` column.
        """
        value_alias = self._chain(argument, context_alias,
                                  in_id_argument=not from_variable)
        if value_alias is context_alias:
            raise _NotEmittable  # id(.) / id($x) — outside the fragment
        if from_variable:
            self.tree_local = False  # the anchor document need not be the frontier's
        doc_scope = (str(self._resolve_anchor()) if from_variable
                     else value_alias.doc_id)
        self.guards.append(self._multi_token_guard(value_alias))
        alias = self._fresh()
        # TRIM matches the interpreter's whitespace handling for a single ID
        # token; the probe expression sits on the outer row, so the lookup
        # still drives the (doc_id, value, pre) index.
        self._join(
            "id_attr", alias, f"INDEXED BY {ID_INDEX}",
            f"{alias}.doc_id = {doc_scope} "
            f"AND {alias}.value = TRIM({value_alias.value}, ' ' || char(9, 10, 13))",
        )
        # id_attr.pre is an element pre: its node row joins only if a later
        # step reads one of its columns.
        return self._unjoined(f"{alias}.pre")

    def _multi_token_guard(self, value_alias: _Rows) -> str:
        """An ``EXISTS`` probe for multi-token IDREFS content.

        The TRIM-normalized equality join resolves exactly one ID token per
        argument node; if any candidate value still contains internal
        whitespace after trimming, the executor must hand the fixpoint to
        the driver loop, where the interpreter's tokenizing ``fn:id`` runs.
        The probe over-approximates (it scans every node matching the
        argument step's node test, regardless of document or reachability),
        trading a one-time indexed scan for never returning a silently
        wrong CTE result.
        """
        test = self._tests.get(value_alias.alias)
        clauses = (self._node_test_clauses(test, "n") if test is not None
                   else ["n.kind = 'element'"])
        # A name test scans that name's index entries; anything else has to
        # read the whole table.
        access = (f" INDEXED BY {NAME_INDEX}"
                  if any(clause.startswith("n.name = ") for clause in clauses) else "")
        clauses.append(
            "TRIM(n.value, ' ' || char(9, 10, 13)) "
            "GLOB ('*[' || char(9, 10, 13) || ' ]*')"
        )
        return (f"SELECT EXISTS(SELECT 1 FROM node AS n{access} "
                f"WHERE {' AND '.join(clauses)})")


def _quote(text: str) -> str:
    escaped = text.replace("'", "''")
    return f"'{escaped}'"


__all__ = ["FixpointSql", "emit_fixpoint_sql", "emitted_for", "format_with_recursive"]
