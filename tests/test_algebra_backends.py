"""Kernel equivalence, plan memoisation and per-run evaluator state.

:class:`~repro.algebra.columnar.ColumnarTable` is the algebra engine's one
table type.  These tests hold it to three references:

* :class:`OracleTable` — the row-at-a-time reference kernels (a tuple of
  row tuples, one generic loop per kernel), kept here verbatim as an oracle
  for property-style tests over randomly generated tables;
* the interpreter, on the four benchmark workloads' answer templates
  (:mod:`repro.bench.table2`): answers and fixpoint statistics agree;
* regression tests for the per-run evaluation state (fresh memo cache,
  recursion binding and statistics per ``evaluate_plan`` call).

``test_no_kernel_mutates_its_inputs`` checks the rule that lets a cached
plan share its literal tables between runs and threads; that sharing itself
is tested in ``tests/test_cache_concurrency.py``.
"""

import random
from collections import Counter

import pytest

from repro.errors import AlgebraError
from repro.algebra.columnar import ColumnarTable
from repro.algebra.compiler import AlgebraCompiler
from repro.algebra.evaluator import AlgebraEvaluator
from repro.algebra.operators import (
    LiteralTable,
    Operator,
    Project,
    RecursionInput,
    ScalarOp,
    StepJoin,
    UnionAll,
)
from repro.bench.queries import WORKLOADS, get_workload
from repro.bench.table2 import run_cell, seeds_of
from repro.session import Session
from repro.xmlio.parser import parse_xml
from repro.xquery.context import DocumentResolver
from repro.xquery.parser import parse_expression


# ---------------------------------------------------------------------------
# the row-at-a-time oracle
# ---------------------------------------------------------------------------


class OracleTable:
    """An immutable relational table: a schema plus a list of row tuples.

    Every kernel is the generic row-at-a-time loop the columnar kernels
    replaced; nothing here is shared with :mod:`repro.algebra.columnar`.
    """

    __slots__ = ("columns", "_rows")

    def __init__(self, columns, rows=()):
        self.columns = tuple(columns)
        normalized = []
        width = len(self.columns)
        for row in rows:
            row_tuple = tuple(row)
            if len(row_tuple) != width:
                raise AlgebraError(
                    f"row {row_tuple!r} does not match schema {self.columns!r}"
                )
            normalized.append(row_tuple)
        self._rows = tuple(normalized)

    @classmethod
    def from_rows(cls, columns, rows=()):
        return cls(columns, rows)

    def __len__(self):
        return len(self._rows)

    def iter_rows(self):
        return iter(self._rows)

    def column_index(self, name):
        try:
            return self.columns.index(name)
        except ValueError:
            raise AlgebraError(f"unknown column '{name}' in schema {self.columns!r}") from None

    def column_values(self, name):
        index = self.column_index(name)
        return [row[index] for row in self._rows]

    def project(self, mapping):
        """Project/rename: mapping is a list of (new_name, old_name) pairs."""
        indices = [self.column_index(old) for _new, old in mapping]
        new_columns = [new for new, _old in mapping]
        return type(self).from_rows(
            new_columns, [tuple(row[i] for i in indices) for row in self.iter_rows()]
        )

    def select_flag(self, column):
        """σ — keep rows whose *column* holds a truthy value."""
        index = self.column_index(column)
        return type(self).from_rows(
            self.columns, [row for row in self.iter_rows() if row[index]]
        )

    def select_computed(self, sources, function):
        """σ∘⊚ — keep rows where ``function(*sources)`` is truthy.

        The fused form of ``extend_computed`` + ``select_flag``: the flag
        column is never materialised.
        """
        indices = [self.column_index(c) for c in sources]
        return type(self).from_rows(
            self.columns,
            [row for row in self.iter_rows()
             if function(*(row[i] for i in indices))],
        )

    def extend_computed(self, result, sources, function):
        """⊚ — append a column computed from *sources* via *function*."""
        indices = [self.column_index(c) for c in sources]
        rows = [row + (function(*(row[i] for i in indices)),) for row in self.iter_rows()]
        return type(self).from_rows(self.columns + (result,), rows)

    def map_column(self, column, function):
        """Replace *column* by ``function`` applied value-wise."""
        index = self.column_index(column)
        rows = [row[:index] + (function(row[index]),) + row[index + 1:]
                for row in self.iter_rows()]
        return type(self).from_rows(self.columns, rows)

    def tag_rows(self, result, tag_base):
        """# — append a unique row identifier column."""
        rows = [row + (tag_base + index,) for index, row in enumerate(self.iter_rows())]
        return type(self).from_rows(self.columns + (result,), rows)

    def distinct(self):
        seen = set()
        unique = []
        for row in self.iter_rows():
            key = tuple(hashable(value) for value in row)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        return type(self).from_rows(self.columns, unique)

    def union_all(self, other):
        self._check_union_compatible(other)
        return type(self).from_rows(self.columns, list(self.iter_rows()) + list(other.iter_rows()))

    def difference(self, other):
        """EXCEPT ALL-style difference (removes one occurrence per match)."""
        self._check_union_compatible(other, verb="difference")
        remove = Counter(tuple(hashable(v) for v in row) for row in other.iter_rows())
        kept = []
        for row in self.iter_rows():
            key = tuple(hashable(v) for v in row)
            if remove[key] > 0:
                remove[key] -= 1
                continue
            kept.append(row)
        return type(self).from_rows(self.columns, kept)

    def sort_by(self, columns):
        indices = [self.column_index(name) for name in columns]
        return type(self).from_rows(
            self.columns,
            sorted(self.iter_rows(), key=lambda row: tuple(sort_key(row[i]) for i in indices)),
        )

    def _join_layout(self, other):
        out_columns = self.columns + tuple(c for c in other.columns if c not in self.columns)
        right_keep = [i for i, c in enumerate(other.columns) if c not in self.columns]
        return out_columns, right_keep

    def hash_join(self, other, conditions):
        """⋈ — equi-join on (left, right) column pairs, keys hashed by identity."""
        out_columns, right_keep = self._join_layout(other)
        left_indices = [self.column_index(l) for l, _r in conditions]
        right_indices = [other.column_index(r) for _l, r in conditions]
        index = {}
        for row in other.iter_rows():
            key = tuple(hashable(row[i]) for i in right_indices)
            index.setdefault(key, []).append(row)
        rows = []
        for row in self.iter_rows():
            key = tuple(hashable(row[i]) for i in left_indices)
            for match in index.get(key, ()):
                rows.append(row + tuple(match[i] for i in right_keep))
        return type(self).from_rows(out_columns, rows)

    def theta_join(self, other, conditions, compare):
        """⋈ — nested-loop join with a custom comparison per condition pair."""
        out_columns, right_keep = self._join_layout(other)
        left_indices = [self.column_index(l) for l, _r in conditions]
        right_indices = [other.column_index(r) for _l, r in conditions]
        rows = []
        for left_row in self.iter_rows():
            for right_row in other.iter_rows():
                if all(compare(left_row[li], right_row[ri])
                       for li, ri in zip(left_indices, right_indices)):
                    rows.append(left_row + tuple(right_row[i] for i in right_keep))
        return type(self).from_rows(out_columns, rows)

    def cross(self, other):
        """× — Cartesian product."""
        out_columns, right_keep = self._join_layout(other)
        rows = [
            l + tuple(r[i] for i in right_keep)
            for l in self.iter_rows()
            for r in other.iter_rows()
        ]
        return type(self).from_rows(out_columns, rows)

    def aggregate(self, kind, group_by, source, result, loop_iters=None):
        """Grouping aggregate; *loop_iters* supplies empty groups (count = 0)."""
        group_by = tuple(group_by)
        groups = {}
        group_indices = [self.column_index(c) for c in group_by]
        source_index = self.column_index(source) if source else None
        for row in self.iter_rows():
            key = tuple(row[i] for i in group_indices)
            groups.setdefault(key, []).append(
                row[source_index] if source_index is not None else 1
            )
        if loop_iters is not None:
            for value in loop_iters:
                groups.setdefault((value,) if len(group_by) == 1 else tuple(), [])
        rows = [key + (apply_aggregate(kind, values),) for key, values in groups.items()]
        return type(self).from_rows(group_by + (result,), rows)

    def row_number(self, result, order_by, partition_by=()):
        """̺ — ordered row numbering within partitions."""
        table = self.sort_by(tuple(partition_by) + tuple(order_by))
        partition_indices = [table.column_index(c) for c in partition_by]
        counters = {}
        rows = []
        for row in table.iter_rows():
            key = tuple(row[i] for i in partition_indices)
            counters[key] = counters.get(key, 0) + 1
            rows.append(row + (counters[key],))
        return type(self).from_rows(table.columns + (result,), rows)

    def iter_item_pairs(self):
        """Iterate (iter, item) pairs of an ``iter|…|item`` table."""
        iter_index = self.column_index("iter")
        item_index = self.column_index("item")
        for row in self.iter_rows():
            yield row[iter_index], row[item_index]

    def items_by_iteration(self):
        """Group the ``item`` column per ``iter`` value, keeping first-seen
        iteration order: ``(iteration → item list, iteration order)``."""
        per_iteration = {}
        order = []
        for iteration, item in self.iter_item_pairs():
            bucket = per_iteration.get(iteration)
            if bucket is None:
                bucket = per_iteration[iteration] = []
                order.append(iteration)
            bucket.append(item)
        return per_iteration, order

    def _check_union_compatible(self, other, verb="union"):
        if self.columns != other.columns:
            raise AlgebraError(
                f"{verb} over incompatible schemas {self.columns!r} and {other.columns!r}"
            )


def apply_aggregate(kind, values):
    if kind == "count":
        return len(values)
    if not values:
        return None
    if kind == "sum":
        return sum(values)
    if kind == "max":
        return max(values)
    if kind == "min":
        return min(values)
    raise AlgebraError(f"unknown aggregate kind '{kind}'")


def hashable(value):
    """Rows may carry node references; hash them by identity."""
    if value.__class__.__hash__ is not None:
        try:
            hash(value)
            return value
        except TypeError:  # pragma: no cover - defensive
            pass
    return id(value)


def sort_key(value):
    if hasattr(value, "order_key"):
        return (1, value.order_key)
    if isinstance(value, bool):
        return (2, value)
    if isinstance(value, (int, float)):
        return (0, value)
    return (3, str(value))


# ---------------------------------------------------------------------------
# property-style kernel equivalence over random tables
# ---------------------------------------------------------------------------


def _random_table(rng: random.Random, columns, size):
    pool = [0, 1, 2, 7, True, False, "a", "b", "xy", 3.5]
    return [tuple(rng.choice(pool) for _ in columns) for _ in range(size)]


def _pair(columns, rows):
    return OracleTable(columns, rows), ColumnarTable(columns, rows)


def _assert_same(oracle, columnar, ordered=False):
    assert oracle.columns == columnar.columns
    if ordered:
        assert list(oracle.iter_rows()) == list(columnar.iter_rows())
    else:
        assert (sorted(map(repr, oracle.iter_rows()))
                == sorted(map(repr, columnar.iter_rows())))
    assert len(oracle) == len(columnar)


class TestKernelEquivalence:
    """Each columnar kernel computes the oracle's relation."""

    @pytest.mark.parametrize("seed", range(5))
    def test_unary_kernels(self, seed):
        rng = random.Random(seed)
        columns = ("iter", "pos", "item")
        rows = _random_table(rng, columns, rng.randrange(0, 25))
        row_t, col_t = _pair(columns, rows)

        _assert_same(row_t.project([("item", "item"), ("i2", "iter")]),
                     col_t.project([("item", "item"), ("i2", "iter")]), ordered=True)
        _assert_same(row_t.select_flag("item"), col_t.select_flag("item"), ordered=True)
        _assert_same(row_t.distinct(), col_t.distinct(), ordered=True)
        _assert_same(row_t.sort_by(("item", "pos")), col_t.sort_by(("item", "pos")))
        _assert_same(row_t.extend_computed("n", ("pos",), lambda p: p if p is True else 0),
                     col_t.extend_computed("n", ("pos",), lambda p: p if p is True else 0),
                     ordered=True)
        _assert_same(row_t.map_column("item", str), col_t.map_column("item", str),
                     ordered=True)
        _assert_same(row_t.tag_rows("tag", 1000), col_t.tag_rows("tag", 1000),
                     ordered=True)
        _assert_same(row_t.row_number("rn", ("pos",), ("iter",)),
                     col_t.row_number("rn", ("pos",), ("iter",)))
        _assert_same(row_t.row_number("rn", ("item", "pos")),
                     col_t.row_number("rn", ("item", "pos")))
        _assert_same(row_t.aggregate("count", ("iter",), "item", "n", loop_iters=[0, 99]),
                     col_t.aggregate("count", ("iter",), "item", "n", loop_iters=[0, 99]))
        assert row_t.items_by_iteration() == col_t.items_by_iteration()

    @pytest.mark.parametrize("seed", range(5))
    def test_select_computed(self, seed):
        """σ∘⊚ — what ``SelectComputed`` and the value join run — keeps the
        rows, in order, that the oracle's per-row loop keeps."""
        rng = random.Random(200 + seed)
        columns = ("iter", "item", "item_r")
        row_t, col_t = _pair(columns, _random_table(rng, columns, rng.randrange(0, 25)))
        for sources, function in ((("item", "item_r"), lambda a, b: a == b),
                                  (("item",), lambda a: isinstance(a, str)),
                                  (("iter", "item", "item_r"), lambda *v: len(set(v)) > 1),
                                  ((), lambda: True),
                                  ((), lambda: False)):
            _assert_same(row_t.select_computed(sources, function),
                         col_t.select_computed(sources, function), ordered=True)

    @pytest.mark.parametrize("seed", range(5))
    def test_binary_kernels(self, seed):
        rng = random.Random(100 + seed)
        columns = ("iter", "item")
        left_rows = _random_table(rng, columns, rng.randrange(0, 20))
        right_rows = _random_table(rng, ("iter", "other"), rng.randrange(0, 20))
        row_l, col_l = _pair(columns, left_rows)
        row_r, col_r = _pair(("iter", "other"), right_rows)

        _assert_same(row_l.hash_join(row_r, [("iter", "iter")]),
                     col_l.hash_join(col_r, [("iter", "iter")]))
        _assert_same(row_l.theta_join(row_r, [("iter", "iter")], lambda a, b: a == b),
                     col_l.theta_join(col_r, [("iter", "iter")], lambda a, b: a == b))
        _assert_same(row_l.cross(row_r), col_l.cross(col_r))

        same_schema_rows = _random_table(rng, columns, rng.randrange(0, 20))
        row_s, col_s = _pair(columns, same_schema_rows)
        _assert_same(row_l.union_all(row_s), col_l.union_all(col_s), ordered=True)
        _assert_same(row_l.difference(row_s), col_l.difference(col_s), ordered=True)

    def test_multi_column_join_keys(self):
        columns = ("a", "b", "v")
        rows = [(1, "x", 10), (1, "y", 11), (2, "x", 12), (1, "x", 13)]
        row_t, col_t = _pair(columns, rows)
        other = [(1, "x", "p"), (2, "x", "q"), (3, "z", "r")]
        row_o, col_o = _pair(("a", "b", "w"), other)
        _assert_same(row_t.hash_join(row_o, [("a", "a"), ("b", "b")]),
                     col_t.hash_join(col_o, [("a", "a"), ("b", "b")]))

    def test_schema_mismatch_raises_on_both(self):
        for cls in (OracleTable, ColumnarTable):
            with pytest.raises(AlgebraError):
                cls(("a", "b"), [(1,)])
            with pytest.raises(AlgebraError):
                cls(("a",), [(1,)]).union_all(cls(("b",), [(1,)]))
            with pytest.raises(AlgebraError):
                cls(("a",), [(1,)]).column_index("nope")

    def test_unhashable_items_fall_back_to_identity(self):
        payload = [1, 2]  # lists are unhashable
        for cls in (OracleTable, ColumnarTable):
            table = cls(("item",), [(payload,), (payload,), ([1, 2],)])
            assert len(table.distinct()) == 2  # same object deduped, equal list kept

    @pytest.mark.parametrize("seed", range(5))
    def test_no_kernel_mutates_its_inputs(self, seed):
        """Column lists are shared between derived tables, and a cached
        plan's literal leaves between runs and threads: no kernel may change
        a column list it was given."""
        rng = random.Random(300 + seed)
        columns = ("iter", "pos", "item")
        left, right = (ColumnarTable(columns, _random_table(rng, columns, rng.randrange(0, 20)))
                       for _ in range(2))
        single = ColumnarTable(columns, [(1, pos, item) for _, pos, item in left.iter_rows()])
        before = [(table, list(table._data), [list(column) for column in table._data])
                  for table in (left, right, single)]
        other = right.project([("iter_r", "iter"), ("item_r", "item")])
        derived = [
            left.project([("item", "item")]), left.select_flag("item"),
            left.select_computed(("item",), bool), left.extend_computed("n", ("pos",), str),
            left.map_column("item", str), left.tag_rows("tag", 0), left.distinct(),
            left.sort_by(("item",)), left.row_number("rn", ("pos",), ("iter",)),
            left.aggregate("count", ("iter",), "item", "n", loop_iters=[0]),
            left.union_all(right), right.union_all(left), left.difference(right),
            left.hash_join(other, [("iter", "iter_r")]),
            left.theta_join(other, [("item", "item_r")], lambda a, b: a == b),
            left.cross(other),
        ]
        assert len(derived) == 16
        for table in (left, single):  # the grouped lists are the caller's
            for bucket in table.items_by_iteration()[0].values():
                bucket.append("appended by a caller")
        for table, lists, contents in before:
            assert all(now is then for now, then in zip(table._data, lists))
            assert [list(column) for column in table._data] == contents


class TestAggregateKernel:
    """The grouping aggregate computes the oracle's groups, in the order the
    columnar kernel promises: first-seen keys, or the loop's order (loop
    keys first, then the others first-seen) when a loop is given."""

    KINDS = ("count", "sum", "max", "min")
    COLUMNS = ("iter", "g", "item")

    @staticmethod
    def _rows(rng, size, iterations):
        return [(rng.choice(iterations), rng.choice("xy"), rng.randrange(-20, 50))
                for _ in range(size)]

    @staticmethod
    def _expected_keys(rows, key_of, loop_iters=None):
        keys = list(dict.fromkeys(map(key_of, rows)))
        if loop_iters is None:
            return keys
        return [*loop_iters, *(key for key in keys if key not in loop_iters)]

    def _check(self, rows, group_by, loop_iters=None, source="item"):
        row_t, col_t = _pair(self.COLUMNS, rows)
        indices = [self.COLUMNS.index(c) for c in group_by]
        key_of = lambda row: tuple(row[i] for i in indices)  # noqa: E731
        loop_keys = None if loop_iters is None else [(value,) for value in loop_iters]
        for kind in self.KINDS:
            expected = row_t.aggregate(kind, group_by, source, "n", loop_iters=loop_iters)
            got = col_t.aggregate(kind, group_by, source, "n", loop_iters=loop_iters)
            _assert_same(expected, got)
            assert ([row[:len(group_by)] for row in got.iter_rows()]
                    == self._expected_keys(rows, key_of, loop_keys))

    @pytest.mark.parametrize("seed", range(8))
    def test_repeated_keys_over_many_iterations(self, seed):
        rng = random.Random(400 + seed)
        rows = self._rows(rng, rng.randrange(1, 60), range(rng.randrange(1, 8)))
        self._check(rows, ("iter",))
        self._check(rows, ("iter",), source=None)
        one_group = [(3, g, item) for _, g, item in rows]
        self._check(one_group, ("iter",))
        self._check(one_group, ("iter",), loop_iters=[1, 3])

    @pytest.mark.parametrize("seed", range(8))
    def test_multi_column_keys(self, seed):
        rng = random.Random(500 + seed)
        rows = self._rows(rng, rng.randrange(1, 60), range(4))
        self._check(rows, ("iter", "g"))
        self._check(rows, ("g", "iter"), source=None)
        self._check(rows, ())

    @pytest.mark.parametrize("seed", range(8))
    def test_loop_with_empty_and_absent_groups(self, seed):
        """The loop holds iterations without rows (count 0, no sum) and the
        rows hold iterations outside the loop (they follow, first-seen)."""
        rng = random.Random(600 + seed)
        rows = self._rows(rng, rng.randrange(0, 40), range(6))
        loop_iters = rng.sample(range(10), rng.randrange(0, 10))
        self._check(rows, ("iter",), loop_iters=loop_iters)
        counted = ColumnarTable(self.COLUMNS, rows).aggregate(
            "count", ("iter",), None, "n", loop_iters=loop_iters)
        present = {row[0] for row in rows}
        assert all(n == 0 for iteration, n in counted.iter_rows()
                   if iteration not in present)

    def test_empty_tables(self):
        for group_by in (("iter",), ("iter", "g"), ()):
            self._check([], group_by)
        self._check([], ("iter",), loop_iters=[3, 1, 2])
        self._check([], ("iter",), loop_iters=[])
        counted = ColumnarTable(self.COLUMNS).aggregate("count", (), None, "n",
                                                        loop_iters=[7])
        assert counted.rows == ((0,),)
        summed = ColumnarTable(self.COLUMNS).aggregate("sum", ("iter",), "item", "n",
                                                       loop_iters=[2, 1])
        assert summed.rows == ((2, None), (1, None))

    def test_unknown_kind_raises_on_a_group(self):
        table = ColumnarTable(self.COLUMNS, [(1, "x", 2)])
        with pytest.raises(AlgebraError):
            table.aggregate("avg", ("iter",), "item", "n")


class TestOneNodeStepOrder:
    """A singleton context on a forward axis returns its step without a
    ``ddo``: for every context kind, with and without the index and the
    pushed shapes, that result must be duplicate-free and in document
    order, and equal what the other index setting answers."""

    XML = ('<r k="x"><a k="x">t<b k="y">u</b><b/>v<c k="x"/></a>'
           '<a k="y"><b k="x"><b k="x"/></b>w</a><!--z--><a/><b k="x">s</b></r>')
    AXES = ("child", "descendant", "descendant-or-self", "following-sibling",
            "following", "self")
    #: The axes that keep their ``ddo``, checked alongside.
    OTHER_AXES = ("attribute", "parent", "ancestor", "ancestor-or-self",
                  "preceding-sibling", "preceding")
    TESTS = (("name", "b"), ("name", "*"), ("node", None), ("text", None))

    @staticmethod
    def _shapes():
        from repro.xquery.pushdown import PositionShape, ValueShape
        return {
            "none": (),
            "value": (ValueShape("attr", "k", values=("x",)),),
            "exists": (ValueShape("attr", "k"),),
            "child-value": (ValueShape("child", "b", values=("u", "s")),),
            "first": (PositionShape("=", 1),),
            "second": (PositionShape("=", 2),),
            "after-first": (PositionShape(">", 1),),
            "value-then-first": (ValueShape("attr", "k", values=("x",)),
                                 PositionShape("=", 1)),
        }

    @staticmethod
    def _contexts(document):
        from repro.xdm.node import ElementNode, TextNode
        nodes = document.descendant_or_self_axis()
        elements = [n for n in nodes if isinstance(n, ElementNode)]
        return {"document": [document], "element": elements,
                "attribute": [a for element in elements for a in element.attribute_axis()],
                "text": [n for n in nodes if isinstance(n, TextNode)]}

    def test_one_context_node_needs_no_ddo(self):
        from repro.algebra.evaluator import AlgebraEvaluator
        from repro.algebra.operators import ONE_NODE_ORDERED_AXES
        from repro.xdm.index import index_for
        from repro.xdm.sequence import ddo

        assert set(self.AXES) == ONE_NODE_ORDERED_AXES
        document = parse_xml(self.XML)
        index = index_for(document)
        shared = {name: index.child_pres_named(name) for name in ("a", "b", "c")}
        before = {name: {pre: list(children) for pre, children in mapping.items()}
                  for name, mapping in shared.items()}
        contexts_by_kind = self._contexts(document)
        assert all(contexts_by_kind.values())
        for kind, contexts in contexts_by_kind.items():
            for node in contexts:
                # the same node in two iterations: the second is a memo hit
                table = LiteralTable(ColumnarTable(("iter", "pos", "item"),
                                                   [(1, 1, node), (2, 1, node)]))
                for axis in self.AXES + self.OTHER_AXES:
                    for test_kind, name in self.TESTS:
                        for label, pushed in self._shapes().items():
                            answers = []
                            for use_index in (True, False):
                                step = StepJoin(table, axis, test_kind, name,
                                                pushed=pushed)
                                out = AlgebraEvaluator(use_index=use_index).evaluate_plan(step)
                                iters, items = out.column_values("iter"), out.column_values("item")
                                first = [item for it, item in zip(iters, items) if it == 1]
                                second = [item for it, item in zip(iters, items) if it == 2]
                                case = (kind, axis, test_kind, name, label, use_index)
                                assert list(map(id, first)) == list(map(id, ddo(first))), case
                                assert list(map(id, second)) == list(map(id, first)), case
                                answers.append(list(map(id, first)))
                            assert answers[0] == answers[1], (kind, axis, label)
        for name, mapping in shared.items():
            assert index.child_pres_named(name) is mapping and mapping == before[name]


# ---------------------------------------------------------------------------
# end-to-end equivalence across the benchmark workloads
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_sessions():
    """Per workload: its tiny document in one session, 4 seeds."""
    result = {}
    for name in WORKLOADS:
        workload = get_workload(name)
        document = workload.size("tiny").build_document()
        session = Session({workload.document_uri: document})
        result[name] = (workload, session, seeds_of(session, workload, 4))
    yield result
    for _, session, _ in result.values():
        session.close()


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("algorithm", ["naive", "delta"])
    def test_algebra_matches_the_interpreter(self, tiny_sessions, workload, algorithm):
        spec, session, seeds = tiny_sessions[workload]
        algebra = run_cell(session, spec, seeds, "algebra", algorithm)
        interpreter = run_cell(session, spec, seeds, "interpreter", algorithm)
        assert algebra.answers == interpreter.answers
        assert algebra.nodes_fed_back == interpreter.nodes_fed_back
        assert algebra.recursion_depth == interpreter.recursion_depth

    def test_dialogs_runs_via_positional_pushdown(self, tiny_sessions):
        # The dialogs body carries positional predicates, which the classic
        # materialize-then-filter plan rejects; since predicate pushdown the
        # compiler attaches them to the step macro, so the workload runs —
        # and both algorithms agree.
        spec, session, seeds = tiny_sessions["dialogs"]
        answers = {tuple(run_cell(session, spec, seeds, "algebra", algorithm).answers)
                   for algorithm in ("naive", "delta")}
        assert len(answers) == 1

    def test_dialogs_still_rejected_without_pushdown(self):
        from repro.algebra.compiler import AlgebraCompiler
        from repro.algebra.operators import RecursionInput
        from repro.xquery.parser import parse_expression

        compiler = AlgebraCompiler(push_predicates=False)
        with pytest.raises(AlgebraError):
            compiler.compile(
                parse_expression("$x/following-sibling::SPEECH[1]"),
                compiler.initial_context({"x": RecursionInput("x")}),
            )


# ---------------------------------------------------------------------------
# plan memoisation
# ---------------------------------------------------------------------------


class TestPlanMemoisation:
    def test_shared_subplans_computed_once(self):
        shared = LiteralTable(ColumnarTable(("iter", "item"), [(1, 1), (1, 2)]))
        doubled = ScalarOp(shared, "d", ["item"], lambda v: v * 2, name="x2")
        left = Project(doubled, [("iter", "iter"), ("item", "d")])
        right = Project(doubled, [("iter", "iter"), ("item", "item")])
        plan = UnionAll([left, right])
        engine = AlgebraEvaluator()
        table = engine.evaluate_plan(plan)
        assert sorted(table.column_values("item")) == [1, 2, 2, 4]
        # 5 distinct operators in the DAG → exactly 5 invocations, the
        # shared ScalarOp/LiteralTable pair is not recomputed per parent.
        assert engine.statistics.operator_invocations == 5

    def test_memo_cache_does_not_leak_between_runs(self):
        calls = []
        source = LiteralTable(ColumnarTable(("iter", "item"), [(1, "a")]))
        traced = ScalarOp(source, "t", ["item"], lambda v: calls.append(v) or v,
                          name="trace")
        engine = AlgebraEvaluator()
        engine.evaluate_plan(traced)
        engine.evaluate_plan(traced)
        # A fresh run re-evaluates the plan (no cross-run result cache) …
        assert len(calls) == 2
        # … and each run's statistics are recorded separately.
        assert len(engine.run_history) == 2
        assert engine.run_history[0].operator_invocations == 2


# ---------------------------------------------------------------------------
# per-run evaluator state (regression: bindings/statistics must not leak)
# ---------------------------------------------------------------------------


DOCUMENT_XML = """
<r>
  <n id="n1"><next>n2</next></n>
  <n id="n2"><next>n3</next></n>
  <n id="n3"></n>
</r>
"""


def _fixpoint_plan(compiler, algorithm="delta"):
    expression = parse_expression(
        f'with $x seeded by doc("d.xml")/r/n[@id = "n1"] '
        f"recurse $x/id (./next) using {algorithm}"
    )
    return compiler.compile(expression)


@pytest.fixture()
def fixpoint_setup():
    document = parse_xml(DOCUMENT_XML)
    resolver = DocumentResolver()
    resolver.register("d.xml", document)
    compiler = AlgebraCompiler(documents=resolver, document=document)
    return document, compiler


class TestPerRunState:
    def test_repeated_evaluations_have_fresh_statistics(self, fixpoint_setup):
        _document, compiler = fixpoint_setup
        plan = _fixpoint_plan(compiler)
        engine = AlgebraEvaluator()
        first = engine.evaluate_plan(plan)
        assert len(engine.last_run_statistics.fixpoint_runs) == 1
        second = engine.evaluate_plan(plan)
        assert first == second
        # The latest run reports exactly its own fixpoint, while the
        # cumulative view has both.
        assert len(engine.last_run_statistics.fixpoint_runs) == 1
        assert len(engine.statistics.fixpoint_runs) == 2

    def test_recursion_binding_does_not_leak_into_nested_runs(self, fixpoint_setup):
        document, compiler = fixpoint_setup
        observed = {}
        bare_recursion = RecursionInput("y")

        class Probe(Operator):
            """Inside a fixpoint round, evaluate a *nested* plan containing a
            bare recursion input: it must see a fresh run (and fail), not the
            enclosing fixpoint's binding."""

            union_pushable = True

            def compute(self, inputs, engine):
                try:
                    engine.evaluate_plan(bare_recursion)
                    observed["nested"] = "leaked enclosing binding"
                except AlgebraError:
                    observed["nested"] = "fresh"
                return inputs[0]

        body = Probe([StepJoin(RecursionInput("x"), "child", "name", "n")])
        seed = LiteralTable(ColumnarTable(("iter", "pos", "item"),
                                          [(1, 1, document.children[0])]))
        from repro.algebra.operators import Fixpoint

        plan = Fixpoint(seed, body, bare_recursion, variant="mu")
        AlgebraEvaluator().evaluate_plan(plan)
        assert observed["nested"] == "fresh"

    def test_recursion_input_outside_fixpoint_raises(self):
        engine = AlgebraEvaluator()
        with pytest.raises(AlgebraError):
            engine.evaluate_plan(RecursionInput("x"))
        # …including after a successful fixpoint evaluation on the same engine.
        document = parse_xml(DOCUMENT_XML)
        resolver = DocumentResolver()
        resolver.register("d.xml", document)
        compiler = AlgebraCompiler(documents=resolver, document=document)
        engine.evaluate_plan(_fixpoint_plan(compiler))
        with pytest.raises(AlgebraError):
            engine.evaluate_plan(RecursionInput("x"))

    def test_macro_cache_is_per_run(self, fixpoint_setup):
        document, compiler = fixpoint_setup
        plan = _fixpoint_plan(compiler)
        engine = AlgebraEvaluator()
        engine.evaluate_plan(plan)
        engine.evaluate_plan(plan)
        # Cache state must not persist on the engine between runs.
        assert not hasattr(engine, "macro_cache")

    def test_fixpoint_results(self, fixpoint_setup):
        _document, compiler = fixpoint_setup
        for algorithm in ("naive", "delta"):
            plan = _fixpoint_plan(compiler, algorithm)
            engine = AlgebraEvaluator()
            table = engine.evaluate_plan(plan)
            ids = sorted(node.get_attribute("id").value
                         for node in table.column_values("item"))
            assert ids == ["n2", "n3"]
            assert engine.statistics.max_recursion_depth >= 2
