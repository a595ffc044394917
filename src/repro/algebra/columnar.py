"""The algebra's table: ``iter|pos|item`` relations stored column by column.

:class:`ColumnarTable` is the one table type of the algebra engine.  It
stores each column as one contiguous Python list; column lists are never
mutated after construction and are shared, never copied, between derived
tables, which makes the operators the loop-lifting compiler emits in bulk
nearly free:

* **projection/renaming** re-labels column references — O(number of columns),
  independent of row count;
* **scalar maps** (⊚, atomization, row tagging) compute exactly one new
  column and alias the rest;
* **joins** are hash joins over the key columns only, gathering the payload
  columns through index lists;
* **duplicate elimination, difference and aggregation** hash the relevant
  columns without materialising row tuples.

The no-mutation rule is also what lets a cached plan's literal leaves hand
the *same* column lists to every evaluation and every thread.  Node
references are hashed by identity (:func:`hashable`).  The row-at-a-time
reference kernels these are checked against live in
``tests/test_algebra_backends.py``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from repro.errors import AlgebraError


class ColumnarTable:
    """A relational table stored as one list per column."""

    __slots__ = ("columns", "_data", "_length")

    def __init__(self, columns: Sequence[str], rows: Iterable[Sequence[Any]] = ()):
        self.columns = tuple(columns)
        width = len(self.columns)
        data: tuple[list, ...] = tuple([] for _ in range(width))
        length = 0
        for row in rows:
            row_tuple = tuple(row)
            if len(row_tuple) != width:
                raise AlgebraError(
                    f"row {row_tuple!r} does not match schema {self.columns!r}"
                )
            for values, value in zip(data, row_tuple):
                values.append(value)
            length += 1
        self._data = data
        self._length = length

    @classmethod
    def from_columns(cls, columns: Sequence[str], data: Sequence[list]) -> "ColumnarTable":
        """Wrap existing column lists without copying."""
        table = cls.__new__(cls)
        table.columns = tuple(columns)
        table._data = tuple(data)
        table._length = len(data[0]) if data else 0
        return table

    # -- accessors --------------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        return zip(*self._data) if self._data else iter(())

    @property
    def rows(self) -> tuple[tuple[Any, ...], ...]:
        """A materialised row-tuple view (for inspection)."""
        return tuple(self.iter_rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTable):
            return NotImplemented
        return (self.columns == other.columns
                and sorted(map(repr, self.iter_rows())) == sorted(map(repr, other.iter_rows())))

    def __hash__(self) -> int:  # identity hashing only
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({'|'.join(self.columns)}, {len(self)} rows)"

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise AlgebraError(f"unknown column '{name}' in schema {self.columns!r}") from None

    def column_values(self, name: str) -> list[Any]:
        """A copy of column *name* (the caller may keep or change it)."""
        return list(self._data[self.column_index(name)])

    # -- kernels ------------------------------------------------------------------------

    def project(self, mapping: Sequence[tuple[str, str]]) -> "ColumnarTable":
        """π — projection/renaming: *mapping* is (new_name, old_name) pairs."""
        data = [self._data[self.column_index(old)] for _new, old in mapping]
        table = ColumnarTable.__new__(ColumnarTable)
        table.columns = tuple(new for new, _old in mapping)
        table._data = tuple(data)
        table._length = self._length
        return table

    def select_flag(self, column: str) -> "ColumnarTable":
        """σ — keep rows whose *column* holds a truthy value."""
        flags = self._data[self.column_index(column)]
        keep = [i for i, flag in enumerate(flags) if flag]
        if len(keep) == self._length:
            return self
        return self._gather(keep)

    def select_computed(self, sources: Sequence[str],
                        function: Callable[..., Any]) -> "ColumnarTable":
        """σ∘⊚ — keep rows where ``function(*sources)`` is truthy: one map
        over the raw source columns, no flag column, no intermediate table."""
        if sources:
            source_columns = [self._data[self.column_index(c)] for c in sources]
            keep = [i for i, flag in enumerate(map(function, *source_columns))
                    if flag]
        else:
            keep = list(range(self._length)) if function() else []
        if len(keep) == self._length:
            return self
        return self._gather(keep)

    def extend_computed(self, result: str, sources: Sequence[str],
                        function: Callable[..., Any]) -> "ColumnarTable":
        """⊚ — append a column computed from *sources* via *function*."""
        if sources:
            source_columns = [self._data[self.column_index(c)] for c in sources]
            new_column = list(map(function, *source_columns))
        else:
            new_column = [function() for _ in range(self._length)]
        return self._with_extra_column(result, new_column)

    def map_column(self, column: str, function: Callable[[Any], Any]) -> "ColumnarTable":
        """Replace *column* by ``function`` applied value-wise."""
        index = self.column_index(column)
        data = list(self._data)
        data[index] = [function(value) for value in data[index]]
        return ColumnarTable.from_columns(self.columns, data)

    def tag_rows(self, result: str, tag_base: int) -> "ColumnarTable":
        """# — append a unique row identifier column."""
        return self._with_extra_column(result, list(range(tag_base, tag_base + self._length)))

    def distinct(self) -> "ColumnarTable":
        seen: set = set()
        keep: list[int] = []
        add = seen.add
        for index, key in enumerate(self._key_iter(range(len(self.columns)))):
            if key not in seen:
                add(key)
                keep.append(index)
        if len(keep) == self._length:
            return self
        return self._gather(keep)

    def union_all(self, other: "ColumnarTable") -> "ColumnarTable":
        self._check_union_compatible(other)
        if other._length == 0:
            return self
        if self._length == 0:
            return other
        data = [mine + theirs for mine, theirs in zip(self._data, other._data)]
        return ColumnarTable.from_columns(self.columns, data)

    def difference(self, other: "ColumnarTable") -> "ColumnarTable":
        """EXCEPT ALL-style difference (removes one occurrence per match)."""
        self._check_union_compatible(other, verb="difference")
        all_indices = range(len(self.columns))
        remove = Counter(other._key_iter(all_indices))
        keep = []
        for index, key in enumerate(self._key_iter(all_indices)):
            if remove[key] > 0:
                remove[key] -= 1
                continue
            keep.append(index)
        return self._gather(keep)

    def sort_by(self, columns: Sequence[str]) -> "ColumnarTable":
        key_columns = [self._data[self.column_index(name)] for name in columns]
        order = sorted(
            range(self._length),
            key=lambda i: tuple(sort_key(column[i]) for column in key_columns),
        )
        return self._gather(order)

    # -- joins -----------------------------------------------------------------------

    def hash_join(self, other: "ColumnarTable",
                  conditions: Sequence[tuple[str, str]]) -> "ColumnarTable":
        """⋈ — equi-join on (left, right) column pairs, keys hashed by identity."""
        out_columns, right_keep = self._join_layout(other)
        left_keys = [self._data[self.column_index(l)] for l, _r in conditions]
        right_keys = [other._data[other.column_index(r)] for _l, r in conditions]

        index: dict[Any, list[int]] = {}
        if len(conditions) == 1:
            right_key_column = right_keys[0]
            for i in range(other._length):
                index.setdefault(hashable(right_key_column[i]), []).append(i)
            left_key_column = left_keys[0]
            left_key_of = (hashable(left_key_column[i]) for i in range(self._length))
        else:
            for i in range(other._length):
                key = tuple(hashable(column[i]) for column in right_keys)
                index.setdefault(key, []).append(i)
            left_key_of = (
                tuple(hashable(column[i]) for column in left_keys)
                for i in range(self._length)
            )

        left_take: list[int] = []
        right_take: list[int] = []
        get = index.get
        for i, key in enumerate(left_key_of):
            matches = get(key)
            if matches:
                left_take.extend([i] * len(matches))
                right_take.extend(matches)

        data = [[column[i] for i in left_take] for column in self._data]
        data.extend([other._data[j][i] for i in right_take] for j in right_keep)
        return ColumnarTable.from_columns(out_columns, data)

    def theta_join(self, other: "ColumnarTable", conditions: Sequence[tuple[str, str]],
                   compare: Callable[[Any, Any], bool]) -> "ColumnarTable":
        """⋈ — nested-loop join with a custom comparison per condition pair."""
        out_columns, right_keep = self._join_layout(other)
        left_keys = [self._data[self.column_index(l)] for l, _r in conditions]
        right_keys = [other._data[other.column_index(r)] for _l, r in conditions]
        left_take: list[int] = []
        right_take: list[int] = []
        for i in range(self._length):
            for j in range(other._length):
                if all(compare(lk[i], rk[j]) for lk, rk in zip(left_keys, right_keys)):
                    left_take.append(i)
                    right_take.append(j)
        data = [[column[i] for i in left_take] for column in self._data]
        data.extend([other._data[j][i] for i in right_take] for j in right_keep)
        return ColumnarTable.from_columns(out_columns, data)

    def cross(self, other: "ColumnarTable") -> "ColumnarTable":
        """× — Cartesian product."""
        out_columns, right_keep = self._join_layout(other)
        n, m = self._length, other._length
        data = [[column[i] for i in range(n) for _ in range(m)] for column in self._data]
        data.extend([other._data[j][i] for _ in range(n) for i in range(m)]
                    for j in right_keep)
        return ColumnarTable.from_columns(out_columns, data)

    # -- grouping ---------------------------------------------------------------------

    def aggregate(self, kind: str, group_by: Sequence[str], source: str | None,
                  result: str, loop_iters: list | None = None) -> "ColumnarTable":
        """Grouping aggregate; *loop_iters* supplies empty groups (count = 0)."""
        group_by = tuple(group_by)
        group_columns = [self._data[self.column_index(c)] for c in group_by]
        source_column = (self._data[self.column_index(source)]
                         if source else [1] * self._length)
        groups: dict[tuple, list] = {}
        for i in range(self._length):
            key = tuple(column[i] for column in group_columns)
            groups.setdefault(key, []).append(source_column[i])
        if loop_iters is not None:
            for value in loop_iters:
                groups.setdefault((value,) if len(group_by) == 1 else tuple(), [])
        width = len(group_by)
        data: list[list] = [[] for _ in range(width + 1)]
        for key, values in groups.items():
            for j in range(width):
                data[j].append(key[j])
            data[width].append(apply_aggregate(kind, values))
        return ColumnarTable.from_columns(group_by + (result,), data)

    def row_number(self, result: str, order_by: Sequence[str],
                   partition_by: Sequence[str] = ()) -> "ColumnarTable":
        """̺ — ordered row numbering within partitions."""
        table = self.sort_by(tuple(partition_by) + tuple(order_by))
        partitions = [table._data[table.column_index(c)] for c in partition_by]
        keys = zip(*partitions) if partitions else [()] * table._length
        counters: dict[tuple, int] = {}
        numbers = []
        for key in keys:
            counters[key] = counters.get(key, 0) + 1
            numbers.append(counters[key])
        return table._with_extra_column(result, numbers)

    def items_by_iteration(self) -> tuple[dict, list]:
        """Group the ``item`` column per ``iter`` value, keeping first-seen
        iteration order: ``(iteration → item list, iteration order)``.

        This is the batch entry point of the macro operators (step join,
        ``fn:id``, constructors): they get whole per-iteration item columns
        instead of row pairs.  The common single-iteration case (fixpoint
        bodies) costs one copy of the item column and no per-row work.
        """
        iter_column = self._data[self.column_index("iter")]
        item_column = self._data[self.column_index("item")]
        if not iter_column:
            return {}, []
        first = iter_column[0]
        if all(value == first for value in iter_column):
            return {first: list(item_column)}, [first]
        per_iteration: dict[Any, list] = {}
        order: list = []
        for iteration, item in zip(iter_column, item_column):
            bucket = per_iteration.get(iteration)
            if bucket is None:
                bucket = per_iteration[iteration] = []
                order.append(iteration)
            bucket.append(item)
        return per_iteration, order

    # -- internals -----------------------------------------------------------------------

    def _gather(self, indices: list[int]) -> "ColumnarTable":
        data = [[column[i] for i in indices] for column in self._data]
        return ColumnarTable.from_columns(self.columns, data)

    def _with_extra_column(self, name: str, values: list) -> "ColumnarTable":
        return ColumnarTable.from_columns(self.columns + (name,), list(self._data) + [values])

    def _key_iter(self, column_indices) -> Iterator[tuple]:
        hashed = [[hashable(value) for value in self._data[i]] for i in column_indices]
        if not hashed:
            return iter(() for _ in range(self._length))
        return zip(*hashed)

    def _join_layout(self, other: "ColumnarTable") -> tuple[tuple[str, ...], list[int]]:
        out_columns = self.columns + tuple(c for c in other.columns if c not in self.columns)
        right_keep = [i for i, c in enumerate(other.columns) if c not in self.columns]
        return out_columns, right_keep

    def _check_union_compatible(self, other: "ColumnarTable", verb: str = "union") -> None:
        if self.columns != other.columns:
            raise AlgebraError(
                f"{verb} over incompatible schemas {self.columns!r} and {other.columns!r}"
            )


def apply_aggregate(kind: str, values: list) -> Any:
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


def hashable(value: Any) -> Any:
    """Rows may carry node references; hash them by identity."""
    if value.__class__.__hash__ is not None:
        try:
            hash(value)
            return value
        except TypeError:  # pragma: no cover - defensive
            pass
    return id(value)


def sort_key(value: Any) -> Any:
    if hasattr(value, "order_key"):
        return (1, value.order_key)
    if isinstance(value, bool):
        return (2, value)
    if isinstance(value, (int, float)):
        return (0, value)
    return (3, str(value))
