"""Pluggable table storage for the algebra backend.

The operators in :mod:`repro.algebra.operators` never materialise rows
themselves: they dispatch through the kernel methods defined here, so the
physical representation of an ``iter|pos|item`` table is a backend choice.
Two backends ship with the repository:

``row`` (:class:`repro.algebra.table.Table`)
    The original reference backend: a tuple of row tuples.  Simple, easy to
    inspect, and the semantics baseline every other backend is tested
    against.

``columnar`` (:class:`repro.algebra.columnar.ColumnarTable`)
    Column-at-a-time storage: one contiguous list per column, shared
    (never copied) between derived tables.  Projection/renaming is O(1),
    joins and duplicate elimination are hash-based over key columns, and
    scalar maps touch only the columns they read.  This is the default
    execution backend and the seam for future physical backends (NumPy
    columns; SQL execution is a separate engine, :mod:`repro.sqlbackend`).

See DESIGN.md for the encoding and the protocol rationale.

Backends register themselves in :data:`BACKENDS`; :func:`resolve_backend`
maps a backend name (or a storage class) to the class the evaluator and
compiler instantiate tables with.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from repro.errors import AlgebraError

#: Registered storage backends by name.
BACKENDS: dict[str, type] = {}

#: The backend used when none is requested explicitly.
DEFAULT_BACKEND = "columnar"


def register_backend(name: str, cls: type) -> None:
    """Register a storage class under a backend name."""
    BACKENDS[name] = cls
    cls.backend_name = name


def resolve_backend(backend: "str | type | None") -> type:
    """Map a backend name (or storage class, or None) to a storage class."""
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, type):
        return backend
    try:
        return BACKENDS[backend]
    except KeyError:
        raise AlgebraError(
            f"unknown table backend {backend!r} (available: {', '.join(sorted(BACKENDS))})"
        ) from None


def available_backends() -> list[str]:
    return sorted(BACKENDS)


class TableStorage:
    """The storage protocol: what operators may ask of a table.

    Subclasses must provide ``columns``, :meth:`from_rows`, ``__len__``,
    :meth:`iter_rows` and the ``rows`` view; every kernel has a generic
    row-at-a-time implementation here that backends override with faster
    representations-specific code.
    """

    __slots__ = ()

    #: Filled in by :func:`register_backend`.
    backend_name: str = "?"

    columns: tuple[str, ...]

    # -- construction (required) ---------------------------------------------------

    @classmethod
    def from_rows(cls, columns: Sequence[str], rows: Iterable[Sequence[Any]] = ()) -> "TableStorage":
        raise NotImplementedError

    @classmethod
    def from_columns(cls, columns: Sequence[str], data: Sequence[list]) -> "TableStorage":
        """Build a table from per-column value lists (zero-copy where possible)."""
        if not data:
            return cls.from_rows(columns)
        return cls.from_rows(columns, zip(*data))

    @classmethod
    def from_dicts(cls, columns: Sequence[str], dict_rows: Iterable[dict]) -> "TableStorage":
        return cls.from_rows(columns, [tuple(row[c] for c in columns) for row in dict_rows])

    def empty_like(self) -> "TableStorage":
        return type(self).from_rows(self.columns)

    # -- accessors (required) -----------------------------------------------------

    def __len__(self) -> int:
        raise NotImplementedError

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        raise NotImplementedError

    @property
    def rows(self) -> tuple[tuple[Any, ...], ...]:
        """A materialised row-tuple view (for inspection and interop)."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return self.iter_rows()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableStorage):
            return NotImplemented
        return (self.columns == other.columns
                and sorted(map(repr, self.iter_rows())) == sorted(map(repr, other.iter_rows())))

    def __hash__(self) -> None:  # tables are mutable views; identity hashing only
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({'|'.join(self.columns)}, {len(self)} rows)"

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise AlgebraError(f"unknown column '{name}' in schema {self.columns!r}") from None

    def column_values(self, name: str) -> list[Any]:
        index = self.column_index(name)
        return [row[index] for row in self.iter_rows()]

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.iter_rows()]

    # -- generic kernels ----------------------------------------------------------

    def project(self, mapping: Sequence[tuple[str, str]]) -> "TableStorage":
        """Project/rename: mapping is a list of (new_name, old_name) pairs."""
        indices = [self.column_index(old) for _new, old in mapping]
        new_columns = [new for new, _old in mapping]
        return type(self).from_rows(
            new_columns, [tuple(row[i] for i in indices) for row in self.iter_rows()]
        )

    def select(self, predicate: Callable[[dict], bool]) -> "TableStorage":
        return type(self).from_rows(
            self.columns,
            [row for row in self.iter_rows() if predicate(dict(zip(self.columns, row)))],
        )

    def select_flag(self, column: str) -> "TableStorage":
        """σ — keep rows whose *column* holds a truthy value."""
        index = self.column_index(column)
        return type(self).from_rows(
            self.columns, [row for row in self.iter_rows() if row[index]]
        )

    def select_computed(self, sources: Sequence[str],
                        function: Callable[..., Any]) -> "TableStorage":
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

    def extend(self, column: str, func: Callable[[dict], Any]) -> "TableStorage":
        new_rows = []
        for row in self.iter_rows():
            values = dict(zip(self.columns, row))
            new_rows.append(row + (func(values),))
        return type(self).from_rows(self.columns + (column,), new_rows)

    def extend_computed(self, result: str, sources: Sequence[str],
                        function: Callable[..., Any]) -> "TableStorage":
        """⊚ — append a column computed from *sources* via *function*."""
        indices = [self.column_index(c) for c in sources]
        rows = [row + (function(*(row[i] for i in indices)),) for row in self.iter_rows()]
        return type(self).from_rows(self.columns + (result,), rows)

    def map_column(self, column: str, function: Callable[[Any], Any]) -> "TableStorage":
        """Replace *column* by ``function`` applied value-wise."""
        index = self.column_index(column)
        rows = [row[:index] + (function(row[index]),) + row[index + 1:]
                for row in self.iter_rows()]
        return type(self).from_rows(self.columns, rows)

    def tag_rows(self, result: str, tag_base: int) -> "TableStorage":
        """# — append a unique row identifier column."""
        rows = [row + (tag_base + index,) for index, row in enumerate(self.iter_rows())]
        return type(self).from_rows(self.columns + (result,), rows)

    def distinct(self) -> "TableStorage":
        seen = set()
        unique = []
        for row in self.iter_rows():
            key = tuple(hashable(value) for value in row)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        return type(self).from_rows(self.columns, unique)

    def union_all(self, other: "TableStorage") -> "TableStorage":
        self._check_union_compatible(other)
        return type(self).from_rows(self.columns, list(self.iter_rows()) + list(other.iter_rows()))

    def difference(self, other: "TableStorage") -> "TableStorage":
        """EXCEPT ALL-style difference (removes one occurrence per match)."""
        self._check_union_compatible(other, verb="difference")
        from collections import Counter

        remove = Counter(tuple(hashable(v) for v in row) for row in other.iter_rows())
        kept = []
        for row in self.iter_rows():
            key = tuple(hashable(v) for v in row)
            if remove[key] > 0:
                remove[key] -= 1
                continue
            kept.append(row)
        return type(self).from_rows(self.columns, kept)

    def sort_by(self, columns: Sequence[str]) -> "TableStorage":
        indices = [self.column_index(name) for name in columns]
        return type(self).from_rows(
            self.columns,
            sorted(self.iter_rows(), key=lambda row: tuple(sort_key(row[i]) for i in indices)),
        )

    # -- joins ---------------------------------------------------------------------

    def _join_layout(self, other: "TableStorage") -> tuple[tuple[str, ...], list[int]]:
        out_columns = self.columns + tuple(c for c in other.columns if c not in self.columns)
        right_keep = [i for i, c in enumerate(other.columns) if c not in self.columns]
        return out_columns, right_keep

    def hash_join(self, other: "TableStorage",
                  conditions: Sequence[tuple[str, str]]) -> "TableStorage":
        """⋈ — equi-join on (left, right) column pairs, keys hashed by identity."""
        out_columns, right_keep = self._join_layout(other)
        left_indices = [self.column_index(l) for l, _r in conditions]
        right_indices = [other.column_index(r) for _l, r in conditions]
        index: dict[Any, list[tuple]] = {}
        for row in other.iter_rows():
            key = tuple(hashable(row[i]) for i in right_indices)
            index.setdefault(key, []).append(row)
        rows = []
        for row in self.iter_rows():
            key = tuple(hashable(row[i]) for i in left_indices)
            for match in index.get(key, ()):
                rows.append(row + tuple(match[i] for i in right_keep))
        return type(self).from_rows(out_columns, rows)

    def theta_join(self, other: "TableStorage", conditions: Sequence[tuple[str, str]],
                   compare: Callable[[Any, Any], bool]) -> "TableStorage":
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

    def cross(self, other: "TableStorage") -> "TableStorage":
        """× — Cartesian product."""
        out_columns, right_keep = self._join_layout(other)
        rows = [
            l + tuple(r[i] for i in right_keep)
            for l in self.iter_rows()
            for r in other.iter_rows()
        ]
        return type(self).from_rows(out_columns, rows)

    # -- grouping -------------------------------------------------------------------

    def aggregate(self, kind: str, group_by: Sequence[str], source: str | None,
                  result: str, loop_iters: list | None = None) -> "TableStorage":
        """Grouping aggregate; *loop_iters* supplies empty groups (count = 0)."""
        group_by = tuple(group_by)
        groups: dict[tuple, list] = {}
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

    def row_number(self, result: str, order_by: Sequence[str],
                   partition_by: Sequence[str] = ()) -> "TableStorage":
        """̺ — ordered row numbering within partitions."""
        table = self.sort_by(tuple(partition_by) + tuple(order_by))
        partition_indices = [table.column_index(c) for c in partition_by]
        counters: dict[tuple, int] = {}
        rows = []
        for row in table.iter_rows():
            key = tuple(row[i] for i in partition_indices)
            counters[key] = counters.get(key, 0) + 1
            rows.append(row + (counters[key],))
        return type(self).from_rows(table.columns + (result,), rows)

    # -- iter/item helpers (used by the macro operators) -----------------------------

    def iter_item_pairs(self) -> Iterator[tuple[Any, Any]]:
        """Iterate (iter, item) pairs of an ``iter|…|item`` table."""
        iter_index = self.column_index("iter")
        item_index = self.column_index("item")
        for row in self.iter_rows():
            yield row[iter_index], row[item_index]

    def items_by_iteration(self) -> tuple[dict, list]:
        """Group the ``item`` column per ``iter`` value, keeping first-seen
        iteration order: ``(iteration → item list, iteration order)``.

        This is the batch entry point of the macro operators (step join,
        ``fn:id``, constructors): one pass over the storage hands each
        kernel whole per-iteration item columns instead of row pairs.
        """
        per_iteration: dict[Any, list] = {}
        order: list = []
        for iteration, item in self.iter_item_pairs():
            bucket = per_iteration.get(iteration)
            if bucket is None:
                bucket = per_iteration[iteration] = []
                order.append(iteration)
            bucket.append(item)
        return per_iteration, order

    # -- internals --------------------------------------------------------------------

    def _check_union_compatible(self, other: "TableStorage", verb: str = "union") -> None:
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
