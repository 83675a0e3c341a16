"""A small columnar frame: the library's tabular workhorse.

:class:`Frame` holds an ordered set of equal-length :class:`Column` objects
and supports the handful of relational verbs the analysis pipeline needs —
filter, sort, select, derive, concat, and group-by.  It deliberately favours
explicitness over pandas-style magic: row predicates are plain callables or
boolean masks, and every transform returns a new frame.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import ColumnMismatchError, FrameError
from repro.frames.column import (
    KIND_BOOL,
    KIND_FLOAT,
    KIND_OBJECT,
    Column,
    code_dtype,
    dense_rank,
)


class Frame:
    """An immutable-by-convention columnar table.

    Parameters
    ----------
    columns:
        Columns in display order.  All must have the same length and
        distinct names.
    """

    __slots__ = ("_columns", "_order")

    def __init__(self, columns: Sequence[Column] = ()) -> None:
        self._columns: dict[str, Column] = {}
        self._order: list[str] = []
        n = None
        for col in columns:
            if col.name in self._columns:
                raise FrameError(f"duplicate column name {col.name!r}")
            if n is None:
                n = len(col)
            elif len(col) != n:
                raise ColumnMismatchError(
                    f"column {col.name!r} has length {len(col)}, expected {n}"
                )
            self._columns[col.name] = col
            self._order.append(col.name)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence[Any] | np.ndarray]) -> "Frame":
        """Build a frame from ``{name: values}`` (ordered as given)."""
        return cls([Column(name, values) for name, values in data.items()])

    @classmethod
    def from_records(
        cls, records: Iterable[Mapping[str, Any]], columns: Sequence[str] | None = None
    ) -> "Frame":
        """Build a frame from an iterable of row dicts.

        Column order follows *columns* when given, otherwise the key order
        of the first record.  Keys missing from a record become missing
        values.
        """
        rows = list(records)
        if columns is None:
            if not rows:
                return cls()
            columns = list(rows[0].keys())
        data: dict[str, list[Any]] = {c: [] for c in columns}
        for row in rows:
            for c in columns:
                data[c].append(row.get(c))
        return cls.from_dict(data)

    # -- basic introspection ----------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Number of rows (0 for an empty frame)."""
        if not self._order:
            return 0
        return len(self._columns[self._order[0]])

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._order)

    @property
    def column_names(self) -> list[str]:
        """Column names in display order."""
        return list(self._order)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        """Return the raw value array of column *name*."""
        return self.column(name).values

    def column(self, name: str) -> Column:
        """Return the :class:`Column` object named *name*."""
        try:
            return self._columns[name]
        except KeyError:
            raise FrameError(
                f"no column {name!r}; available: {self._order}"
            ) from None

    def row(self, index: int) -> dict[str, Any]:
        """Return row *index* as a dict (supports negative indices)."""
        n = self.num_rows
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise FrameError(f"row index {index} out of range for {n} rows")
        return {name: self._columns[name][index] for name in self._order}

    def iter_rows(self) -> Iterable[dict[str, Any]]:
        """Yield each row as a dict.  Convenient, not fast."""
        for i in range(self.num_rows):
            yield self.row(i)

    def to_dict(self) -> dict[str, list[Any]]:
        """Return ``{name: list-of-values}`` preserving column order."""
        return {name: self._columns[name].to_list() for name in self._order}

    def __repr__(self) -> str:
        return f"Frame({self.num_rows} rows x {self.num_columns} cols: {self._order})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        if self._order != other._order:
            return False
        return all(self._columns[n] == other._columns[n] for n in self._order)

    def __hash__(self) -> int:
        raise TypeError("Frame is not hashable")

    def head(self, n: int = 5) -> "Frame":
        """Return the first *n* rows."""
        idx = np.arange(min(n, self.num_rows))
        return self.take(idx)

    def to_text(self, max_rows: int = 20, float_fmt: str = "{:.4g}") -> str:
        """Render an aligned plain-text table (for examples and logs)."""
        names = self._order
        if not names:
            return "(empty frame)"
        shown = min(self.num_rows, max_rows)

        def fmt(v: Any) -> str:
            if v is None:
                return ""
            if isinstance(v, (float, np.floating)):
                return "" if np.isnan(v) else float_fmt.format(float(v))
            return str(v)

        cells = [[fmt(self._columns[n][i]) for n in names] for i in range(shown)]
        widths = [
            max(len(n), *(len(r[j]) for r in cells)) if cells else len(n)
            for j, n in enumerate(names)
        ]
        lines = ["  ".join(n.ljust(w) for n, w in zip(names, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for r in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        if shown < self.num_rows:
            lines.append(f"... ({self.num_rows - shown} more rows)")
        return "\n".join(lines)

    # -- column-level transforms --------------------------------------------------

    def select(self, names: Sequence[str]) -> "Frame":
        """Return a frame with only *names*, in the given order."""
        return Frame([self.column(n) for n in names])

    def drop(self, names: Sequence[str] | str) -> "Frame":
        """Return a frame without the given column(s)."""
        if isinstance(names, str):
            names = [names]
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise FrameError(f"cannot drop unknown columns {missing}")
        keep = [n for n in self._order if n not in set(names)]
        return self.select(keep)

    def rename(self, mapping: Mapping[str, str]) -> "Frame":
        """Return a frame with columns renamed per *mapping*."""
        for old in mapping:
            if old not in self._columns:
                raise FrameError(f"cannot rename unknown column {old!r}")
        cols = [
            self._columns[n].rename(mapping.get(n, n)) for n in self._order
        ]
        return Frame(cols)

    def with_column(
        self, name: str, values: Sequence[Any] | np.ndarray | Column
    ) -> "Frame":
        """Return a frame with column *name* added or replaced.

        A :class:`Column` is kept as it is stored (an encoded column
        stays encoded), under *name*.
        """
        if isinstance(values, Column):
            col = values.rename(name)
        else:
            col = Column(name, values)
        if self._order and len(col) != self.num_rows:
            raise ColumnMismatchError(
                f"new column {name!r} has length {len(col)}, expected {self.num_rows}"
            )
        cols = [self._columns[n] for n in self._order if n != name]
        cols.append(col)
        return Frame(cols)

    def derive(self, name: str, fn: Callable[[dict[str, Any]], Any]) -> "Frame":
        """Return a frame with a new column computed per-row by *fn*."""
        values = [fn(row) for row in self.iter_rows()]
        return self.with_column(name, values)

    # -- row-level transforms ------------------------------------------------------

    def take(self, indices: np.ndarray | Sequence[int]) -> "Frame":
        """Return rows selected/reordered by integer *indices*."""
        idx = np.asarray(indices, dtype=np.int64)
        return Frame([self._columns[n].take(idx) for n in self._order])

    def filter(
        self, predicate: Callable[[dict[str, Any]], bool] | np.ndarray
    ) -> "Frame":
        """Return rows matching a boolean mask or per-row predicate."""
        if callable(predicate):
            mask = np.array(
                [bool(predicate(row)) for row in self.iter_rows()], dtype=bool
            )
        else:
            mask = np.asarray(predicate, dtype=bool)
            if len(mask) != self.num_rows:
                raise ColumnMismatchError(
                    f"mask length {len(mask)} != row count {self.num_rows}"
                )
        return Frame([self._columns[n].mask(mask) for n in self._order])

    def drop_missing(self, names: Sequence[str] | None = None) -> "Frame":
        """Drop rows with a missing value in any of *names* (default: all)."""
        names = list(names) if names is not None else self._order
        mask = np.ones(self.num_rows, dtype=bool)
        for n in names:
            mask &= ~self.column(n).is_missing()
        return self.filter(mask)

    def sort_by(self, names: Sequence[str] | str, descending: bool = False) -> "Frame":
        """Return rows sorted by the given column(s), stably.

        Stability holds in both directions: rows with equal keys keep
        their original relative order.  (Descending is implemented by
        inverting the keys, not by reversing the sorted order — the
        latter would reverse equal-key runs too.)  Missing float values
        sort last either way.
        """
        if isinstance(names, str):
            names = [names]
        if not names:
            return self
        # numpy.lexsort sorts by the last key first; apply keys in reverse.
        keys = []
        for n in reversed(names):
            col = self.column(n)
            if col.kind == KIND_OBJECT:
                vals = np.array([str(v) for v in col.values])
                if descending:
                    # Strings cannot be negated; rank them and negate the rank.
                    _, inverse = np.unique(vals, return_inverse=True)
                    vals = -inverse.astype(np.int64, copy=False)
            elif descending:
                if col.kind == KIND_FLOAT:
                    vals = -col.values  # NaN stays NaN and still sorts last
                elif col.kind == KIND_BOOL:
                    vals = np.logical_not(col.values)
                else:
                    # Negating int64 overflows on INT64_MIN; negate ranks.
                    _, inverse = np.unique(col.values, return_inverse=True)
                    vals = -inverse.astype(np.int64, copy=False)
            else:
                vals = col.values
            keys.append(vals)
        order = np.lexsort(keys)
        return self.take(order)

    def concat(self, other: "Frame") -> "Frame":
        """Append *other*'s rows.  Column sets must match (order-insensitive)."""
        if set(self._order) != set(other._order):
            raise ColumnMismatchError(
                f"cannot concat frames with columns {self._order} and {other._order}"
            )
        if not self._order:
            return other
        return Frame(
            [self._columns[n].concat(other._columns[n]) for n in self._order]
        )

    # -- aggregation helpers (full group-by lives in groupby.py) -------------------

    def encode_keys(
        self, names: Sequence[str] | str
    ) -> tuple[np.ndarray, list[tuple[Any, ...]]]:
        """Factorize one or more key columns into dense group codes.

        Returns ``(codes, keys)``: an array assigning every row a group
        id in ``[0, len(keys))``, in :func:`~repro.frames.column.code_dtype`
        of ``len(keys)`` (widen before doing arithmetic on it), and the
        distinct key tuples in first-appearance order (``keys[codes[i]]``
        is row *i*'s key).  The tuples are read at each group's first row
        through the columns' codes, so an encoded column is never
        decoded.  This is the primitive under ``group_by``.
        """
        if isinstance(names, str):
            names = [names]
        cols = [self.column(n) for n in names]
        n = self.num_rows
        if not cols:
            if n == 0:
                return np.empty(0, dtype=code_dtype(0)), []
            return np.zeros(n, dtype=code_dtype(1)), [()]
        if n == 0:
            return np.empty(0, dtype=code_dtype(0)), []

        if len(cols) == 1:
            codes, uniques = cols[0].factorize()
            return codes, [(u,) for u in uniques]

        parts = []
        for col in cols:
            codes, uniques = col.factorize()
            parts.append((codes, max(len(uniques), 1)))
        combined, overflow = _combine_codes(parts)
        if overflow:
            # Key-space product exceeds int64; fall back to tuple hashing.
            arrays = [c.values for c in cols]
            table: dict[tuple[Any, ...], int] = {}
            keys: list[tuple[Any, ...]] = []
            out = np.empty(n, dtype=np.int64)
            for i in range(n):
                key = tuple(a[i] for a in arrays)
                code = table.get(key)
                if code is None:
                    code = table[key] = len(keys)
                    keys.append(key)
                out[i] = code
            return out, keys

        codes, first_rows = dense_rank(combined)
        keys = list(zip(*(c[first_rows] for c in cols)))
        return codes, keys

    def numeric(self, name: str) -> np.ndarray:
        """Return column *name* as float64 (raising if non-numeric).

        See :meth:`Column.numeric`: a float column comes back as a
        read-only view, int and bool columns as a fresh array.
        """
        return self.column(name).numeric()


def _combine_codes(parts: Sequence[tuple[np.ndarray, int]]) -> tuple[np.ndarray, bool]:
    """Merge per-column factorization codes into one code per row.

    *parts* is ``[(codes, cardinality), ...]``.  Returns the mixed-radix
    combination plus an overflow flag: when the key-space product would
    not fit in int64 the combination is meaningless and callers must
    fall back to tuple hashing.  The per-column codes are narrow, so the
    combination is built in :func:`code_dtype` of the key-space product
    — a ``uint8`` code times a cardinality past 255 would wrap — with
    each step computed in int64 and stored back narrow.
    """
    space = 1
    for _, card in parts:
        space *= card
    if space >= 2**62:
        return parts[0][0], True
    combined = parts[0][0].astype(code_dtype(space))
    for codes, card in parts[1:]:
        np.multiply(combined, card, out=combined, dtype=np.int64, casting="unsafe")
        np.add(combined, codes, out=combined, dtype=np.int64, casting="unsafe")
    return combined, False

