"""A small columnar frame: the library's tabular workhorse.

:class:`Frame` holds an ordered set of equal-length :class:`Column` objects
and supports the handful of relational verbs the analysis pipeline needs —
filter, sort, select, derive, group-by, and join.  It deliberately favours
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
    KIND_INT,
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

    def where_equal(self, **conditions: Any) -> "Frame":
        """Return rows where each named column equals the given value."""
        mask = np.ones(self.num_rows, dtype=bool)
        for name, value in conditions.items():
            col = self.column(name)
            mask &= _equals_mask(col, value, self.num_rows)
        return self.filter(mask)

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

    # -- joins -------------------------------------------------------------------

    def join(
        self,
        other: "Frame",
        on: Sequence[str] | str,
        how: str = "inner",
        suffix: str = "_right",
    ) -> "Frame":
        """Hash join with *other* on the given key column(s).

        Supports ``inner`` and ``left`` joins.  Non-key columns of *other*
        that collide with a column of *self* are renamed with *suffix*.
        """
        if isinstance(on, str):
            on = [on]
        if how not in ("inner", "left"):
            raise FrameError(f"unsupported join type {how!r}")
        for k in on:
            self.column(k)
            other.column(k)

        n_left = self.num_rows
        n_right = other.num_rows
        # Factorize each key over both sides at once so equal keys share a
        # code (Column.concat unifies int/float the way tuple == would).
        if on:
            parts = []
            for k in on:
                both = self.column(k).concat(other.column(k))
                codes, uniques = both.factorize()
                parts.append((codes, max(len(uniques), 1)))
            combined, _ = _combine_codes(parts)
        else:
            combined = np.zeros(n_left + n_right, dtype=np.int64)
        left_codes = combined[:n_left]
        right_codes = combined[n_left:]

        # Sort the right side by key code; each left row's matches are then
        # one contiguous slice found by binary search.
        right_order = np.argsort(right_codes, kind="stable")
        right_sorted = right_codes[right_order]
        lo = np.searchsorted(right_sorted, left_codes, side="left")
        hi = np.searchsorted(right_sorted, left_codes, side="right")
        counts = hi - lo

        reps = counts if how == "inner" else np.maximum(counts, 1)
        total = int(reps.sum())
        left_idx = np.repeat(np.arange(n_left, dtype=np.int64), reps)
        run_starts = np.cumsum(reps) - reps
        offsets = np.arange(total, dtype=np.int64) - np.repeat(run_starts, reps)
        positions = np.repeat(lo, reps) + offsets
        right_idx = right_order[np.minimum(positions, max(n_right - 1, 0))] if n_right else np.zeros(total, dtype=np.int64)
        unmatched = np.repeat(counts == 0, reps)  # all-False for inner joins
        right_idx = np.where(unmatched, -1, right_idx)

        left_part = self.take(left_idx)
        out_cols = [left_part.column(n) for n in left_part.column_names]
        taken = set(self._order)
        for n in other.column_names:
            if n in on:
                continue
            col = other.column(n)
            name = n + suffix if n in taken else n
            out_cols.append(_gather_with_missing(col, right_idx, unmatched).rename(name))
        return Frame(out_cols)

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
        decoded.  This is the primitive under :meth:`group_indices`,
        ``group_by``, ``pivot``, and the panel builder.
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

    def group_indices(self, names: Sequence[str] | str) -> dict[tuple[Any, ...], np.ndarray]:
        """Map each distinct key tuple to the row indices holding it.

        Keys appear in first-appearance order and each index array is
        ascending, matching the historical row-wise scan.
        """
        if self.num_rows == 0:
            if isinstance(names, str):
                names = [names]
            for n in names:
                self.column(n)
            return {}
        codes, keys = self.encode_keys(names)
        order = np.argsort(codes, kind="stable")
        boundaries = np.flatnonzero(np.diff(codes[order])) + 1
        return dict(zip(keys, np.split(order, boundaries)))

    def describe(self) -> "Frame":
        """Summary statistics for every numeric column.

        Returns a frame with one row per numeric column: count, number
        missing, mean, std, min, median, max.
        """
        records = []
        for name in self._order:
            col = self._columns[name]
            if col.kind == KIND_OBJECT:
                continue
            values = self.numeric(name)
            finite = values[~np.isnan(values)]
            records.append(
                {
                    "column": name,
                    "count": int(len(finite)),
                    "missing": int(len(values) - len(finite)),
                    "mean": float(finite.mean()) if len(finite) else None,
                    "std": float(finite.std(ddof=1)) if len(finite) > 1 else None,
                    "min": float(finite.min()) if len(finite) else None,
                    "median": float(np.median(finite)) if len(finite) else None,
                    "max": float(finite.max()) if len(finite) else None,
                }
            )
        return Frame.from_records(
            records,
            columns=["column", "count", "missing", "mean", "std", "min", "median", "max"],
        )

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


def _equals_mask(col: Column, value: Any, n: int) -> np.ndarray:
    """Elementwise ``col == value`` as a boolean mask, NaN never equal."""
    if col.kind == KIND_OBJECT and value is None:
        return col.is_missing()
    try:
        raw = col.values == value
    except (TypeError, ValueError):
        raw = None
    if isinstance(raw, np.ndarray) and raw.shape == (n,):
        return raw.astype(bool, copy=False)
    if raw is not None and np.isscalar(raw):
        # numpy collapsed an incomparable-type comparison to one bool
        return np.full(n, bool(raw), dtype=bool)
    return np.array([v == value for v in col.values], dtype=bool)


def _gather_with_missing(col: Column, indices: np.ndarray, missing: np.ndarray) -> Column:
    """``col.take(indices)`` with *missing* rows set to the null marker.

    Mirrors the historical per-row join gather, including its kind
    promotions: int columns with missing matches become float (NaN),
    bool columns become object (None), object columns are re-inferred
    from their gathered values.
    """
    if not len(col) or bool(missing.all()):
        # Every output row is unmatched; the historical list path then
        # saw only Nones and inferred an object column.
        return Column(col.name, [None] * len(indices))
    safe = np.where(missing, 0, indices)
    any_missing = bool(missing.any())
    if col.kind == KIND_FLOAT:
        out = col.values[safe]
        if any_missing:
            out = out.copy()
            out[missing] = np.nan
        return Column(col.name, out, kind=KIND_FLOAT)
    if col.kind == KIND_INT:
        if not any_missing:
            return col.take(safe)  # an encoded int column stays encoded
        out = col.values[safe].astype(np.float64)
        out[missing] = np.nan
        return Column(col.name, out, kind=KIND_FLOAT)
    if col.kind == KIND_BOOL:
        if not any_missing:
            return Column(col.name, col.values[safe], kind=KIND_BOOL)
        out = col.values[safe].astype(object)
        out[missing] = None
        return Column(col.name, out, kind=KIND_OBJECT)
    if len(col):
        out = col[safe]
        if any_missing:
            out = out.copy()
            out[missing] = None
    else:
        out = np.full(len(safe), None, dtype=object)
    # Re-infer like the historical list-building path did (an object
    # column of plain ints came back as an int column, for example).
    return Column(col.name, out.tolist())
