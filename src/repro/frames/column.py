"""Typed columns backing :class:`repro.frames.Frame`.

A column is a named, homogeneous 1-D array.  Numeric columns are stored as
``numpy.float64`` (with NaN as the missing marker), integer columns as
``numpy.int64``, boolean columns as ``numpy.bool_``, and everything else as
a numpy object array of Python values (with ``None`` as the missing
marker).  The class is intentionally small: it exists so that
:class:`~repro.frames.frame.Frame` can reason about dtypes and missing
values uniformly without pulling in pandas.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.errors import ColumnMismatchError, FrameError

#: Canonical dtype kinds a column may carry.
KIND_FLOAT = "float"
KIND_INT = "int"
KIND_BOOL = "bool"
KIND_OBJECT = "object"

_VALID_KINDS = (KIND_FLOAT, KIND_INT, KIND_BOOL, KIND_OBJECT)

#: Stand-in dict key for NaN when remapping float uniques (NaN != NaN, but
#: factorize gives every NaN one shared code, so the table needs one key).
_NAN_KEY = object()

#: Elementwise ``v is None`` over object arrays without a Python-level loop
#: in the caller (frompyfunc runs the lambda in C's iteration machinery).
_IS_NONE = np.frompyfunc(lambda v: v is None, 1, 1)


def infer_kind(values: Sequence[Any] | np.ndarray) -> str:
    """Infer the column kind for a sequence of raw Python/numpy values.

    Floats (or the presence of ``None``/NaN among numbers) infer ``float``;
    pure ints infer ``int``; pure bools infer ``bool``; anything else is
    ``object``.  An empty sequence infers ``object``.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            return KIND_FLOAT
        if values.dtype.kind in "iu":
            return KIND_INT
        if values.dtype.kind == "b":
            return KIND_BOOL
        return KIND_OBJECT

    saw_float = False
    saw_int = False
    saw_bool = False
    saw_none = False
    for v in values:
        if v is None:
            saw_none = True
        elif isinstance(v, bool) or isinstance(v, np.bool_):
            saw_bool = True
        elif isinstance(v, (int, np.integer)):
            saw_int = True
        elif isinstance(v, (float, np.floating)):
            saw_float = True
        else:
            return KIND_OBJECT
    if saw_bool and not (saw_float or saw_int):
        return KIND_OBJECT if saw_none else KIND_BOOL
    if saw_float or (saw_none and saw_int):
        return KIND_FLOAT
    if saw_int:
        return KIND_INT
    return KIND_OBJECT


def code_dtype(n_distinct: int) -> np.dtype:
    """The narrowest unsigned dtype holding codes in ``[0, n_distinct)``.

    Past 32 bits this is ``int64``, not ``uint64``: mixing ``uint64``
    with the ``int64`` codes it is built from would promote to float.
    """
    dtype = np.min_scalar_type(max(n_distinct - 1, 0))
    return dtype if dtype.itemsize < 8 else np.dtype(np.int64)


def narrow_codes(codes: np.ndarray, n_distinct: int) -> np.ndarray:
    """Dense codes in ``[0, n_distinct)`` cast to :func:`code_dtype`.

    The key to hand a stable argsort: its permutation depends only on
    the keys' order, which the cast keeps, and numpy's stable sort is a
    radix sort for keys of 16 bits or fewer (timsort above that) — on
    run-structured row codes a ``uint16`` key sorts two to three times
    faster than the ``int64`` codes, and the key itself is a quarter of
    their size.
    """
    return codes.astype(code_dtype(n_distinct))


def _sort_key(values: np.ndarray) -> np.ndarray:
    """An order-keeping unsigned key for an int or bool array.

    Ints are shifted by their minimum into the narrowest unsigned dtype
    that holds their range, without a wide temporary.  When no narrower
    dtype holds the range, the values themselves are the key.
    """
    if values.dtype.kind == "b":
        return values.view(np.uint8)
    lo, hi = int(values.min()), int(values.max())
    dtype = np.min_scalar_type(hi - lo)
    if dtype.itemsize >= values.dtype.itemsize:
        return values
    key = np.empty(len(values), dtype=dtype)
    np.subtract(values, lo, out=key, casting="unsafe")
    return key


def dense_rank(
    values: np.ndarray, nan_equal: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """First-appearance dense codes for a non-empty numeric array.

    Returns ``(codes, first_rows)``: int64 codes in ``[0, n_groups)``
    numbered by each distinct value's first appearance, and the row index
    of that first appearance per group (so ``values[first_rows]`` lists
    the distinct values in first-appearance order).  Built on one stable
    argsort.  Int and bool values are sorted through a narrow unsigned
    key (:func:`_sort_key`): a range of 16 bits or fewer radix-sorts,
    which is far cheaper than :func:`numpy.unique`'s comparison sort.
    With *nan_equal* every NaN joins one shared group.
    """
    n = len(values)
    key = values if values.dtype.kind == "f" else _sort_key(values)
    order = np.argsort(key, kind="stable")
    sv = key[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    neq = sv[1:] != sv[:-1]
    if nan_equal:
        neq &= ~(np.isnan(sv[1:]) & np.isnan(sv[:-1]))
    boundary[1:] = neq
    del sv, neq
    starts = np.flatnonzero(boundary)
    first_idx = order[starts]  # stable sort: the min original row per group
    appearance = np.argsort(first_idx, kind="stable")
    n_groups = len(starts)
    rank = np.empty(n_groups, dtype=np.int64)
    rank[appearance] = np.arange(n_groups, dtype=np.int64)
    sorted_codes = rank[np.cumsum(boundary) - 1]
    codes = np.empty(n, dtype=np.int64)
    codes[order] = sorted_codes
    return codes, first_idx[appearance]


def _coerce(values: Sequence[Any] | np.ndarray, kind: str) -> np.ndarray:
    """Coerce raw values into the canonical numpy array for *kind*."""
    if kind == KIND_FLOAT:
        if isinstance(values, np.ndarray) and values.dtype == np.float64:
            return values
        # numpy's cast maps None -> NaN and parses numeric strings, the
        # same semantics as the historical per-element float() loop.
        try:
            out = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            out = None
        if out is not None and out.ndim == 1:
            return out
        result = np.empty(len(values), dtype=np.float64)
        for i, v in enumerate(values):
            result[i] = np.nan if v is None else float(v)
        return result
    if kind == KIND_INT:
        return np.asarray(values, dtype=np.int64)
    if kind == KIND_BOOL:
        return np.asarray(values, dtype=np.bool_)
    if isinstance(values, np.ndarray) and values.dtype == object:
        return values
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = v
    return arr


class Column:
    """A named, typed, immutable-by-convention 1-D array.

    Parameters
    ----------
    name:
        Column name; must be a non-empty string.
    values:
        Raw values; coerced according to *kind*.
    kind:
        One of ``float``, ``int``, ``bool``, ``object``.  Inferred from the
        values when omitted.
    """

    __slots__ = ("name", "kind", "values", "_factorized")

    def __init__(
        self,
        name: str,
        values: Sequence[Any] | np.ndarray,
        kind: str | None = None,
    ) -> None:
        if not isinstance(name, str) or not name:
            raise FrameError(f"column name must be a non-empty string, got {name!r}")
        if kind is None:
            kind = infer_kind(values)
        if kind not in _VALID_KINDS:
            raise FrameError(f"unknown column kind {kind!r}")
        self.name = name
        self.kind = kind
        self.values = _coerce(values, kind)
        self._factorized: tuple[np.ndarray, list[Any]] | None = None
        if self.values.ndim != 1:
            raise FrameError(f"column {name!r} must be 1-D, got shape {self.values.shape}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterable[Any]:
        return iter(self.values)

    def __getitem__(self, idx: Any) -> Any:
        return self.values[idx]

    def __repr__(self) -> str:
        return f"Column({self.name!r}, kind={self.kind}, n={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.kind != other.kind:
            return False
        if len(self) != len(other):
            return False
        if self.kind == KIND_FLOAT:
            return bool(
                np.array_equal(self.values, other.values, equal_nan=True)
            )
        return bool(np.array_equal(self.values, other.values))

    def __hash__(self) -> int:  # columns are not hashable (mutable array)
        raise TypeError("Column is not hashable")

    # -- missing values -----------------------------------------------------

    def is_missing(self) -> np.ndarray:
        """Return a boolean mask that is True where the value is missing."""
        if self.kind == KIND_FLOAT:
            return np.isnan(self.values)
        if self.kind == KIND_OBJECT:
            return _IS_NONE(self.values).astype(bool, copy=False)
        return np.zeros(len(self), dtype=bool)

    def count_missing(self) -> int:
        """Number of missing entries."""
        return int(self.is_missing().sum())

    # -- transforms ----------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column with rows reordered/selected by *indices*."""
        return Column(self.name, self.values[indices], kind=self.kind)

    def mask(self, keep: np.ndarray) -> "Column":
        """Return a new column keeping rows where *keep* is True."""
        keep = np.asarray(keep, dtype=bool)
        if len(keep) != len(self):
            raise ColumnMismatchError(
                f"mask length {len(keep)} != column length {len(self)}"
            )
        return Column(self.name, self.values[keep], kind=self.kind)

    def rename(self, name: str) -> "Column":
        """Return the same data under a different name."""
        return Column(name, self.values, kind=self.kind)

    def astype(self, kind: str) -> "Column":
        """Return a copy converted to another kind.

        Conversions go through Python scalars, so ``object -> float`` works
        for columns of numeric strings as well as numbers.
        """
        if kind == self.kind:
            return Column(self.name, self.values.copy(), kind=kind)
        if kind == KIND_FLOAT:
            vals = [None if m else float(v) for v, m in zip(self.values, self.is_missing())]
            return Column(self.name, vals, kind=KIND_FLOAT)
        if kind == KIND_INT:
            if self.count_missing():
                raise FrameError(
                    f"cannot convert column {self.name!r} with missing values to int"
                )
            return Column(self.name, [int(v) for v in self.values], kind=KIND_INT)
        if kind == KIND_BOOL:
            if self.count_missing():
                raise FrameError(
                    f"cannot convert column {self.name!r} with missing values to bool"
                )
            return Column(self.name, [bool(v) for v in self.values], kind=KIND_BOOL)
        if kind == KIND_OBJECT:
            return Column(self.name, list(self.values), kind=KIND_OBJECT)
        raise FrameError(f"unknown column kind {kind!r}")

    def append(self, other: "Column") -> "Column":
        """Concatenate like :meth:`concat`, extending the factorize memo.

        When this column has been factorized, the result's memo is built
        incrementally: only *other* is factorized and its distinct values
        are remapped through the existing code table, so a streaming
        append re-keys one batch instead of re-scanning the whole
        history.  Falls back to a plain :meth:`concat` (memo rebuilt on
        demand) when the kinds differ and must unify.
        """
        merged = self.concat(other)
        memo = self._factorized
        if memo is None or merged.kind != self.kind or other.kind != self.kind:
            return merged
        codes, uniques = memo
        if not len(other):
            merged._memoize(codes, list(uniques))
            return merged
        new_codes, new_uniques = other.factorize()

        nan_key = self.kind == KIND_FLOAT

        def _key(v: Any) -> Any:
            if nan_key and isinstance(v, (float, np.floating)) and np.isnan(v):
                return _NAN_KEY
            return v

        table = {_key(v): i for i, v in enumerate(uniques)}
        grown = list(uniques)
        remap = np.empty(len(new_uniques), dtype=np.int64)
        for i, v in enumerate(new_uniques):
            key = _key(v)
            code = table.get(key)
            if code is None:
                code = table[key] = len(grown)
                grown.append(v)
            remap[i] = code
        merged._memoize(np.concatenate([codes, remap[new_codes]]), grown)
        return merged

    def concat(self, other: "Column") -> "Column":
        """Concatenate two columns of the same name, unifying kinds."""
        if other.name != self.name:
            raise ColumnMismatchError(
                f"cannot concat column {other.name!r} onto {self.name!r}"
            )
        if self.kind == other.kind:
            return Column(
                self.name, np.concatenate([self.values, other.values]), kind=self.kind
            )
        # Unify: int+float -> float, anything else -> object.
        numeric = {KIND_INT, KIND_FLOAT, KIND_BOOL}
        if self.kind in numeric and other.kind in numeric:
            a = self.astype(KIND_FLOAT)
            b = other.astype(KIND_FLOAT)
            return Column(self.name, np.concatenate([a.values, b.values]), kind=KIND_FLOAT)
        a = self.astype(KIND_OBJECT)
        b = other.astype(KIND_OBJECT)
        return Column(self.name, np.concatenate([a.values, b.values]), kind=KIND_OBJECT)

    def to_list(self) -> list[Any]:
        """Return the values as a plain Python list (NaN/None preserved)."""
        return list(self.values)

    def factorize(self) -> tuple[np.ndarray, list[Any]]:
        """Map values to dense integer codes plus their distinct values.

        Returns ``(codes, uniques)`` where ``codes`` is an int64 array with
        ``uniques[codes[i]] == values[i]`` and ``uniques`` lists the
        distinct values in first-appearance order — the same order
        :meth:`unique` and the row-wise grouping loop produce.  Numeric
        columns use one stable argsort (:func:`dense_rank`; ints and
        bools sort a narrow unsigned key, a radix sort when their range
        fits 16 bits); object columns hash one value per constant run.
        For float columns every NaN shares one code.  The result is memoised on the column — the
        pipeline factorizes the same key columns repeatedly (treatment
        scan, panel build, joins) and the values array is immutable by
        convention.
        """
        if self._factorized is not None:
            codes, uniques = self._factorized
            return codes, list(uniques)
        values = self.values
        n = len(values)
        if n == 0:
            return np.empty(0, dtype=np.int64), []
        if self.kind != KIND_OBJECT:
            codes, first_rows = dense_rank(values, nan_equal=self.kind == KIND_FLOAT)
            uniques = list(values[first_rows])
        else:
            # Hash one value per *run*, not per row: columns built pool by
            # pool or chunk by chunk (the measurement generator, CSV
            # import) carry long constant runs.  The boundary scan is one
            # C-level comparison sweep; where a run repeats one object
            # (the generator fills each pool's rows with a single shared
            # string) str comparison answers from identity without
            # reading the characters.  Worst case (no runs) this is the
            # plain hash pass plus the sweep.
            boundary = np.empty(n, dtype=bool)
            boundary[0] = True
            boundary[1:] = values[1:] != values[:-1]
            starts = np.flatnonzero(boundary)
            table: dict[Any, int] = {}
            run_codes = np.fromiter(
                (table.setdefault(v, len(table)) for v in values[starts]),
                dtype=np.int64,
                count=len(starts),
            )
            codes = np.repeat(run_codes, np.diff(np.append(starts, n)))
            uniques = list(table)
        self._memoize(codes, uniques)
        return codes, list(uniques)

    def _memoize(self, codes: np.ndarray, uniques: list[Any]) -> None:
        """Cache factorize output and freeze the backing array.

        A later in-place mutation of ``values`` would silently
        desynchronise the cached codes, so once codes exist the array
        must refuse writes — callers that need to mutate must build a
        new column (or go through :meth:`append`, which extends the
        memo instead).
        """
        self._factorized = (codes, uniques)
        try:
            self.values.flags.writeable = False
        except ValueError:
            pass  # e.g. a read-only or foreign-buffer view; already safe

    def unique(self) -> list[Any]:
        """Distinct values in first-appearance order (missing included once)."""
        seen: set[Any] = set()
        out: list[Any] = []
        saw_nan = False
        for v in self.values:
            if isinstance(v, float) and np.isnan(v):
                if not saw_nan:
                    saw_nan = True
                    out.append(v)
                continue
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out
