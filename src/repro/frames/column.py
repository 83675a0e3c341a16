"""Typed columns backing :class:`repro.frames.Frame`.

A column is a named, homogeneous 1-D array.  Numeric columns are stored as
``numpy.float64`` (with NaN as the missing marker), integer columns as
``numpy.int64``, boolean columns as ``numpy.bool_``, and everything else as
a numpy object array of Python values (with ``None`` as the missing
marker).  The class is intentionally small: it exists so that
:class:`~repro.frames.frame.Frame` can reason about dtypes and missing
values uniformly without pulling in pandas.

An object or int column may instead be *dictionary-encoded*
(:meth:`Column.from_codes`): one narrow unsigned code per row, in
:func:`code_dtype` of the category count, plus a small table of the
distinct values (an object array, or an ``int64`` array for an int
column).  Its kind stays ``object`` or ``int``.  Row selection,
concatenation, missing masks, equality, pickling and :meth:`Column.factorize`
work on the codes, so a reader of ``values`` sees exactly what a plain
column would hold.  An object column decodes its object array on first
access of :attr:`Column.values` and keeps it; an int column decodes on
every access and keeps nothing, since a kept ``int64`` copy would cost
the eight bytes per row the codes save.  Label columns and integer keys
with a few dozen distinct values (days, AS numbers) then cost one byte
per row instead of eight.
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

    The sort key of :func:`repro.frames.groupby.group_order`, which
    stable-sorts it (or its runs of equal codes) a chunk at a time: a
    stable permutation depends only on the keys' order, which the cast
    keeps, and numpy's stable sort is a radix sort for keys of 16 bits
    or fewer (timsort above that) — on run-structured row codes a
    ``uint16`` key sorts two to three times faster than the ``int64``
    codes, and the key itself is a quarter of their size.  Codes already
    in that dtype (every :meth:`Column.factorize` result) come back as
    they are, without a copy.
    """
    return codes.astype(code_dtype(n_distinct), copy=False)


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

    Returns ``(codes, first_rows)``: codes in ``[0, n_groups)``, in
    :func:`code_dtype` of ``n_groups``, numbered by each distinct
    value's first appearance, and the row index
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
    dtype = code_dtype(n_groups)
    rank = np.empty(n_groups, dtype=dtype)
    rank[appearance] = np.arange(n_groups)
    sorted_codes = rank[np.cumsum(boundary) - 1]
    codes = np.empty(n, dtype=dtype)
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
    return _object_array(values)


def _object_array(values: Sequence[Any]) -> np.ndarray:
    """A 1-D object array of *values* (tuples stay elements, not rows)."""
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out


def _category_table(categories: Sequence[Any] | np.ndarray, kind: str) -> np.ndarray:
    """The category array of an encoded column of *kind*.

    Int categories must all be integers: a float or ``None`` among them
    raises rather than being truncated or refused later by numpy.
    """
    if kind == KIND_INT:
        table = np.asarray(categories)
        if len(table) and (table.ndim != 1 or table.dtype.kind not in "iu"):
            raise FrameError(f"int categories must be integers, got {table.dtype}")
        return table.astype(np.int64)
    return _object_array(categories)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """The row where each constant run of a non-empty array starts.

    One C-level comparison sweep; over object values a run that repeats
    one object compares by identity, without reading the characters.
    """
    boundary = np.empty(len(values), dtype=bool)
    boundary[0] = True
    boundary[1:] = values[1:] != values[:-1]
    return np.flatnonzero(boundary)


def _in_first_appearance_order(codes: np.ndarray, n_categories: int) -> bool:
    """Whether *codes* use every category, numbered by first appearance.

    Raises when a code is out of range.  Only the first code of each
    constant run can appear first, so one running maximum over those
    decides: the codes are in first-appearance order exactly when it
    starts at 0, never steps by more than one, and ends at the last
    category.
    """
    if not len(codes):
        return n_categories == 0
    seen = np.maximum.accumulate(codes[_run_starts(codes)])
    top = int(seen[-1])
    if top >= n_categories:
        raise FrameError(f"code {top} out of range for {n_categories} categories")
    return codes[0] == 0 and top == n_categories - 1 and not (np.diff(seen) > 1).any()


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

    :meth:`from_codes` builds a dictionary-encoded object or int column
    instead.
    """

    __slots__ = ("name", "kind", "_values", "_codes", "_categories", "_factorized")

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
        self._values: np.ndarray | None = _coerce(values, kind)
        self._codes: np.ndarray | None = None
        self._categories: np.ndarray | None = None
        self._factorized: tuple[np.ndarray, list[Any]] | None = None
        if self._values.ndim != 1:
            raise FrameError(
                f"column {name!r} must be 1-D, got shape {self._values.shape}"
            )

    @classmethod
    def from_codes(
        cls,
        name: str,
        codes: np.ndarray,
        categories: Sequence[Any] | np.ndarray,
        kind: str = KIND_OBJECT,
    ) -> "Column":
        """A dictionary-encoded column: row *i* holds ``categories[codes[i]]``.

        *kind* is ``object`` (the categories are held as an object
        array) or ``int`` (as an ``int64`` array).  *codes* must be in
        :func:`code_dtype` of ``len(categories)`` and the categories
        distinct (as dict keys).  When the categories are listed in
        first-appearance order and all used — the way a writer that
        registers each label as it first emits it builds them —
        :meth:`factorize` returns *codes* as they are.
        """
        if not isinstance(name, str) or not name:
            raise FrameError(f"column name must be a non-empty string, got {name!r}")
        if kind not in (KIND_OBJECT, KIND_INT):
            raise FrameError(f"column {name!r}: cannot encode a {kind!r} column")
        cats = _category_table(categories, kind)
        codes = np.asarray(codes)
        if codes.ndim != 1 or codes.dtype != code_dtype(len(cats)):
            raise FrameError(
                f"column {name!r} needs 1-D {code_dtype(len(cats))} codes for "
                f"{len(cats)} categories, got {codes.dtype} of shape {codes.shape}"
            )
        if len(set(cats.tolist())) != len(cats):
            raise FrameError(f"column {name!r} categories are not distinct")
        return cls._encoded(
            name, codes, cats, _in_first_appearance_order(codes, len(cats))
        )

    @classmethod
    def _encoded(
        cls, name: str, codes: np.ndarray, categories: np.ndarray, canonical: bool
    ) -> "Column":
        """Wrap validated codes; *canonical* codes are their own factorization.

        The kind follows the category table: ``int`` for an ``int64``
        table, ``object`` for an object one.
        """
        col = cls.__new__(cls)
        col.name = name
        col.kind = KIND_INT if categories.dtype == np.int64 else KIND_OBJECT
        col._values = None
        col._codes = codes
        col._categories = categories
        col._factorized = None
        if canonical:
            col._memoize(codes, list(categories))
        return col

    def __reduce__(self) -> tuple[Any, ...]:
        # An encoded column pickles its codes, never a decoded copy.
        if self._codes is not None:
            return (
                Column._encoded,
                (self.name, self._codes, self._categories, self._factorized is not None),
            )
        return (Column, (self.name, self._values, self.kind))

    @property
    def values(self) -> np.ndarray:
        """The row values as a numpy array.

        An encoded object column decodes once and keeps the object
        array; an encoded int column decodes a fresh read-only array on
        every access and keeps none.
        """
        if self._values is not None:
            return self._values
        if self.kind == KIND_INT:
            return self._decode()
        self._values = self._decode()
        return self._values

    def _decode(self) -> np.ndarray:
        out = self._categories[self._codes]
        out.flags.writeable = False  # the codes stay the source of truth
        return out

    def numeric(self) -> np.ndarray:
        """The values as ``float64``, raising for an object column.

        A float column comes back as a read-only view of its values —
        no copy, so a caller that wants to write must copy first.  Int
        and bool columns convert into a fresh array; an encoded int
        column gathers it from its category table converted to float,
        without an ``int64`` copy of the rows.
        """
        if self.kind == KIND_OBJECT:
            raise FrameError(f"column {self.name!r} is not numeric")
        if self.kind == KIND_FLOAT:
            view = self._values.view()
            view.flags.writeable = False
            return view
        if self._codes is not None:
            return self._categories.astype(np.float64)[self._codes]
        return self._values.astype(np.float64)

    @property
    def nbytes(self) -> int:
        """Bytes of storage held: values, codes, categories and memo codes.

        An encoded column counts its codes and category table, plus the
        object array once something has decoded it.
        """
        held = [self._values, self._codes, self._categories]
        if self._factorized is not None:
            held.append(self._factorized[0])
        arrays = {id(a): a for a in held if a is not None}
        return sum(a.nbytes for a in arrays.values())

    def __len__(self) -> int:
        return len(self._codes if self._codes is not None else self._values)

    def __iter__(self) -> Iterable[Any]:
        return iter(self.values)

    def __getitem__(self, idx: Any) -> Any:
        if self._codes is not None:
            return self._categories[self._codes[idx]]
        return self._values[idx]

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
        if self._codes is not None and other._codes is not None:
            # Compare the small category tables once, then look the
            # row pairs up in that table.
            same = np.array(
                [[bool(a == b) for b in other._categories] for a in self._categories],
                dtype=bool,
            ).reshape(len(self._categories), len(other._categories))
            return bool(same[self._codes, other._codes].all())
        return bool(np.array_equal(self.values, other.values))

    def __hash__(self) -> int:  # columns are not hashable (mutable array)
        raise TypeError("Column is not hashable")

    # -- missing values -----------------------------------------------------

    def is_missing(self) -> np.ndarray:
        """Return a boolean mask that is True where the value is missing."""
        if self._codes is not None and self.kind == KIND_OBJECT:
            missing = np.array([c is None for c in self._categories], dtype=bool)
            return missing[self._codes]
        if self.kind == KIND_FLOAT:
            return np.isnan(self._values)
        if self.kind == KIND_OBJECT:
            return _IS_NONE(self._values).astype(bool, copy=False)
        return np.zeros(len(self), dtype=bool)

    def count_missing(self) -> int:
        """Number of missing entries."""
        return int(self.is_missing().sum())

    # -- transforms ----------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column with rows reordered/selected by *indices*."""
        if self._codes is not None:
            return Column._encoded(
                self.name, self._codes[indices], self._categories, canonical=False
            )
        return Column(self.name, self._values[indices], kind=self.kind)

    def mask(self, keep: np.ndarray) -> "Column":
        """Return a new column keeping rows where *keep* is True."""
        keep = np.asarray(keep, dtype=bool)
        if len(keep) != len(self):
            raise ColumnMismatchError(
                f"mask length {len(keep)} != column length {len(self)}"
            )
        return self.take(keep)

    def rename(self, name: str) -> "Column":
        """Return the same data under a different name."""
        if self._codes is not None:
            col = Column._encoded(
                name, self._codes, self._categories, self._factorized is not None
            )
            col._values = self._values
            return col
        return Column(name, self._values, kind=self.kind)

    def astype(self, kind: str) -> "Column":
        """Return a copy converted to another kind.

        Conversions go through Python scalars, so ``object -> float`` works
        for columns of numeric strings as well as numbers.
        """
        if kind == self.kind:
            if self._codes is not None:
                return Column._encoded(
                    self.name,
                    self._codes.copy(),
                    self._categories,
                    self._factorized is not None,
                )
            return Column(self.name, self._values.copy(), kind=kind)
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

    def concat(self, other: "Column") -> "Column":
        """Concatenate two columns of the same name, unifying kinds."""
        if other.name != self.name:
            raise ColumnMismatchError(
                f"cannot concat column {other.name!r} onto {self.name!r}"
            )
        if (
            self._codes is not None
            and other._codes is not None
            and self.kind == other.kind
        ):
            merged = self._concat_codes(other)
            if merged is not None:
                return merged
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

    def _concat_codes(self, other: "Column") -> "Column | None":
        """Two encoded columns of one kind joined on one merged category table.

        Returns ``None`` when a category of *other* is dict-equal to one
        of this column but of another type (``1`` and ``True``): one
        shared entry would change a decoded value.
        """
        table = {c: i for i, c in enumerate(self._categories)}
        categories = list(self._categories)
        remap_list = []
        for c in other._categories:
            code = table.get(c)
            if code is None:
                code = table[c] = len(categories)
                categories.append(c)
            elif type(categories[code]) is not type(c):
                return None
            remap_list.append(code)
        dtype = code_dtype(len(categories))
        n = len(self)
        codes = np.empty(n + len(other), dtype=dtype)
        codes[:n] = self._codes
        codes[n:] = np.array(remap_list, dtype=dtype)[other._codes]
        # New categories are appended in other's table order, so two
        # canonical tables merge into a canonical one.
        canonical = self._factorized is not None and other._factorized is not None
        return Column._encoded(
            self.name, codes, _category_table(categories, self.kind), canonical
        )

    def to_list(self) -> list[Any]:
        """Return the values as a plain Python list (NaN/None preserved)."""
        return list(self.values)

    def factorize(self) -> tuple[np.ndarray, list[Any]]:
        """Map values to dense integer codes plus their distinct values.

        Returns ``(codes, uniques)`` with ``uniques[codes[i]] == values[i]``
        and ``uniques`` listing the distinct values in first-appearance
        order — the same order :meth:`unique` and the row-wise grouping
        loop produce.  The codes are in :func:`code_dtype` of
        ``len(uniques)``: ``uint8`` up to 256 distinct values, ``uint16``
        up to 65536, and so on.  An arithmetic caller must widen them
        first (``uint8 * 300`` wraps).

        An encoded column returns its stored codes — no hashing, no
        memo — and its categories as they are held (an int column's
        uniques are ``numpy.int64``, as a plain int column's are).
        After a :meth:`take` or :meth:`mask` has reordered its
        rows it first renumbers them with one :func:`dense_rank` of the
        narrow codes (a radix sort, over one code per constant run) and
        keeps the result as its storage.  Numeric columns use one stable
        argsort (:func:`dense_rank`; ints and bools sort a narrow
        unsigned key, a radix sort when their range fits 16 bits);
        plain object columns hash one value per constant run.  For float columns every NaN shares one code.  The
        result is memoised on the column — the pipeline factorizes the
        same key columns repeatedly (treatment scan, panel build, joins)
        and the values array is immutable by convention.
        """
        if self._factorized is not None:
            codes, uniques = self._factorized
            return codes, list(uniques)
        n = len(self)
        if n == 0:
            return np.empty(0, dtype=code_dtype(0)), []
        encoded = self._codes is not None
        if self.kind != KIND_OBJECT and not encoded:
            values = self._values
            codes, first_rows = dense_rank(values, nan_equal=self.kind == KIND_FLOAT)
            uniques = list(values[first_rows])
            self._memoize(codes, uniques)
            return codes, list(uniques)
        # Code one value per *run*, not per row: generated frames (one
        # label per pool), their time slices and CSV imports carry long
        # constant runs.  Worst case (no runs) this is the per-row pass
        # plus the boundary sweep.
        stored = self._codes if encoded else self._values
        starts = _run_starts(stored)
        heads = stored[starts]
        if encoded:
            # Renumber by first appearance: one radix dense_rank of the
            # runs' narrow codes, and the renumbered codes become the
            # column's storage.
            run_codes, first_runs = dense_rank(heads)
            self._categories = self._categories[heads[first_runs]]
            uniques = list(self._categories)
        else:
            table: dict[Any, int] = {}
            run_codes = np.fromiter(
                (table.setdefault(v, len(table)) for v in heads),
                dtype=np.int64,
                count=len(starts),
            ).astype(code_dtype(len(table)))
            uniques = list(table)
        codes = np.repeat(run_codes, np.diff(np.append(starts, n)))
        if encoded:
            self._codes = codes
        self._memoize(codes, uniques)
        return codes, list(uniques)

    def _memoize(self, codes: np.ndarray, uniques: list[Any]) -> None:
        """Cache factorize output and freeze the backing array.

        A later in-place mutation of ``values`` would silently
        desynchronise the cached codes, so once codes exist the array
        must refuse writes — callers that need to mutate must build a
        new column.
        """
        self._factorized = (codes, uniques)
        for held in (self._values, self._codes):
            if held is None:
                continue
            try:
                held.flags.writeable = False
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
