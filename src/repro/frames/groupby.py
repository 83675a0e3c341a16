"""Group-by aggregation for :class:`repro.frames.Frame`.

The entry point is :func:`group_by`, which returns a :class:`GroupedFrame`
supporting named aggregations::

    out = group_by(frame, ["asn", "city"]).aggregate(
        rtt_median=("rtt_ms", "median"),
        n=("rtt_ms", "count"),
    )

Built-in aggregations: ``count``, ``sum``, ``mean``, ``median``, ``min``,
``max``, ``std``, ``var``, ``first``, ``last``, ``nunique``, plus any
callable taking a numpy array.

Grouping is factorized (:meth:`Frame.encode_keys`): rows are assigned
dense integer group codes, and :func:`group_order` lays them out in
group order — the permutation of one stable argsort, built chunk by
chunk as a narrow index, so its scratch is chunk-sized — which makes
every group a contiguous slice of that order.  :meth:`_Segments.rows`
is the one way to read a group: aggregations, the pivot and the
stream's accumulators gather each group's values through it.  The fast
builtins (``count``/``sum``/``mean``/``median``/``min``/``max`` over
numeric columns) reduce each gathered group in :func:`_grouped_fast`,
NaN dropped per group; callables and the remaining builtins see
exactly the per-group value arrays, in row order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.errors import FrameError
from repro.frames.column import KIND_OBJECT, Column, code_dtype, narrow_codes
from repro.frames.frame import Frame

_AggSpec = tuple[str, "str | Callable[[np.ndarray], Any]"]


def _nan_safe(values: np.ndarray) -> np.ndarray:
    """Drop NaN entries from a float array (pass others through)."""
    if values.dtype.kind == "f":
        return values[~np.isnan(values)]
    return values


def _plain(value: Any) -> Any:
    """Normalize numpy scalars to plain Python numbers."""
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    if isinstance(value, np.bool_):
        return float(bool(value))
    return value


def _agg_count(v: np.ndarray) -> int:
    return len(v)


def _agg_sum(v: np.ndarray) -> float:
    s = _nan_safe(v)
    return float(np.sum(s)) if len(s) else 0.0


def _agg_mean(v: np.ndarray) -> Any:
    s = _nan_safe(v)
    return float(np.mean(s)) if len(s) else None


def _agg_median(v: np.ndarray) -> Any:
    s = _nan_safe(v)
    return float(np.median(s)) if len(s) else None


def _agg_min(v: np.ndarray) -> Any:
    s = _nan_safe(v)
    return _plain(s.min()) if len(s) else None


def _agg_max(v: np.ndarray) -> Any:
    s = _nan_safe(v)
    return _plain(s.max()) if len(s) else None


def _agg_std(v: np.ndarray) -> Any:
    s = _nan_safe(v)
    return float(np.std(s, ddof=1)) if len(s) > 1 else None


def _agg_var(v: np.ndarray) -> Any:
    s = _nan_safe(v)
    return float(np.var(s, ddof=1)) if len(s) > 1 else None


_BUILTINS: dict[str, Callable[[np.ndarray], Any]] = {
    "count": _agg_count,
    "sum": _agg_sum,
    "mean": _agg_mean,
    "median": _agg_median,
    "min": _agg_min,
    "max": _agg_max,
    "std": _agg_std,
    "var": _agg_var,
    "first": lambda v: v[0] if len(v) else None,
    "last": lambda v: v[-1] if len(v) else None,
    "nunique": lambda v: len({str(x) for x in v}),
}

#: Builtins with a grouped-kernel fast path over numeric columns.
_FAST_AGGS = frozenset({"count", "sum", "mean", "median", "min", "max"})


#: Rows per chunk of :func:`group_order`, :func:`cut_codes` and the
#: blocks :meth:`_Segments.rows` widens: their scratch is a few arrays
#: of this length, however many rows they handle.
_CHUNK_ROWS = 1 << 15


def group_order(codes: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(codes, kind="stable")`` built chunk by chunk, and its bounds.

    *codes* are dense in ``[0, n_groups)``.  Returns ``(order, bounds)``:
    the stable permutation stored as :func:`code_dtype` of the row count,
    and ``n_groups + 1`` int64 offsets — group *g*'s rows are
    ``order[bounds[g]:bounds[g + 1]]``, ascending.

    Up to one chunk of rows, that is the codes' own stable sort.  Longer
    codes go through a counting sort over chunks: the group sizes are
    counted chunk by chunk, then each chunk's rows are put in stable
    code order on their own (:func:`_place_chunk`) and each group's rows
    in it are written at the group's running offset.  Chunks go in row
    order, so every group's rows land ascending — the whole-array
    sort's permutation, without its row-length ``int64`` result and sort
    buffer.
    """
    n = len(codes)
    key = narrow_codes(codes, n_groups)
    bounds = np.zeros(n_groups + 1, dtype=np.int64)
    if n <= _CHUNK_ROWS:
        np.cumsum(np.bincount(key, minlength=n_groups), out=bounds[1:])
        return np.argsort(key, kind="stable").astype(code_dtype(n)), bounds
    counts = np.zeros(n_groups, dtype=np.int64)
    for lo in range(0, n, _CHUNK_ROWS):
        # Counted by runs: np.bincount over a chunk of long runs is
        # about four times slower, as every row bumps the same count.
        _, run_codes, run_lens = _runs(key[lo : lo + _CHUNK_ROWS])
        np.add.at(counts, run_codes, run_lens)
    np.cumsum(counts, out=bounds[1:])
    fill = bounds[:-1].copy()
    order = np.empty(n, dtype=code_dtype(n))
    for lo in range(0, n, _CHUNK_ROWS):
        _place_chunk(order, fill, key[lo : lo + _CHUNK_ROWS], lo)
    return order, bounds


def _runs(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starts, codes and lengths of *chunk*'s runs of equal codes, in row order."""
    starts = np.flatnonzero(np.concatenate(([True], chunk[1:] != chunk[:-1])))
    return starts, chunk[starts], np.diff(starts, append=len(chunk))


def _place_chunk(order: np.ndarray, fill: np.ndarray, chunk: np.ndarray, lo: int) -> None:
    """Write the rows of *chunk* (starting at row *lo*) into *order*.

    The chunk's rows in stable code order come from stable-sorting its
    runs of equal codes — few on a generated frame, whose rows come
    grouped by unit and day; one per row at worst, where this is the
    rows' own sort.  Each code's rows then go, in one scatter, to its
    running offset in *fill*, which advances past them.  The chunk's
    scratch is freed on return, before the next chunk's.
    """
    starts, codes, lens = _runs(chunk)
    by_code = np.argsort(codes, kind="stable")
    codes = codes[by_code]
    lens = lens[by_code]
    offsets = np.cumsum(lens) - lens  # rows of earlier runs in code order
    ramp = np.arange(len(chunk))
    rows = np.repeat(starts[by_code] + (lo - offsets), lens)
    rows += ramp
    first = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    distinct = codes[first]
    offsets = offsets[first]
    size = np.diff(offsets, append=len(chunk))
    at = fill[distinct]
    fill[distinct] = at + size
    # Each code's rows land contiguously from its offset.
    dest = np.repeat(at - offsets, size)
    dest += ramp
    order[dest] = rows


def cut_codes(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Each value's bin among the ascending *cuts*, as narrow codes.

    A value's code is the number of cuts at or below it, so a value
    exactly on a cut goes right.  Codes are :func:`code_dtype` of
    ``len(cuts) + 1`` and are found a chunk at a time, so no row-length
    ``intp`` array is made.
    """
    codes = np.empty(len(values), dtype=code_dtype(len(cuts) + 1))
    for lo in range(0, len(values), _CHUNK_ROWS):
        hi = lo + _CHUNK_ROWS
        codes[lo:hi] = np.searchsorted(cuts, values[lo:hi], side="right")
    return codes


class _Segments:
    """Contiguous group slices of the rows in group-code order.

    ``order[starts[g]:ends[g]]`` are group *g*'s rows, ascending; the
    order and its bounds come from :func:`group_order`, so ``order`` is
    a narrow index (:func:`code_dtype` of the row count).  Per-group
    gathers go through :meth:`rows`.
    """

    __slots__ = ("order", "starts", "ends")

    def __init__(self, codes: np.ndarray, n_groups: int) -> None:
        self.order, bounds = group_order(codes, n_groups)
        self.starts = bounds[:-1]
        self.ends = bounds[1:]

    @classmethod
    def from_parts(
        cls, order: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> "_Segments":
        """Wrap precomputed sort/boundary arrays without re-sorting.

        *starts* and *ends* must be ascending, as :meth:`rows` expects.
        """
        seg = cls.__new__(cls)
        seg.order = order
        seg.starts = starts
        seg.ends = ends
        return seg

    def rows(self) -> Iterator[np.ndarray]:
        """Each group's rows, ascending, as an ``intp`` index, in group order.

        numpy casts any other index dtype on every gather, which costs
        more than a small gather itself, so the narrow order is widened
        here once, a block of consecutive groups at a time: about one
        chunk of rows, or one larger group.  A yielded index is a view
        of its block; keep a gather of it, not the index.
        """
        starts, ends = self.starts.tolist(), self.ends.tolist()
        g = 0
        while g < len(starts):
            base = starts[g]
            h = max(bisect_right(ends, base + _CHUNK_ROWS, g), g + 1)
            block = self.order[base : ends[h - 1]].astype(np.intp)
            for s, e in zip(starts[g:h], ends[g:h]):
                yield block[s - base : e - base]
            g = h


def _median(values: np.ndarray) -> float:
    """The median of one group's values, NaN ignored; NaN if all are.

    *values* is non-empty; float64 values are sorted in place, others
    are copied to float64 first.  The middle two valid values are
    averaged.  NaN sorts last, so the valid values are a prefix, and
    only a group whose last value is NaN has its NaNs counted.
    """
    values = values.astype(np.float64, copy=False)
    values.sort()
    valid = len(values)
    if math.isnan(values[-1]):
        valid -= int(np.count_nonzero(np.isnan(values)))
        if valid == 0:
            return np.nan
    return (values[(valid - 1) // 2] + values[valid // 2]) / 2.0


def _nan_dropped(reduce: Callable[[np.ndarray], Any], empty: float) -> Callable:
    """*reduce* over a group's non-NaN values; *empty* when it has none."""

    def kernel(seg: np.ndarray) -> Any:
        if seg.dtype.kind == "f":
            seg = seg[~np.isnan(seg)]
        return reduce(seg) if len(seg) else empty

    return kernel


#: Each fast builtin but ``count`` over one group's gathered values.
#: Sums and means keep numpy's pairwise summation, bit-identical to the
#: row-wise ``np.sum``/``np.mean``; ``fmin``/``fmax`` skip NaN and give
#: NaN only for a group with no other value.
_KERNELS: dict[str, Callable[[np.ndarray], Any]] = {
    "sum": _nan_dropped(np.sum, 0.0),
    "mean": _nan_dropped(np.mean, np.nan),
    "median": _median,
    "min": np.fmin.reduce,
    "max": np.fmax.reduce,
}


def _grouped_fast(
    values: np.ndarray,
    segments: _Segments,
    agg: str,
) -> np.ndarray:
    """One builtin over every group, one gather per group.

    Returns a float64 array (NaN where the row-wise builtin returned
    ``None``), except ``count``, which returns int64 group sizes.  Each
    group's values are gathered through :meth:`_Segments.rows` and
    reduced on their own (:data:`_KERNELS`), so no group-sorted copy
    of the column and no row-length NaN mask is made.
    """
    if agg == "count":
        return segments.ends - segments.starts
    kernel = _KERNELS[agg]
    out = np.empty(len(segments.starts), dtype=np.float64)
    for g, rows in enumerate(segments.rows()):
        out[g] = kernel(values[rows])
    return out


class GroupedFrame:
    """A frame partitioned by one or more key columns."""

    def __init__(self, frame: Frame, keys: Sequence[str]) -> None:
        self._frame = frame
        self._keys = list(keys)
        self._codes, self._key_tuples = frame.encode_keys(self._keys)
        self._segments = _Segments(self._codes, len(self._key_tuples))

    @property
    def keys(self) -> list[str]:
        """The grouping column names."""
        return list(self._keys)

    def __len__(self) -> int:
        return len(self._key_tuples)

    def _group_items(self) -> Iterator[tuple[tuple[Any, ...], np.ndarray]]:
        """Each key tuple with its ascending row indices."""
        return zip(self._key_tuples, self._segments.rows())

    def aggregate(self, **specs: _AggSpec) -> Frame:
        """Aggregate each group into one output row.

        Each keyword is an output column named by the keyword, whose value
        is ``(source_column, agg)`` where ``agg`` is a built-in name or a
        callable over the group's raw value array.
        """
        if not specs:
            raise FrameError("aggregate() needs at least one aggregation spec")
        resolved: list[tuple[str, str, "str | None", Callable[[np.ndarray], Any]]] = []
        for out_name, (src, agg) in specs.items():
            self._frame.column(src)  # validate early
            if callable(agg):
                resolved.append((out_name, src, None, agg))
                continue
            try:
                fn = _BUILTINS[agg]
            except KeyError:
                raise FrameError(
                    f"unknown aggregation {agg!r}; "
                    f"available: {sorted(_BUILTINS)}"
                ) from None
            resolved.append((out_name, src, agg, fn))

        n_groups = len(self._key_tuples)
        cols = [
            Column(kname, list(kvals))
            for kname, kvals in zip(self._keys, zip(*self._key_tuples))
        ] if n_groups else [Column(kname, []) for kname in self._keys]

        seg = self._segments
        for out_name, src, agg_name, fn in resolved:
            col = self._frame.column(src)
            if n_groups == 0:
                cols.append(Column(out_name, []))
            elif agg_name in _FAST_AGGS and col.kind != KIND_OBJECT:
                cols.append(Column(out_name, _grouped_fast(col.values, seg, agg_name)))
            else:
                # col[rows] gathers an encoded column through its codes.
                cols.append(Column(out_name, [fn(col[rows]) for rows in seg.rows()]))
        return Frame(cols)

    def apply(self, fn: Callable[[tuple[Any, ...], Frame], dict[str, Any]]) -> Frame:
        """Map each ``(key, group_frame)`` to an output record."""
        records = [fn(key, self._frame.take(idx)) for key, idx in self._group_items()]
        return Frame.from_records(records)


def group_by(frame: Frame, keys: Sequence[str] | str) -> GroupedFrame:
    """Partition *frame* by one or more key columns."""
    if isinstance(keys, str):
        keys = [keys]
    for k in keys:
        frame.column(k)
    return GroupedFrame(frame, keys)


def pivot_grid(
    frame: Frame,
    index: str,
    columns: str,
    values: str,
    agg: str = "mean",
) -> tuple[list[Any], list[Any], np.ndarray]:
    """Spread *values* into a grid: ``(row_keys, col_keys, grid)``.

    Row keys are the distinct *index* values sorted by value (object
    keys by ``str``, matching :meth:`Frame.sort_by`); column keys are
    the distinct *columns* values in first-appearance order.  ``grid``
    is a dense float matrix with NaN in unobserved cells.  Observed
    cells are aggregated with one grouped kernel and scattered with a
    single fancy-indexed assignment; the row codes are remapped through
    the sort permutation *before* the scatter, so the grid lands
    already ordered.  :func:`repro.synthcontrol.build_panel` reads the
    grid as its panel.
    """
    agg_fn = _BUILTINS.get(agg)
    if agg_fn is None:
        raise FrameError(f"unknown aggregation {agg!r}")
    row_codes, row_keys = frame.column(index).factorize()
    col_codes, col_keys = frame.column(columns).factorize()
    vals = frame.numeric(values)
    grid = np.full((len(row_keys), len(col_keys)), np.nan)
    if not frame.num_rows:
        return row_keys, col_keys, grid

    if frame.column(index).kind == KIND_OBJECT:
        sort_keys = np.array([str(v) for v in row_keys])
    else:
        sort_keys = np.asarray(row_keys)
    by_value = np.argsort(sort_keys, kind="stable")
    row_keys = [row_keys[i] for i in by_value]
    n_cols = len(col_keys)
    cell_dtype = code_dtype(len(row_keys) * n_cols)
    rank = np.empty(len(by_value), dtype=cell_dtype)
    rank[by_value] = np.arange(len(by_value))

    # One cell-code buffer, as narrow as the grid's cell count allows:
    # the row remap, the multiply and the add write into it, and its
    # group order (:func:`group_order`) both orders the rows by cell and
    # bounds every cell, so the occupied cells come out in ascending
    # flat order.
    cells = np.empty(frame.num_rows, dtype=cell_dtype)
    # np.take widens its indices to intp: a chunk at a time.
    for lo in range(0, frame.num_rows, _CHUNK_ROWS):
        hi = lo + _CHUNK_ROWS
        np.take(rank, row_codes[lo:hi], out=cells[lo:hi], mode="clip")
    if len(row_keys) > 1:
        np.multiply(cells, cell_dtype.type(n_cols), out=cells)
    np.add(cells, col_codes, out=cells, casting="unsafe")
    order, bounds = group_order(cells, len(row_keys) * n_cols)
    del cells
    occupied = np.flatnonzero(bounds[1:] != bounds[:-1])
    segments = _Segments.from_parts(order, bounds[occupied], bounds[occupied + 1])
    if agg in _FAST_AGGS:
        cell_values = _grouped_fast(vals, segments, agg).astype(np.float64, copy=False)
    else:
        cell_values = np.array(
            [_none_to_nan(agg_fn(vals[rows])) for rows in segments.rows()],
            dtype=np.float64,
        )
    grid.flat[occupied] = cell_values
    return row_keys, col_keys, grid


def _none_to_nan(value: Any) -> float:
    return np.nan if value is None else float(value)
