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
dense integer group codes, one stable argsort makes every group a
contiguous slice, and the hot aggregations (``count``/``sum``/``mean``/
``median``/``min``/``max`` over numeric columns) run as grouped array
kernels over those slices — NaN handling happens once per column, and
the median uses a single per-group value sort instead of a Python loop.
Numeric results come back as plain Python floats (``count`` stays int);
callables and the remaining builtins see exactly the per-group value
arrays the row-wise path produced, in the same row order.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
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


class _Segments:
    """Contiguous group slices of the rows in group-code order.

    ``order[starts[g]:ends[g]]`` are group *g*'s rows, ascending.
    """

    __slots__ = ("order", "starts", "ends")

    def __init__(self, codes: np.ndarray, n_groups: int) -> None:
        # A stable sort of the narrowed codes is the same permutation;
        # the bounds come from the group sizes.
        self.order = np.argsort(narrow_codes(codes, n_groups), kind="stable")
        bounds = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(np.bincount(codes, minlength=n_groups), out=bounds[1:])
        self.starts = bounds[:-1]
        self.ends = bounds[1:]

    @classmethod
    def from_parts(
        cls, order: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> "_Segments":
        """Wrap precomputed sort/boundary arrays without re-sorting."""
        seg = cls.__new__(cls)
        seg.order = order
        seg.starts = starts
        seg.ends = ends
        return seg


def _median(values: np.ndarray, valid: int) -> float:
    """The grouped median of one group's float64 *values*.

    *valid* of them are not NaN.  Sorts *values* in place (NaN last)
    and averages the middle two valid ones; NaN when none is valid.
    """
    if valid == 0:
        return np.nan
    values.sort()
    return (values[(valid - 1) // 2] + values[valid // 2]) / 2.0


def _grouped_fast(
    values: np.ndarray,
    segments: _Segments,
    agg: str,
) -> np.ndarray:
    """One builtin over every group at once; NaN handled once per column.

    Returns a float64 array (NaN where the row-wise builtin returned
    ``None``), except ``count`` which returns int64 group sizes.  Sums,
    means and medians gather each group's values from its slice of the
    order, so no group-sorted copy of the column is made; min and max
    reduce over one.
    """
    starts, ends, order = segments.starts, segments.ends, segments.order
    if agg == "count":
        return ends - starts
    is_float = values.dtype.kind == "f"
    if agg in ("sum", "mean"):
        # Summing each group's gathered values keeps numpy's pairwise
        # summation — bit-identical to the historical per-group
        # np.sum/np.mean.
        out = np.empty(len(starts), dtype=np.float64)
        for g in range(len(starts)):
            seg = values[order[starts[g] : ends[g]]]
            if is_float:
                seg = seg[~np.isnan(seg)]
            if len(seg):
                out[g] = np.sum(seg) if agg == "sum" else np.mean(seg)
            else:
                out[g] = 0.0 if agg == "sum" else np.nan
        return out
    # median/min/max: NaN counts come from one reduceat over the
    # group-ordered NaN mask (skipped when the column has no NaN);
    # min/max reduce over NaN-neutralised gathered copies (min/max pick
    # an element, so association cannot change the result), and the
    # median sorts each group's values (NaN last) and picks middles by
    # the valid counts.
    sizes = ends - starts
    nan_mask = np.isnan(values) if is_float else None
    if nan_mask is not None and nan_mask.any():
        valid = sizes - np.add.reduceat(nan_mask[order], starts)  # bools add as ints
    else:
        nan_mask = None
        valid = sizes
    out = np.full(len(starts), np.nan)
    ok = valid > 0
    if not ok.any():
        return out
    if agg in ("min", "max"):
        gf = values[order].astype(np.float64, copy=False)
        if nan_mask is not None:
            gf[nan_mask[order]] = np.inf if agg == "min" else -np.inf
        reduce = np.minimum if agg == "min" else np.maximum
        out[ok] = reduce.reduceat(gf, starts)[ok]
    else:  # median
        for g in np.flatnonzero(ok):
            seg = np.asarray(values[order[starts[g] : ends[g]]], dtype=np.float64)
            out[g] = _median(seg, valid[g])
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

    def _group_items(self) -> list[tuple[tuple[Any, ...], np.ndarray]]:
        """Each key tuple with its ascending row indices."""
        seg = self._segments
        return [
            (key, seg.order[seg.starts[g] : seg.ends[g]])
            for g, key in enumerate(self._key_tuples)
        ]

    def groups(self) -> dict[tuple[Any, ...], Frame]:
        """Return each group's rows as its own frame."""
        return {k: self._frame.take(idx) for k, idx in self._group_items()}

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
        gathered_cache: dict[str, np.ndarray] = {}
        for out_name, src, agg_name, fn in resolved:
            col = self._frame.column(src)
            if n_groups == 0:
                cols.append(Column(out_name, []))
                continue
            if agg_name in _FAST_AGGS and col.kind != KIND_OBJECT:
                result = _grouped_fast(col.values, seg, agg_name)
                cols.append(Column(out_name, result))
                continue
            src_gathered = gathered_cache.get(src)
            if src_gathered is None:
                src_gathered = gathered_cache[src] = col.values[seg.order]
            values = [
                fn(src_gathered[seg.starts[g] : seg.ends[g]])
                for g in range(n_groups)
            ]
            cols.append(Column(out_name, values))
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
    sort_index: bool = False,
) -> tuple[list[Any], list[Any], np.ndarray]:
    """The core of :func:`pivot`: ``(row_keys, col_keys, grid)``.

    Row and column keys are the distinct values of their columns in
    first-appearance order; ``grid`` is a dense float matrix with NaN in
    unobserved cells.  Observed cells are aggregated with one grouped
    kernel and scattered with a single fancy-indexed assignment —
    :func:`repro.synthcontrol.build_panel` reads the grid directly
    instead of round-tripping through a wide frame.

    With *sort_index* the row keys come back sorted by value (object
    keys by ``str``, matching :meth:`Frame.sort_by`): the row codes are
    remapped through the sort permutation *before* the scatter, so the
    grid lands already ordered — there is no post-hoc row-gather copy.
    """
    agg_fn = _BUILTINS.get(agg)
    if agg_fn is None:
        raise FrameError(f"unknown aggregation {agg!r}")
    row_codes, row_keys = frame.column(index).factorize()
    col_codes, col_keys = frame.column(columns).factorize()
    vals = frame.numeric(values)

    n_cols = max(len(col_keys), 1)
    cell_dtype = code_dtype(len(row_keys) * n_cols)
    rank = None
    if sort_index and row_keys:
        if frame.column(index).kind == KIND_OBJECT:
            sort_keys = np.array([str(v) for v in row_keys])
        else:
            sort_keys = np.asarray(row_keys)
        order = np.argsort(sort_keys, kind="stable")
        rank = np.empty(len(order), dtype=cell_dtype)
        rank[order] = np.arange(len(order))
        row_keys = [row_keys[i] for i in order]

    grid = np.full((len(row_keys), len(col_keys)), np.nan)
    if frame.num_rows:
        # One cell-code buffer, as narrow as the grid's cell count
        # allows: the row remap, the multiply and the add write into it,
        # and one stable argsort of it (a radix sort up to 16 bits) both
        # orders the rows by cell and yields the occupied cells in
        # ascending flat order.
        cells = np.empty(frame.num_rows, dtype=cell_dtype)
        if rank is None:
            np.copyto(cells, row_codes, casting="unsafe")
        else:
            np.take(rank, row_codes, out=cells, mode="clip")
        if len(row_keys) > 1:
            np.multiply(cells, cell_dtype.type(n_cols), out=cells)
        np.add(cells, col_codes, out=cells, casting="unsafe")
        order = np.argsort(cells, kind="stable")
        sorted_cells = cells[order]
        del cells
        boundary = np.empty(len(sorted_cells), dtype=bool)
        boundary[0] = True
        boundary[1:] = sorted_cells[1:] != sorted_cells[:-1]
        starts = np.flatnonzero(boundary)
        occupied = sorted_cells[starts]
        del sorted_cells, boundary
        segments = _Segments.from_parts(
            order, starts, np.append(starts[1:], frame.num_rows)
        )
        if agg in _FAST_AGGS:
            cell_values = _grouped_fast(vals, segments, agg).astype(
                np.float64, copy=False
            )
        else:
            cell_values = np.array(
                [
                    _none_to_nan(agg_fn(vals[order[s:e]]))
                    for s, e in zip(segments.starts, segments.ends)
                ],
                dtype=np.float64,
            )
        grid.flat[occupied] = cell_values
    return row_keys, col_keys, grid


def _none_to_nan(value: Any) -> float:
    return np.nan if value is None else float(value)


def pivot(
    frame: Frame,
    index: str,
    columns: str,
    values: str,
    agg: str = "mean",
) -> tuple[Frame, list[Any]]:
    """Spread *values* into one output column per distinct *columns* value.

    Returns ``(wide_frame, column_keys)`` where ``wide_frame`` has the
    *index* column plus one float column per key (named ``str(key)``), and
    ``column_keys`` preserves the original key objects in column order.
    Missing cells are NaN.
    """
    row_keys, col_keys, grid = pivot_grid(frame, index, columns, values, agg)
    cols = [Column(index, row_keys)]
    for j, key in enumerate(col_keys):
        cols.append(Column(str(key), grid[:, j]))
    return Frame(cols), col_keys
