"""Row-wise reference implementations of the frame kernels.

These are the pre-vectorization algorithms — per-row Python loops over
dict-of-lists accumulators — kept verbatim as an executable spec.  The
parity tests in ``tests/test_frames_rowwise_parity.py`` and the analysis
benchmark compare the vectorized kernels in :mod:`repro.frames.groupby`
against these functions; they are not
used by the pipeline itself.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.errors import FrameError
from repro.frames.column import Column
from repro.frames.frame import Frame


def _nan_safe(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "f":
        return values[~np.isnan(values)]
    return values


#: The historical builtin table, including its quirks: ``sum`` filters NaN
#: twice, ``min``/``max`` return numpy scalars.
ROWWISE_BUILTINS: dict[str, Callable[[np.ndarray], Any]] = {
    "count": lambda v: len(v),
    "sum": lambda v: float(np.sum(_nan_safe(v))) if len(_nan_safe(v)) else 0.0,
    "mean": lambda v: float(np.mean(_nan_safe(v))) if len(_nan_safe(v)) else None,
    "median": lambda v: float(np.median(_nan_safe(v))) if len(_nan_safe(v)) else None,
    "min": lambda v: _nan_safe(v).min() if len(_nan_safe(v)) else None,
    "max": lambda v: _nan_safe(v).max() if len(_nan_safe(v)) else None,
    "std": lambda v: float(np.std(_nan_safe(v), ddof=1)) if len(_nan_safe(v)) > 1 else None,
    "var": lambda v: float(np.var(_nan_safe(v), ddof=1)) if len(_nan_safe(v)) > 1 else None,
    "first": lambda v: v[0] if len(v) else None,
    "last": lambda v: v[-1] if len(v) else None,
    "nunique": lambda v: len({str(x) for x in v}),
}


def group_indices(
    frame: Frame, names: Sequence[str] | str
) -> dict[tuple[Any, ...], np.ndarray]:
    """Per-row tuple-hashing grouping (the old ``Frame.group_indices``)."""
    if isinstance(names, str):
        names = [names]
    cols = [frame.column(n).values for n in names]
    groups: dict[tuple[Any, ...], list[int]] = {}
    for i in range(frame.num_rows):
        key = tuple(c[i] for c in cols)
        groups.setdefault(key, []).append(i)
    return {k: np.asarray(v, dtype=np.int64) for k, v in groups.items()}


def aggregate(
    frame: Frame,
    keys: Sequence[str] | str,
    **specs: tuple[str, "str | Callable[[np.ndarray], Any]"],
) -> Frame:
    """Per-group Python-loop aggregation (the old ``GroupedFrame.aggregate``)."""
    if isinstance(keys, str):
        keys = [keys]
    if not specs:
        raise FrameError("aggregate() needs at least one aggregation spec")
    resolved: list[tuple[str, str, Callable[[np.ndarray], Any]]] = []
    for out_name, (src, agg) in specs.items():
        frame.column(src)
        if callable(agg):
            fn = agg
        else:
            try:
                fn = ROWWISE_BUILTINS[agg]
            except KeyError:
                raise FrameError(f"unknown aggregation {agg!r}") from None
        resolved.append((out_name, src, fn))

    groups = group_indices(frame, keys)
    key_values: dict[str, list[Any]] = {k: [] for k in keys}
    out_values: dict[str, list[Any]] = {name: [] for name, _, _ in resolved}
    for key, idx in groups.items():
        for kname, kval in zip(keys, key):
            key_values[kname].append(kval)
        for out_name, src, fn in resolved:
            vals = frame.column(src).values[idx]
            out_values[out_name].append(fn(vals))

    cols = [Column(k, v) for k, v in key_values.items()]
    cols.extend(Column(name, vals) for name, vals in out_values.items())
    return Frame(cols)


def pivot(
    frame: Frame,
    index: str,
    columns: str,
    values: str,
    agg: str = "mean",
) -> tuple[Frame, list[Any]]:
    """Per-row cell accumulation (the old ``repro.frames.groupby.pivot``)."""
    frame.column(index)
    frame.column(columns)
    frame.column(values)
    agg_fn = ROWWISE_BUILTINS.get(agg)
    if agg_fn is None:
        raise FrameError(f"unknown aggregation {agg!r}")

    col_keys = frame.column(columns).unique()
    row_keys = frame.column(index).unique()
    row_pos = {k: i for i, k in enumerate(row_keys)}
    col_pos = {k: j for j, k in enumerate(col_keys)}

    cells: dict[tuple[int, int], list[float]] = {}
    idx_vals = frame.column(index).values
    col_vals = frame.column(columns).values
    val_vals = frame.numeric(values)
    for i in range(frame.num_rows):
        key = (row_pos[idx_vals[i]], col_pos[col_vals[i]])
        cells.setdefault(key, []).append(val_vals[i])

    grid = np.full((len(row_keys), len(col_keys)), np.nan)
    for (r, c), vals in cells.items():
        agged = agg_fn(np.asarray(vals, dtype=float))
        grid[r, c] = np.nan if agged is None else float(agged)

    cols = [Column(index, row_keys)]
    for j, key in enumerate(col_keys):
        cols.append(Column(str(key), grid[:, j]))
    return Frame(cols), col_keys

