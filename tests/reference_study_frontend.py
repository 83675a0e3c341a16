"""Reference study front end: treatment assignment and the panel pivot.

These are the earlier array implementations of
:func:`repro.pipeline.crossing.assign_treatment`,
:func:`repro.frames.groupby.pivot_grid` and
:func:`repro.frames.column.dense_rank`, kept as an executable spec.
They make every row-length temporary the current code avoids — an
``int64`` group id per row and its sorted copy, hours and crossing
flags gathered into unit order, an ``int64`` cell code per row, a
sorted copy of it, the values gathered into cell order and an
``int64`` NaN count per row — and sort the wide ``int64`` keys and
raw int values.
``tests/test_study_frontend.py`` checks that the current code returns
the same assignments (insertion order included) and byte-identical
grids.  They are not used by the pipeline itself.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.frames.column import KIND_OBJECT
from repro.frames.frame import Frame
from repro.pipeline.crossing import (
    TreatmentAssignment,
    _first_sustained_crossing,
    crossing_mask,
)

#: The aggregations the grouped kernel below covers.
FAST_AGGS = ("count", "sum", "mean", "median", "min", "max")


def dense_rank(
    values: np.ndarray, nan_equal: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """First-appearance dense codes from a stable sort of the raw values."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    sv = values[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    neq = sv[1:] != sv[:-1]
    if nan_equal:
        neq &= ~(np.isnan(sv[1:]) & np.isnan(sv[:-1]))
    boundary[1:] = neq
    starts = np.flatnonzero(boundary)
    first_idx = order[starts]
    appearance = np.argsort(first_idx, kind="stable")
    n_groups = len(starts)
    rank = np.empty(n_groups, dtype=np.int64)
    rank[appearance] = np.arange(n_groups, dtype=np.int64)
    codes = np.empty(n, dtype=np.int64)
    codes[order] = rank[np.cumsum(boundary) - 1]
    return codes, first_idx[appearance]


def assign_treatment(
    frame: Frame,
    ixp_name: str,
    min_crossing_share: float = 0.5,
    window_hours: float = 24.0,
) -> TreatmentAssignment:
    """Group ids per row, one stable int64 sort, unit-ordered copies."""
    crosses = crossing_mask(frame, ixp_name)
    unit_col = frame.column("unit")
    hours = frame.column("time_hour").values.astype(np.float64)

    codes, uniques = unit_col.factorize()
    labels = [str(u) for u in uniques]
    names = sorted(set(labels))
    gid_of_name = {name: g for g, name in enumerate(names)}
    gid_of_code = np.array([gid_of_name[lab] for lab in labels], dtype=np.int64)
    gids = gid_of_code[codes] if len(codes) else np.empty(0, dtype=np.int64)

    order = np.argsort(gids, kind="stable")
    hours_g = hours[order]
    crosses_g = crosses[order]
    bounds = np.searchsorted(
        gids[order], np.arange(len(names) + 1, dtype=np.int64), side="left"
    )

    first: dict[str, float] = {}
    never: list[str] = []
    for g, unit in enumerate(names):
        start, end = bounds[g], bounds[g + 1]
        slice_hours = hours_g[start:end]
        hour_order = np.argsort(slice_hours)
        candidate = _first_sustained_crossing(
            slice_hours[hour_order],
            crosses_g[start:end][hour_order],
            min_crossing_share,
            window_hours,
        )
        if candidate is None:
            never.append(unit)
        else:
            first[unit] = candidate
    return TreatmentAssignment(
        ixp_name=ixp_name,
        first_crossing_hour=first,
        never_crossed=tuple(never),
    )


def _grouped_fast(
    values: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    agg: str,
) -> np.ndarray:
    """One builtin over every group, from one group-ordered copy."""
    if agg == "count":
        return ends - starts
    gathered = values[order]
    is_float = gathered.dtype.kind == "f"
    if agg in ("sum", "mean"):
        out = np.empty(len(starts), dtype=np.float64)
        for g in range(len(starts)):
            seg = gathered[starts[g] : ends[g]]
            if is_float:
                seg = seg[~np.isnan(seg)]
            if len(seg):
                out[g] = np.sum(seg) if agg == "sum" else np.mean(seg)
            else:
                out[g] = 0.0 if agg == "sum" else np.nan
        return out
    gf = gathered.astype(np.float64, copy=False)
    sizes = ends - starts
    if is_float:
        nan_mask = np.isnan(gf)
        valid = sizes - np.add.reduceat(nan_mask.astype(np.int64), starts)
    else:
        nan_mask = None
        valid = sizes
    out = np.full(len(starts), np.nan)
    ok = valid > 0
    if not ok.any():
        return out
    if agg == "min":
        filled = np.where(nan_mask, np.inf, gf) if nan_mask is not None else gf
        out[ok] = np.minimum.reduceat(filled, starts)[ok]
    elif agg == "max":
        filled = np.where(nan_mask, -np.inf, gf) if nan_mask is not None else gf
        out[ok] = np.maximum.reduceat(filled, starts)[ok]
    else:  # median
        for g in np.flatnonzero(ok):
            ss = np.sort(gf[starts[g] : ends[g]])  # NaN sorts last
            k = valid[g]
            out[g] = (ss[(k - 1) // 2] + ss[k // 2]) / 2.0
    return out


def pivot_grid(
    frame: Frame,
    index: str,
    columns: str,
    values: str,
    agg: str = "median",
) -> tuple[list[Any], list[Any], np.ndarray]:
    """``(row_keys, col_keys, grid)`` from an int64 cell code per row, rows sorted."""
    row_codes, row_keys = frame.column(index).factorize()
    col_codes, col_keys = frame.column(columns).factorize()
    # factorize returns narrow codes; this reference works in int64.
    row_codes = row_codes.astype(np.int64)
    col_codes = col_codes.astype(np.int64)
    vals = frame.column(values).values.astype(np.float64)

    if row_keys:
        if frame.column(index).kind == KIND_OBJECT:
            sort_keys = np.array([str(v) for v in row_keys])
        else:
            sort_keys = np.asarray(row_keys)
        order = np.argsort(sort_keys, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order), dtype=np.int64)
        row_codes = rank[row_codes]
        row_keys = [row_keys[i] for i in order]

    grid = np.full((len(row_keys), len(col_keys)), np.nan)
    if frame.num_rows:
        combined = row_codes * max(len(col_keys), 1) + col_codes
        order = np.argsort(combined, kind="stable")
        sorted_comb = combined[order]
        boundary = np.empty(len(sorted_comb), dtype=bool)
        boundary[0] = True
        boundary[1:] = sorted_comb[1:] != sorted_comb[:-1]
        starts = np.flatnonzero(boundary)
        occupied = sorted_comb[starts]
        ends = np.append(starts[1:], len(sorted_comb))
        cells = _grouped_fast(vals, order, starts, ends, agg).astype(
            np.float64, copy=False
        )
        grid.flat[occupied] = cells
    return row_keys, col_keys, grid
