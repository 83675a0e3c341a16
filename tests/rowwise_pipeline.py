"""Row-wise reference implementations of the pipeline stages.

The pre-vectorization crossing detector, treatment scan, and panel
builder, preserved verbatim: per-row string splits, a fresh O(rows)
boolean mask per unit, and the wide-frame pivot round-trip.  The parity
tests and ``benchmarks/test_bench_analysis.py`` measure and compare the
vectorized pipeline against these; they live with the tests because
production code never imports them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FrameError
from tests import rowwise_frames as rowwise
from repro.frames.frame import Frame
from repro.pipeline.crossing import TreatmentAssignment
from repro.synthcontrol.donor import Panel


def crossing_mask(frame: Frame, ixp_name: str) -> np.ndarray:
    """Per-row split/match (the old ``crossing_mask``)."""
    if "ixps" not in frame:
        raise FrameError("frame has no 'ixps' column; is this a measurement frame?")
    ixps = frame.column("ixps").values
    return np.array(
        [ixp_name in str(v).split(",") if v else False for v in ixps], dtype=bool
    )


def assign_treatment(
    frame: Frame,
    ixp_name: str,
    min_crossing_share: float = 0.5,
    window_hours: float = 24.0,
) -> TreatmentAssignment:
    """Per-unit mask rebuild scan (the old ``assign_treatment``)."""
    if not 0 < min_crossing_share <= 1:
        raise FrameError("min_crossing_share must be in (0, 1]")
    crosses = crossing_mask(frame, ixp_name)
    units = frame.column("unit").values
    hours = frame.numeric("time_hour")

    first: dict[str, float] = {}
    never: list[str] = []
    for unit in sorted({str(u) for u in units}):
        sel = np.array([str(u) == unit for u in units])
        unit_hours = hours[sel]
        unit_cross = crosses[sel]
        order = np.argsort(unit_hours)
        unit_hours = unit_hours[order]
        unit_cross = unit_cross[order]
        candidate = None
        for i in np.flatnonzero(unit_cross):
            t0 = unit_hours[i]
            in_window = (unit_hours >= t0) & (unit_hours < t0 + window_hours)
            if in_window.sum() == 0:
                continue
            share = float(unit_cross[in_window].mean())
            if share >= min_crossing_share:
                candidate = float(t0)
                break
        if candidate is None:
            never.append(unit)
        else:
            first[unit] = candidate
    return TreatmentAssignment(
        ixp_name=ixp_name,
        first_crossing_hour=first,
        never_crossed=tuple(never),
    )


def build_panel(
    data: Frame,
    unit: str,
    time: str,
    outcome: str,
    agg: str = "median",
) -> Panel:
    """Wide-frame pivot + re-read (the old ``build_panel``)."""
    wide, unit_keys = rowwise.pivot(data, index=time, columns=unit, values=outcome, agg=agg)
    ordered = wide.sort_by(time)
    times = tuple(ordered.column(time).to_list())
    units = tuple(str(k) for k in unit_keys)
    cols = [ordered.numeric(str(k)) for k in unit_keys]
    matrix = np.column_stack(cols) if cols else np.empty((len(times), 0))
    return Panel(times=times, units=units, matrix=matrix)
