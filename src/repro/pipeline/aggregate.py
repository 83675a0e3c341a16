"""Aggregation of raw measurements into analysis panels.

The paper analyses median RTT per ⟨ASN, city⟩ per day.  These helpers
reduce a measurement frame with :func:`repro.frames.group_by`: to a
long table of per-unit daily medians, to the study's (days x units)
median panel (through :func:`repro.synthcontrol.build_panel`), and to
per-unit test counts.
"""

from __future__ import annotations

import logging

from repro.errors import FrameError
from repro.frames.frame import Frame
from repro.frames.groupby import group_by
from repro.obs import span
from repro.synthcontrol.donor import Panel, build_panel

logger = logging.getLogger(__name__)


def daily_median_rtt(frame: Frame) -> Frame:
    """Collapse measurements to per-unit daily median RTT.

    Returns columns ``unit, day, rtt_median, n_tests``.
    """
    for col in ("unit", "day", "rtt_ms"):
        if col not in frame:
            raise FrameError(f"measurement frame is missing column {col!r}")
    return group_by(frame, ["unit", "day"]).aggregate(
        rtt_median=("rtt_ms", "median"),
        n_tests=("rtt_ms", "count"),
    )


def rtt_panel(frame: Frame, outcome: str = "rtt_ms") -> Panel:
    """Pivot a measurement frame into a (days x units) median-outcome panel.

    *outcome* defaults to RTT; pass ``"download_mbps"`` for the
    throughput variant of the analysis.
    """
    if outcome not in frame:
        raise FrameError(f"measurement frame has no outcome column {outcome!r}")
    with span("panel", rows=frame.num_rows, outcome=outcome) as sp:
        panel = build_panel(
            frame, unit="unit", time="day", outcome=outcome, agg="median"
        )
        sp.set(times=panel.n_times, units=panel.n_units)
    logger.debug(
        "built %s panel: %d times x %d units from %d rows",
        outcome,
        panel.n_times,
        panel.n_units,
        frame.num_rows,
    )
    return panel


def measurement_volume(frame: Frame) -> Frame:
    """Tests per unit (a sampling-bias diagnostic): ``unit, n_tests, days``."""
    return group_by(frame, "unit").aggregate(
        n_tests=("rtt_ms", "count"),
        days=("day", "nunique"),
        rtt_median=("rtt_ms", "median"),
    )

