"""IXP-crossing detection and treatment timing.

Mirrors the paper's method: a measurement "crosses the IXP" when any
post-test traceroute hop IP matches an address the exchange announces;
a unit's *treatment time* is the first hour at which its measurements
start crossing.  Works from the measurement frame (string-matching the
``ixps`` column) so the logic is identical whether data came from the
simulator or from CSV-imported real measurements.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import FrameError
from repro.frames.column import code_dtype
from repro.frames.frame import Frame
from repro.frames.groupby import _Segments
from repro.obs import span

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TreatmentAssignment:
    """When (if ever) each unit first crossed the exchange.

    Attributes
    ----------
    ixp_name:
        The exchange analysed.
    first_crossing_hour:
        ``{unit_label: hour}`` for units that ever crossed.
    never_crossed:
        Unit labels that never crossed (the donor-pool candidates).
    """

    ixp_name: str
    first_crossing_hour: dict[str, float]
    never_crossed: tuple[str, ...]

    @property
    def treated_units(self) -> list[str]:
        """Units with a first-crossing time, sorted by that time."""
        return sorted(self.first_crossing_hour, key=lambda u: self.first_crossing_hour[u])

    def is_treated(self, unit: str) -> bool:
        """Whether the unit ever crossed the exchange."""
        return unit in self.first_crossing_hour


def _token_match(value: object, ixp_name: str) -> bool:
    """Whether one comma-joined ``ixps`` cell names the exchange."""
    return ixp_name in str(value).split(",") if value else False


def crossing_mask(frame: Frame, ixp_name: str) -> np.ndarray:
    """Boolean mask of rows whose traceroute crossed *ixp_name*.

    The ``ixps`` column holds comma-joined exchange names (possibly
    empty); exact token matching avoids substring false positives.  The
    column carries few distinct strings, so the rows are factorized once
    and the split/match runs per distinct value, not per row.  A
    generated frame stores the column as codes, which are its
    factorization: no per-row memo is built.
    """
    if "ixps" not in frame:
        raise FrameError("frame has no 'ixps' column; is this a measurement frame?")
    column = frame.column("ixps")
    codes, uniques = column.factorize()
    per_unique = np.array(
        [_token_match(v, ixp_name) for v in uniques], dtype=bool
    )
    if not len(uniques):
        return np.zeros(frame.num_rows, dtype=bool)
    return per_unique[codes]


def assign_treatment(
    frame: Frame,
    ixp_name: str,
    min_crossing_share: float = 0.5,
    window_hours: float = 24.0,
) -> TreatmentAssignment:
    """Find each unit's first *sustained* crossing of the exchange.

    A unit counts as treated from the first measurement hour after which
    at least *min_crossing_share* of its measurements in the following
    *window_hours* cross the exchange — a debouncing rule so a single
    transient detour does not flip a unit's status (the paper's "begin
    crossing" is likewise persistent membership, not a one-off).
    """
    if not 0 < min_crossing_share <= 1:
        raise FrameError("min_crossing_share must be in (0, 1]")
    with span("assignment", ixp=ixp_name, rows=frame.num_rows) as sp:
        result = _assign_treatment(frame, ixp_name, min_crossing_share, window_hours)
        sp.set(
            treated=len(result.first_crossing_hour),
            never_crossed=len(result.never_crossed),
        )
    logger.debug(
        "treatment assignment over %d rows: %d treated, %d never crossed %s",
        frame.num_rows,
        len(result.first_crossing_hour),
        len(result.never_crossed),
        ixp_name,
    )
    return result


def unit_rows(frame: Frame) -> Iterator[tuple[str, np.ndarray]]:
    """Each unit label with its rows of *frame*, ascending, in factorize order.

    Every row is sorted by unit in one stable pass — no per-unit
    O(rows) mask rebuilds — and that narrow order is the only
    row-length index: each unit's rows come from
    :meth:`~repro.frames.groupby._Segments.rows` as they are read.
    Factorize codes that share a string label (the historical scan
    compared ``str(u)``) are one unit.
    """
    codes, uniques = frame.column("unit").factorize()
    labels = [str(u) for u in uniques]
    names = list(dict.fromkeys(labels))
    if len(names) < len(labels):
        gid = {name: g for g, name in enumerate(names)}
        merge = np.array([gid[label] for label in labels], dtype=code_dtype(len(names)))
        codes = merge[codes]
    return zip(names, _Segments(codes, len(names)).rows())


def _assign_treatment(
    frame: Frame,
    ixp_name: str,
    min_crossing_share: float,
    window_hours: float,
) -> TreatmentAssignment:
    crosses = crossing_mask(frame, ixp_name)
    hours = frame.numeric("time_hour")

    # Each unit's rows are ordered by hour separately — cheaper than one
    # global lexsort, and the tie order among equal hours is immaterial:
    # the debounce windows cut on hour *values*, so they always cover
    # whole equal-hour runs and the share test sees the same counts
    # either way.
    first: dict[str, float] = {}
    never: list[str] = []
    for unit, rows in unit_rows(frame):
        if not crosses[rows].any():
            # No crossing row: never sustained, and no hour sort needed.
            never.append(unit)
            continue
        # The unit's rows in hour order, then its sorted hours and flags
        # gathered once: no unsorted copies stay alive beside them.
        rows = rows[np.argsort(hours[rows])]
        candidate = _first_sustained_crossing(
            hours[rows],
            crosses[rows],
            min_crossing_share,
            window_hours,
        )
        if candidate is None:
            never.append(unit)
        else:
            first[unit] = candidate
    # Units are decided independently; report them in label order.
    return TreatmentAssignment(
        ixp_name=ixp_name,
        first_crossing_hour=dict(sorted(first.items())),
        never_crossed=tuple(sorted(never)),
    )


def _first_sustained_crossing(
    unit_hours: np.ndarray,
    unit_cross: np.ndarray,
    min_crossing_share: float,
    window_hours: float,
) -> float | None:
    """Earliest crossing hour whose forward window clears the share test.

    *unit_hours* must be sorted ascending.  The debounce windows of every
    crossing row are evaluated at once: window edges come from two
    ``searchsorted`` calls and the in-window crossing counts from a
    cumulative sum, replacing the per-candidate mask scans.
    """
    cross_pos = np.flatnonzero(unit_cross)
    if not len(cross_pos):
        return None
    t0 = unit_hours[cross_pos]
    win_start = np.searchsorted(unit_hours, t0, side="left")
    win_end = np.searchsorted(unit_hours, t0 + window_hours, side="left")
    counts = win_end - win_start
    cum = np.cumsum(unit_cross.astype(np.int64))
    in_window = np.where(counts > 0, cum[np.maximum(win_end - 1, 0)], 0) - np.where(
        win_start > 0, cum[np.minimum(win_start, len(cum)) - 1], 0
    )
    valid = counts > 0
    shares = np.divide(
        in_window, counts, out=np.zeros(len(counts)), where=valid
    )
    ok = valid & (shares >= min_crossing_share)
    if not ok.any():
        return None
    return float(t0[int(np.argmax(ok))])
