"""Ingestion layer: time-ordered measurement batches.

A live deployment receives measurements as users take them; the replay
driver here simulates that regime from the deterministic generators in
:mod:`repro.mplatform`.  The full scenario frame is generated **once**
and then sliced by measurement hour — the generator draws noise per
⟨group, routing-state⟩ pool rather than per hour, so slicing an
already-generated frame is the only way the streamed union can equal
the batch frame value-for-value (which the engine's bit-parity
guarantee rests on).

Slicing is one stable argsort of the per-row slice ids plus a count of
each slice's rows, so cutting a frame into hundreds of per-hour batches
stays ``O(N log N)`` total, not ``O(N x batches)``.  Rows keep their
original relative order inside each batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FrameError
from repro.frames.frame import Frame
from repro.frames.groupby import _Segments


@dataclass(frozen=True)
class MeasurementBatch:
    """One time-slice of measurements, as the ingestion layer sees it.

    Attributes
    ----------
    index:
        Position in the stream (0-based, contiguous — empty slices are
        dropped before numbering, so resume bookkeeping is dense).
    start_hour, end_hour:
        Smallest and largest measurement hour in the batch (inclusive).
    frame:
        The measurement rows, same columns as the full frame.
    """

    index: int
    start_hour: float
    end_hour: float
    frame: Frame = field(repr=False)

    @property
    def n_rows(self) -> int:
        """Number of measurement rows in this batch."""
        return self.frame.num_rows


def slice_frame(
    frame: Frame,
    *,
    n_batches: int | None = None,
    batch_hours: float | None = None,
    time_column: str = "time_hour",
) -> list[MeasurementBatch]:
    """Slice a measurement frame into time-ordered batches.

    Pass exactly one of *n_batches* (equal-width slices of the observed
    hour range) or *batch_hours* (fixed slice width in hours).  Every
    row lands in exactly one batch — the union of the slices equals the
    input as a multiset — and empty slices are dropped, with the
    surviving batches renumbered contiguously.
    """
    if (n_batches is None) == (batch_hours is None):
        raise FrameError("pass exactly one of n_batches / batch_hours")
    hours = frame.numeric(time_column)
    if not len(hours):
        raise FrameError("cannot slice an empty measurement frame")
    lo = float(hours.min())
    hi = float(hours.max())
    if batch_hours is not None:
        if batch_hours <= 0:
            raise FrameError(f"batch_hours must be positive, got {batch_hours}")
        # Anchor cuts at absolute multiples of the width, not at the
        # first observed hour: ``batch_hours=24.0`` then means calendar
        # days regardless of when the first measurement lands, so a
        # steady-state batch only ever *appends* panel windows instead
        # of straddling two and re-editing the earlier one.
        origin = float(np.floor(lo / batch_hours) * batch_hours)
        n = max(1, int(np.ceil((hi - origin) / batch_hours)))
        cuts = origin + batch_hours * np.arange(1, n)
    else:
        n = int(n_batches)
        if n < 1:
            raise FrameError(f"n_batches must be >= 1, got {n_batches}")
        cuts = lo + (hi - lo) * np.arange(1, n) / n
    # Row -> slice id: the number of interior cut points at or below the
    # row's hour.  Rows exactly on a cut go right, deterministically.
    ids = np.searchsorted(cuts, hours, side="right")
    return _gather_batches(frame, hours, ids, n)


def random_batches(
    frame: Frame,
    *,
    n_batches: int,
    seed: int,
    time_column: str = "time_hour",
) -> list[MeasurementBatch]:
    """Randomly sized time slices under a seed.

    Cut points are drawn uniformly over the observed hour range, so the
    slice widths vary arbitrarily while staying time-ordered — the
    adversarial splits the streaming-equivalence property test feeds
    the engine.  Deterministic for a given ``(frame, n_batches, seed)``.
    """
    if n_batches < 1:
        raise FrameError(f"n_batches must be >= 1, got {n_batches}")
    hours = frame.numeric(time_column)
    if not len(hours):
        raise FrameError("cannot slice an empty measurement frame")
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.uniform(float(hours.min()), float(hours.max()), n_batches - 1))
    ids = np.searchsorted(cuts, hours, side="right")
    return _gather_batches(frame, hours, ids, n_batches)


def replay_scenario(
    scenario,
    *,
    rng: int = 0,
    n_batches: int | None = None,
    batch_hours: float | None = None,
    endogenous: bool = True,
) -> tuple[Frame, list[MeasurementBatch]]:
    """Generate a scenario's measurements once and replay them as a feed.

    Returns ``(frame, batches)``: the full measurement frame (the batch
    path's input, kept for parity checks) and its time-ordered slices.
    """
    from repro.mplatform import measurements_frame

    frame = measurements_frame(scenario, rng=rng, endogenous=endogenous)
    return frame, slice_frame(frame, n_batches=n_batches, batch_hours=batch_hours)


def _gather_batches(
    frame: Frame, hours: np.ndarray, ids: np.ndarray, n: int
) -> list[MeasurementBatch]:
    """Materialize slice frames from per-row slice ids in one sorted pass."""
    slices = _Segments(ids, n)  # stable: original order kept per slice
    batches: list[MeasurementBatch] = []
    for start, end in zip(slices.starts, slices.ends):
        if start == end:
            continue
        rows = slices.order[start:end]
        slice_hours = hours[rows]
        batches.append(
            MeasurementBatch(
                index=len(batches),
                start_hour=float(slice_hours.min()),
                end_hour=float(slice_hours.max()),
                frame=frame.take(rows),
            )
        )
    return batches
