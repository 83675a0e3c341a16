"""Ingestion layer: time-ordered measurement batches.

A live deployment receives measurements as users take them; the replay
driver here simulates that regime from the deterministic generators in
:mod:`repro.mplatform`.  The full scenario frame is generated **once**
and then sliced by measurement hour — the generator draws noise per
⟨group, routing-state⟩ pool rather than per hour, so slicing an
already-generated frame is the only way the streamed union can equal
the batch frame value-for-value (which the engine's bit-parity
guarantee rests on).

Slicing is one group order (:func:`repro.frames.groupby.group_order`)
of narrow per-row slice ids, so cutting a frame into hundreds of
per-hour batches stays ``O(N log N)`` total, not ``O(N x batches)``.
Rows keep their original relative order inside each batch.

A batch cut from a feed copies no column: it holds the feed itself and
its rows' positions, a view into that one narrow
(:func:`~repro.frames.column.code_dtype` of the row count) order, so a
sliced feed costs one small index per row on top of the feed.  The
slice ids (:func:`repro.frames.groupby.cut_codes`) are one byte per row
up to 256 slices, and both they and the order are built chunk by
chunk: no row-length ``int64`` array is made.  Each batch keeps its
feed alive.
:attr:`MeasurementBatch.frame` gathers the rows when it is read and
caches nothing; the engine reads it once per ingest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FrameError
from repro.frames.frame import Frame
from repro.frames.groupby import _Segments, cut_codes


@dataclass(frozen=True, eq=False)
class MeasurementBatch:
    """One time-slice of measurements, as the ingestion layer sees it.

    Attributes
    ----------
    index:
        Position in the stream (0-based, contiguous — empty slices are
        dropped before numbering, so resume bookkeeping is dense).
    start_hour, end_hour:
        Smallest and largest measurement hour in the batch (inclusive).
    feed:
        The frame the batch's rows live in: the whole sliced feed, or
        a standalone frame holding just this batch.  The batch keeps it
        alive.
    rows:
        Positions of the batch's rows in *feed*, in feed order; ``None``
        means every row of *feed*.

    Equality is identity (``eq=False``): a field-wise comparison would
    compare the feed frame and the row array element by element.
    """

    index: int
    start_hour: float
    end_hour: float
    feed: Frame = field(repr=False)
    rows: np.ndarray | None = field(default=None, repr=False)

    @property
    def frame(self) -> Frame:
        """The batch's measurement rows, gathered from the feed on each read."""
        return self.feed if self.rows is None else self.feed.take(self.rows)

    @property
    def n_rows(self) -> int:
        """Number of measurement rows in this batch."""
        return self.feed.num_rows if self.rows is None else len(self.rows)


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
    return _gather_batches(frame, hours, cuts)


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
    return _gather_batches(frame, hours, cuts)


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
    frame: Frame, hours: np.ndarray, cuts: np.ndarray
) -> list[MeasurementBatch]:
    """Cut batches at the sorted interior *cuts* in one ordered pass.

    Every batch's rows are a view into the one narrow, stable slice
    order; no column is copied.
    """
    # Row -> slice id: the number of interior cut points at or below the
    # row's hour.  Rows exactly on a cut go right, deterministically.
    slices = _Segments(cut_codes(hours, cuts), len(cuts) + 1)  # stable per slice
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
                feed=frame,
                rows=rows,
            )
        )
    return batches
