"""Incremental state layer: panels and treatment assignment, batch by batch.

Two accumulators mirror the batch pipeline's first two stages —
:func:`~repro.pipeline.aggregate.rtt_panel` and
:func:`~repro.pipeline.crossing.assign_treatment` — but absorb one
measurement batch at a time:

- :class:`PanelAccumulator` maintains the ⟨unit, day⟩ median panel.  It
  keeps per-cell raw-value buffers so a dirty cell's median is
  recomputed with the batch kernel's own median over the cell's *full*
  value multiset (medians do not compose across batches; the buffers
  are the price of bit-parity), and extends the
  :class:`~repro.synthcontrol.donor.Panel` through
  :meth:`~repro.synthcontrol.donor.Panel.apply_batch` — a batch-sized
  scatter, never a full rebuild.
- :class:`AssignmentAccumulator` maintains each unit's first sustained
  IXP crossing.  Each unit keeps its hours as the batches' chunks, plus
  crossing flags once it has crossed.  A touched unit that has crossed
  has its candidate recomputed over its full history, sorted by hour
  then — new rows landing inside an earlier candidate's debounce window
  can flip a previous pass or fail, so a suffix-only recompute would be
  wrong.  A unit that has never crossed (most donors, for the whole
  stream) cannot have a candidate, so its chunks are never sorted.

Both reproduce the batch stage's output exactly on any prefix of the
stream: the panel because median cells depend only on value multisets,
the assignment because the debounce windows cut on hour *values* (tie
order immaterial) and :meth:`AssignmentAccumulator.assignment` builds
its dicts in the batch path's sorted-name insertion order (which
``treated_units``' stable sort exposes on tied first-crossing hours).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.frames.frame import Frame
from repro.frames.groupby import _median, _Segments
from repro.pipeline.crossing import (
    TreatmentAssignment,
    _first_sustained_crossing,
    crossing_mask,
    unit_rows,
)
from repro.synthcontrol.donor import Panel, PanelUpdate


@dataclass(frozen=True)
class PanelDelta:
    """What one ingested batch changed in the panel.

    Attributes
    ----------
    dirty_units:
        Labels whose cells changed, in first-appearance order.
    n_dirty_cells:
        Number of ⟨unit, day⟩ cells rewritten.
    """

    dirty_units: tuple[str, ...]
    n_dirty_cells: int


class PanelAccumulator:
    """Incremental ⟨unit, day⟩ median panel over a measurement stream."""

    def __init__(self, *, outcome: str = "rtt_ms") -> None:
        self._outcome = outcome
        self._unit_pos: dict[str, int] = {}
        self._units: list[str] = []
        self._times: list[Any] = []  # kept sorted ascending
        self._time_pos: dict[Any, int] = {}
        # (unit_pos, day) -> raw value chunks; consolidated to one array
        # per cell at each recompute so memory stays one float per row.
        self._cells: dict[tuple[int, Any], list[np.ndarray]] = {}
        self._n_rows = 0
        self.panel = Panel(times=(), units=(), matrix=np.empty((0, 0)))

    @property
    def n_rows(self) -> int:
        """Measurement rows absorbed so far."""
        return self._n_rows

    def apply(self, frame: Frame) -> PanelDelta:
        """Absorb one batch and extend :attr:`panel`; returns the delta."""
        if frame.num_rows == 0:
            return PanelDelta((), 0)
        codes, keys = frame.encode_keys(["unit", "day"])
        vals = frame.numeric(self._outcome)
        segments = _Segments(codes, len(keys))

        # Pass 1 — register axes and stash this batch's values per cell.
        # Iterating keys in first-appearance order registers new units in
        # the same order the batch pivot's unit factorize would.
        fresh_times: dict[Any, None] = {}
        dirty_units: dict[str, None] = {}
        cell_ids: list[tuple[int, Any]] = []
        for (unit_raw, day), rows in zip(keys, segments.rows()):
            label = str(unit_raw)
            pos = self._unit_pos.get(label)
            if pos is None:
                pos = self._unit_pos[label] = len(self._units)
                self._units.append(label)
            dirty_units[label] = None
            if day not in self._time_pos:
                fresh_times[day] = None
            chunk = vals[rows]
            cell = (pos, day)
            cell_ids.append(cell)
            buffer = self._cells.get(cell)
            if buffer is None:
                self._cells[cell] = [chunk]
            else:
                buffer.append(chunk)

        # Extend the time axis (sorted, like the pivot's row keys).
        if fresh_times:
            self._times = sorted(self._times + list(fresh_times))
            self._time_pos = {t: i for i, t in enumerate(self._times)}

        # Pass 2 — recompute each dirty cell's median over its full
        # multiset, with the batch kernel's median.
        n_dirty = len(cell_ids)
        row_index = np.empty(n_dirty, dtype=np.int64)
        col_index = np.empty(n_dirty, dtype=np.int64)
        medians = np.empty(n_dirty, dtype=np.float64)
        for i, (pos, day) in enumerate(cell_ids):
            chunks = self._cells[(pos, day)]
            if len(chunks) > 1:
                merged = np.concatenate(chunks)
                self._cells[(pos, day)] = [merged]
            else:
                merged = chunks[0]
            medians[i] = _median(merged)
            row_index[i] = self._time_pos[day]
            col_index[i] = pos

        self.panel = self.panel.apply_batch(
            PanelUpdate(
                times=tuple(self._times),
                units=tuple(self._units),
                row_index=row_index,
                col_index=col_index,
                cells=medians,
            )
        )
        self._n_rows += frame.num_rows
        return PanelDelta(dirty_units=tuple(dirty_units), n_dirty_cells=n_dirty)


class AssignmentAccumulator:
    """Incremental first-sustained-crossing detection over a stream."""

    def __init__(
        self,
        ixp_name: str,
        *,
        min_crossing_share: float = 0.5,
        window_hours: float = 24.0,
    ) -> None:
        self.ixp_name = ixp_name
        self._share = min_crossing_share
        self._window = window_hours
        # Each unit's hours as chunks; its crossing flags, aligned with
        # the chunks, exist from the batch where it first crossed (its
        # earlier rows all read False).  A recompute leaves one sorted
        # chunk.
        self._hours: dict[str, list[np.ndarray]] = {}
        self._cross: dict[str, list[np.ndarray]] = {}
        self._first: dict[str, float] = {}

    def apply(self, frame: Frame) -> tuple[str, ...]:
        """Absorb one batch; returns the units whose history it touched."""
        if frame.num_rows == 0:
            return ()
        crosses = crossing_mask(frame, self.ixp_name)
        hours = frame.numeric("time_hour")
        touched: list[str] = []
        for label, rows in unit_rows(frame):
            touched.append(label)
            batch_hours = hours[rows]
            batch_cross = crosses[rows]
            chunks = self._hours.setdefault(label, [])
            flags = self._cross.get(label)
            if flags is None:
                if not batch_cross.any():
                    # No crossing row in the whole history so far:
                    # trivially never sustained.
                    chunks.append(batch_hours)
                    continue
                n_known = sum(len(chunk) for chunk in chunks)
                flags = self._cross[label] = [np.zeros(n_known, dtype=bool)]
            chunks.append(batch_hours)
            flags.append(batch_cross)
            cached = self._first.get(label)
            if cached is not None and batch_hours.min() >= cached + self._window:
                # Every new hour lies past the cached decision's debounce
                # window, so neither that window nor any earlier (failed)
                # candidate window gained or lost rows: the first
                # sustained crossing cannot have moved.  Exact skip.
                continue
            # Ties keep chunk order — immaterial, the debounce windows
            # cut on hour values.
            all_hours = np.concatenate(chunks)
            hour_order = np.argsort(all_hours, kind="stable")
            all_hours = all_hours[hour_order]
            all_cross = np.concatenate(flags)[hour_order]
            self._hours[label] = [all_hours]
            self._cross[label] = [all_cross]
            candidate = _first_sustained_crossing(
                all_hours, all_cross, self._share, self._window
            )
            if candidate is None:
                self._first.pop(label, None)
            else:
                self._first[label] = candidate
        return tuple(touched)

    def assignment(self) -> TreatmentAssignment:
        """The assignment over everything absorbed so far.

        Dict insertion order follows the batch path's sorted-name loop
        exactly — ``treated_units`` breaks first-crossing-hour ties by
        insertion order, so this is part of the bit-parity contract,
        not a style choice.
        """
        names = sorted(self._hours)
        first = {u: self._first[u] for u in names if u in self._first}
        never = tuple(u for u in names if u not in self._first)
        return TreatmentAssignment(
            ixp_name=self.ixp_name,
            first_crossing_hour=first,
            never_crossed=never,
        )

