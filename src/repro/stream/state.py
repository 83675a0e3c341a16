"""Incremental state layer: panels and treatment assignment, batch by batch.

Two accumulators mirror the batch pipeline's first two stages —
:func:`~repro.pipeline.aggregate.rtt_panel` and
:func:`~repro.pipeline.crossing.assign_treatment` — but absorb one
measurement batch at a time:

- :class:`PanelAccumulator` maintains the ⟨unit, day⟩ median panel.  It
  keeps per-cell raw-value buffers so a dirty cell's median is
  recomputed with exactly the batch kernel's formula over the cell's
  *full* value multiset (medians do not compose across batches; the
  buffers are the price of bit-parity), and extends the
  :class:`~repro.synthcontrol.donor.Panel` through
  :meth:`~repro.synthcontrol.donor.Panel.apply_batch` — a batch-sized
  scatter, never a full rebuild.
- :class:`AssignmentAccumulator` maintains each unit's first sustained
  IXP crossing.  A unit touched by a batch has its candidate recomputed
  over its full (merged, hour-sorted) history — new rows landing inside
  an earlier candidate's debounce window can flip a previous pass or
  fail, so a suffix-only recompute would be wrong.

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

from repro.frames.column import code_dtype
from repro.frames.frame import Frame
from repro.frames.groupby import _Segments
from repro.pipeline.crossing import (
    TreatmentAssignment,
    _first_sustained_crossing,
    crossing_mask,
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
    n_new_times, n_new_units:
        Axis growth this batch caused.
    edited_old_times:
        True when some dirty cell sits on a day the panel already had —
        i.e. an *existing* matrix row changed.
    oldest_edited_time:
        The oldest such pre-existing day, or ``None`` when the batch
        edited none.  An edit older than the panel's newest pre-batch
        day rewrote a row that warm-started donor SVDs treat as sealed.
    """

    dirty_units: tuple[str, ...]
    n_dirty_cells: int
    n_new_times: int
    n_new_units: int
    edited_old_times: bool
    oldest_edited_time: Any = None


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
            return PanelDelta((), 0, 0, 0, False)
        codes, keys = frame.encode_keys(["unit", "day"])
        vals = frame.numeric(self._outcome)
        segments = _Segments(codes, len(keys))

        # Pass 1 — register axes and stash this batch's values per cell.
        # Iterating keys in first-appearance order registers new units in
        # the same order the batch pivot's unit factorize would.
        oldest_edited: Any = None
        n_new_units = 0
        fresh_times: dict[Any, None] = {}
        dirty_units: dict[str, None] = {}
        cell_ids: list[tuple[int, Any]] = []
        for g, (unit_raw, day) in enumerate(keys):
            label = str(unit_raw)
            pos = self._unit_pos.get(label)
            if pos is None:
                pos = self._unit_pos[label] = len(self._units)
                self._units.append(label)
                n_new_units += 1
            dirty_units[label] = None
            if day in self._time_pos:
                if oldest_edited is None or day < oldest_edited:
                    oldest_edited = day
            else:
                fresh_times[day] = None
            chunk = vals[segments.order[segments.starts[g] : segments.ends[g]]]
            cell = (pos, day)
            cell_ids.append(cell)
            buffer = self._cells.get(cell)
            if buffer is None:
                self._cells[cell] = [chunk]
            else:
                buffer.append(chunk)

        # Extend the time axis (sorted, like the pivot's sort_index).
        n_new_times = len(fresh_times)
        if n_new_times:
            self._times = sorted(self._times + list(fresh_times))
            self._time_pos = {t: i for i, t in enumerate(self._times)}

        # Pass 2 — recompute each dirty cell's median over its full
        # multiset, with the batch kernel's exact formula: sort (NaN
        # last), middle two of the valid count.
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
            ss = np.sort(merged)  # NaN sorts last
            k = len(merged) - int(np.isnan(merged).sum())
            medians[i] = np.nan if k == 0 else (ss[(k - 1) // 2] + ss[k // 2]) / 2.0
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
        return PanelDelta(
            dirty_units=tuple(dirty_units),
            n_dirty_cells=n_dirty,
            n_new_times=n_new_times,
            n_new_units=n_new_units,
            edited_old_times=oldest_edited is not None,
            oldest_edited_time=oldest_edited,
        )


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
        # Per unit, sorted ascending: views ``buf[:n]`` of growable
        # buffers (see :meth:`_append`), so a pure append costs O(batch).
        self._hours: dict[str, np.ndarray] = {}
        self._cross: dict[str, np.ndarray] = {}
        self._buffers: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._first: dict[str, float] = {}
        self._any_cross: set[str] = set()  # units with >= 1 crossing row ever

    def apply(self, frame: Frame) -> tuple[str, ...]:
        """Absorb one batch; returns the units whose history it touched."""
        if frame.num_rows == 0:
            return ()
        crosses = crossing_mask(frame, self.ixp_name)
        codes, uniques = frame.column("unit").factorize()
        hours = frame.numeric("time_hour")

        # Merge factorize codes that share a string label, like the batch
        # path does (its historical scan compared str(u)).
        labels = [str(u) for u in uniques]
        gid_of: dict[str, int] = {}
        names: list[str] = []
        gid_map = np.empty(len(labels), dtype=code_dtype(len(labels)))
        for i, label in enumerate(labels):
            gid = gid_of.get(label)
            if gid is None:
                gid = gid_of[label] = len(names)
                names.append(label)
            gid_map[i] = gid
        segments = _Segments(gid_map[codes], len(names))

        for g, label in enumerate(names):
            rows = segments.order[segments.starts[g] : segments.ends[g]]
            batch_hours = hours[rows]
            batch_cross = crosses[rows]
            hour_order = np.argsort(batch_hours, kind="stable")
            batch_hours = batch_hours[hour_order]
            batch_cross = batch_cross[hour_order]
            known = self._hours.get(label)
            if known is None:
                self._store(label, batch_hours, batch_cross)
            elif batch_hours[0] >= known[-1]:
                # Pure append — the live-feed steady state.
                self._append(label, batch_hours, batch_cross)
            else:
                # Sorted-merge insert: O(history) memcpy, no re-sort.  Ties
                # land left of existing equal hours — immaterial, the
                # debounce windows cut on hour values.
                at = np.searchsorted(known, batch_hours, side="left")
                self._store(
                    label,
                    np.insert(known, at, batch_hours),
                    np.insert(self._cross[label], at, batch_cross),
                )
            if batch_cross.any():
                self._any_cross.add(label)
            elif label not in self._any_cross:
                # No crossing row in the whole history: trivially never
                # sustained.  This skips the scan for every donor unit.
                continue
            cached = self._first.get(label)
            if cached is not None and batch_hours[0] >= cached + self._window:
                # Every new hour lies past the cached decision's debounce
                # window, so neither that window nor any earlier (failed)
                # candidate window gained or lost rows: the first
                # sustained crossing cannot have moved.  Exact skip.
                continue
            candidate = _first_sustained_crossing(
                self._hours[label], self._cross[label], self._share, self._window
            )
            if candidate is None:
                self._first.pop(label, None)
            else:
                self._first[label] = candidate
        return tuple(names)

    def _store(self, label: str, hours: np.ndarray, cross: np.ndarray) -> None:
        """Make *hours*/*cross* the unit's whole history (and its buffers)."""
        self._buffers[label] = (hours, cross)
        self._hours[label] = hours
        self._cross[label] = cross

    def _append(self, label: str, hours: np.ndarray, cross: np.ndarray) -> None:
        """Append in place, doubling the unit's buffers when they are full."""
        hour_buf, cross_buf = self._buffers[label]
        n = len(self._hours[label])
        end = n + len(hours)
        if end > len(hour_buf):
            capacity = max(2 * len(hour_buf), end)
            grown_hours = np.empty(capacity, dtype=hour_buf.dtype)
            grown_cross = np.empty(capacity, dtype=cross_buf.dtype)
            grown_hours[:n] = hour_buf[:n]
            grown_cross[:n] = cross_buf[:n]
            hour_buf, cross_buf = self._buffers[label] = (grown_hours, grown_cross)
        hour_buf[n:end] = hours
        cross_buf[n:end] = cross
        self._hours[label] = hour_buf[:end]
        self._cross[label] = cross_buf[:end]

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

