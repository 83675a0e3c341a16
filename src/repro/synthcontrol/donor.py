"""Donor-pool construction from long-format measurement panels.

The paper's conditions: donors must (a) not receive the treatment
themselves (no path through the IXP), and (b) track the treated unit's
pre-change behaviour.  :func:`build_panel` pivots a long frame into an
aligned unit x time matrix; :func:`select_donors` applies the
eligibility and correlation screens.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from collections.abc import Sequence
from functools import cached_property
from typing import Any

import numpy as np

from repro.errors import DonorPoolError
from repro.frames.frame import Frame
from repro.frames.groupby import pivot_grid
from repro.obs import span

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Panel:
    """An aligned outcome panel: times x units.

    Attributes
    ----------
    times:
        Sorted distinct time keys (rows of :attr:`matrix`).
    units:
        Unit labels (columns of :attr:`matrix`).
    matrix:
        float matrix of outcomes; NaN marks missing cells.
    """

    times: tuple[Any, ...]
    units: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)

    @cached_property
    def _unit_index(self) -> dict[str, int]:
        """unit -> column position, built once per panel.

        ``series`` is called inside every placebo refit; a linear
        ``tuple.index`` scan per call dominated at large donor counts.
        (``cached_property`` stores into ``__dict__`` directly, so it
        works on this frozen dataclass.)
        """
        return {u: j for j, u in enumerate(self.units)}

    def series(self, unit: str) -> np.ndarray:
        """The outcome series of one unit."""
        j = self._unit_index.get(unit)
        if j is None:
            raise DonorPoolError(f"unknown unit {unit!r}")
        return self.matrix[:, j]

    def without(self, units: Sequence[str]) -> "Panel":
        """Drop the named units (used to exclude treated units from donors)."""
        index = self._unit_index
        drop = {index[u] for u in units if u in index}
        keep = [j for j in range(len(self.units)) if j not in drop]
        return Panel(
            times=self.times,
            units=tuple(self.units[j] for j in keep),
            matrix=self.matrix[:, keep],
        )

    def missing_fraction(self, unit: str) -> float:
        """Share of missing cells in one unit's series."""
        s = self.series(unit)
        return float(np.mean(~np.isfinite(s)))

    @property
    def n_times(self) -> int:
        """Number of time points."""
        return len(self.times)

    @property
    def n_units(self) -> int:
        """Number of units."""
        return len(self.units)

    def apply_batch(self, update: "PanelUpdate") -> "Panel":
        """Extended panel with *update*'s cells scattered in — no rebuild.

        The old matrix block-copies into its (possibly shifted) row
        positions on the new axes, then the dirty cells land with one
        flat-index scatter — the same idiom :func:`pivot_grid` uses, on
        a batch-sized cell list instead of the whole history.  Existing
        units must keep their column positions (new units append on the
        right) and every existing time must survive into the new axis;
        cells not named by the update keep their old value, new cells
        default to NaN.
        """
        if tuple(update.units[: self.n_units]) != self.units:
            raise DonorPoolError(
                "apply_batch: existing units must keep their column positions"
            )
        n_times, n_units = len(update.times), len(update.units)
        matrix = np.full((n_times, n_units), np.nan)
        if self.n_times:
            position = {t: i for i, t in enumerate(update.times)}
            try:
                old_rows = np.array([position[t] for t in self.times], dtype=np.int64)
            except KeyError as exc:
                raise DonorPoolError(
                    f"apply_batch: time {exc.args[0]!r} missing from the new axis"
                ) from None
            matrix[old_rows[:, None], np.arange(self.n_units)] = self.matrix
        if len(update.row_index):
            flat = (
                np.asarray(update.row_index, dtype=np.int64) * n_units
                + np.asarray(update.col_index, dtype=np.int64)
            )
            matrix.flat[flat] = update.cells
        return Panel(times=tuple(update.times), units=tuple(update.units), matrix=matrix)


@dataclass(frozen=True)
class PanelUpdate:
    """One ingestion batch's worth of panel changes.

    Produced by the streaming state layer
    (:class:`repro.stream.PanelAccumulator`) and consumed by
    :meth:`Panel.apply_batch`: the full new axes plus the dirty
    ⟨time, unit⟩ cells with their recomputed aggregates.

    Attributes
    ----------
    times:
        The complete new time axis, sorted.
    units:
        The complete new unit axis; a superset of the old one with the
        old prefix unchanged.
    row_index, col_index, cells:
        Parallel arrays naming each dirty cell's position on the new
        axes and its new value.
    """

    times: tuple[Any, ...]
    units: tuple[str, ...]
    row_index: np.ndarray = field(repr=False)
    col_index: np.ndarray = field(repr=False)
    cells: np.ndarray = field(repr=False)

    @property
    def n_dirty(self) -> int:
        """Number of cells this update rewrites."""
        return len(self.cells)


def build_panel(
    data: Frame,
    unit: str,
    time: str,
    outcome: str,
    agg: str = "median",
) -> Panel:
    """Pivot long-format rows into a times x units panel.

    Multiple measurements per (unit, time) cell are reduced with *agg*
    (default median, matching the paper's median-RTT outcome).  The
    grouped-median grid from :func:`repro.frames.groupby.pivot_grid` is
    used directly; its rows come sorted by time.
    """
    time_keys, unit_keys, grid = pivot_grid(
        data, index=time, columns=unit, values=outcome, agg=agg
    )
    return Panel(
        times=tuple(time_keys), units=tuple(str(k) for k in unit_keys), matrix=grid
    )


def select_donors(
    panel: Panel,
    treated_unit: str,
    excluded: Sequence[str] = (),
    pre_periods: int | None = None,
    max_missing: float = 0.5,
    min_correlation: float | None = None,
    max_donors: int | None = None,
) -> list[str]:
    """Screen panel units into a donor pool for one treated unit.

    Filters, in order: the treated unit itself and *excluded* units
    (other treated units — SUTVA hygiene); units missing more than
    *max_missing* of their cells; units whose pre-period correlation
    with the treated series falls below *min_correlation*.  When
    *max_donors* is set, the best-correlated survivors are kept.
    """
    with span("donors.select", treated=treated_unit) as sp:
        treated_series = panel.series(treated_unit)
        pre = pre_periods if pre_periods is not None else panel.n_times
        banned = set(excluded) | {treated_unit}

        candidates: list[tuple[str, float]] = []
        for u in panel.units:
            if u in banned:
                continue
            if panel.missing_fraction(u) > max_missing:
                continue
            corr = _pre_correlation(treated_series[:pre], panel.series(u)[:pre])
            if min_correlation is not None and (
                not np.isfinite(corr) or corr < min_correlation
            ):
                continue
            candidates.append((u, corr))
        sp.set(candidates=panel.n_units - len(banned), selected=len(candidates))
        if not candidates:
            raise DonorPoolError(
                f"no eligible donors for {treated_unit!r} "
                f"(excluded={len(banned) - 1}, max_missing={max_missing})"
            )
        candidates.sort(
            key=lambda pair: (-(pair[1] if np.isfinite(pair[1]) else -2), pair[0])
        )
        if max_donors is not None:
            candidates = candidates[:max_donors]
            sp.set(selected=len(candidates))
        logger.debug(
            "donor screen for %s: %d selected of %d candidates",
            treated_unit,
            len(candidates),
            panel.n_units - len(banned),
        )
        return [u for u, _ in candidates]


def _pre_correlation(a: np.ndarray, b: np.ndarray) -> float:
    ok = np.isfinite(a) & np.isfinite(b)
    if ok.sum() < 3:
        return float("nan")
    av = a[ok]
    bv = b[ok]
    if av.std() == 0 or bv.std() == 0:
        return float("nan")
    return float(np.corrcoef(av, bv)[0, 1])
