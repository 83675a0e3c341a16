"""Incremental refit layer: warm-started per-unit robust fits.

After each ingested batch only a handful of units are dirty.  For each
one the :class:`LiveRefitter` refits the robust synthetic control,
reusing both the unit's cached donor pool and its cached
:class:`~repro.synthcontrol.robust.DonorFactorization` (through
:func:`~repro.synthcontrol.incremental.extend_factorization`).

The newest panel day is an *open* row: a batch shorter than a day keeps
rewriting it, while every earlier day is *sealed*.  Each unit caches the
factorization of its sealed rows only.  A refresh first warm-extends
that cache with any days sealed since the unit's last refresh, then
extends the result by the open row to get the full-matrix
factorization it fits on.  Both steps are the exact append identity of
:mod:`repro.synthcontrol.incremental`, so a warm refresh costs two
small-core SVDs instead of a donor screen plus a full factorization —
for day batches and for batches shorter than a day alike.  The cache
is reused only when the donor matrix's leading rows still equal the
cached filled block byte for byte, which is the identity's own
precondition; anything else — a changed value on a sealed day, a day
inserted inside the cached prefix, imputed cells in the sealed block, a
failed prior fit — falls back to the cold path: a fresh donor screen
and a full SVD of the sealed rows.  Either route feeds the same
downstream math, and on exact inputs both routes agree.

The fit and the p-value are the batch study's own code: a refresh
builds a placebo context on its warm factorization, fits with
:func:`~repro.synthcontrol.placebo.treated_fit` and turns the fit and
its cached placebo refits into a :class:`~repro.pipeline.study.StudyRow`
with :func:`~repro.pipeline.study.unit_row`, so a live unit is skipped
for the same reasons as in the finalized table.  What stays here is the
donor-pool cache, the warm/cold bookkeeping and the amortization.

Placebo inference is amortized.  A warm refresh recomputes the unit's
*effect* (denoise + ridge fit, well under a millisecond) every batch,
but the placebo RMSE-ratio ensemble — the study's kernel through
:func:`~repro.synthcontrol.placebo.placebo_outcomes` (one leave-one-out
sweep, power iteration for rank-1 cores and an SVD for the rest, plus
one stacked ridge solve over every donor), which costs a few times the
rest of a warm refresh — is recomputed only every ``placebo_every``
batches per unit (and on every cold refit, where the donor pool may
have changed).  Units stagger their refresh phases so the cost spreads
evenly across batches instead of spiking.  In between, the live
p-value ranks the *fresh* treated ratio against the cached ensemble;
the placebo distribution drifts by at most ``placebo_every`` batches
of data.  ``placebo_every=1`` restores full per-batch inference.

Live rows are advisory: they show the study evolving while the stream
runs.  The engine's ``finalize()`` re-runs the batch study's own
plan/execute code over the accumulated state, so the shipped table
never depends on this layer's warm-start or amortization bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.errors import DonorPoolError, EstimationError, PipelineError
from repro.pipeline.crossing import TreatmentAssignment
from repro.pipeline.study import StudyRow, UnitFit, UnitScreen, unit_row
from repro.synthcontrol.donor import Panel
from repro.synthcontrol.incremental import extend_factorization
from repro.synthcontrol.placebo import (
    Refit,
    placebo_columns,
    placebo_context,
    placebo_outcomes,
    treated_fit,
)
from repro.synthcontrol.robust import DonorFactorization, factor_donor_matrix


@dataclass
class UnitFitState:
    """One treated unit's cached fit state between batches."""

    unit: str
    donors: tuple[str, ...] = ()
    fact: DonorFactorization | None = field(default=None, repr=False)  # sealed rows
    full: DonorFactorization | None = field(default=None, repr=False)  # + open row
    row: StudyRow | None = None
    skip_reason: str | None = None
    refits: tuple[Refit, ...] | None = None  # cached placebo ensemble
    since_placebo: int = 0  # warm refreshes since the ensemble was rebuilt
    stagger: int = 0  # phase offset so units' rebuilds interleave


class LiveRefitter:
    """Windowed robust refits over the stream's evolving panel."""

    def __init__(
        self,
        *,
        energy: float = 0.99,
        ridge: float = 1e-2,
        max_placebos: int | None = None,
        min_pre_periods: int = 7,
        min_post_periods: int = 3,
        max_donor_missing: float = 0.5,
        placebo_every: int = 4,
    ) -> None:
        if placebo_every < 1:
            raise PipelineError(f"placebo_every must be >= 1, got {placebo_every}")
        self._energy = energy
        self._ridge = ridge
        self._max_placebos = max_placebos
        self._screen = UnitScreen(
            min_pre_periods, min_post_periods, max_donor_missing
        )
        self._placebo_every = placebo_every
        self._states: dict[str, UnitFitState] = {}
        self.warm_refits = 0
        self.cold_refits = 0
        self.placebo_refreshes = 0

    def state(self, unit: str) -> UnitFitState | None:
        """The unit's cached state, if it has ever been refit."""
        return self._states.get(unit)

    def refresh(
        self,
        panel: Panel,
        assignment: TreatmentAssignment,
        unit: str,
    ) -> UnitFitState:
        """Refit one dirty treated unit against the current panel."""
        state = self._states.get(unit)
        if state is None:
            stagger = len(self._states) % self._placebo_every
            state = self._states[unit] = UnitFitState(unit=unit, stagger=stagger)
        try:
            pre_periods, post_periods = self._screen.periods(panel, assignment, unit)
            donors, donor_matrix, sealed, fact, warm = self._donor_pool(
                state, panel, assignment, unit, pre_periods
            )
            ctx = placebo_context(
                donor_matrix, donors, pre_periods, "robust",
                energy=self._energy, ridge=self._ridge, fact=fact,
            )
            fit, _ = treated_fit(ctx, panel.series(unit), unit)
            rebuild = (
                not warm
                or state.refits is None
                or state.since_placebo + 1 >= self._placebo_every
            )
            if rebuild:
                # The study's kernel without its per-column bookkeeping:
                # live rows are advisory and refresh hundreds of times.
                outcomes = placebo_outcomes(
                    ctx, placebo_columns(len(donors), self._max_placebos)
                )
                state.refits = tuple(
                    (donor, ratio, reason)
                    for donor, (ratio, reason) in zip(donors, outcomes)
                )
                # A cold rebuild seeds the unit's phase offset so the
                # treated units' ensemble rebuilds interleave instead of
                # all landing on the same future batch.
                state.since_placebo = state.stagger if not warm else 0
                self.placebo_refreshes += 1
            else:
                state.since_placebo += 1
            unit_fit = UnitFit(
                unit, fit.effect, fit.rmse_ratio, pre_periods, post_periods, donors
            )
            row = unit_row(unit_fit, state.refits, exhausted=True)
        except (DonorPoolError, EstimationError, PipelineError) as exc:
            state.fact = None
            state.full = None
            state.donors = ()
            state.row = None
            state.refits = None
            state.since_placebo = 0
            state.skip_reason = str(exc)
            return state
        state.donors = donors
        state.fact = sealed
        state.full = fact
        state.skip_reason = None
        state.row = row
        return state

    def _donor_pool(
        self,
        state: UnitFitState,
        panel: Panel,
        assignment: TreatmentAssignment,
        unit: str,
        pre_periods: int,
    ) -> tuple[
        tuple[str, ...],
        np.ndarray,
        DonorFactorization | None,
        DonorFactorization,
        bool,
    ]:
        """The unit's donor pool, matrix, sealed and full SVDs, and warmth.

        The cached sealed factorization is warm-eligible when it covers
        no more than the panel's sealed days and the cached donors'
        leading rows still equal its filled block: then the append
        identity is exact, and the cached donor pool is reused *without*
        re-running the correlation screen — none of the screen's
        pre-period inputs changed, and skipping it keeps the warm
        refresh at the cost of two small-core SVDs.  (The screen's
        ``max_missing`` filter also sees the later rows, so a pool
        picked today could differ at the margin from one picked at first
        fit; live rows are advisory and ``finalize()`` re-screens every
        unit from scratch.)  Otherwise the refresh goes cold: a fresh
        screen and a full SVD of the sealed rows, extended by the open
        row.  The sealed factorization is ``None`` when its block has
        imputed cells, which no warm extension could keep exact.
        """
        n_sealed = panel.n_times - 1
        cached = state.fact
        if cached is not None and cached.n_times <= n_sealed:
            donors = state.donors
            donor_matrix = np.column_stack([panel.series(d) for d in donors])
            if np.array_equal(donor_matrix[: cached.n_times], cached.filled):
                try:
                    sealed = extend_factorization(
                        cached, donor_matrix[cached.n_times : n_sealed]
                    )
                    fact = extend_factorization(sealed, donor_matrix[n_sealed:])
                    self.warm_refits += 1
                    return donors, donor_matrix, sealed, fact, True
                except EstimationError:
                    pass  # imputed sealed block: exactness would be lost, go cold
        donors = self._screen.donors(panel, assignment, unit, pre_periods)
        donor_matrix = np.column_stack([panel.series(d) for d in donors])
        self.cold_refits += 1
        head = donor_matrix[:n_sealed]
        if n_sealed > 0 and np.isfinite(head).all():
            sealed = factor_donor_matrix(head)
            fact = extend_factorization(sealed, donor_matrix[n_sealed:])
            return donors, donor_matrix, sealed, fact, False
        return donors, donor_matrix, None, factor_donor_matrix(donor_matrix), False
