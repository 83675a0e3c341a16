"""Placebo inference for synthetic control (Table 1's p column).

Each donor is refit as a pseudo-treated unit at the same intervention
time.  The treated unit's post/pre RMSE ratio is then ranked against the
placebo ratios: if paths that did *not* receive the treatment diverge
from their synthetic controls as much as the treated path did, the
observed shift "could arise from model noise alone".

:func:`placebo_ensemble` is the one robust placebo kernel; the batch
study, a campaign's refits, :func:`placebo_test` and the stream's live
refresh all call it.  It runs one leave-one-out sweep
(:func:`~repro.synthcontrol.robust.denoise_leave_out`: warm power
iteration for the columns that provably keep rank 1, LAPACK's SVD for
the rest) or reuses the caller's — the study's unit ledger computes a
unit's sweep once, over its whole refit queue, and every ensemble of
that unit reads it — then one stacked ridge solve
(``np.linalg.solve`` on the 3-D array) and whole-array RMSEs.  Each
stacked slice runs the same BLAS/LAPACK call on the same bytes as the
per-column :func:`~repro.synthcontrol.robust.fit_from_denoised`, and
each leave-one-out panel depends only on its own column, so ratios are
bit-identical to the per-column loop on the same panels and do not
depend on how columns are batched — serial and pooled runs agree.  A
column with missing pseudo-treated cells or a zero spectrum, or a
stack whose solve fails, keeps that per-row form.
:func:`record_placebo` adds a study's per-column span, fault point and
counters.

The unit fit around the kernel lives here too, once:
:func:`treated_fit` is the only code that fits a treated unit and
:func:`placebo_p_value` the only code that turns placebo refits into a
p-value.  The batch study, a campaign, :func:`placebo_test` and the
stream's live refresh all call them, so a unit gets the same numbers
and the same skip reasons wherever it is fitted.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.chaos.runtime import fault_point
from repro.errors import DonorPoolError, EstimationError
from repro.estimators.bootstrap import permutation_p_value
from repro.obs import get_metrics, span
from repro.synthcontrol.classic import (
    _donor_names,
    _validate_panel,
    classic_synthetic_control,
)
from repro.synthcontrol.result import PlaceboSummary, SyntheticControlFit
from repro.synthcontrol.robust import (
    DonorFactorization,
    _denoise_leave_out,
    factor_donor_matrix,
    fit_from_denoised,
    fit_from_factorization,
)

logger = logging.getLogger(__name__)

FitFunction = Callable[..., SyntheticControlFit]


def _check_method(method: str) -> None:
    if method not in ("robust", "classic"):
        raise DonorPoolError(f"unknown synthetic-control method {method!r}")


@dataclass(frozen=True)
class PlaceboRatios(Sequence):
    """Placebo RMSE ratios plus an account of the refits that failed.

    Behaves as a sequence of ``(donor_name, rmse_ratio)`` pairs (the
    successful refits, in donor order), so older callers that iterate
    or take ``len`` keep working; :attr:`skipped` records each failed
    placebo as ``(donor_name, reason)``.
    """

    ratios: tuple[tuple[str, float], ...]
    skipped: tuple[tuple[str, str], ...] = ()

    def __len__(self) -> int:
        return len(self.ratios)

    def __getitem__(self, index):  # type: ignore[override]
        return self.ratios[index]

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(self.ratios)

    @classmethod
    def from_refits(cls, refits: Sequence[Refit]) -> PlaceboRatios:
        """Split ``(donor, ratio | None, reason)`` refits into ratios and skips."""
        return cls(
            ratios=tuple((name, r) for name, r, _ in refits if r is not None),
            skipped=tuple((name, why) for name, r, why in refits if r is None),
        )

    @property
    def n_skipped(self) -> int:
        """How many placebo refits failed."""
        return len(self.skipped)

    @property
    def values(self) -> tuple[float, ...]:
        """The ratios alone, donor order preserved."""
        return tuple(r for _, r in self.ratios)


@dataclass(frozen=True)
class _PlaceboContext:
    """Everything one placebo refit needs (picklable for process pools)."""

    donors: np.ndarray
    donor_names: tuple[str, ...]
    pre_periods: int
    min_pre_rmse: float
    method: str
    fact: DonorFactorization | None
    energy: float
    ridge: float
    loo: tuple[tuple[np.ndarray, int], ...] | None = None


def placebo_context(
    donors: np.ndarray,
    donor_names: Sequence[str],
    pre_periods: int,
    method: str,
    *,
    energy: float = 0.99,
    ridge: float = 1e-2,
    min_pre_rmse: float = 1e-9,
    fact: DonorFactorization | None = None,
) -> _PlaceboContext:
    """The placebo context of a donor matrix (factored as *fact* when robust).

    *energy* and *ridge* are the robust method's fit parameters; the
    classic method ignores them.  Its ``loo`` field starts empty; a
    caller that owns a leave-one-out batch for the matrix sets it with
    :func:`dataclasses.replace`.
    """
    return _PlaceboContext(
        donors, tuple(donor_names), pre_periods, min_pre_rmse, method, fact,
        float(energy), float(ridge),
    )


#: A placebo column's outcome: its RMSE ratio, or ``None`` and the reason.
Outcome = tuple[float | None, str]

#: A recorded placebo refit: ``(donor_name, ratio | None, reason)``.
Refit = tuple[str, float | None, str]


def _screen(pre_rmse: float, post_rmse: float, min_pre_rmse: float) -> Outcome:
    """The skip screens on a placebo's RMSEs (ratio as ``SyntheticControlFit``'s)."""
    if pre_rmse < min_pre_rmse:
        return None, (
            f"degenerate pre-fit (pre_rmse={pre_rmse:.3g} < {min_pre_rmse:.3g})"
        )
    finite_pre = np.isfinite(pre_rmse) and pre_rmse != 0
    ratio = post_rmse / pre_rmse if finite_pre else float("inf")
    if not np.isfinite(ratio):
        return None, "non-finite RMSE ratio"
    return float(ratio), ""


def _fitted_outcome(min_pre_rmse: float, fit: FitFunction, *args, **kwargs) -> Outcome:
    """One per-row placebo fit, screened; estimation failures become a skip."""
    try:
        placebo = fit(*args, **kwargs)
    except (DonorPoolError, EstimationError) as exc:
        return None, str(exc) or type(exc).__name__
    return _screen(placebo.pre_rmse, placebo.post_rmse, min_pre_rmse)


def _stacked_rmses(
    stack: np.ndarray, pseudo: np.ndarray, pre_periods: int, ridge: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ridge-fit fully observed rows at once: ``(pre_rmse, post_rmse, finite)``.

    *stack* is ``(n, T, J-1)`` and *pseudo* ``(n, T)``.  Raises
    :class:`numpy.linalg.LinAlgError` when any system is singular.
    ``finite[i]`` is False where row *i*'s gaps are not all finite: its
    per-row RMSEs would mask those cells.
    """
    a = stack[:, :pre_periods]
    at = a.swapaxes(1, 2)
    lhs = at @ a + ridge * np.eye(stack.shape[2])
    weights = np.linalg.solve(lhs, at @ pseudo[:, :pre_periods, None])
    gaps = pseudo - (stack @ weights)[:, :, 0]
    sq = gaps**2
    pre = np.sqrt(sq[:, :pre_periods].mean(axis=1))
    post = np.sqrt(sq[:, pre_periods:].mean(axis=1))
    return pre, post, np.isfinite(gaps).all(axis=1)


def placebo_ensemble(
    fact: DonorFactorization,
    donors: np.ndarray,
    pre_periods: int,
    cols: Sequence[int],
    *,
    energy: float = 0.99,
    ridge: float = 1e-2,
    min_pre_rmse: float = 1e-9,
    loo: Sequence[tuple[np.ndarray, int]] | None = None,
) -> list[Outcome]:
    """The robust placebo ensemble of *cols*, in their order.

    Each column of the raw ``T x J`` *donors* matrix (factored as
    *fact*) is fit as pseudo-treated on the denoised panel of the
    others.  Returns ``(ratio, "")`` per surviving placebo and ``(None,
    reason)`` per skipped one.  *loo*, when given, is an
    already-computed ``(denoised, rank)`` batch indexed by column (a
    unit ledger's), used instead of a fresh leave-one-out sweep.
    Records one ``placebo.ensemble`` span, whose ``n_rank1`` and
    ``n_svd`` count the columns this call's sweep finished on the rank-1
    path and by SVD (both 0 when *loo* is given).
    """
    cols = [int(c) for c in cols]
    n_times, j = donors.shape
    with span("placebo.ensemble", n_cols=len(cols), n_rank1=0, n_svd=0) as sp:
        if j < 2:
            sp.set(n_stacked=0, n_per_row=len(cols))
            return [(None, "cannot delete the only donor column")] * len(cols)
        if loo is None:
            stack, ranks, n_rank1 = _denoise_leave_out(fact, cols, energy)
            sp.set(n_rank1=n_rank1, n_svd=len(cols) - n_rank1)
        else:
            stack = np.stack([loo[c][0] for c in cols])
            ranks = np.array([loo[c][1] for c in cols])
        pseudo = np.ascontiguousarray(donors[:, cols].T, dtype=float)
        rows = np.flatnonzero(np.isfinite(pseudo).all(axis=1) & (ranks > 0))
        out: list[Outcome | None] = [None] * len(cols)
        if rows.size and 2 <= pre_periods < n_times:
            try:
                pre, post, finite = _stacked_rmses(
                    stack[rows], pseudo[rows], pre_periods, ridge
                )
            except np.linalg.LinAlgError:
                finite = np.zeros(rows.size, dtype=bool)
            for pos in np.flatnonzero(finite):
                out[rows[pos]] = _screen(
                    float(pre[pos]), float(post[pos]), min_pre_rmse
                )
        per_row = [i for i, outcome in enumerate(out) if outcome is None]
        for i in per_row:
            out[i] = _fitted_outcome(
                min_pre_rmse, fit_from_denoised, pseudo[i], stack[i], pre_periods,
                "placebo", (), ridge=ridge,
            )
        sp.set(n_stacked=len(cols) - len(per_row), n_per_row=len(per_row))
    return out  # type: ignore[return-value]


def placebo_outcomes(ctx: _PlaceboContext, cols: Sequence[int]) -> list[Outcome]:
    """Refit *cols* of *ctx* as pseudo-treated units, in order.

    The robust method runs :func:`placebo_ensemble` once; the classic
    method refits column by column.
    """
    if ctx.method == "robust":
        assert ctx.fact is not None
        return placebo_ensemble(
            ctx.fact,
            ctx.donors,
            ctx.pre_periods,
            cols,
            energy=ctx.energy,
            ridge=ctx.ridge,
            min_pre_rmse=ctx.min_pre_rmse,
            loo=ctx.loo,
        )
    return [
        _fitted_outcome(
            ctx.min_pre_rmse,
            classic_synthetic_control,
            ctx.donors[:, col],
            np.delete(ctx.donors, col, axis=1),
            ctx.pre_periods,
        )
        for col in cols
    ]


def record_placebo(
    ctx: _PlaceboContext,
    col: int,
    outcome: Outcome,
    key: str | None = None,
    **attrs: object,
) -> Refit:
    """Book-keep donor *col*'s refit: ``(name, ratio | None, reason)``.

    Records one ``placebo`` span (``ok`` attribute marks survivors;
    *attrs* add context) and bumps the placebo counters, whichever
    process it runs in.  Its fault point is ``placebo.refit``, keyed by
    *key* (default: the donor name).
    """
    donor = ctx.donor_names[col]
    ratio, reason = outcome
    with span("placebo", donor=donor, **attrs) as sp:
        fault_point("placebo.refit", key=donor if key is None else key)
        sp.set(ok=ratio is not None)
        metrics = get_metrics()
        metrics.counter("placebos_total", "placebo refits attempted").inc()
        if ratio is None:
            sp.set(reason=reason)
            metrics.counter(
                "placebos_skipped_total", "placebo refits that failed estimation"
            ).inc()
            logger.debug("placebo %s skipped: %s", donor, reason)
    return donor, ratio, reason


def placebo_columns(n_donors: int, max_placebos: int | None) -> range:
    """The donor columns refit as placebos: the first *max_placebos*.

    Donors are correlation-ranked by
    :func:`~repro.synthcontrol.donor.select_donors`, so a cap keeps the
    closest ones; ``None`` refits every donor.
    """
    return range(n_donors if max_placebos is None else min(max_placebos, n_donors))


def placebo_refits(ctx: _PlaceboContext, max_placebos: int | None) -> list[Refit]:
    """One :func:`placebo_outcomes` call, then one record per column."""
    outcomes = placebo_outcomes(
        ctx, placebo_columns(len(ctx.donor_names), max_placebos)
    )
    return [record_placebo(ctx, col, outcome) for col, outcome in enumerate(outcomes)]


def treated_fit(
    ctx: _PlaceboContext, treated: np.ndarray, name: str
) -> tuple[SyntheticControlFit, _PlaceboContext]:
    """Fit the treated unit *name* against *ctx*'s donors.

    The one treated-unit fit: the batch study, a campaign's base fits,
    :func:`placebo_test` and the stream's live refresh all call it.
    Validates the panel, then dispatches on ``ctx.method``: the robust
    method fits on ``ctx.fact`` (factoring the donor matrix first when
    no factorization is set), the classic method runs
    :func:`classic_synthetic_control`.  Returns the fit and *ctx* with
    the factorization it used, which the placebo refits share.
    """
    treated, donors = _validate_panel(treated, ctx.donors, ctx.pre_periods)
    if ctx.method != "robust":
        fit = classic_synthetic_control(
            treated,
            donors,
            ctx.pre_periods,
            treated_name=name,
            donor_names=ctx.donor_names,
        )
        return fit, ctx
    if ctx.fact is None:
        ctx = replace(ctx, fact=factor_donor_matrix(donors))
    fit = fit_from_factorization(
        treated, ctx.fact, ctx.pre_periods, name,
        _donor_names(ctx.donor_names, donors.shape[1]),
        energy=ctx.energy, ridge=ctx.ridge,
    )
    return fit, ctx


def placebo_p_value(
    name: str,
    rmse_ratio: float,
    ratios: Sequence[float],
    n_skipped: int,
    exhausted: bool = True,
) -> float:
    """The placebo p-value of *name*'s *rmse_ratio* against *ratios*.

    The add-one share of surviving placebo ratios greater than or equal
    to the treated unit's (``alternative="greater"``): small p means few
    untreated paths diverged as sharply.  When no refit survived, an
    *exhausted* refit queue raises :class:`DonorPoolError` (the unit is
    skipped); a queue the caller stopped early gives ``p = 1``: no
    evidence, never significance.
    """
    if len(ratios):
        return float(
            permutation_p_value(
                rmse_ratio, np.asarray(ratios, dtype=float), alternative="greater"
            )
        )
    if exhausted:
        raise DonorPoolError(
            f"no placebo fits succeeded for {name!r} "
            f"({n_skipped} skipped); donor pool too small"
        )
    return 1.0


def placebo_rmse_ratios(
    donors: np.ndarray,
    pre_periods: int,
    donor_names: Sequence[str],
    method: str = "robust",
    max_placebos: int | None = None,
    min_pre_rmse: float = 1e-9,
    **fit_kwargs: object,
) -> PlaceboRatios:
    """RMSE ratios from treating each donor as a pseudo-treated unit.

    Returns a :class:`PlaceboRatios`: a sequence of ``(donor_name,
    rmse_ratio)`` pairs whose :attr:`~PlaceboRatios.skipped` attribute
    names each donor whose refit failed and why.  Only estimation
    failures are skipped — unexpected exceptions propagate.
    *max_placebos* caps the count (taking the first k donors, which are
    correlation-ranked by :func:`~repro.synthcontrol.donor.select_donors`).
    For the robust method the donor matrix is imputed and factored once.
    """
    _check_method(method)
    donors = np.asarray(donors, dtype=float)
    if donors.ndim != 2:
        raise DonorPoolError(
            f"donor matrix must be 2-D (T x J), got shape {donors.shape}"
        )
    ctx = placebo_context(
        donors, donor_names, pre_periods, method, **fit_kwargs,
        min_pre_rmse=min_pre_rmse,
        fact=factor_donor_matrix(donors) if method == "robust" else None,
    )
    return PlaceboRatios.from_refits(placebo_refits(ctx, max_placebos))


def placebo_test(
    treated: np.ndarray,
    donors: np.ndarray,
    pre_periods: int,
    treated_name: str = "treated",
    donor_names: Sequence[str] | None = None,
    method: str = "robust",
    max_placebos: int | None = None,
    min_pre_rmse: float = 1e-9,
    **fit_kwargs: object,
) -> PlaceboSummary:
    """Fit the treated unit and compute its placebo-based p-value.

    :func:`treated_fit`, then the placebo refits of
    :func:`placebo_rmse_ratios`, then :func:`placebo_p_value`.  For the
    robust method the donor matrix is factored once, for the treated fit
    and every placebo.
    """
    if donor_names is None:
        donor_names = [f"donor_{i}" for i in range(donors.shape[1])]
    _check_method(method)
    ctx = placebo_context(
        np.asarray(donors, dtype=float), donor_names, pre_periods, method,
        **fit_kwargs, min_pre_rmse=min_pre_rmse,
    )
    t_fit = time.perf_counter()
    with span("fit", treated=treated_name, method=method):
        fit, ctx = treated_fit(ctx, treated, treated_name)
    get_metrics().histogram(
        "fit_seconds", help="wall-clock seconds per treated-unit fit"
    ).observe(time.perf_counter() - t_fit)
    ratios = PlaceboRatios.from_refits(placebo_refits(ctx, max_placebos))
    return PlaceboSummary(
        fit=fit,
        placebo_rmse_ratios=ratios.values,
        p_value=placebo_p_value(
            treated_name, fit.rmse_ratio, ratios.values, ratios.n_skipped
        ),
        skipped_placebos=ratios.skipped,
    )
