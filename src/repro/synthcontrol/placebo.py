"""Placebo inference for synthetic control (Table 1's p column).

Each donor is refit as a pseudo-treated unit at the same intervention
time.  The treated unit's post/pre RMSE ratio is then ranked against the
placebo ratios: if paths that did *not* receive the treatment diverge
from their synthetic controls as much as the treated path did, the
observed shift "could arise from model noise alone".

Two performance properties matter at study scale:

- placebo refits are independent, so :func:`placebo_rmse_ratios` fans
  them out over an executor backend (``n_jobs``) with order-stable,
  backend-independent results;
- for the robust method, every leave-one-donor-out refit shares the
  donor matrix's imputation and SVD through
  :func:`~repro.synthcontrol.robust.denoise_without_column`, so the
  expensive factorization happens once per unit, not once per donor.
"""

from __future__ import annotations

import functools
import logging
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.pipeline.executor import RetryPolicy

import numpy as np

from repro.chaos.runtime import fault_point
from repro.errors import DonorPoolError, EstimationError
from repro.estimators.bootstrap import permutation_p_value
from repro.obs import get_metrics, span
from repro.synthcontrol.classic import classic_synthetic_control
from repro.synthcontrol.result import PlaceboSummary, SyntheticControlFit
from repro.synthcontrol.robust import (
    DenoiseCache,
    DonorFactorization,
    denoise_leave_one_out,
    denoise_without_column,
    factor_donor_matrix,
    fit_from_denoised,
    robust_synthetic_control,
)

logger = logging.getLogger(__name__)

FitFunction = Callable[..., SyntheticControlFit]


def _fitter(method: str) -> FitFunction:
    if method == "robust":
        return robust_synthetic_control
    if method == "classic":
        return classic_synthetic_control
    raise DonorPoolError(f"unknown synthetic-control method {method!r}")


def _robust_params(**fit_kwargs: object) -> tuple[float, float]:
    """Split robust-method fit kwargs, rejecting unknown names loudly."""

    def accept(energy: float = 0.99, ridge: float = 1e-2) -> tuple[float, float]:
        return float(energy), float(ridge)

    return accept(**fit_kwargs)  # type: ignore[arg-type]


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
    fit_kwargs: dict
    fact: DonorFactorization | None
    energy: float
    ridge: float
    loo: tuple[tuple[np.ndarray, int], ...] | None = None


def _placebo_refit(
    ctx: _PlaceboContext,
    col: int,
    site: str = "placebo.refit",
    key: str | None = None,
    **attrs: object,
) -> tuple[str, float | None, str]:
    """Refit donor *col* as pseudo-treated: ``(name, ratio | None, reason)``.

    Only estimation failures (:class:`DonorPoolError` /
    :class:`EstimationError`) are converted into a skip record;
    programming errors propagate to the caller.  Each refit records one
    ``placebo`` span (``ok`` attribute marks survivors; *attrs* add
    context) and bumps the placebo counters, whichever process it runs
    in.  Its fault point is *site*, keyed by *key* (default: the donor
    name).
    """
    donor = ctx.donor_names[col]
    with span("placebo", donor=donor, **attrs) as sp:
        fault_point(site, key=donor if key is None else key)
        name, ratio, reason = _placebo_refit_inner(ctx, col)
        sp.set(ok=ratio is not None)
        metrics = get_metrics()
        metrics.counter("placebos_total", "placebo refits attempted").inc()
        if ratio is None:
            sp.set(reason=reason)
            metrics.counter(
                "placebos_skipped_total", "placebo refits that failed estimation"
            ).inc()
            logger.debug("placebo %s skipped: %s", name, reason)
    return name, ratio, reason


def _placebo_refit_inner(
    ctx: _PlaceboContext, col: int
) -> tuple[str, float | None, str]:
    name = ctx.donor_names[col]
    pseudo = ctx.donors[:, col]
    try:
        if ctx.method == "robust":
            assert ctx.fact is not None
            if ctx.loo is not None:
                denoised, _rank = ctx.loo[col]
            else:
                denoised, _rank = denoise_without_column(
                    ctx.fact, col, energy=ctx.energy
                )
            rest_names = tuple(
                n for i, n in enumerate(ctx.donor_names) if i != col
            )
            placebo_fit = fit_from_denoised(
                pseudo,
                denoised,
                ctx.pre_periods,
                f"placebo:{name}",
                rest_names,
                ridge=ctx.ridge,
            )
        else:
            rest = np.delete(ctx.donors, col, axis=1)
            rest_names = tuple(
                n for i, n in enumerate(ctx.donor_names) if i != col
            )
            placebo_fit = classic_synthetic_control(
                pseudo,
                rest,
                ctx.pre_periods,
                treated_name=f"placebo:{name}",
                donor_names=rest_names,
                **ctx.fit_kwargs,
            )
    except (DonorPoolError, EstimationError) as exc:
        return name, None, str(exc) or type(exc).__name__
    if placebo_fit.pre_rmse < ctx.min_pre_rmse:
        return name, None, (
            f"degenerate pre-fit (pre_rmse={placebo_fit.pre_rmse:.3g} "
            f"< {ctx.min_pre_rmse:.3g})"
        )
    ratio = placebo_fit.rmse_ratio
    if not np.isfinite(ratio):
        return name, None, "non-finite RMSE ratio"
    return name, float(ratio), ""


def placebo_rmse_ratios(
    donors: np.ndarray,
    pre_periods: int,
    donor_names: Sequence[str],
    method: str = "robust",
    max_placebos: int | None = None,
    min_pre_rmse: float = 1e-9,
    n_jobs: int | None = 1,
    cache: DenoiseCache | None = None,
    retry: "RetryPolicy | None" = None,
    **fit_kwargs: object,
) -> PlaceboRatios:
    """RMSE ratios from treating each donor as a pseudo-treated unit.

    Returns a :class:`PlaceboRatios`: a sequence of ``(donor_name,
    rmse_ratio)`` pairs whose :attr:`~PlaceboRatios.skipped` attribute
    names each donor whose refit failed and why.  Only estimation
    failures are skipped — unexpected exceptions propagate.
    *max_placebos* caps the count (taking the first k donors, which are
    correlation-ranked by :func:`~repro.synthcontrol.donor.select_donors`).
    *n_jobs* fans refits out over a process pool (results are identical
    to the serial run, in donor order).  For the robust method, the
    donor matrix is imputed and factored once — optionally through a
    shared *cache* — and every refit reuses that SVD.
    """
    _fitter(method)  # reject unknown methods before any work
    donors = np.asarray(donors, dtype=float)
    if donors.ndim != 2:
        raise DonorPoolError(
            f"donor matrix must be 2-D (T x J), got shape {donors.shape}"
        )
    j = donors.shape[1]
    limit = j if max_placebos is None else min(max_placebos, j)

    fact: DonorFactorization | None = None
    energy, ridge = 0.99, 1e-2
    classic_kwargs: dict = dict(fit_kwargs)
    if method == "robust":
        energy, ridge = _robust_params(**fit_kwargs)
        classic_kwargs = {}
        if limit > 0:
            fact = (
                cache.factorization(donors)
                if cache is not None
                else factor_donor_matrix(donors)
            )

    from repro.pipeline.executor import get_executor, resolve_n_jobs

    # Serial refits batch every leave-one-out SVD into a single 3-D
    # numpy.linalg.svd call (bit-identical to the per-column downdate,
    # one LAPACK sweep instead of J).  Fanned-out refits keep the
    # per-column path: shipping the full denoised stack to each worker
    # would cost more in pickling than the batched SVD saves.
    loo = None
    if fact is not None and limit > 1 and resolve_n_jobs(n_jobs) == 1:
        loo = denoise_leave_one_out(fact, energy=energy, limit=limit)

    ctx = _PlaceboContext(
        donors=donors,
        donor_names=tuple(donor_names),
        pre_periods=pre_periods,
        min_pre_rmse=min_pre_rmse,
        method=method,
        fit_kwargs=classic_kwargs,
        fact=fact,
        energy=energy,
        ridge=ridge,
        loo=loo,
    )

    with get_executor(n_jobs, retry=retry) as executor:
        outcomes = executor.map(
            functools.partial(_placebo_refit, ctx), range(limit)
        )

    ratios: list[tuple[str, float]] = []
    skipped: list[tuple[str, str]] = []
    for name, ratio, reason in outcomes:
        if ratio is None:
            skipped.append((name, reason))
        else:
            ratios.append((name, ratio))
    return PlaceboRatios(ratios=tuple(ratios), skipped=tuple(skipped))


def placebo_test(
    treated: np.ndarray,
    donors: np.ndarray,
    pre_periods: int,
    treated_name: str = "treated",
    donor_names: Sequence[str] | None = None,
    method: str = "robust",
    max_placebos: int | None = None,
    min_pre_rmse: float = 1e-9,
    n_jobs: int | None = 1,
    cache: DenoiseCache | None = None,
    retry: "RetryPolicy | None" = None,
    **fit_kwargs: object,
) -> PlaceboSummary:
    """Fit the treated unit and compute its placebo-based p-value.

    The p-value is the add-one share of placebo RMSE ratios greater than
    or equal to the treated unit's ratio (``alternative="greater"``):
    small p means few untreated paths diverged as sharply.  *n_jobs*
    parallelises the placebo refits; *cache* (created per call when
    omitted) lets the treated fit and every placebo share the donor
    matrix's de-noising work.
    """
    if donor_names is None:
        donor_names = [f"donor_{i}" for i in range(donors.shape[1])]
    fitter = _fitter(method)
    t_fit = time.perf_counter()
    with span("fit", treated=treated_name, method=method):
        if method == "robust":
            if cache is None:
                cache = DenoiseCache()
            fit = fitter(
                treated,
                donors,
                pre_periods,
                treated_name=treated_name,
                donor_names=donor_names,
                cache=cache,
                **fit_kwargs,
            )
        else:
            fit = fitter(
                treated,
                donors,
                pre_periods,
                treated_name=treated_name,
                donor_names=donor_names,
                **fit_kwargs,
            )
    get_metrics().histogram(
        "fit_seconds", help="wall-clock seconds per treated-unit fit"
    ).observe(time.perf_counter() - t_fit)
    ratios = placebo_rmse_ratios(
        donors,
        pre_periods,
        list(donor_names),
        method=method,
        max_placebos=max_placebos,
        min_pre_rmse=min_pre_rmse,
        n_jobs=n_jobs,
        cache=cache,
        retry=retry,
        **fit_kwargs,
    )
    if not ratios:
        raise DonorPoolError(
            f"no placebo fits succeeded for {treated_name!r} "
            f"({ratios.n_skipped} skipped); donor pool too small"
        )
    p = permutation_p_value(
        fit.rmse_ratio, np.asarray(ratios.values), alternative="greater"
    )
    return PlaceboSummary(
        fit=fit,
        placebo_rmse_ratios=ratios.values,
        p_value=float(p),
        skipped_placebos=ratios.skipped,
    )
