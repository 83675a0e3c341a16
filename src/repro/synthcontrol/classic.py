"""Classic (Abadie-style) synthetic control.

Finds convex donor weights w (w_i >= 0, sum w = 1) minimizing the
pre-intervention fit ``|| y_pre - D_pre w ||_2`` and extrapolates the
weighted donor combination through the post period.  Solved with
``scipy.optimize.nnls`` on an augmented system that (softly) enforces
the sum-to-one constraint, then renormalised — accurate and fast for the
donor-pool sizes the pipeline produces.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import DonorPoolError, EstimationError
from repro.synthcontrol.result import SyntheticControlFit


def _validate_panel(
    treated: np.ndarray, donors: np.ndarray, pre_periods: int
) -> tuple[np.ndarray, np.ndarray]:
    treated = np.asarray(treated, dtype=float)
    donors = np.asarray(donors, dtype=float)
    if donors.ndim != 2:
        raise DonorPoolError(f"donor matrix must be 2-D (T x J), got shape {donors.shape}")
    if treated.ndim != 1 or len(treated) != donors.shape[0]:
        raise DonorPoolError(
            f"treated series length {treated.shape} must match donor rows {donors.shape[0]}"
        )
    if donors.shape[1] == 0:
        raise DonorPoolError("donor pool is empty")
    if not 1 <= pre_periods < len(treated):
        raise EstimationError(
            f"pre_periods must be in [1, {len(treated) - 1}], got {pre_periods}"
        )
    return treated, donors


def fit_simplex_weights(
    y_pre: np.ndarray, donors_pre: np.ndarray, sum_penalty: float = 1e3
) -> np.ndarray:
    """Nonnegative weights approximately summing to one, best pre-fit.

    Solves ``min_w || A w - b ||`` with A the donor pre-matrix augmented
    by a heavily weighted all-ones row (pushing sum(w) -> 1) under
    w >= 0, then renormalises exactly.
    """
    t_pre, j = donors_pre.shape
    finite = np.isfinite(y_pre) & np.all(np.isfinite(donors_pre), axis=1)
    if finite.sum() < 2:
        raise EstimationError("need >= 2 finite pre-period rows to fit weights")
    a = np.vstack([donors_pre[finite], sum_penalty * np.ones((1, j))])
    b = np.concatenate([y_pre[finite], [sum_penalty]])
    from scipy.optimize import nnls

    weights, _ = nnls(a, b)
    total = weights.sum()
    if total <= 0:
        raise EstimationError("degenerate simplex fit: all weights zero")
    return weights / total


def classic_synthetic_control(
    treated: np.ndarray,
    donors: np.ndarray,
    pre_periods: int,
    treated_name: str = "treated",
    donor_names: Sequence[str] | None = None,
) -> SyntheticControlFit:
    """Fit an Abadie-style synthetic control.

    Parameters
    ----------
    treated:
        The treated unit's outcome series, length T.
    donors:
        T x J matrix of donor outcome series (columns are donors).
    pre_periods:
        Number of leading periods before the intervention.
    """
    treated, donors = _validate_panel(treated, donors, pre_periods)
    names = _donor_names(donor_names, donors.shape[1])
    weights = fit_simplex_weights(treated[:pre_periods], donors[:pre_periods])
    synthetic = _combine(donors, weights)
    return SyntheticControlFit(
        treated_name=treated_name,
        donor_names=names,
        weights=weights,
        pre_periods=pre_periods,
        post_periods=len(treated) - pre_periods,
        observed=treated,
        synthetic=synthetic,
        method="classic",
    )


def _combine(donors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted donor combination, tolerating missing donor cells.

    Cells where a donor is NaN are dropped for that time step and the
    remaining weights renormalised, so one donor's outage does not
    poison the synthetic series.
    """
    t = donors.shape[0]
    out = np.empty(t)
    for i in range(t):
        row = donors[i]
        ok = np.isfinite(row)
        if not ok.any():
            out[i] = np.nan
            continue
        w = weights[ok]
        total = w.sum()
        out[i] = float(row[ok] @ w / total) if total > 0 else np.nan
    return out


def _donor_names(names: Sequence[str] | None, j: int) -> tuple[str, ...]:
    if names is None:
        return tuple(f"donor_{i}" for i in range(j))
    if len(names) != j:
        raise DonorPoolError(f"{len(names)} donor names for {j} donors")
    return tuple(names)
