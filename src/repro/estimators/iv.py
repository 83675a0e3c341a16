"""Instrumental-variable estimators: Wald ratio and two-stage least squares.

When treatment assignment is endogenous but an instrument Z satisfies
relevance and exclusion (see :mod:`repro.graph.instruments`), the local
average treatment effect is identified:

- :func:`wald_estimate` — for a binary instrument,
  ``(E[Y|Z=1] - E[Y|Z=0]) / (E[X|Z=1] - E[X|Z=0])``;
- :func:`two_stage_least_squares` — regress X on Z (+ exogenous
  controls), then Y on the fitted X̂; standard errors use the proper
  2SLS residuals (based on actual X, not X̂).

Both report the first-stage F statistic: the weak-instrument diagnostic
the paper's "healthy dose of skepticism" calls for (F < 10 is flagged).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import EstimationError, InsufficientDataError
from repro.frames.frame import Frame
from repro.graph.dag import CausalDag
from repro.graph.instruments import is_instrument
from repro.estimators.base import EffectEstimate, require_binary
from repro.estimators.ols import fit_ols

WEAK_INSTRUMENT_F = 10.0


def first_stage_f(z: np.ndarray, x: np.ndarray, controls: np.ndarray | None = None) -> float:
    """F statistic for the instrument's explanatory power over treatment."""
    regs = {"z": z}
    if controls is not None:
        for j in range(controls.shape[1]):
            regs[f"w{j}"] = controls[:, j]
    fit = fit_ols(x, regs)
    t_val = float(fit.t_values[fit.names.index("z")])
    return t_val**2


def wald_estimate(
    data: Frame,
    instrument: str,
    treatment: str,
    outcome: str,
    dag: CausalDag | None = None,
) -> EffectEstimate:
    """Wald/IV ratio estimate for a binary instrument.

    With *dag* given, the instrument is first validated graphically and
    an :class:`EstimationError` explains a rejection.
    """
    if dag is not None and not is_instrument(dag, instrument, treatment, outcome):
        raise EstimationError(
            f"{instrument!r} is not a valid instrument for "
            f"{treatment!r} -> {outcome!r} in the given DAG"
        )
    sub = data.drop_missing([instrument, treatment, outcome])
    z = require_binary(sub.numeric(instrument), instrument)
    x = sub.numeric(treatment)
    y = sub.numeric(outcome)
    n1 = int(z.sum())
    n0 = int((~z).sum())
    if n1 < 2 or n0 < 2:
        raise InsufficientDataError("need >= 2 rows in each instrument arm")
    dx = float(x[z].mean() - x[~z].mean())
    dy = float(y[z].mean() - y[~z].mean())
    if abs(dx) < 1e-12:
        raise EstimationError(
            f"instrument {instrument!r} does not move the treatment (first stage = 0)"
        )
    late = dy / dx
    f_stat = first_stage_f(z.astype(float), x)

    # Delta-method standard error for the ratio of two mean differences.
    var_dy = y[z].var(ddof=1) / n1 + y[~z].var(ddof=1) / n0
    var_dx = x[z].var(ddof=1) / n1 + x[~z].var(ddof=1) / n0
    cov_xy = (
        np.cov(x[z], y[z], ddof=1)[0, 1] / n1
        + np.cov(x[~z], y[~z], ddof=1)[0, 1] / n0
    )
    var = (var_dy + late**2 * var_dx - 2 * late * cov_xy) / dx**2
    se = float(np.sqrt(max(var, 0.0)))
    return EffectEstimate(
        effect=late,
        standard_error=se,
        ci_low=late - 1.96 * se,
        ci_high=late + 1.96 * se,
        method="iv.wald",
        n_treated=n1,
        n_control=n0,
        details={
            "first_stage": dx,
            "reduced_form": dy,
            "first_stage_f": f_stat,
            "weak_instrument": f_stat < WEAK_INSTRUMENT_F,
        },
    )


def two_stage_least_squares(
    data: Frame,
    instrument: str,
    treatment: str,
    outcome: str,
    controls: Sequence[str] = (),
    dag: CausalDag | None = None,
) -> EffectEstimate:
    """2SLS estimate with optional exogenous controls.

    Standard errors follow the textbook 2SLS formula: residuals are
    computed with the *actual* treatment, while the bread uses the
    projected design matrix.
    """
    if dag is not None and not is_instrument(
        dag, instrument, treatment, outcome, set(controls)
    ):
        raise EstimationError(
            f"{instrument!r} is not a valid instrument for "
            f"{treatment!r} -> {outcome!r} given {sorted(controls)} in the DAG"
        )
    sub = data.drop_missing([instrument, treatment, outcome, *controls])
    n = sub.num_rows
    z = sub.numeric(instrument)
    x = sub.numeric(treatment)
    y = sub.numeric(outcome)
    w = (
        np.column_stack([sub.numeric(c) for c in controls])
        if controls
        else np.empty((n, 0))
    )
    k = 2 + w.shape[1]  # intercept + treatment + controls
    if n <= k:
        raise InsufficientDataError(f"need > {k} rows, have {n}")

    # First stage: X on [1, Z, W]; keep fitted values.
    z_design = np.column_stack([np.ones(n), z, w])
    gamma, *_ = np.linalg.lstsq(z_design, x, rcond=None)
    x_hat = z_design @ gamma
    f_stat = first_stage_f(z, x, w if controls else None)
    if abs(float(np.std(x_hat))) < 1e-12:
        raise EstimationError("first stage is degenerate (instrument irrelevant)")

    # Second stage: Y on [1, X_hat, W].
    design_hat = np.column_stack([np.ones(n), x_hat, w])
    beta, *_ = np.linalg.lstsq(design_hat, y, rcond=None)
    # 2SLS residuals use the actual X.
    design_actual = np.column_stack([np.ones(n), x, w])
    resid = y - design_actual @ beta
    dof = n - k
    sigma2 = float(resid @ resid) / dof
    bread = np.linalg.pinv(design_hat.T @ design_hat)
    cov = sigma2 * bread
    se = float(np.sqrt(max(cov[1, 1], 0.0)))
    effect = float(beta[1])
    from scipy import stats

    t_crit = float(stats.t.ppf(0.975, dof))
    return EffectEstimate(
        effect=effect,
        standard_error=se,
        ci_low=effect - t_crit * se,
        ci_high=effect + t_crit * se,
        method="iv.2sls",
        n_treated=n,
        n_control=0,
        details={
            "controls": list(controls),
            "first_stage_f": f_stat,
            "weak_instrument": f_stat < WEAK_INSTRUMENT_F,
        },
    )
