"""Ordinary least squares with classical inference.

A small, dependency-light linear-model core used by the adjustment, IV,
and difference-in-differences estimators.  Fits via ``numpy.linalg.lstsq``
and reports coefficient standard errors, t statistics, and p-values under
homoskedastic classical assumptions (plus optional HC1 robust errors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InsufficientDataError


@dataclass(frozen=True)
class OlsFit:
    """A fitted linear model ``y = X b + e``.

    Attributes
    ----------
    names:
        Regressor names, aligned with :attr:`coefficients`.
    coefficients, standard_errors, t_values, p_values:
        Per-regressor inference arrays.
    residuals:
        ``y - X b``.
    r_squared:
        Coefficient of determination.
    nobs, dof:
        Row count and residual degrees of freedom.
    """

    names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    residuals: np.ndarray = field(repr=False)
    r_squared: float
    nobs: int
    dof: int

    def coefficient(self, name: str) -> float:
        """The fitted coefficient for regressor *name*."""
        return float(self.coefficients[self.names.index(name)])

    def standard_error(self, name: str) -> float:
        """The standard error for regressor *name*."""
        return float(self.standard_errors[self.names.index(name)])

    def p_value(self, name: str) -> float:
        """The two-sided p-value for regressor *name*."""
        return float(self.p_values[self.names.index(name)])

    def confidence_interval(self, name: str, level: float = 0.95) -> tuple[float, float]:
        """Classical symmetric CI for one coefficient."""
        from scipy import stats

        i = self.names.index(name)
        t_crit = float(stats.t.ppf(0.5 + level / 2, self.dof))
        half = t_crit * float(self.standard_errors[i])
        centre = float(self.coefficients[i])
        return centre - half, centre + half

    def summary(self) -> str:
        """A compact regression table."""
        lines = [f"OLS: n={self.nobs}, R^2={self.r_squared:.4f}"]
        width = max(len(n) for n in self.names)
        lines.append(
            f"{'term'.ljust(width)}  {'coef':>10}  {'se':>9}  {'t':>8}  {'p':>8}"
        )
        for i, n in enumerate(self.names):
            lines.append(
                f"{n.ljust(width)}  {self.coefficients[i]:>10.4f}  "
                f"{self.standard_errors[i]:>9.4f}  {self.t_values[i]:>8.3f}  "
                f"{self.p_values[i]:>8.4f}"
            )
        return "\n".join(lines)


def fit_ols(
    y: np.ndarray,
    regressors: dict[str, np.ndarray],
    add_intercept: bool = True,
    robust: bool = False,
) -> OlsFit:
    """Fit OLS of *y* on the named regressor arrays.

    Parameters
    ----------
    y:
        Outcome vector.
    regressors:
        Ordered mapping of name to regressor vector.
    add_intercept:
        Prepend a constant term named ``_intercept``.
    robust:
        Use HC1 heteroskedasticity-robust standard errors instead of the
        classical homoskedastic formula.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    names: list[str] = []
    cols: list[np.ndarray] = []
    if add_intercept:
        names.append("_intercept")
        cols.append(np.ones(n))
    for name, vec in regressors.items():
        v = np.asarray(vec, dtype=float)
        if len(v) != n:
            raise InsufficientDataError(
                f"regressor {name!r} has length {len(v)}, outcome has {n}"
            )
        names.append(name)
        cols.append(v)
    x = np.column_stack(cols)
    k = x.shape[1]
    if n <= k:
        raise InsufficientDataError(f"need more than {k} rows to fit {k} terms, have {n}")

    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    residuals = y - x @ beta
    dof = n - k
    sigma2 = float(residuals @ residuals) / dof
    xtx_inv = np.linalg.pinv(x.T @ x)
    if robust:
        meat = x.T @ (x * (residuals**2)[:, None])
        cov = xtx_inv @ meat @ xtx_inv * (n / dof)
    else:
        cov = sigma2 * xtx_inv
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_vals = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    from scipy import stats

    p_vals = 2 * stats.t.sf(np.abs(t_vals), dof)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(residuals @ residuals) / ss_tot if ss_tot > 0 else 0.0
    return OlsFit(
        names=tuple(names),
        coefficients=beta,
        standard_errors=se,
        t_values=t_vals,
        p_values=p_vals,
        residuals=residuals,
        r_squared=r2,
        nobs=n,
        dof=dof,
    )
