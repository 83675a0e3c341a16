"""Robust synthetic control (Amjad, Shah & Shen, JMLR 2018).

The method the paper's Table 1 uses.  Two stages:

1. **De-noising**: stack the donor panel into a matrix, impute missing
   cells with the column mean, take its SVD, and keep only the
   singular values above a threshold — recovering a low-rank estimate of
   the latent signal under noise and missingness.
2. **Regression**: fit the treated unit's pre-period on the *denoised*
   donor pre-matrix with ridge-regularized least squares (weights are
   unconstrained — no simplex restriction).

The counterfactual is the denoised donor panel projected through the
learned weights.  Compared to the classic method it tolerates noisy and
partially missing donor series, which is why the paper picks it for
M-Lab's irregular user-initiated sampling.

The de-noising is factored so its expensive part — the SVD of the
filled donor matrix — can be computed once and reused:
:func:`factor_donor_matrix` captures imputation and spectrum, and
:func:`denoise_from_factorization` thresholds it.
:func:`denoise_leave_out` produces the leave-one-donor-out denoised
panels the placebo ensemble (:mod:`repro.synthcontrol.placebo`) needs
by *downdating* the shared factorization: deleting a column leaves a
small ``k x (J-1)`` core to decompose instead of the full
``T x (J-1)`` matrix.  A core that keeps rank 1 — nearly all of them
on real panels — needs only its top singular triplet, which a few
warm-started power iterations find; any other core falls back to
LAPACK's SVD.  Kept ranks equal the SVD downdate's exactly, panels
agree with it to rounding, and each column's result is bit-identical
however the columns are batched.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DonorPoolError, EstimationError
from repro.synthcontrol.classic import _donor_names, _validate_panel
from repro.synthcontrol.result import SyntheticControlFit

# Absolute slack when comparing the cumulative spectrum against the
# energy target: cumulative shares are ratios of floating-point sums,
# so a mathematically exact hit can land a few ulps *below* the target
# and would otherwise keep one singular value too many.
_ENERGY_TOL = 1e-12

# The rank-1 leave-one-out path (see _rank1_triplets).  An iterate
# counts as converged once it is provably within _RANK1_TOL radians of
# the top singular vector; a core whose bound on (s1/s0)^2 is not below
# _RANK1_MAX_RATIO, or that has not converged in _RANK1_MAX_ITER
# passes, goes to the SVD.  _RANK1_MARGIN keeps shares that rounding
# could place on either side of the energy target off the fast path.
_RANK1_TOL = 1e-15
_RANK1_MAX_RATIO = 0.25
_RANK1_MAX_ITER = 40
_RANK1_MARGIN = 1e-8


@dataclass(frozen=True)
class DonorFactorization:
    """The reusable part of donor-matrix de-noising.

    Everything here is energy-independent: the mean-imputed matrix, the
    imputation statistics, and the thin SVD.  Thresholding at any
    ``energy`` — with or without a donor column — derives from this
    without touching the raw panel again.

    Attributes
    ----------
    filled:
        The donor matrix with NaN cells replaced by column means.
    col_means:
        Per-column imputation means (length J).
    finite_counts:
        Per-column count of observed (finite) cells (length J).
    u, s, vt:
        Thin SVD of :attr:`filled` (``filled = u @ diag(s) @ vt``).
    """

    filled: np.ndarray = field(repr=False)
    col_means: np.ndarray = field(repr=False)
    finite_counts: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    vt: np.ndarray = field(repr=False)

    @property
    def n_times(self) -> int:
        """Number of panel rows (time points)."""
        return self.filled.shape[0]

    @property
    def n_donors(self) -> int:
        """Number of panel columns (donors)."""
        return self.filled.shape[1]


def _validate_donor_matrix(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise DonorPoolError(
            f"donor matrix must be 2-D with >= 1 column, got shape {matrix.shape}"
        )
    return matrix


def _impute_columns(
    matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean-impute a donor matrix: ``(filled, col_means, finite_counts)``.

    Bit-identical to the historical per-column Python loop.  Fully
    observed columns reduce in one vectorized pass: summing each row of
    the C-contiguous transpose applies numpy's pairwise summation to the
    same contiguous values, in the same order, as ``col[ok].mean()`` did
    per column.  Columns *with* missing cells keep a gather per column —
    the masked gather is exactly the array the old loop averaged, and
    any shortcut that sums zeros in place of the NaNs would change the
    pairwise rounding.
    """
    filled = matrix.copy()
    mask = np.isfinite(filled)
    finite_counts = mask.sum(axis=0)
    if not finite_counts.all():
        j_bad = int(np.flatnonzero(finite_counts == 0)[0])
        raise DonorPoolError(f"donor column {j_bad} is entirely missing")
    n_times = filled.shape[0]
    ft = np.ascontiguousarray(filled.T)
    col_means = np.empty(filled.shape[1])
    complete = finite_counts == n_times
    if complete.any():
        col_means[complete] = ft[complete].sum(axis=1) / n_times
    for j in np.flatnonzero(~complete):
        col_means[j] = ft[j][mask[:, j]].mean()
    if not complete.all():
        miss_r, miss_c = np.nonzero(~mask)
        filled[miss_r, miss_c] = col_means[miss_c]
    return filled, col_means, finite_counts


def factor_donor_matrix(matrix: np.ndarray) -> DonorFactorization:
    """Impute and factor a donor matrix once, for repeated de-noising."""
    matrix = _validate_donor_matrix(matrix)
    filled, col_means, finite_counts = _impute_columns(matrix)
    u, s, vt = np.linalg.svd(filled, full_matrices=False)
    return DonorFactorization(
        filled=filled,
        col_means=col_means,
        finite_counts=finite_counts,
        u=u,
        s=s,
        vt=vt,
    )


def _rank_for_energy(s: np.ndarray, energy: float, min_rank: int) -> np.ndarray:
    """Smallest rank whose squared singular values reach *energy*.

    Works along the last axis, so a ``(n, k)`` stack of spectra gets
    its n ranks from whole-array reductions (row sums of a C-contiguous
    stack reduce exactly like the 1-D sum).  An exact hit keeps exactly
    that many values: the comparison allows :data:`_ENERGY_TOL` of float
    dust so ``cum[r-1] == energy`` up to rounding never keeps an extra
    component.
    """
    sq = s**2
    cum = np.cumsum(sq, axis=-1) / sq.sum(axis=-1, keepdims=True)
    # cum never decreases, so counting the entries below the target is
    # a left-sided searchsorted.
    rank = (cum < energy - _ENERGY_TOL).sum(axis=-1) + 1
    return np.clip(rank, min_rank, s.shape[-1])


def _rescale_denoised(
    denoised: np.ndarray, col_means: np.ndarray, p_obs: float
) -> np.ndarray:
    """Undo the spectral shrinkage mean-filling introduces (Amjad et al. §3)."""
    if 0 < p_obs < 1:
        return col_means + (denoised - col_means) / p_obs
    return denoised


def _check_energy(energy: float) -> None:
    if not 0 < energy <= 1:
        raise EstimationError(f"energy must be in (0, 1], got {energy}")


def denoise_from_factorization(
    fact: DonorFactorization, energy: float = 0.99, min_rank: int = 1
) -> tuple[np.ndarray, int]:
    """Hard-threshold a pre-computed factorization at *energy*.

    Equivalent to :func:`singular_value_threshold` on the same matrix,
    without repeating imputation or the SVD.
    """
    _check_energy(energy)
    if fact.s.sum() == 0:
        return fact.filled, 0
    rank = int(_rank_for_energy(fact.s, energy, min_rank))
    denoised = (fact.u[:, :rank] * fact.s[:rank]) @ fact.vt[:rank]
    p_obs = float(fact.finite_counts.sum()) / fact.filled.size
    return _rescale_denoised(denoised, fact.col_means, p_obs), rank


def denoise_without_column(
    fact: DonorFactorization, col: int, energy: float = 0.99, min_rank: int = 1
) -> tuple[np.ndarray, int]:
    """De-noise the donor matrix with column *col* deleted, by downdating.

    :func:`denoise_leave_out` for the single column *col*.  A column's
    result depends only on its own core, so this is bit-identical to the
    same column's slice of any leave-out batch.
    """
    _check_energy(energy)
    j = fact.n_donors
    if not 0 <= col < j:
        raise DonorPoolError(f"column {col} out of range for {j} donors")
    stack, ranks = denoise_leave_out(fact, [col], energy, min_rank)
    return stack[0], int(ranks[0])


def _keep_columns(cols: np.ndarray, j: int) -> np.ndarray:
    """Row ``i`` lists the columns that survive deleting ``cols[i]``."""
    keep = np.arange(j - 1)[None, :]
    # Shift indices >= the deleted column up by one.
    return keep + (keep >= cols[:, None])


def _loo_cores(fact: DonorFactorization, cols: np.ndarray) -> np.ndarray:
    """The leave-one-out cores ``S Vt'`` of *cols* as one ``(n, k, J-1)`` fill.

    One fancy-index gather replaces the historical
    ``np.stack([np.delete(svt, col, axis=1) ...])`` loop — the same
    values land in the same positions without J Python-level copies.
    """
    svt = fact.s[:, None] * fact.vt
    keep = _keep_columns(cols, fact.n_donors)
    return np.ascontiguousarray(svt[:, keep].swapaxes(0, 1))


def _loo_stack(
    fact: DonorFactorization,
    cols: np.ndarray,
    u_cores: np.ndarray,
    s_subs: np.ndarray,
    vt_subs: np.ndarray,
    energy: float,
    min_rank: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Threshold and rescale decomposed cores into one denoised stack.

    Returns ``(stack, ranks)``: ``stack[i]`` is the ``T x (J-1)``
    panel with ``cols[i]`` deleted.  Columns sharing a rank rebuild in
    one stacked matmul per factor; each slice runs the same BLAS call
    on the same bytes as a batch of one, so a column's panel does not
    depend on which other columns share the batch.  A core with a zero
    spectrum keeps the raw filled columns at rank 0.
    """
    j = fact.n_donors
    keep = _keep_columns(cols, j)
    stack = np.empty((len(cols), fact.n_times, j - 1))
    ranks = np.zeros(len(cols), dtype=int)
    live = s_subs.sum(axis=1) != 0
    for i in np.flatnonzero(~live):
        stack[i] = fact.filled[:, keep[i]]
    ranks[live] = _rank_for_energy(s_subs[live], energy, min_rank)
    for rank in np.unique(ranks[live]):
        members = np.flatnonzero(live & (ranks == rank))
        u_sub = fact.u @ u_cores[members][:, :, :rank]
        stack[members] = (u_sub * s_subs[members][:, None, :rank]) @ vt_subs[
            members
        ][:, :rank]
    observed = fact.finite_counts.sum() - fact.finite_counts[cols]
    p_obs = observed / (fact.n_times * (j - 1))
    shrunk = np.flatnonzero(live & (p_obs > 0) & (p_obs < 1))
    if shrunk.size:
        col_means = fact.col_means[keep[shrunk]][:, None, :]
        stack[shrunk] = (
            col_means + (stack[shrunk] - col_means) / p_obs[shrunk][:, None, None]
        )
    return stack, ranks


def _rank1_triplets(
    cores: np.ndarray, v0: np.ndarray, energy: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Top singular triplets of the cores that provably keep rank 1.

    Power iteration on ``C^T C`` for each ``(k, m)`` core ``C``, started
    from the matching row of *v0*.  Each pass computes ``w = C v`` and
    ``C^T w``; the Rayleigh quotient ``|w|^2`` never exceeds the top
    squared singular value, so ``(|C|_F^2 - |w|^2) / |w|^2`` bounds the
    contraction ratio ``(s1 / s0)^2`` from above.  A core converges once
    that bound is below :data:`_RANK1_MAX_RATIO` and the step it just
    took proves its new iterate within :data:`_RANK1_TOL` radians of the
    top right singular vector.  It is accepted when its share
    ``s0^2 / |C|_F^2`` clears ``energy - _ENERGY_TOL`` by
    :data:`_RANK1_MARGIN`, so thresholding its SVD would keep exactly
    one component too.

    Every decision is made per core, and each pass runs the same
    row-wise BLAS calls and reductions on a core's own bytes, so a
    core's result never depends on which other cores share the batch.
    Returns ``(accepted, u, s0, v, total)``: the mask, the top left and
    right singular vectors, the top singular values and ``|C|_F^2``.
    """
    n, k, m = cores.shape
    total = np.square(cores).reshape(n, k * m).sum(axis=1)
    v = np.zeros((n, m))
    norm0 = np.sqrt(np.square(v0).sum(axis=1))
    active = np.flatnonzero((total > 0) & (norm0 > 0))
    v[active] = v0[active] / norm0[active, None]
    converged = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_RANK1_MAX_ITER):
            if not active.size:
                break
            core = cores[active]
            w = core @ v[active][:, :, None]
            rayleigh = np.square(w[:, :, 0]).sum(axis=1)
            g = (core.swapaxes(1, 2) @ w)[:, :, 0]
            g /= np.sqrt(np.square(g).sum(axis=1))[:, None]
            step = np.sqrt(np.square(g - v[active]).sum(axis=1))
            v[active] = g
            ratio = np.maximum(total[active] - rayleigh, 0.0) / rayleigh
            done = (ratio < _RANK1_MAX_RATIO) & (
                2 * ratio * step <= _RANK1_TOL * (1 - 2 * ratio)
            )
            converged[active[done]] = True
            active = active[~done & np.isfinite(step) & (rayleigh > 0)]
        live = np.flatnonzero(converged)
        w = (cores[live] @ v[live][:, :, None])[:, :, 0]
        s0 = np.zeros(n)
        s0[live] = np.sqrt(np.square(w).sum(axis=1))
        u = np.zeros((n, k))
        u[live] = w / s0[live, None]
        share = s0**2 / total
    accepted = converged & (share >= energy - _ENERGY_TOL + _RANK1_MARGIN)
    return accepted, u, s0, v, total


def _denoise_leave_out(
    fact: DonorFactorization,
    cols: Sequence[int],
    energy: float = 0.99,
    min_rank: int = 1,
) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`denoise_leave_out` plus how many columns took the rank-1 path."""
    _check_energy(energy)
    if fact.n_donors < 2:
        raise DonorPoolError("cannot delete the only donor column")
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)
    cores = _loo_cores(fact, cols)
    n, k, m = cores.shape
    p = min(k, m)
    u_cores = np.zeros((n, k, p))
    s_subs = np.zeros((n, p))
    vt_subs = np.zeros((n, p, m))
    rank1 = np.zeros(n, dtype=bool)
    if min_rank <= 1:
        v0 = fact.vt[0][_keep_columns(cols, fact.n_donors)]
        rank1, u, s0, v, total = _rank1_triplets(cores, v0, energy)
        u_cores[rank1, :, 0] = u[rank1]
        vt_subs[rank1, 0] = v[rank1]
        s_subs[rank1, 0] = s0[rank1]
        if p > 1:
            # The rest of the energy as one value: _rank_for_energy then
            # sees the share the acceptance test cleared, so it keeps
            # rank 1 and _loo_stack reads only the first component.
            rest = np.maximum(total[rank1] - s0[rank1] ** 2, 0.0)
            s_subs[rank1, 1] = np.sqrt(rest)
    svd = np.flatnonzero(~rank1)
    if svd.size:
        u_cores[svd], s_subs[svd], vt_subs[svd] = np.linalg.svd(
            cores[svd], full_matrices=False
        )
    stack, ranks = _loo_stack(fact, cols, u_cores, s_subs, vt_subs, energy, min_rank)
    return stack, ranks, n - svd.size


def denoise_leave_out(
    fact: DonorFactorization,
    cols: Sequence[int],
    energy: float = 0.99,
    min_rank: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out de-noisings of *cols*, one small core per column.

    The placebo loop needs the denoised panel with column *j* deleted,
    for every placebo *j*.  Deleting a column of ``A = U S Vt`` leaves
    ``A' = U (S Vt')`` with ``Vt'`` the corresponding column of ``Vt``
    removed, so thresholding ``A'`` needs only the spectrum of the small
    ``k x (J-1)`` core ``S Vt'`` — the shared ``T x J`` SVD is never
    recomputed.  Most cores keep rank 1, and for those the kernel needs
    only the top singular triplet: power iteration warm-started from
    ``Vt[0]`` (column *j* deleted) finds it in a few matrix-vector
    products per column.  A column is taken on that path only when its
    iteration provably converged and its energy share clears the
    threshold by a safety margin; every other column — rank 2 or more,
    ``min_rank > 1``, a zero spectrum, a share near the threshold, a
    repeated top singular value — gets the batched LAPACK SVD of its
    core.  Ranks equal the SVD downdate's exactly and panels agree with
    it to rounding.  Each column's result depends only on its own core,
    so it is bit-identical however *cols* are batched or ordered.

    Returns ``(stack, ranks)``: the ``(n, T, J-1)`` denoised panels and
    their kept ranks, in the order of *cols*.
    """
    stack, ranks, _n_rank1 = _denoise_leave_out(fact, cols, energy, min_rank)
    return stack, ranks


def singular_value_threshold(
    matrix: np.ndarray, energy: float = 0.99, min_rank: int = 1
) -> tuple[np.ndarray, int]:
    """Hard-threshold the SVD of *matrix*, keeping *energy* of the spectrum.

    Missing (NaN) cells are filled with the column mean before the SVD —
    the standard mean-imputation step of robust synthetic control.
    Returns ``(denoised_matrix, rank_kept)``.
    """
    _check_energy(energy)
    return denoise_from_factorization(
        factor_donor_matrix(matrix), energy=energy, min_rank=min_rank
    )


def ridge_weights(
    y_pre: np.ndarray, donors_pre: np.ndarray, ridge: float = 1e-2
) -> np.ndarray:
    """Unconstrained ridge-regularized regression weights on the pre-period."""
    finite = np.isfinite(y_pre)
    if finite.sum() < 2:
        raise EstimationError("need >= 2 finite pre-period treated values")
    a = donors_pre[finite]
    b = y_pre[finite]
    j = a.shape[1]
    lhs = a.T @ a + ridge * np.eye(j)
    rhs = a.T @ b
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:  # pragma: no cover - ridge should prevent this
        return np.linalg.lstsq(a, b, rcond=None)[0]


def fit_from_denoised(
    treated: np.ndarray,
    denoised: np.ndarray,
    pre_periods: int,
    treated_name: str,
    donor_names: tuple[str, ...],
    ridge: float = 1e-2,
) -> SyntheticControlFit:
    """The regression stage alone, on an already-denoised donor panel."""
    weights = ridge_weights(treated[:pre_periods], denoised[:pre_periods], ridge=ridge)
    synthetic = denoised @ weights
    return SyntheticControlFit(
        treated_name=treated_name,
        donor_names=donor_names,
        weights=weights,
        pre_periods=pre_periods,
        post_periods=len(treated) - pre_periods,
        observed=treated,
        synthetic=synthetic,
        method="robust",
    )


def fit_from_factorization(
    treated: np.ndarray,
    fact: DonorFactorization,
    pre_periods: int,
    treated_name: str,
    donor_names: tuple[str, ...],
    energy: float = 0.99,
    ridge: float = 1e-2,
) -> SyntheticControlFit:
    """Both stages on a pre-computed factorization: threshold, then regress."""
    denoised, _rank = denoise_from_factorization(fact, energy=energy)
    return fit_from_denoised(
        treated, denoised, pre_periods, treated_name, donor_names, ridge=ridge
    )


def robust_synthetic_control(
    treated: np.ndarray,
    donors: np.ndarray,
    pre_periods: int,
    treated_name: str = "treated",
    donor_names: Sequence[str] | None = None,
    energy: float = 0.99,
    ridge: float = 1e-2,
) -> SyntheticControlFit:
    """Fit robust synthetic control on a T x J donor panel.

    Parameters
    ----------
    treated, donors, pre_periods:
        As in :func:`~repro.synthcontrol.classic.classic_synthetic_control`;
        donor cells may be NaN.
    energy:
        Fraction of squared singular-value mass retained by the
        hard-threshold de-noising step.
    ridge:
        L2 penalty of the second-stage regression.
    """
    treated, donors = _validate_panel(treated, donors, pre_periods)
    names = _donor_names(donor_names, donors.shape[1])
    _check_energy(energy)
    return fit_from_factorization(
        treated,
        factor_donor_matrix(donors),
        pre_periods,
        treated_name,
        names,
        energy=energy,
        ridge=ridge,
    )
