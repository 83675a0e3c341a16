"""Reference implementation of the leave-one-out de-noising.

This is the per-column SVD downdate the rank-1 kernel
(:func:`repro.synthcontrol.robust.denoise_leave_out`) replaced, kept as
an executable spec: deleting column *col* of ``A = U S Vt`` leaves
``A' = U (S Vt')``, and a full LAPACK SVD of the small ``k x (J-1)``
core ``S Vt'`` gives the spectrum to threshold.  It shares no code with
the kernel — thresholding and rescaling are copied here too — so the
kernel can never be its own reference.  ``tests/test_loo_kernel.py``
asserts kept ranks equal this exactly and panels agree to rounding.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import DonorPoolError, EstimationError
from repro.synthcontrol.robust import DonorFactorization

_ENERGY_TOL = 1e-12


def _rank_for_energy(s: np.ndarray, energy: float, min_rank: int) -> np.ndarray:
    sq = s**2
    cum = np.cumsum(sq, axis=-1) / sq.sum(axis=-1, keepdims=True)
    rank = (cum < energy - _ENERGY_TOL).sum(axis=-1) + 1
    return np.clip(rank, min_rank, s.shape[-1])


def _rescale_denoised(
    denoised: np.ndarray, col_means: np.ndarray, p_obs: float
) -> np.ndarray:
    if 0 < p_obs < 1:
        return col_means + (denoised - col_means) / p_obs
    return denoised


def reference_without_column(
    fact: DonorFactorization, col: int, energy: float = 0.99, min_rank: int = 1
) -> tuple[np.ndarray, int]:
    """The denoised panel with column *col* deleted, and its kept rank."""
    if not 0 < energy <= 1:
        raise EstimationError(f"energy must be in (0, 1], got {energy}")
    j = fact.n_donors
    if not 0 <= col < j:
        raise DonorPoolError(f"column {col} out of range for {j} donors")
    if j < 2:
        raise DonorPoolError("cannot delete the only donor column")
    col_means = np.delete(fact.col_means, col)
    if fact.s.sum() == 0:
        return np.delete(fact.filled, col, axis=1), 0
    core = fact.s[:, None] * np.delete(fact.vt, col, axis=1)
    u_core, s_sub, vt_sub = np.linalg.svd(core, full_matrices=False)
    if s_sub.sum() == 0:
        return np.delete(fact.filled, col, axis=1), 0
    rank = int(_rank_for_energy(s_sub, energy, min_rank))
    u_sub = fact.u @ u_core[:, :rank]
    denoised = (u_sub * s_sub[:rank]) @ vt_sub[:rank]
    observed = int(fact.finite_counts.sum() - fact.finite_counts[col])
    p_obs = observed / (fact.n_times * (j - 1))
    return _rescale_denoised(denoised, col_means, p_obs), rank


def reference_leave_out(
    fact: DonorFactorization,
    cols: Sequence[int],
    energy: float = 0.99,
    min_rank: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """``(stack, ranks)`` for *cols*, one reference downdate per column."""
    pairs = [reference_without_column(fact, c, energy, min_rank) for c in cols]
    stack = np.empty((len(pairs), fact.n_times, fact.n_donors - 1))
    for i, (panel, _rank) in enumerate(pairs):
        stack[i] = panel
    return stack, np.array([rank for _panel, rank in pairs], dtype=int)
