"""Warm-start helpers for streaming robust synthetic control.

The streaming engine refreshes a treated unit's estimate after every
ingestion batch.  A full refresh would re-run
:func:`~repro.synthcontrol.robust.factor_donor_matrix` — an SVD of the
whole ``T x J`` donor matrix — per touched unit per batch.  But a batch
that only *appends* panel rows leaves the old block of the filled
matrix byte-identical, so the new SVD follows from the old one plus the
appended rows via the SVD of a small ``(k + dt) x J`` core::

    [A]   [U  0] [S Vt]
    [B] = [0  I] [ B  ]

where ``A = U S Vt`` is the old thin SVD and ``B`` the new rows.  The
left factor has orthonormal columns, so the SVD of the stacked core
``[S Vt; B]`` yields the SVD of the extended matrix after one
``(T + dt) x k`` product.  The core SVD costs ``O((k + dt)^2 J)``
instead of ``O(T J^2)``, which is what keeps a touched unit's refresh
at millisecond scale however long the stream runs.

Exactness caveat: the identity needs the old block of the *filled*
matrix to be unchanged — no old cell edited, and no old cell imputed
(appending rows shifts column means, which would retroactively change
previously imputed cells).  The caller checks the first on the bytes
themselves: the live refitter extends a cached factorization only
while its donors' leading rows equal the cached ``filled`` block.
:func:`extend_factorization` checks the second and raises
:class:`~repro.errors.EstimationError`; either way the caller falls
back to a cold :func:`~repro.synthcontrol.robust.factor_donor_matrix`.

Inference needs no streaming counterpart: a live refresh fits and ranks
its unit with the study's own
:func:`~repro.synthcontrol.placebo.treated_fit`,
:func:`~repro.synthcontrol.placebo.placebo_outcomes` and
:func:`~repro.synthcontrol.placebo.placebo_p_value`, on the factorization
this module keeps warm.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DonorPoolError, EstimationError
from repro.synthcontrol.robust import DonorFactorization


def extend_factorization(
    fact: DonorFactorization, new_rows: np.ndarray
) -> DonorFactorization:
    """Warm-start the donor SVD after appending *new_rows* to the panel.

    Returns the :class:`DonorFactorization` of
    ``vstack([fact's matrix, new_rows])``, computed from the existing
    thin SVD plus an SVD of the small stacked core (see module
    docstring).  NaN cells in *new_rows* are mean-imputed like the cold
    path.  Raises :class:`EstimationError` when the warm start would be
    inexact — the old block contains imputed cells, whose fill values
    would shift with the new column means — and :class:`DonorPoolError`
    on shape mismatches or an all-missing new column.
    """
    new_rows = np.atleast_2d(np.asarray(new_rows, dtype=float))
    if new_rows.ndim != 2 or new_rows.shape[1] != fact.n_donors:
        raise DonorPoolError(
            f"new rows must be 2-D with {fact.n_donors} columns, "
            f"got shape {new_rows.shape}"
        )
    if new_rows.shape[0] == 0:
        return fact
    if int(fact.finite_counts.sum()) != fact.n_times * fact.n_donors:
        raise EstimationError(
            "old donor block has imputed cells; appending rows would "
            "retroactively change their fill values — refactor cold"
        )
    finite = np.isfinite(new_rows)
    finite_counts = fact.finite_counts + finite.sum(axis=0)
    # Old block is fully observed, so its sum is recoverable from the
    # old means without touching the raw history.
    sums = fact.col_means * fact.n_times + np.where(finite, new_rows, 0.0).sum(axis=0)
    col_means = sums / finite_counts
    filled_new = np.where(finite, new_rows, col_means)
    core = np.vstack([fact.s[:, None] * fact.vt, filled_new])
    u_core, s, vt = np.linalg.svd(core, full_matrices=False)
    k = fact.u.shape[1]
    u = np.vstack([fact.u @ u_core[:k], u_core[k:]])
    return DonorFactorization(
        filled=np.vstack([fact.filled, filled_new]),
        col_means=col_means,
        finite_counts=np.asarray(finite_counts, dtype=int),
        u=u,
        s=s,
        vt=vt,
    )
