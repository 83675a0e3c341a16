"""Nearest-neighbour covariate matching.

For each treated unit, find the control unit(s) closest in standardized
covariate space (Mahalanobis-lite: per-dimension z-scoring, Euclidean
distance via a scipy KD-tree) and contrast outcomes.  Reports the ATT —
the effect on the treated — plus match-quality diagnostics.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import EstimationError, InsufficientDataError
from repro.frames.frame import Frame
from repro.graph.dag import CausalDag
from repro.estimators.adjustment import resolve_adjustment_set
from repro.estimators.base import EffectEstimate, require_binary


def matching_estimate(
    data: Frame,
    treatment: str,
    outcome: str,
    adjustment: Sequence[str] | None = None,
    dag: CausalDag | None = None,
    n_neighbors: int = 1,
    caliper: float | None = None,
) -> EffectEstimate:
    """ATT by k-nearest-neighbour matching on the adjustment covariates.

    Parameters
    ----------
    n_neighbors:
        Controls averaged per treated unit (with replacement).
    caliper:
        Optional maximum standardized distance; treated units with no
        control within the caliper are dropped (count reported in
        ``details``).
    """
    adj = resolve_adjustment_set(dag, treatment, outcome, adjustment)
    if not adj:
        raise EstimationError("matching needs a non-empty adjustment set")
    if n_neighbors < 1:
        raise EstimationError("n_neighbors must be >= 1")
    sub = data.drop_missing([treatment, outcome, *adj])
    t = require_binary(sub.numeric(treatment), treatment)
    y = sub.numeric(outcome)
    x = np.column_stack([sub.numeric(c) for c in adj])
    if int(t.sum()) == 0 or int((~t).sum()) < n_neighbors:
        raise InsufficientDataError(
            f"need >= 1 treated and >= {n_neighbors} control rows"
        )

    scale = x.std(axis=0, ddof=1)
    scale[scale == 0] = 1.0
    xz = (x - x.mean(axis=0)) / scale

    controls = xz[~t]
    control_y = y[~t]
    from scipy.spatial import cKDTree

    tree = cKDTree(controls)
    dists, idx = tree.query(xz[t], k=n_neighbors)
    dists = np.atleast_2d(dists.reshape(int(t.sum()), n_neighbors))
    idx = np.atleast_2d(idx.reshape(int(t.sum()), n_neighbors))

    effects: list[float] = []
    match_dists: list[float] = []
    dropped = 0
    treated_y = y[t]
    for i in range(idx.shape[0]):
        d = dists[i]
        if caliper is not None and float(d.min()) > caliper:
            dropped += 1
            continue
        matched = control_y[idx[i]]
        effects.append(float(treated_y[i] - matched.mean()))
        match_dists.append(float(d.mean()))
    if not effects:
        raise InsufficientDataError("caliper dropped every treated unit")
    att = float(np.mean(effects))
    se = (
        float(np.std(effects, ddof=1) / np.sqrt(len(effects)))
        if len(effects) > 1
        else float("nan")
    )
    return EffectEstimate(
        effect=att,
        standard_error=se,
        ci_low=att - 1.96 * se,
        ci_high=att + 1.96 * se,
        method="backdoor.matching",
        n_treated=len(effects),
        n_control=int((~t).sum()),
        details={
            "adjustment_set": adj,
            "n_neighbors": n_neighbors,
            "mean_match_distance": float(np.mean(match_dists)),
            "dropped_treated": dropped,
        },
    )
