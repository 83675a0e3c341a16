"""Unit tests for classic and robust synthetic control fits."""

import numpy as np
import pytest

from repro.errors import DonorPoolError, EstimationError
from repro.synthcontrol import (
    classic_synthetic_control,
    fit_simplex_weights,
    ridge_weights,
    robust_synthetic_control,
    singular_value_threshold,
)


def factor_panel(
    t: int = 80,
    j: int = 12,
    pre: int = 50,
    effect: float = 5.0,
    noise: float = 0.4,
    seed: int = 0,
):
    """A two-factor panel where the treated unit is a donor combination."""
    rng = np.random.default_rng(seed)
    factors = rng.normal(0, 1, (t, 2)).cumsum(axis=0) * 0.2
    donors = np.column_stack(
        [factors @ rng.normal(1, 0.3, 2) + rng.normal(0, noise, t) for _ in range(j)]
    )
    treated = factors @ np.array([1.1, 0.9]) + rng.normal(0, noise, t)
    treated[pre:] += effect
    return treated, donors, pre


class TestClassic:
    def test_recovers_injected_effect(self):
        treated, donors, pre = factor_panel()
        fit = classic_synthetic_control(treated, donors, pre)
        assert fit.effect == pytest.approx(5.0, abs=0.5)

    def test_weights_on_simplex(self):
        treated, donors, pre = factor_panel()
        fit = classic_synthetic_control(treated, donors, pre)
        assert (fit.weights >= -1e-9).all()
        assert fit.weights.sum() == pytest.approx(1.0, abs=1e-6)

    def test_zero_effect_panel(self):
        treated, donors, pre = factor_panel(effect=0.0, seed=1)
        fit = classic_synthetic_control(treated, donors, pre)
        assert abs(fit.effect) < 0.5
        assert fit.rmse_ratio < 3.0

    def test_pre_fit_quality(self):
        treated, donors, pre = factor_panel()
        fit = classic_synthetic_control(treated, donors, pre)
        assert fit.pre_rmse < 1.0

    def test_missing_donor_cells_tolerated(self):
        treated, donors, pre = factor_panel()
        donors[10:14, 0] = np.nan
        fit = classic_synthetic_control(treated, donors, pre)
        assert np.isfinite(fit.effect)

    def test_empty_donor_pool(self):
        treated, _, pre = factor_panel()
        with pytest.raises(DonorPoolError):
            classic_synthetic_control(treated, np.empty((len(treated), 0)), pre)

    def test_bad_pre_periods(self):
        treated, donors, _ = factor_panel()
        with pytest.raises(EstimationError):
            classic_synthetic_control(treated, donors, len(treated))

    def test_length_mismatch(self):
        treated, donors, pre = factor_panel()
        with pytest.raises(DonorPoolError):
            classic_synthetic_control(treated[:-1], donors, pre)

    def test_donor_names_respected(self):
        treated, donors, pre = factor_panel()
        names = [f"u{i}" for i in range(donors.shape[1])]
        fit = classic_synthetic_control(treated, donors, pre, donor_names=names)
        assert fit.donor_names == tuple(names)
        assert fit.top_donors(3)[0][0] in names

    def test_donor_name_count_mismatch(self):
        treated, donors, pre = factor_panel()
        with pytest.raises(DonorPoolError):
            classic_synthetic_control(treated, donors, pre, donor_names=["one"])


class TestSimplexWeights:
    def test_exact_recovery_of_convex_combination(self):
        rng = np.random.default_rng(2)
        donors = rng.normal(0, 1, (40, 3))
        true_w = np.array([0.5, 0.3, 0.2])
        y = donors @ true_w
        w = fit_simplex_weights(y, donors)
        assert np.allclose(w, true_w, atol=1e-3)

    def test_all_nan_pre_rejected(self):
        donors = np.ones((5, 2))
        y = np.full(5, np.nan)
        with pytest.raises(EstimationError):
            fit_simplex_weights(y, donors)


class TestRobust:
    def test_recovers_injected_effect(self):
        treated, donors, pre = factor_panel()
        fit = robust_synthetic_control(treated, donors, pre)
        assert fit.effect == pytest.approx(5.0, abs=0.5)

    def test_handles_heavy_missingness(self):
        treated, donors, pre = factor_panel(seed=3)
        rng = np.random.default_rng(4)
        mask = rng.random(donors.shape) < 0.3
        donors = donors.copy()
        donors[mask] = np.nan
        fit = robust_synthetic_control(treated, donors, pre)
        assert fit.effect == pytest.approx(5.0, abs=1.2)

    def test_beats_classic_under_noise(self):
        """De-noising should not do worse on noisy donors (pre-fit RMSE on signal)."""
        treated, donors, pre = factor_panel(noise=1.5, seed=5)
        robust = robust_synthetic_control(treated, donors, pre)
        assert np.isfinite(robust.effect)
        assert robust.effect == pytest.approx(5.0, abs=1.5)

    def test_weights_unconstrained(self):
        treated, donors, pre = factor_panel(seed=6)
        fit = robust_synthetic_control(-2.0 * treated, donors, pre)
        # Matching a negated series needs negative weights.
        assert (fit.weights < 0).any()

    def test_gaps_and_properties(self):
        treated, donors, pre = factor_panel()
        fit = robust_synthetic_control(treated, donors, pre)
        assert len(fit.gaps) == len(treated)
        assert len(fit.pre_gaps) == pre
        assert fit.post_periods == len(treated) - pre
        assert fit.rmse_ratio > 1.0  # the effect inflates post error


class TestSvdThreshold:
    def test_low_rank_recovered(self):
        rng = np.random.default_rng(7)
        u = rng.normal(0, 1, (60, 2))
        v = rng.normal(0, 1, (2, 8))
        clean = u @ v
        noisy = clean + rng.normal(0, 0.05, clean.shape)
        denoised, rank = singular_value_threshold(noisy, energy=0.98)
        assert rank <= 4
        assert np.linalg.norm(denoised - clean) < np.linalg.norm(noisy - clean) * 1.5

    def test_fully_missing_column_rejected(self):
        m = np.ones((5, 2))
        m[:, 1] = np.nan
        with pytest.raises(DonorPoolError):
            singular_value_threshold(m)

    def test_bad_energy(self):
        with pytest.raises(EstimationError):
            singular_value_threshold(np.ones((3, 3)), energy=0.0)

    def test_exact_energy_hit_keeps_minimal_rank(self):
        """8 equal singular values, energy=0.75: exactly 6 suffice.

        The cumulative spectrum is a ratio of floating-point sums, so
        the mathematically exact hit lands a few ulps below 0.75; the
        threshold must not keep a 7th component because of that dust.
        """
        m = np.eye(8) * np.sqrt(0.1)
        _, rank = singular_value_threshold(m, energy=0.75)
        assert rank == 6

    def test_energy_above_hit_keeps_one_more(self):
        m = np.eye(8) * np.sqrt(0.1)
        _, rank = singular_value_threshold(m, energy=0.76)
        assert rank == 7


class TestDenoiseReuse:
    """The factored de-noising must match the direct computation."""

    def _noisy_panel(self, seed=13, t=40, j=12):
        rng = np.random.default_rng(seed)
        u = rng.normal(0, 1, (t, 3))
        v = rng.normal(0, 1, (3, j))
        m = u @ v + rng.normal(0, 0.1, (t, j))
        m[5, 2] = np.nan
        m[17, 9] = np.nan
        return m

    def test_factorization_roundtrip(self):
        from repro.synthcontrol import (
            denoise_from_factorization,
            factor_donor_matrix,
        )

        m = self._noisy_panel()
        direct, rank_d = singular_value_threshold(m, energy=0.95)
        fact = factor_donor_matrix(m)
        reused, rank_r = denoise_from_factorization(fact, energy=0.95)
        assert rank_d == rank_r
        np.testing.assert_allclose(reused, direct, rtol=0, atol=1e-10)

    def test_column_downdate_matches_direct(self):
        from repro.synthcontrol import denoise_without_column, factor_donor_matrix

        m = self._noisy_panel()
        fact = factor_donor_matrix(m)
        for col in (0, 5, 11):
            direct, rank_d = singular_value_threshold(
                np.delete(m, col, axis=1), energy=0.95
            )
            down, rank_k = denoise_without_column(fact, col, energy=0.95)
            assert rank_d == rank_k
            np.testing.assert_allclose(down, direct, rtol=0, atol=1e-8)


class TestRidgeWeights:
    def test_shrinkage_toward_zero(self):
        rng = np.random.default_rng(8)
        donors = rng.normal(0, 1, (30, 4))
        y = donors[:, 0]
        loose = ridge_weights(y, donors, ridge=1e-8)
        tight = ridge_weights(y, donors, ridge=100.0)
        assert np.linalg.norm(tight) < np.linalg.norm(loose)

    def test_too_few_finite_rows(self):
        y = np.array([1.0, np.nan, np.nan])
        with pytest.raises(EstimationError):
            ridge_weights(y, np.ones((3, 2)))
