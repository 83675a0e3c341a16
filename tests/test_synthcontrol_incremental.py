"""Unit tests for repro.synthcontrol.incremental (warm-started SVDs)."""

import numpy as np
import pytest

from repro.errors import DonorPoolError, EstimationError
from repro.estimators.bootstrap import permutation_p_value
from repro.synthcontrol import (
    extend_factorization,
    factor_donor_matrix,
    fit_from_denoised,
    live_placebo_ratios,
    placebo_test,
)
from repro.synthcontrol.robust import denoise_from_factorization


def _assert_factorizations_match(warm, cold):
    np.testing.assert_allclose(warm.filled, cold.filled, atol=1e-10)
    np.testing.assert_allclose(warm.col_means, cold.col_means, atol=1e-10)
    np.testing.assert_array_equal(warm.finite_counts, cold.finite_counts)
    np.testing.assert_allclose(warm.s, cold.s, atol=1e-9)
    # U/Vt columns are sign-ambiguous; compare the reconstruction instead.
    np.testing.assert_allclose(
        (warm.u * warm.s) @ warm.vt, (cold.u * cold.s) @ cold.vt, atol=1e-9
    )


class TestExtendFactorization:
    def test_matches_cold_factorization(self):
        rng = np.random.default_rng(0)
        old = rng.normal(size=(30, 6))
        new = rng.normal(size=(4, 6))
        warm = extend_factorization(factor_donor_matrix(old), new)
        cold = factor_donor_matrix(np.vstack([old, new]))
        _assert_factorizations_match(warm, cold)

    def test_nan_in_new_rows_allowed(self):
        rng = np.random.default_rng(1)
        old = rng.normal(size=(20, 5))
        new = rng.normal(size=(3, 5))
        new[1, 2] = np.nan
        warm = extend_factorization(factor_donor_matrix(old), new)
        cold = factor_donor_matrix(np.vstack([old, new]))
        _assert_factorizations_match(warm, cold)

    def test_imputed_old_block_refuses_warm_start(self):
        rng = np.random.default_rng(2)
        old = rng.normal(size=(15, 4))
        old[3, 1] = np.nan  # the old imputation would change retroactively
        fact = factor_donor_matrix(old)
        with pytest.raises(EstimationError, match="imputed"):
            extend_factorization(fact, rng.normal(size=(2, 4)))

    def test_zero_new_rows_is_identity(self):
        rng = np.random.default_rng(3)
        fact = factor_donor_matrix(rng.normal(size=(10, 3)))
        assert extend_factorization(fact, np.empty((0, 3))) is fact

    def test_wrong_column_count_rejected(self):
        rng = np.random.default_rng(4)
        fact = factor_donor_matrix(rng.normal(size=(10, 3)))
        with pytest.raises(DonorPoolError):
            extend_factorization(fact, rng.normal(size=(2, 5)))

    def test_denoise_after_extension_matches(self):
        rng = np.random.default_rng(5)
        old = rng.normal(size=(25, 6))
        new = rng.normal(size=(5, 6))
        warm = extend_factorization(factor_donor_matrix(old), new)
        cold = factor_donor_matrix(np.vstack([old, new]))
        dw, rw = denoise_from_factorization(warm, energy=0.95)
        dc, rc = denoise_from_factorization(cold, energy=0.95)
        assert rw == rc
        np.testing.assert_allclose(dw, dc, atol=1e-9)


class TestLivePlaceboRatios:
    def test_matches_placebo_test_p_value(self):
        # The live path's ratios must reproduce placebo_test's p-value
        # when fed the same donor matrix.
        rng = np.random.default_rng(6)
        donors = rng.normal(size=(30, 8)).cumsum(axis=0)
        treated = donors[:, 0] * 0.5 + donors[:, 3] * 0.5 + rng.normal(size=30) * 0.1
        names = tuple(f"d{j}" for j in range(8))
        pre = 20
        summary = placebo_test(
            treated, donors, pre, treated_name="t", donor_names=names, method="robust"
        )
        fact = factor_donor_matrix(donors)
        denoised, _ = denoise_from_factorization(fact, energy=0.99)
        fit = fit_from_denoised(treated, denoised, pre, "t", names)
        ratios, skipped = live_placebo_ratios(fact, donors, pre)
        assert len(ratios) + skipped == len(names)
        assert sorted(ratios) == sorted(summary.placebo_rmse_ratios)
        p = permutation_p_value(
            fit.rmse_ratio, np.asarray(ratios), alternative="greater"
        )
        assert p == summary.p_value

    def test_too_few_donors_returns_empty(self):
        rng = np.random.default_rng(7)
        donors = rng.normal(size=(10, 1))
        fact = factor_donor_matrix(donors)
        ratios, skipped = live_placebo_ratios(fact, donors, 5)
        assert ratios == []
        assert skipped == 0

    def test_limit_caps_placebo_count(self):
        rng = np.random.default_rng(8)
        donors = rng.normal(size=(20, 6)).cumsum(axis=0)
        fact = factor_donor_matrix(donors)
        ratios, _ = live_placebo_ratios(fact, donors, 12, limit=3)
        assert len(ratios) <= 3
