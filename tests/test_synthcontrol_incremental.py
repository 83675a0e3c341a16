"""Unit tests for repro.synthcontrol.incremental (warm-started SVDs) and
the live refresh's inference on top of it."""

import numpy as np
import pytest

from repro.errors import DonorPoolError, EstimationError
from repro.pipeline.crossing import TreatmentAssignment
from repro.pipeline.study import execute_unit_plan, prepare_unit_plan
from repro.stream.refit import LiveRefitter
from repro.synthcontrol import (
    Panel,
    extend_factorization,
    factor_donor_matrix,
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


def _live_world(n_donors: int, seed: int, n_times: int = 30, pre: int = 20):
    """A one-treated-unit panel and its assignment, crossing on day *pre*."""
    rng = np.random.default_rng(seed)
    donors = rng.normal(size=(n_times, n_donors)).cumsum(axis=0)
    treated = donors[:, : min(n_donors, 2)].mean(axis=1) + rng.normal(size=n_times) * 0.1
    names = tuple(f"AS{100 + j}/D{j}" for j in range(n_donors))
    panel = Panel(
        times=tuple(float(t) for t in range(n_times)),
        units=("AS1/T",) + names,
        matrix=np.column_stack([treated, donors]),
    )
    assignment = TreatmentAssignment(
        ixp_name="X", first_crossing_hour={"AS1/T": pre * 24.0}, never_crossed=names
    )
    return panel, assignment


class TestLivePlaceboRatios:
    """The live refresh ranks its unit with the study's placebo code."""

    def test_matches_placebo_test_p_value(self):
        # A cold live refresh must reproduce placebo_test's p-value when
        # fed the same donor matrix.
        panel, assignment = _live_world(8, seed=6)
        refitter = LiveRefitter()
        state = refitter.refresh(panel, assignment, "AS1/T")
        assert refitter.cold_refits == 1
        matrix = np.column_stack([panel.series(d) for d in state.donors])
        summary = placebo_test(
            panel.series("AS1/T"), matrix, 20, treated_name="AS1/T",
            donor_names=state.donors,
        )
        row = state.row
        assert row.n_placebos + row.n_placebos_skipped == len(state.donors)
        assert row.n_placebos == len(summary.placebo_rmse_ratios)
        assert row.p_value == summary.p_value
        assert row.rtt_delta_ms == pytest.approx(summary.fit.effect, abs=1e-9)

    def test_one_donor_unit_skipped_with_study_reason(self):
        panel, assignment = _live_world(1, seed=7)
        state = LiveRefitter().refresh(panel, assignment, "AS1/T")
        _rows, skipped = execute_unit_plan(prepare_unit_plan(panel, assignment))
        assert state.row is None
        assert skipped == [("AS1/T", state.skip_reason)]
        assert "donor pool too small" in state.skip_reason

    def test_limit_caps_placebo_count(self):
        panel, assignment = _live_world(6, seed=8)
        state = LiveRefitter(max_placebos=3).refresh(panel, assignment, "AS1/T")
        assert state.row.n_placebos + state.row.n_placebos_skipped == 3
