"""The cross-unit batched fit engine (PR 8's tentpole, fit half).

What these tests pin down:

- the vectorized imputation (:func:`_impute_columns` inside
  :func:`factor_donor_matrix`) is bit-identical to the historical
  per-column Python loop, across random NaN patterns, fully observed
  panels, and all-missing-column errors;
- stacked cross-unit SVDs (:func:`factor_donor_matrices`,
  :func:`denoise_leave_one_out_many`) match the per-unit calls
  bit-for-bit, including degenerate spectra (``s.sum() == 0``) and
  mixed donor-pool shapes;
- the prefactor planning pass produces factorizations the per-unit
  path would, and a fit handed that table leaves the study's Table-1
  rows bit-identical to the unbatched engine's.
"""

import numpy as np
import pytest

from repro.errors import DonorPoolError
from repro.pipeline.prefactor import prefactor_unit_plan
from repro.pipeline.study import run_ixp_study
from repro.synthcontrol.donor import Panel
from repro.synthcontrol.placebo import placebo_test
from repro.synthcontrol.robust import (
    denoise_leave_one_out,
    denoise_leave_one_out_many,
    factor_donor_matrices,
    factor_donor_matrix,
)


def _loop_impute(matrix: np.ndarray):
    """The historical per-column imputation loop, kept as the oracle."""
    filled = matrix.copy()
    col_means = np.empty(matrix.shape[1])
    finite_counts = np.empty(matrix.shape[1], dtype=np.int64)
    for j in range(matrix.shape[1]):
        col = filled[:, j]
        ok = np.isfinite(col)
        finite_counts[j] = int(ok.sum())
        if finite_counts[j] == 0:
            raise DonorPoolError(f"donor column {j} is entirely missing")
        col_means[j] = col[ok].mean()
        col[~ok] = col_means[j]
    return filled, col_means, finite_counts


def _random_matrix(rng, t, j, missing=0.0):
    matrix = rng.normal(45.0, 6.0, size=(t, j))
    if missing:
        matrix[rng.random(matrix.shape) < missing] = np.nan
    return matrix


class TestVectorizedImputation:
    @pytest.mark.parametrize("missing", [0.0, 0.05, 0.3, 0.7])
    def test_bit_identical_to_the_loop_across_nan_densities(self, missing):
        rng = np.random.default_rng(11)
        for trial in range(10):
            matrix = _random_matrix(rng, 25, 7, missing)
            if not np.isfinite(matrix).any(axis=0).all():
                continue
            fact = factor_donor_matrix(matrix)
            filled, means, counts = _loop_impute(matrix)
            np.testing.assert_array_equal(fact.filled, filled)
            np.testing.assert_array_equal(fact.col_means, means)
            np.testing.assert_array_equal(fact.finite_counts, counts)

    def test_all_missing_column_raises_the_same_message(self):
        matrix = np.ones((6, 3))
        matrix[:, 1] = np.nan
        with pytest.raises(DonorPoolError, match="donor column 1 is entirely"):
            factor_donor_matrix(matrix)
        with pytest.raises(DonorPoolError, match="donor column 1 is entirely"):
            _loop_impute(matrix)

    def test_single_finite_cell_column_matches(self):
        matrix = np.full((5, 2), np.nan)
        matrix[:, 0] = 1.0
        matrix[2, 1] = 7.5
        fact = factor_donor_matrix(matrix)
        filled, means, _counts = _loop_impute(matrix)
        np.testing.assert_array_equal(fact.filled, filled)
        np.testing.assert_array_equal(fact.col_means, means)


class TestCrossUnitFactorization:
    def test_stacked_svd_matches_per_unit_exactly(self):
        rng = np.random.default_rng(3)
        matrices = [_random_matrix(rng, 30, 8, 0.1) for _ in range(6)]
        batched = factor_donor_matrices(matrices)
        for matrix, fact in zip(matrices, batched):
            single = factor_donor_matrix(matrix)
            np.testing.assert_array_equal(fact.filled, single.filled)
            np.testing.assert_array_equal(fact.u, single.u)
            np.testing.assert_array_equal(fact.s, single.s)
            np.testing.assert_array_equal(fact.vt, single.vt)

    def test_mixed_shapes_group_and_still_match(self):
        rng = np.random.default_rng(5)
        matrices = [
            _random_matrix(rng, 20, 5),
            _random_matrix(rng, 30, 8, 0.2),
            _random_matrix(rng, 20, 5, 0.1),
            _random_matrix(rng, 12, 3),
            _random_matrix(rng, 30, 8),
        ]
        batched = factor_donor_matrices(matrices)
        assert len(batched) == len(matrices)
        for matrix, fact in zip(matrices, batched):
            single = factor_donor_matrix(matrix)
            assert fact.filled.shape == matrix.shape
            np.testing.assert_array_equal(fact.u, single.u)
            np.testing.assert_array_equal(fact.s, single.s)
            np.testing.assert_array_equal(fact.vt, single.vt)

    def test_degenerate_zero_spectrum_matches(self):
        matrices = [np.zeros((6, 3)), np.ones((6, 3))]
        batched = factor_donor_matrices(matrices)
        for matrix, fact in zip(matrices, batched):
            single = factor_donor_matrix(matrix)
            np.testing.assert_array_equal(fact.s, single.s)
            np.testing.assert_array_equal(fact.u, single.u)
            np.testing.assert_array_equal(fact.vt, single.vt)

    def test_empty_input_and_validation(self):
        assert factor_donor_matrices([]) == []
        with pytest.raises(DonorPoolError, match="must be 2-D"):
            factor_donor_matrices([np.ones((4, 2)), np.ones(3)])


class TestCrossUnitLeaveOneOut:
    def _facts(self, shapes, rng):
        return [
            factor_donor_matrix(_random_matrix(rng, t, j, 0.1))
            for t, j in shapes
        ]

    def test_many_matches_per_unit_bit_for_bit(self):
        rng = np.random.default_rng(9)
        facts = self._facts([(25, 6)] * 5, rng)
        batched = denoise_leave_one_out_many(facts, energy=0.99)
        for fact, loo in zip(facts, batched):
            single = denoise_leave_one_out(fact, energy=0.99)
            assert len(loo) == len(single)
            for (d_many, r_many), (d_one, r_one) in zip(loo, single):
                assert r_many == r_one
                np.testing.assert_array_equal(d_many, d_one)

    def test_mixed_shapes_and_zero_spectrum(self):
        rng = np.random.default_rng(13)
        facts = self._facts([(20, 5), (30, 7), (20, 5)], rng)
        facts.append(factor_donor_matrix(np.zeros((10, 4))))
        batched = denoise_leave_one_out_many(facts)
        assert len(batched) == len(facts)
        for fact, loo in zip(facts, batched):
            single = denoise_leave_one_out(fact)
            for (d_many, r_many), (d_one, r_one) in zip(loo, single):
                assert r_many == r_one
                np.testing.assert_array_equal(d_many, d_one)

    def test_limit_is_per_unit(self):
        rng = np.random.default_rng(17)
        facts = self._facts([(15, 6), (15, 3)], rng)
        batched = denoise_leave_one_out_many(facts, limit=4)
        assert [len(loo) for loo in batched] == [4, 3]


class TestPrefactorEngine:
    def _panel(self, n_units=8, n_times=24, seed=1):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(50.0, 5.0, size=(n_times, n_units))
        matrix[rng.random(matrix.shape) < 0.05] = np.nan
        return Panel(
            times=tuple(float(t) for t in range(n_times)),
            units=tuple(f"AS{100 + j}/cpt" for j in range(n_units)),
            matrix=matrix,
        )

    def _tasks(self, panel, treated, max_placebos=None):
        from repro.pipeline.study import _UnitTask
        from repro.synthcontrol.donor import select_donors

        return [
            _UnitTask(
                unit=unit,
                pre_periods=12,
                post_periods=panel.n_times - 12,
                panel=panel,
                donors=tuple(
                    select_donors(
                        panel,
                        unit,
                        excluded=tuple(treated),
                        pre_periods=12,
                        max_missing=0.5,
                    )
                ),
                method="robust",
                max_placebos=max_placebos,
                fit_kwargs=(("energy", 0.99), ("ridge", 1e-2)),
            )
            for unit in treated
        ]

    def test_prefactors_match_the_private_factorization(self):
        panel = self._panel()
        treated = [panel.units[0], panel.units[1]]
        tasks = self._tasks(panel, treated)
        table = prefactor_unit_plan(panel, tasks)
        assert set(table) == {("", unit) for unit in treated}
        for task in tasks:
            pf = table[("", task.unit)]
            matrix = np.column_stack([panel.series(d) for d in task.donors])
            single = factor_donor_matrix(matrix)
            np.testing.assert_array_equal(pf.fact.u, single.u)
            np.testing.assert_array_equal(pf.fact.s, single.s)
            np.testing.assert_array_equal(pf.fact.vt, single.vt)
            assert pf.loo is not None
            single_loo = denoise_leave_one_out(single, energy=0.99)
            for (d_pf, r_pf), (d_one, r_one) in zip(pf.loo, single_loo):
                assert r_pf == r_one
                np.testing.assert_array_equal(d_pf, d_one)

    def test_placebo_cap_bounds_the_loo_batch(self):
        panel = self._panel()
        treated = [panel.units[0]]
        table = prefactor_unit_plan(
            panel, self._tasks(panel, treated, max_placebos=2)
        )
        (pf,) = table.values()
        assert pf.loo is not None and len(pf.loo) == 2
        capped = prefactor_unit_plan(
            panel, self._tasks(panel, treated, max_placebos=1)
        )
        assert next(iter(capped.values())).loo is None

    def test_classic_tasks_are_left_out(self):
        panel = self._panel()
        tasks = self._tasks(panel, [panel.units[0]])
        classic = [
            type(t)(**{**t.__dict__, "method": "classic", "fit_kwargs": ()})
            for t in tasks
        ]
        assert prefactor_unit_plan(panel, classic) == {}

    def test_seeded_placebo_test_matches_private_fit(self):
        from repro.pipeline.study import run_unit_task, unit_row

        def study_row(task, prefactors):
            cols = tuple(range(len(task.donors)))
            fit, refits = run_unit_task((task, None, cols), prefactors)
            return unit_row(fit, list(refits.values()), exhausted=True)

        panel = self._panel()
        unit = panel.units[0]
        (task,) = self._tasks(panel, [unit])
        table = prefactor_unit_plan(panel, [task])
        matrix = np.column_stack([panel.series(d) for d in task.donors])
        private = placebo_test(
            panel.series(unit),
            matrix,
            12,
            treated_name=unit,
            donor_names=task.donors,
            energy=0.99,
            ridge=1e-2,
        )
        seeded = study_row(task, table)
        assert seeded == study_row(task, {})  # the unseeded fit
        assert seeded.p_value == private.p_value
        assert seeded.rtt_delta_ms == private.fit.effect
        assert seeded.rmse_ratio == private.fit.rmse_ratio
        assert seeded.n_placebos == len(private.placebo_rmse_ratios)

    def test_task_is_hashable_now_fit_kwargs_is_frozen(self):
        panel = self._panel()
        (task,) = self._tasks(panel, [panel.units[0]])
        (twin,) = self._tasks(panel, [panel.units[0]])
        assert hash(task) == hash(twin)
        assert isinstance(task.fit_kwargs, tuple)


class TestStudyLevelBitIdentity:
    def test_batched_equals_unbatched(self, small_frame, small_scenario):
        reference = run_ixp_study(
            small_frame, small_scenario.ixp_name, batch_fits=False
        )
        assert reference.rows  # the comparison must not be vacuous
        result = run_ixp_study(small_frame, small_scenario.ixp_name)
        assert result.rows == reference.rows
        assert result.skipped == reference.skipped

    def test_batched_equals_unbatched_with_placebo_cap(
        self, small_frame, small_scenario
    ):
        reference = run_ixp_study(
            small_frame, small_scenario.ixp_name, max_placebos=3, batch_fits=False
        )
        batched = run_ixp_study(
            small_frame, small_scenario.ixp_name, max_placebos=3
        )
        assert batched.rows == reference.rows
        assert batched.skipped == reference.skipped


class TestDonorsChosenOnce:
    """The plan's screen is the only donor selection a study runs."""

    @pytest.fixture
    def selections(self, monkeypatch):
        import sys

        from repro.synthcontrol import donor as donor_module

        calls: list[str] = []
        original = donor_module.select_donors

        def counting(panel, treated_unit, *args, **kwargs):
            calls.append(treated_unit)
            return original(panel, treated_unit, *args, **kwargs)

        # Patch every module namespace that bound the function at import.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
        return calls

    @pytest.mark.parametrize("n_jobs", [1])
    @pytest.mark.parametrize("batch_fits", [True, False])
    def test_one_selection_per_planned_unit(
        self, selections, small_frame, small_scenario, n_jobs, batch_fits
    ):
        result = run_ixp_study(
            small_frame,
            small_scenario.ixp_name,
            n_jobs=n_jobs,
            batch_fits=batch_fits,
        )
        # No unit fails the shape screen here, so every treated unit is
        # planned: a fitted row or a donor-screen skip.
        assert not any("treatment" in reason for _unit, reason in result.skipped)
        planned = len(result.rows) + len(result.skipped)
        assert planned > 0
        assert len(selections) == planned
        assert sorted(selections) == sorted(
            [r.unit for r in result.rows] + [u for u, _ in result.skipped]
        )
