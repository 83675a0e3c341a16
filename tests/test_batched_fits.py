"""One factorization per unit: imputation, the ledger's context, the plan.

What these tests pin down:

- the vectorized imputation (:func:`_impute_columns` inside
  :func:`factor_donor_matrix`) is bit-identical to the historical
  per-column Python loop, across random NaN patterns, fully observed
  panels, and all-missing-column errors;
- a unit ledger builds each planned unit's placebo context once — one
  :func:`factor_donor_matrix` call per robust unit across a study and
  across every round of a campaign — and the study's rows on those
  shared contexts equal each unit's private :func:`placebo_test`
  exactly, with and without a placebo cap;
- the plan's screen is the only donor selection a study runs.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.errors import DonorPoolError, ExecutionError
from repro.obs import get_tracer
from repro.pipeline import study as study_module
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import assign_treatment
from repro.pipeline.executor import SerialExecutor
from repro.pipeline.study import (
    UnitLedger,
    _UnitTask,
    prepare_unit_plan,
    run_ixp_study,
    run_unit_work,
)
from repro.synthcontrol.donor import Panel
from repro.synthcontrol.placebo import placebo_test
from repro.synthcontrol.robust import denoise_leave_out, factor_donor_matrix


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


class TestUnitLedger:
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

    def test_context_is_the_units_own_factorization(self):
        panel = self._panel()
        treated = [panel.units[0], panel.units[1]]
        ledger = UnitLedger(self._tasks(panel, treated))
        for unit in treated:
            task = ledger.tasks[unit]
            ctx = ledger.context(unit)
            assert ledger.context(unit) is ctx  # built once
            matrix = np.column_stack([panel.series(d) for d in task.donors])
            np.testing.assert_array_equal(ctx.donors, matrix)
            own = factor_donor_matrix(matrix)
            for name in ("filled", "u", "s", "vt"):
                np.testing.assert_array_equal(
                    getattr(ctx.fact, name), getattr(own, name)
                )
            stack, ranks = denoise_leave_out(own, range(len(task.donors)))
            assert len(ctx.loo) == len(task.donors)
            for (denoised, rank), want, want_rank in zip(ctx.loo, stack, ranks):
                assert rank == want_rank
                np.testing.assert_array_equal(denoised, want)

    def test_placebo_cap_bounds_the_loo_batch(self):
        panel = self._panel()
        unit = panel.units[0]
        capped = UnitLedger(self._tasks(panel, [unit], max_placebos=2))
        assert len(capped.context(unit).loo) == 2
        single = UnitLedger(self._tasks(panel, [unit], max_placebos=1))
        assert single.context(unit).loo is None

    def test_classic_tasks_are_left_out(self):
        panel = self._panel()
        classic = [
            type(t)(**{**t.__dict__, "method": "classic", "fit_kwargs": ()})
            for t in self._tasks(panel, [panel.units[0]])
        ]
        ctx = UnitLedger(classic).context(panel.units[0])
        assert ctx.fact is None and ctx.loo is None

    def test_ledger_task_matches_placebo_test(self):
        panel = self._panel()
        unit = panel.units[0]
        (task,) = self._tasks(panel, [unit])
        ledger = UnitLedger([task])
        run_unit_work(SerialExecutor(), {"": ledger}, ledger.work(ledger.queue()))
        (row,), skipped = ledger.rows()
        assert skipped == []
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
        assert row.p_value == private.p_value
        assert row.rtt_delta_ms == private.fit.effect
        assert row.rmse_ratio == private.fit.rmse_ratio
        assert row.n_placebos == len(private.placebo_rmse_ratios)

    def test_task_is_hashable_now_fit_kwargs_is_frozen(self):
        panel = self._panel()
        (task,) = self._tasks(panel, [panel.units[0]])
        (twin,) = self._tasks(panel, [panel.units[0]])
        assert hash(task) == hash(twin)
        assert isinstance(task.fit_kwargs, tuple)


@pytest.fixture
def factorizations(monkeypatch):
    """Every donor matrix the fit stage factors, in call order."""
    calls: list[tuple[int, int]] = []

    def counting(matrix):
        calls.append(matrix.shape)
        return factor_donor_matrix(matrix)

    monkeypatch.setattr(study_module, "factor_donor_matrix", counting)
    return calls


def _fits_units(records):
    """``(scenario, unit)`` of every ``fits.unit`` span: one per planned unit."""
    return [
        (r.attrs.get("scenario", ""), r.attrs["unit"])
        for r in records
        if r.name == "fits.unit"
    ]


class TestStudyLevelBitIdentity:
    """The study's shared contexts give each unit's private placebo test."""

    def _assert_rows_equal_private_tests(self, frame, ixp, max_placebos=None):
        result = run_ixp_study(frame, ixp, max_placebos=max_placebos)
        assert result.rows  # the comparison must not be vacuous
        panel = rtt_panel(frame, period="day", outcome="rtt_ms")
        plan = prepare_unit_plan(
            panel, assign_treatment(frame, ixp), max_placebos=max_placebos
        )
        rows = {row.unit: row for row in result.rows}
        for task in plan:
            if not isinstance(task, _UnitTask):
                continue
            matrix = np.column_stack([panel.series(d) for d in task.donors])
            private = placebo_test(
                panel.series(task.unit),
                matrix,
                task.pre_periods,
                treated_name=task.unit,
                donor_names=task.donors,
                max_placebos=max_placebos,
                energy=0.99,
                ridge=1e-2,
            )
            row = rows[task.unit]
            assert row.rtt_delta_ms == private.fit.effect
            assert row.rmse_ratio == private.fit.rmse_ratio
            assert row.p_value == private.p_value
            assert row.n_placebos == len(private.placebo_rmse_ratios)
            assert row.n_placebos_skipped == len(private.skipped_placebos)

    def test_batched_equals_unbatched(self, small_frame, small_scenario):
        self._assert_rows_equal_private_tests(small_frame, small_scenario.ixp_name)

    def test_batched_equals_unbatched_with_placebo_cap(
        self, small_frame, small_scenario
    ):
        self._assert_rows_equal_private_tests(
            small_frame, small_scenario.ixp_name, max_placebos=3
        )


class TestOneFactorizationPerUnit:
    def test_study_factors_each_planned_unit_once(
        self, factorizations, small_frame, small_scenario
    ):
        get_tracer().reset()
        try:
            result = run_ixp_study(small_frame, small_scenario.ixp_name)
            records = list(get_tracer().records)
        finally:
            get_tracer().reset()
        planned = _fits_units(records)
        assert len(set(planned)) == len(planned) >= len(result.rows) > 0
        assert len(factorizations) == len(planned)
        assert not [r for r in records if r.name == "fits.prefactor"]

    def test_campaign_factors_each_planned_unit_once_across_rounds(
        self, factorizations
    ):
        from repro.campaign import ScenarioSpec, run_campaign

        fleet = (
            ScenarioSpec(
                name="alpha", kind="baseline", seed=1, measurement_seed=5,
                n_donor_ases=8, duration_days=10,
            ),
            ScenarioSpec(
                name="bravo", kind="congestion-shock", seed=2,
                measurement_seed=6, n_donor_ases=8, duration_days=10,
            ),
        )
        get_tracer().reset()
        try:
            result = run_campaign(fleet, budget=24, round_refits=4, n_jobs=1)
            records = list(get_tracer().records)
        finally:
            get_tracer().reset()
        assert len(result.trace) >= 3  # stage B, then several stage-C rounds
        planned = _fits_units(records)
        assert {scenario for scenario, _unit in planned} == {"alpha", "bravo"}
        assert len(set(planned)) == len(planned)
        assert len(factorizations) == len(planned)
        assert not [r for r in records if r.name == "fits.prefactor"]
        # Every round's ensembles read the ledger's leave-one-out panels:
        # no round repeats a sweep.
        ensembles = [r for r in records if r.name == "placebo.ensemble"]
        assert ensembles
        assert all(r.attrs["n_rank1"] == r.attrs["n_svd"] == 0 for r in ensembles)

    def test_nothing_in_src_imports_the_retired_prefactor_pass(self):
        src = Path(study_module.__file__).resolve().parents[1]
        importers = []
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = {f"{node.module}.{a.name}" for a in node.names}
                    names.add(node.module or "")
                elif isinstance(node, ast.Import):
                    names = {a.name for a in node.names}
                else:
                    continue
                if "repro.pipeline.prefactor" in names:
                    importers.append(str(path.relative_to(src)))
        assert importers == []

    def test_batch_fits_true_is_refused(self, small_frame, small_scenario):
        with pytest.raises(ExecutionError, match="batch_fits"):
            run_ixp_study(small_frame, small_scenario.ixp_name, batch_fits=True)


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
    @pytest.mark.parametrize("journaled", [True, False])
    def test_one_selection_per_planned_unit(
        self, selections, small_frame, small_scenario, n_jobs, journaled, tmp_path
    ):
        # Journaling each fit through a checkpoint must not re-run the screen.
        result = run_ixp_study(
            small_frame,
            small_scenario.ixp_name,
            n_jobs=n_jobs,
            checkpoint=tmp_path / "study.jsonl" if journaled else None,
        )
        assert (tmp_path / "study.jsonl").exists() == journaled
        # No unit fails the shape screen here, so every treated unit is
        # planned: a fitted row or a donor-screen skip.
        assert not any("treatment" in reason for _unit, reason in result.skipped)
        planned = len(result.rows) + len(result.skipped)
        assert planned > 0
        assert len(selections) == planned
        assert sorted(selections) == sorted(
            [r.unit for r in result.rows] + [u for u, _ in result.skipped]
        )
