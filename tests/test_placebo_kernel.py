"""Parity suite for the stacked robust placebo kernel.

:func:`placebo_ensemble` must reproduce, bit for bit, the per-column
loop it replaced: the leave-one-out de-noising one column at a time
(:func:`denoise_without_column`), the regression stage
(:func:`fit_from_denoised`), the :class:`SyntheticControlFit` RMSE
properties, and the skip screens with their exact reason strings.  The
oracle below is that loop, written out here so the stacked solve and
screens can never be their own reference.  The leave-one-out panels
themselves are checked against an independent SVD downdate in
``tests/test_loo_kernel.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DonorPoolError, EstimationError
from repro.obs import get_tracer
from repro.pipeline import run_ixp_study
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import assign_treatment
from repro.pipeline.study import _UnitTask, prepare_unit_plan
from repro.synthcontrol import (
    denoise_without_column,
    factor_donor_matrix,
    fit_from_denoised,
    placebo_rmse_ratios,
)
from repro.synthcontrol.placebo import placebo_ensemble
from repro.synthcontrol.robust import denoise_leave_one_out


def oracle(fact, donors, pre_periods, cols, energy=0.99, ridge=1e-2, min_pre_rmse=1e-9):
    """The historical per-column placebo loop."""
    out = []
    for col in cols:
        try:
            denoised, _rank = denoise_without_column(fact, col, energy=energy)
            fit = fit_from_denoised(
                donors[:, col], denoised, pre_periods, f"placebo:{col}", (), ridge=ridge
            )
        except (DonorPoolError, EstimationError) as exc:
            out.append((None, str(exc) or type(exc).__name__))
            continue
        if fit.pre_rmse < min_pre_rmse:
            out.append(
                (
                    None,
                    f"degenerate pre-fit (pre_rmse={fit.pre_rmse:.3g} "
                    f"< {min_pre_rmse:.3g})",
                )
            )
            continue
        ratio = fit.rmse_ratio
        if not np.isfinite(ratio):
            out.append((None, "non-finite RMSE ratio"))
            continue
        out.append((float(ratio), ""))
    return out


def cumsum_panel(seed, n_times, n_donors):
    """Random-walk donor paths around distinct levels (stream-like shapes)."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 1.0, size=(n_times, n_donors))
    return 40.0 + rng.normal(0.0, 5.0, size=n_donors) + np.cumsum(steps, axis=0)


def ensemble_spans():
    return [r for r in get_tracer().records if r.name == "placebo.ensemble"]


@pytest.fixture(scope="module")
def study_tasks(small_frame, small_scenario):
    panel = rtt_panel(small_frame)
    assignment = assign_treatment(small_frame, small_scenario.ixp_name)
    tasks = [
        t for t in prepare_unit_plan(panel, assignment) if isinstance(t, _UnitTask)
    ]
    assert tasks
    return panel, tasks


class TestKernelParity:
    def test_small_frame_study_units(self, study_tasks):
        panel, tasks = study_tasks
        for task in tasks:
            donors = np.column_stack([panel.series(d) for d in task.donors])
            fact = factor_donor_matrix(donors)
            cols = range(donors.shape[1])
            want = oracle(fact, donors, task.pre_periods, cols)
            assert placebo_ensemble(fact, donors, task.pre_periods, cols) == want
            loo = denoise_leave_one_out(fact)
            got = placebo_ensemble(fact, donors, task.pre_periods, cols, loo=loo)
            assert got == want

    @pytest.mark.parametrize(
        "seed,n_times,n_donors", [(0, 30, 30), (1, 45, 33), (2, 60, 36), (3, 37, 31)]
    )
    def test_cumsum_panels_at_stream_shapes(self, seed, n_times, n_donors):
        donors = cumsum_panel(seed, n_times, n_donors)
        fact = factor_donor_matrix(donors)
        pre = n_times // 2
        cols = range(n_donors)
        assert placebo_ensemble(fact, donors, pre, cols) == oracle(fact, donors, pre, cols)

    def test_missing_cells_take_the_per_row_path(self):
        donors = cumsum_panel(4, 40, 30)
        donors[3, 5] = np.nan  # pre-period gap in pseudo-treated column 5
        donors[35, 9] = np.nan  # post-period gap in column 9
        fact = factor_donor_matrix(donors)
        cols = range(30)
        get_tracer().reset()
        got = placebo_ensemble(fact, donors, 20, cols)
        assert got == oracle(fact, donors, 20, cols)
        (record,) = ensemble_spans()
        assert record.attrs["n_cols"] == 30
        assert record.attrs["n_per_row"] == 2
        assert record.attrs["n_stacked"] == 28
        get_tracer().reset()

    def test_zero_spectrum(self):
        donors = np.zeros((20, 6))
        fact = factor_donor_matrix(donors)
        assert fact.s.sum() == 0
        cols = range(6)
        got = placebo_ensemble(fact, donors, 10, cols)
        assert got == oracle(fact, donors, 10, cols)
        assert all(ratio is None for ratio, _reason in got)

    def test_max_placebos_cap(self):
        donors = cumsum_panel(5, 36, 32)
        names = [f"d{i}" for i in range(32)]
        capped = placebo_rmse_ratios(donors, 18, names, max_placebos=5)
        want = oracle(factor_donor_matrix(donors), donors, 18, range(5))
        assert [(n, r) for n, r in capped] == [
            (names[c], r) for c, (r, _) in enumerate(want) if r is not None
        ]
        assert len(capped) + capped.n_skipped == 5

    def test_single_column_equals_full_stack(self):
        donors = cumsum_panel(6, 50, 34)
        donors[10, 2] = np.nan
        fact = factor_donor_matrix(donors)
        full = placebo_ensemble(fact, donors, 25, range(34))
        for col in range(34):
            assert placebo_ensemble(fact, donors, 25, [col]) == [full[col]]

    def test_every_column_skipped_with_its_reason(self):
        donors = cumsum_panel(7, 40, 30)
        fact = factor_donor_matrix(donors)
        cols = range(30)
        got = placebo_ensemble(fact, donors, 20, cols, min_pre_rmse=1e9)
        assert got == oracle(fact, donors, 20, cols, min_pre_rmse=1e9)
        assert all(
            ratio is None and reason.startswith("degenerate pre-fit")
            for ratio, reason in got
        )

    def test_single_donor_pool(self):
        donors = cumsum_panel(8, 20, 1)
        fact = factor_donor_matrix(donors)
        got = placebo_ensemble(fact, donors, 10, [0])
        assert got == oracle(fact, donors, 10, [0])


class TestEnsembleSpans:
    def test_one_ensemble_span_per_analysed_robust_unit(
        self, small_frame, small_scenario
    ):
        get_tracer().reset()
        try:
            result = run_ixp_study(small_frame, small_scenario.ixp_name)
            records = list(get_tracer().records)
        finally:
            get_tracer().reset()
        by_id = {r.span_id: r for r in records}
        ensembles = [r for r in records if r.name == "placebo.ensemble"]
        assert len(ensembles) == len(result.rows)
        for record in ensembles:
            assert by_id[record.parent_id].name == "fits.unit"
            assert record.attrs["n_stacked"] + record.attrs["n_per_row"] == (
                record.attrs["n_cols"]
            )
        placebos = [r for r in records if r.name == "placebo"]
        assert len(placebos) == sum(r.attrs["n_cols"] for r in ensembles)
        survivors = [r for r in placebos if r.attrs.get("ok")]
        assert len(survivors) == sum(row.n_placebos for row in result.rows)
