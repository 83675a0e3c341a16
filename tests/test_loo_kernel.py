"""The rank-1 leave-one-out kernel against the SVD downdate it replaced.

:func:`denoise_leave_out` takes most columns on a power-iteration path
and the rest through LAPACK's SVD.  Against the independent reference
(:mod:`tests.reference_loo`), kept ranks must be equal and panels must
agree to within ``1e-12`` of each panel's largest magnitude.  Within
the kernel, results must be bit-identical however columns are batched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import build_scenario, default_fleet, scenario_kinds
from repro.mplatform import measurements_frame
from repro.obs import get_tracer
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import assign_treatment
from repro.pipeline.study import _UnitTask, prepare_unit_plan
from repro.synthcontrol import factor_donor_matrix
from repro.synthcontrol.placebo import placebo_ensemble
from repro.synthcontrol.robust import (
    _denoise_leave_out,
    denoise_leave_out,
    denoise_without_column,
)
from tests.reference_loo import reference_leave_out

REL_TOL = 1e-12


def cumsum_panel(seed, n_times, n_donors):
    """Random-walk donor paths around distinct levels (stream-like shapes)."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 1.0, size=(n_times, n_donors))
    return 40.0 + rng.normal(0.0, 5.0, size=n_donors) + np.cumsum(steps, axis=0)


def two_factor_panel(seed, n_times, n_donors):
    """Two comparable latent factors: every leave-one-out core keeps rank 2."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n_times)
    factors = np.column_stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])
    loadings = rng.normal(0.0, 1.0, size=(2, n_donors))
    noise = rng.normal(0.0, 1e-3, size=(n_times, n_donors))
    return 10.0 * factors @ loadings + noise


def mixed_panel(seed, n_times, n_donors):
    """One column carries a second factor: deleting it leaves rank 1."""
    rng = np.random.default_rng(seed)
    level = rng.normal(0.0, 1.0, size=n_times)
    donors = np.outer(level, rng.uniform(1.0, 2.0, size=n_donors))
    donors[:, 0] += 3.0 * rng.normal(0.0, 1.0, size=n_times)
    return donors + rng.normal(0.0, 1e-3, size=donors.shape)


def tied_panel(n_times=30, block=4):
    """Three equal-energy orthogonal blocks of identical columns.

    Deleting a column shrinks its block, leaving the other two tied at
    the top of the core's spectrum — a repeated top singular value.
    """
    t = np.arange(n_times)
    factors = [np.sin(2 * np.pi * (f + 1) * t / n_times) for f in range(3)]
    return np.column_stack([f for f in factors for _ in range(block)])


def assert_matches_reference(fact, cols=None, energy=0.99, min_rank=1):
    """Equal ranks, panels within REL_TOL; returns the rank-1 column count."""
    cols = range(fact.n_donors) if cols is None else cols
    stack, ranks, n_rank1 = _denoise_leave_out(fact, cols, energy, min_rank)
    want, want_ranks = reference_leave_out(fact, cols, energy, min_rank)
    np.testing.assert_array_equal(ranks, want_ranks)
    for got, ref in zip(stack, want):
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= REL_TOL * scale
    return n_rank1


def plan_facts(frame, ixp_name):
    """The donor factorization of every planned robust unit of a frame."""
    panel = rtt_panel(frame)
    plan = prepare_unit_plan(panel, assign_treatment(frame, ixp_name))
    return [
        factor_donor_matrix(np.column_stack([panel.series(d) for d in task.donors]))
        for task in plan
        if isinstance(task, _UnitTask) and len(task.donors) >= 2
    ]


@pytest.fixture(scope="module")
def campaign_facts():
    """Planned units of every scenario kind, for world seeds 0-4."""
    facts = []
    kinds = len(scenario_kinds())
    for seed in range(5):
        for spec in default_fleet(kinds, seed=seed, duration_days=12, n_donor_ases=8):
            scenario = build_scenario(spec)
            frame = measurements_frame(scenario, rng=spec.measurement_seed)
            facts.extend(plan_facts(frame, scenario.ixp_name))
    assert facts
    return facts


class TestAgainstReference:
    @pytest.mark.parametrize(
        "seed,n_times,n_donors",
        [(0, 30, 30), (1, 45, 33), (2, 60, 36), (3, 37, 31), (4, 24, 30)],
    )
    def test_cumsum_panels_at_stream_shapes(self, seed, n_times, n_donors):
        fact = factor_donor_matrix(cumsum_panel(seed, n_times, n_donors))
        assert assert_matches_reference(fact) == n_donors

    def test_small_frame_study_units(self, small_frame, small_scenario):
        facts = plan_facts(small_frame, small_scenario.ixp_name)
        assert facts
        for fact in facts:
            assert_matches_reference(fact)

    def test_campaign_spec_kinds(self, campaign_facts):
        for fact in campaign_facts:
            assert_matches_reference(fact)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_two_factor_panels_fall_back(self, seed):
        fact = factor_donor_matrix(two_factor_panel(seed, 40, 12))
        assert assert_matches_reference(fact) == 0
        _stack, ranks = denoise_leave_out(fact, range(12))
        assert (ranks == 2).all()

    def test_mixed_panel_takes_both_paths(self):
        fact = factor_donor_matrix(mixed_panel(0, 40, 10))
        assert assert_matches_reference(fact) == 1

    def test_min_rank_two_always_falls_back(self):
        fact = factor_donor_matrix(cumsum_panel(5, 30, 30))
        assert assert_matches_reference(fact, min_rank=2) == 0

    @pytest.mark.parametrize("offset", [-1e-9, 1e-9])
    def test_energy_next_to_a_share(self, offset):
        donors = cumsum_panel(6, 30, 12)
        fact = factor_donor_matrix(donors)
        _u, s, _vt = np.linalg.svd(np.delete(donors, 4, axis=1), full_matrices=False)
        share = float(s[0] ** 2 / np.sum(s**2))
        energy = share + offset
        _stack, ranks, _n = _denoise_leave_out(fact, [4], energy)
        assert ranks[0] == (1 if offset < 0 else 2)
        assert assert_matches_reference(fact, [4], energy=energy) == 0

    def test_repeated_top_singular_value_falls_back(self):
        fact = factor_donor_matrix(tied_panel())
        # At this energy the tied top value alone clears the threshold,
        # so the SVD keeps rank 1 — from a direction power iteration
        # cannot single out.
        assert assert_matches_reference(fact, energy=0.3) == 0
        _stack, ranks = denoise_leave_out(fact, range(fact.n_donors), energy=0.3)
        assert (ranks == 1).all()

    def test_zero_spectrum(self):
        fact = factor_donor_matrix(np.zeros((20, 6)))
        assert assert_matches_reference(fact) == 0
        _stack, ranks = denoise_leave_out(fact, range(6))
        assert (ranks == 0).all()

    def test_nan_gaps(self):
        donors = cumsum_panel(7, 40, 20)
        rng = np.random.default_rng(7)
        donors[rng.random(donors.shape) < 0.1] = np.nan
        assert assert_matches_reference(factor_donor_matrix(donors)) > 0

    @pytest.mark.parametrize("n_times,n_donors", [(10, 20), (6, 30), (40, 12), (12, 12)])
    def test_wide_and_tall_shapes(self, n_times, n_donors):
        # T < J gives k = T cores; T >= J gives k = J > J-1 cores.
        for panel in (cumsum_panel, two_factor_panel):
            fact = factor_donor_matrix(panel(8, n_times, n_donors))
            assert_matches_reference(fact)

    def test_two_donors(self):
        fact = factor_donor_matrix(cumsum_panel(9, 20, 2))
        assert assert_matches_reference(fact) == 2


class TestBatchIndependence:
    @pytest.mark.parametrize(
        "donors",
        [
            cumsum_panel(10, 40, 24),
            two_factor_panel(11, 40, 12),
            mixed_panel(12, 40, 10),
            tied_panel(),
        ],
        ids=["rank1", "two-factor", "mixed", "tied"],
    )
    def test_a_column_alone_equals_it_in_any_stack(self, donors):
        fact = factor_donor_matrix(donors)
        j = fact.n_donors
        stack, ranks = denoise_leave_out(fact, range(j))
        orders = [
            np.random.default_rng(0).permutation(j),
            np.arange(j)[::-1],
            np.array([1, 1, 0, j - 1, 1]),
        ]
        for order in orders:
            got, got_ranks = denoise_leave_out(fact, order)
            np.testing.assert_array_equal(got, stack[order])
            np.testing.assert_array_equal(got_ranks, ranks[order])
        for col in range(j):
            alone, alone_rank = denoise_leave_out(fact, [col])
            np.testing.assert_array_equal(alone[0], stack[col])
            assert alone_rank[0] == ranks[col]

    def test_capped_queue_equals_the_full_sweeps_head(self, campaign_facts):
        # A placebo cap sweeps only the queue's first columns; each must
        # be bit-identical to the same column of the uncapped sweep.
        facts = campaign_facts[:12] + [factor_donor_matrix(tied_panel())]
        for fact in facts:
            stack, ranks = denoise_leave_out(fact, range(fact.n_donors))
            n = min(3, fact.n_donors)
            head, head_ranks = denoise_leave_out(fact, range(n))
            np.testing.assert_array_equal(head_ranks, ranks[:n])
            np.testing.assert_array_equal(head, stack[:n])


class TestEnsembleCounts:
    def _ensemble_attrs(self, donors):
        fact = factor_donor_matrix(donors)
        get_tracer().reset()
        try:
            placebo_ensemble(fact, donors, donors.shape[0] // 2, range(donors.shape[1]))
            (record,) = [r for r in get_tracer().records if r.name == "placebo.ensemble"]
        finally:
            get_tracer().reset()
        return record.attrs

    def test_rank1_panel_never_calls_the_svd(self):
        attrs = self._ensemble_attrs(cumsum_panel(13, 30, 30))
        assert attrs["n_rank1"] == 30
        assert attrs["n_svd"] == 0

    def test_two_factor_panel_calls_the_svd_for_every_column(self):
        attrs = self._ensemble_attrs(two_factor_panel(14, 30, 12))
        assert attrs["n_rank1"] == 0
        assert attrs["n_svd"] == 12

    def test_precomputed_batch_runs_no_sweep(self):
        donors = cumsum_panel(15, 30, 8)
        fact = factor_donor_matrix(donors)
        loo = tuple(zip(*denoise_leave_out(fact, range(8))))
        get_tracer().reset()
        try:
            placebo_ensemble(fact, donors, 15, range(8), loo=loo)
            (record,) = [r for r in get_tracer().records if r.name == "placebo.ensemble"]
        finally:
            get_tracer().reset()
        assert record.attrs["n_rank1"] == record.attrs["n_svd"] == 0


class TestBatchedLeaveOneOut:
    def _fact(self):
        rng = np.random.default_rng(4)
        donors = rng.normal(40.0, 3.0, size=(30, 8))
        donors[rng.random(donors.shape) < 0.1] = np.nan
        return factor_donor_matrix(donors)

    def test_batched_svd_matches_per_column_downdate_exactly(self):
        fact = self._fact()
        stack, ranks = denoise_leave_out(fact, range(fact.n_donors), energy=0.99)
        assert len(stack) == fact.n_donors
        for col, (denoised, rank) in enumerate(zip(stack, ranks)):
            single, single_rank = denoise_without_column(fact, col, energy=0.99)
            assert rank == single_rank
            np.testing.assert_array_equal(denoised, single)

    def test_zero_spectrum_falls_back_like_the_downdate(self):
        fact = factor_donor_matrix(np.zeros((6, 3)))
        for col, (denoised, rank) in enumerate(zip(*denoise_leave_out(fact, range(3)))):
            single, single_rank = denoise_without_column(fact, col)
            assert rank == single_rank == 0
            np.testing.assert_array_equal(denoised, single)

    def test_single_donor_is_rejected(self):
        from repro.errors import DonorPoolError

        fact = factor_donor_matrix(np.ones((5, 1)))
        with pytest.raises(DonorPoolError):
            denoise_leave_out(fact, range(1))
