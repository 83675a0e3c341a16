"""Unit tests for donor-pool construction and placebo inference."""

import numpy as np
import pytest

from repro.errors import DonorPoolError
from repro.frames import Frame
from repro.synthcontrol import (
    Panel,
    PlaceboRatios,
    build_panel,
    check_assumptions,
    diagnose,
    placebo_rmse_ratios,
    placebo_test,
    robust_synthetic_control,
    select_donors,
)


def long_frame() -> Frame:
    """Three units x four days with multiple noisy samples per cell."""
    rows = []
    rng = np.random.default_rng(0)
    for day in range(4):
        for unit, base in (("a", 10.0), ("b", 20.0), ("c", 30.0)):
            for _ in range(3):
                rows.append(
                    {"unit": unit, "day": day, "rtt": base + day + rng.normal(0, 0.1)}
                )
    return Frame.from_records(rows)


class TestBuildPanel:
    def test_shape(self):
        panel = build_panel(long_frame(), unit="unit", time="day", outcome="rtt")
        assert panel.n_times == 4
        assert panel.n_units == 3
        assert panel.units == ("a", "b", "c")

    def test_median_reduction(self):
        panel = build_panel(long_frame(), unit="unit", time="day", outcome="rtt")
        assert panel.series("a")[0] == pytest.approx(10.0, abs=0.2)

    def test_times_sorted(self):
        panel = build_panel(long_frame(), unit="unit", time="day", outcome="rtt")
        assert list(panel.times) == sorted(panel.times)

    def test_missing_cell_is_nan(self):
        frame = long_frame().filter(
            lambda r: not (r["unit"] == "b" and r["day"] == 2)
        )
        panel = build_panel(frame, unit="unit", time="day", outcome="rtt")
        assert np.isnan(panel.series("b")[2])
        assert panel.missing_fraction("b") == pytest.approx(0.25)

    def test_unknown_unit(self):
        panel = build_panel(long_frame(), unit="unit", time="day", outcome="rtt")
        with pytest.raises(DonorPoolError):
            panel.series("zzz")

    def test_without_drops_units(self):
        panel = build_panel(long_frame(), unit="unit", time="day", outcome="rtt")
        out = panel.without(["b"])
        assert out.units == ("a", "c")


def synthetic_panel(j: int = 10, t: int = 40, seed: int = 0) -> Panel:
    rng = np.random.default_rng(seed)
    trend = np.linspace(50, 55, t)
    units = [f"u{i}" for i in range(j)]
    matrix = np.column_stack(
        [trend * rng.uniform(0.8, 1.2) + rng.normal(0, 0.3, t) for _ in range(j)]
    )
    return Panel(times=tuple(range(t)), units=tuple(units), matrix=matrix)


class TestSelectDonors:
    def test_excludes_treated_and_banned(self):
        panel = synthetic_panel()
        donors = select_donors(panel, "u0", excluded=["u1", "u2"])
        assert "u0" not in donors and "u1" not in donors and "u2" not in donors
        assert len(donors) == 7

    def test_max_missing_screen(self):
        panel = synthetic_panel()
        matrix = panel.matrix.copy()
        matrix[:30, 3] = np.nan  # u3 is 75% missing
        holey = Panel(times=panel.times, units=panel.units, matrix=matrix)
        donors = select_donors(holey, "u0", max_missing=0.5)
        assert "u3" not in donors

    def test_correlation_screen(self):
        panel = synthetic_panel()
        matrix = panel.matrix.copy()
        matrix[:, 4] = np.linspace(5, 0, panel.n_times)  # anti-trending unit
        weird = Panel(times=panel.times, units=panel.units, matrix=matrix)
        donors = select_donors(weird, "u0", min_correlation=0.5)
        assert "u4" not in donors

    def test_max_donors_keeps_best(self):
        panel = synthetic_panel()
        donors = select_donors(panel, "u0", max_donors=3)
        assert len(donors) == 3

    def test_no_eligible_donors_raises(self):
        panel = synthetic_panel(j=2)
        with pytest.raises(DonorPoolError):
            select_donors(panel, "u0", excluded=["u1"])


class TestPlacebo:
    def test_treated_unit_with_effect_gets_small_p(self):
        panel = synthetic_panel(j=15, seed=1)
        treated = panel.matrix[:, 0].copy()
        treated[25:] += 4.0
        donors = panel.matrix[:, 1:]
        summary = placebo_test(
            treated, donors, 25, donor_names=list(panel.units[1:])
        )
        assert summary.p_value < 0.15
        assert summary.fit.effect == pytest.approx(4.0, abs=0.8)

    def test_null_unit_gets_large_p(self):
        panel = synthetic_panel(j=15, seed=2)
        treated = panel.matrix[:, 0]
        donors = panel.matrix[:, 1:]
        summary = placebo_test(
            treated, donors, 25, donor_names=list(panel.units[1:])
        )
        assert summary.p_value > 0.2

    def test_ratio_count_respects_cap(self):
        panel = synthetic_panel(j=12, seed=3)
        ratios = placebo_rmse_ratios(
            panel.matrix, 25, list(panel.units), max_placebos=5
        )
        assert len(ratios) <= 5

    def test_classic_method_accepted(self):
        panel = synthetic_panel(j=10, seed=4)
        treated = panel.matrix[:, 0].copy()
        treated[25:] += 4.0
        summary = placebo_test(
            treated,
            panel.matrix[:, 1:],
            25,
            donor_names=list(panel.units[1:]),
            method="classic",
        )
        assert summary.fit.method == "classic"

    def test_unknown_method(self):
        panel = synthetic_panel()
        with pytest.raises(DonorPoolError):
            placebo_test(
                panel.matrix[:, 0],
                panel.matrix[:, 1:],
                20,
                donor_names=list(panel.units[1:]),
                method="bayesian",
            )


class TestPlaceboSkipAccounting:
    """Failed placebo refits are recorded, not silently swallowed."""

    def test_no_skips_on_clean_panel(self):
        panel = synthetic_panel(j=10, seed=7)
        ratios = placebo_rmse_ratios(panel.matrix, 25, list(panel.units))
        assert ratios.skipped == ()
        assert ratios.n_skipped == 0
        assert len(ratios) == 10

    def test_degenerate_prefit_recorded_with_reason(self):
        panel = synthetic_panel(j=8, seed=8)
        # A threshold above every achievable pre-RMSE skips all refits.
        ratios = placebo_rmse_ratios(
            panel.matrix, 25, list(panel.units), min_pre_rmse=1e9
        )
        assert len(ratios) == 0
        assert ratios.n_skipped == 8
        names = {name for name, _ in ratios.skipped}
        assert names == set(panel.units)
        for _, reason in ratios.skipped:
            assert "pre-fit" in reason

    def test_all_skipped_surfaces_count_in_placebo_test(self):
        panel = synthetic_panel(j=8, seed=9)
        with pytest.raises(DonorPoolError, match="8 skipped"):
            placebo_test(
                panel.matrix[:, 0],
                panel.matrix,
                25,
                donor_names=list(panel.units),
                min_pre_rmse=1e9,
            )

    def test_summary_carries_skip_account(self):
        panel = synthetic_panel(j=12, seed=10)
        summary = placebo_test(
            panel.matrix[:, 0],
            panel.matrix[:, 1:],
            25,
            donor_names=list(panel.units[1:]),
        )
        assert summary.n_placebos_skipped == len(summary.skipped_placebos)
        total = len(summary.placebo_rmse_ratios) + summary.n_placebos_skipped
        assert total == 11

    def test_programming_errors_propagate(self):
        """A typo'd fit kwarg must raise, not silently empty the pool."""
        panel = synthetic_panel(j=6, seed=11)
        with pytest.raises(TypeError):
            placebo_rmse_ratios(
                panel.matrix, 25, list(panel.units), energgy=0.9
            )

    def test_zero_placebos_is_empty(self):
        panel = synthetic_panel(j=6, seed=13)
        for method in ("robust", "classic"):
            ratios = placebo_rmse_ratios(
                panel.matrix, 25, list(panel.units), method=method, max_placebos=0
            )
            assert ratios == PlaceboRatios(ratios=(), skipped=())

    def test_zero_placebos_fails_placebo_test(self):
        panel = synthetic_panel(j=6, seed=13)
        with pytest.raises(DonorPoolError, match="0 skipped"):
            placebo_test(
                panel.matrix[:, 0],
                panel.matrix[:, 1:],
                25,
                donor_names=list(panel.units[1:]),
                max_placebos=0,
            )

    def test_single_donor_pool_skips_with_reason(self):
        panel = synthetic_panel(j=1, seed=12)
        ratios = placebo_rmse_ratios(panel.matrix, 25, list(panel.units))
        assert len(ratios) == 0
        assert ratios.n_skipped == 1


class TestDiagnostics:
    def test_good_fit_no_warnings(self):
        panel = synthetic_panel(j=15, seed=5)
        treated = panel.matrix[:, 0].copy()
        treated[25:] += 4.0
        fit = robust_synthetic_control(
            treated, panel.matrix[:, 1:], 25, donor_names=list(panel.units[1:])
        )
        diag = diagnose(fit)
        assert diag.pre_correlation > 0.8
        assert diag.n_effective_donors > 1.0
        warnings = check_assumptions(fit)
        assert not any("poor pre-change fit" in w for w in warnings)

    def test_bad_fit_warns(self):
        rng = np.random.default_rng(6)
        treated = rng.normal(100, 30, 40)  # unrelated to donors
        donors = rng.normal(0, 0.1, (40, 5))
        fit = robust_synthetic_control(treated, donors, 25)
        warnings = check_assumptions(fit)
        assert warnings, "expected at least one warning for an unrelated series"
