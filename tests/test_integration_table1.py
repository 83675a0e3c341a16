"""Integration test: the full Table-1 experiment end to end.

This is the repository's headline check — everything from the topology
generator through BGP, speed tests, traceroute matching, panels, robust
synthetic control, and placebo inference has to cooperate, and the
result has to reproduce the paper's qualitative findings.
"""

import numpy as np
import pytest

from repro.studies import run_table1_experiment


@pytest.fixture(scope="module")
def output():
    return run_table1_experiment(
        n_donor_ases=20, duration_days=30, join_day=15, seed=0, measurement_seed=2
    )


class TestTable1Shape:
    def test_all_eight_units_analysed(self, output):
        analysed = {r.unit for r in output.result.rows}
        skipped = {u for u, _ in output.result.skipped}
        assert len(analysed | skipped) == 8
        assert len(analysed) >= 6  # at most a couple may be skipped

    def test_deltas_in_paper_band(self, output):
        """Per-unit RTT deltas are single-digit ms, like the paper's ±8."""
        for row in output.result.rows:
            assert abs(row.rtt_delta_ms) < 15.0

    def test_mostly_insignificant(self, output):
        """Most units show p >= 0.1; at most a couple are marginal."""
        marginal = [r for r in output.result.rows if r.p_value < 0.10]
        assert len(marginal) <= 3

    def test_headline_finding(self, output):
        """'The effect is neither consistent nor robust.'"""
        assert not output.result.consistent_effect

    def test_estimates_not_wildly_off_truth(self, output):
        for row in output.result.rows:
            truth = output.truth[row.unit]
            assert abs(row.rtt_delta_ms - truth) < 12.0

    def test_rmse_ratios_finite_positive(self, output):
        for row in output.result.rows:
            assert np.isfinite(row.rmse_ratio)
            assert row.rmse_ratio > 0

    def test_report_renders(self, output):
        text = output.format_report()
        assert "verdict" in text
        assert "neither consistent nor robust" in text


class TestEstimatorHonesty:
    """Because we control ground truth, we can check the method itself."""

    def test_placebo_calibration_under_null(self, output):
        """Donor units have true effect zero: across several donors treated
        as pseudo-joined, p-values must look uniform-ish (not clustered at
        small values) and effects must stay small."""
        from repro.pipeline import rtt_panel
        from repro.synthcontrol import placebo_test, select_donors

        from repro.netsim.events import DepeeringEvent, NewLinkEvent

        sc = output.scenario
        panel = rtt_panel(output.measurements)
        treated_labels = {f"AS{a}/{c}" for a, c in sc.treated_units}
        churned_asns = {
            e.a_asn
            for e in sc.timeline.events
            if isinstance(e, (NewLinkEvent, DepeeringEvent))
        }
        donor_labels = [
            u
            for u in panel.units
            if u not in treated_labels
            and int(u.split("/")[0][2:]) not in churned_asns
        ][:6]
        p_values = []
        for label in donor_labels:
            donors = select_donors(
                panel, label, excluded=sorted(treated_labels) + [label], pre_periods=15
            )
            matrix = np.column_stack([panel.series(d) for d in donors])
            summary = placebo_test(
                panel.series(label),
                matrix,
                15,
                treated_name=label,
                donor_names=donors,
            )
            p_values.append(summary.p_value)
            assert abs(summary.fit.effect) < 6.0
        assert float(np.median(p_values)) > 0.15

    def test_trombone_world_shows_large_effect(self):
        """In the world where the folk belief is true, the method finds it."""
        from repro.mplatform import measurements_frame
        from repro.netsim import build_trombone_scenario
        from repro.pipeline import run_ixp_study

        sc = build_trombone_scenario(n_access=8, duration_days=20, join_day=10)
        frame = measurements_frame(sc, rng=2)
        result = run_ixp_study(frame, sc.ixp_name)
        assert result.rows, "expected treated units to be analysed"
        for row in result.rows:
            assert row.rtt_delta_ms < -80.0
            assert row.p_value < 0.35  # donor pool is small, p floor is high
