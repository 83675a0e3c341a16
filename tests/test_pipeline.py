"""Unit tests for the analysis pipeline (crossing, aggregate, study)."""

import numpy as np
import pytest

from repro.errors import FrameError
from repro.frames import Frame
from repro.pipeline import (
    assign_treatment,
    crossing_mask,
    daily_median_rtt,
    measurement_volume,
    rtt_panel,
    run_ixp_study,
)


class TestCrossingMask:
    def test_exact_token_match(self):
        frame = Frame.from_dict(
            {"ixps": ["NAP-JNB", "NAP-JNB,Other", "", "NAP"], "x": [1, 2, 3, 4]}
        )
        mask = crossing_mask(frame, "NAP")
        assert list(mask) == [False, False, False, True]

    def test_requires_ixps_column(self):
        with pytest.raises(FrameError):
            crossing_mask(Frame.from_dict({"x": [1]}), "NAP")


class TestAssignTreatment:
    def _frame(self, rows):
        return Frame.from_records(
            rows, columns=["unit", "time_hour", "ixps", "rtt_ms"]
        )

    def test_sustained_crossing_detected(self):
        rows = []
        for h in range(48):
            rows.append(
                {
                    "unit": "AS1/X",
                    "time_hour": float(h),
                    "ixps": "NAP" if h >= 24 else "",
                    "rtt_ms": 10.0,
                }
            )
        assignment = assign_treatment(self._frame(rows), "NAP")
        assert assignment.first_crossing_hour == {"AS1/X": 24.0}
        assert assignment.never_crossed == ()

    def test_transient_detour_debounced(self):
        rows = []
        for h in range(48):
            rows.append(
                {
                    "unit": "AS1/X",
                    "time_hour": float(h),
                    "ixps": "NAP" if h == 10 else "",
                    "rtt_ms": 10.0,
                }
            )
        assignment = assign_treatment(self._frame(rows), "NAP", min_crossing_share=0.5)
        assert not assignment.is_treated("AS1/X")
        assert assignment.never_crossed == ("AS1/X",)

    def test_treated_units_sorted_by_time(self):
        rows = []
        for unit, start in (("AS1/X", 30), ("AS2/Y", 10)):
            for h in range(48):
                rows.append(
                    {
                        "unit": unit,
                        "time_hour": float(h),
                        "ixps": "NAP" if h >= start else "",
                        "rtt_ms": 10.0,
                    }
                )
        assignment = assign_treatment(self._frame(rows), "NAP")
        assert assignment.treated_units == ["AS2/Y", "AS1/X"]

    def test_bad_share(self):
        with pytest.raises(FrameError):
            assign_treatment(
                self._frame(
                    [{"unit": "u", "time_hour": 0.0, "ixps": "", "rtt_ms": 1.0}]
                ),
                "NAP",
                min_crossing_share=0.0,
            )

    def test_matches_scenario_ground_truth(self, small_scenario, small_frame):
        sc = small_scenario
        assignment = assign_treatment(small_frame, sc.ixp_name)
        assert set(assignment.treated_units) == {
            f"AS{a}/{c}" for a, c in sc.treated_units
        }
        for asn, city in sc.treated_units:
            detected = assignment.first_crossing_hour[f"AS{asn}/{city}"]
            assert detected == pytest.approx(sc.join_hours[asn], abs=3.0)


class TestAggregation:
    def test_daily_median(self, small_frame):
        out = daily_median_rtt(small_frame)
        assert set(out.column_names) == {"unit", "day", "rtt_median", "n_tests"}
        assert out.num_rows > 0

    def test_panel_shape(self, small_scenario, small_frame):
        panel = rtt_panel(small_frame)
        assert panel.n_times == int(small_scenario.duration_hours // 24)
        assert panel.n_units == len(small_scenario.user_groups)

    def test_measurement_volume(self, small_frame):
        vol = measurement_volume(small_frame)
        assert (np.asarray(vol["n_tests"]) > 0).all()

    def test_missing_columns_rejected(self):
        with pytest.raises(FrameError):
            daily_median_rtt(Frame.from_dict({"x": [1]}))


class TestStudy:
    def test_one_row_per_treated_unit(self, small_scenario, small_frame):
        result = run_ixp_study(small_frame, small_scenario.ixp_name)
        units = {r.unit for r in result.rows} | {u for u, _ in result.skipped}
        assert units == {f"AS{a}/{c}" for a, c in small_scenario.treated_units}

    def test_row_parsing(self, small_scenario, small_frame):
        result = run_ixp_study(small_frame, small_scenario.ixp_name)
        row = result.rows[0]
        assert row.unit == f"AS{row.asn}/{row.city}"

    def test_effects_in_plausible_band(self, small_scenario, small_frame):
        result = run_ixp_study(small_frame, small_scenario.ixp_name)
        for row in result.rows:
            assert abs(row.rtt_delta_ms) < 30.0
            assert 0.0 < row.p_value <= 1.0
            assert row.n_donors >= 5

    def test_estimates_track_truth(self, small_scenario, small_frame):
        """Estimated deltas correlate with the simulator's true effects."""
        result = run_ixp_study(small_frame, small_scenario.ixp_name)
        est, truth = [], []
        for row in result.rows:
            est.append(row.rtt_delta_ms)
            truth.append(small_scenario.true_effect(row.asn, row.city))
        if len(est) >= 4:
            corr = np.corrcoef(est, truth)[0, 1]
            assert corr > 0.3

    def test_headline_not_consistent(self, small_scenario, small_frame):
        result = run_ixp_study(small_frame, small_scenario.ixp_name)
        assert not result.consistent_effect

    def test_format_table_renders(self, small_scenario, small_frame):
        result = run_ixp_study(small_frame, small_scenario.ixp_name)
        text = result.format_table()
        assert "RTT Δ (ms)" in text
        assert "RMSE Ratio" in text

    def test_frame_export(self, small_scenario, small_frame):
        result = run_ixp_study(small_frame, small_scenario.ixp_name)
        frame = result.to_frame()
        assert frame.num_rows == len(result.rows)
        assert "p_value" in frame

    def test_classic_method(self, small_scenario, small_frame):
        result = run_ixp_study(
            small_frame, small_scenario.ixp_name, method="classic"
        )
        assert result.rows

    def test_strict_minimums_skip_units(self, small_scenario, small_frame):
        result = run_ixp_study(
            small_frame, small_scenario.ixp_name, min_pre_periods=10_000
        )
        assert not result.rows
        assert len(result.skipped) == len(small_scenario.treated_units)


class TestStudyResultInvariants:
    """Direct checks on StudyResult rendering and the headline verdict."""

    def _result(self, rows):
        from repro.pipeline import StudyResult, TreatmentAssignment

        assignment = TreatmentAssignment(
            ixp_name="NAP", first_crossing_hour={}, never_crossed=()
        )
        return StudyResult(rows=tuple(rows), assignment=assignment, skipped=())

    def _row(self, **overrides):
        from repro.pipeline import StudyRow

        base = dict(
            unit="AS1/X",
            rtt_delta_ms=-4.0,
            rmse_ratio=1.43,
            p_value=0.05,
            pre_periods=10,
            post_periods=5,
            n_donors=12,
        )
        base.update(overrides)
        return StudyRow(**base)

    def test_empty_rows_not_consistent(self):
        """An all-skipped study must not vacuously 'confirm' the belief."""
        assert self._result([]).consistent_effect is False

    def test_all_negative_significant_is_consistent(self):
        result = self._result([self._row(), self._row(unit="AS2/Y")])
        assert result.consistent_effect

    def test_format_table_two_decimal_ratio(self):
        """Ratios like 1.43 vs 1.9 must be distinguishable in the table."""
        result = self._result(
            [self._row(rmse_ratio=1.43), self._row(unit="AS2/Y", rmse_ratio=1.9)]
        )
        text = result.format_table()
        assert "1.43" in text
        assert "1.90" in text

    def test_placebo_accounting_exported(self, small_scenario, small_frame):
        result = run_ixp_study(small_frame, small_scenario.ixp_name)
        frame = result.to_frame()
        assert "n_placebos" in frame
        assert "n_placebos_skipped" in frame
        for row in result.rows:
            assert row.n_placebos > 0
            assert row.n_placebos_skipped >= 0


class TestThroughputOutcome:
    """The pipeline generalises to the NDT download-rate outcome."""

    def test_panel_on_download(self, small_frame):
        panel = rtt_panel(small_frame, outcome="download_mbps")
        assert panel.n_units > 0

    def test_unknown_outcome_rejected(self, small_frame):
        import pytest as _pytest

        with _pytest.raises(FrameError):
            rtt_panel(small_frame, outcome="upload_mbps")

    def test_throughput_study_runs(self, small_scenario, small_frame):
        result = run_ixp_study(
            small_frame, small_scenario.ixp_name, outcome="download_mbps"
        )
        assert result.rows
        # In the Table-1 world access capacity binds, so throughput
        # changes stay small (like the RTT ones).
        for row in result.rows:
            assert abs(row.rtt_delta_ms) < 40.0
