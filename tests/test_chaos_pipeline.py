"""Chaos tests for the full study pipeline.

The claims the chaos subsystem exists to prove:

- the Table-1 result is **failure-invariant**: with retries on, a study
  riddled with injected transient faults produces row-for-row the same
  :class:`StudyResult` as a fault-free run;
- faults are **placement-invariant**: the campaign's serial and pooled
  stage A inject identical fault sequences and agree on every row
  (held in ``tests/test_campaign_chaos.py``);
- every scenario is **reproducible from one integer seed**: consecutive
  runs log identical fault events (the acceptance criterion), and even
  corrupted-input runs are deterministic.

``CHAOS_SEED`` (env) picks the seed; CI runs this file under two.
"""

import os

import pytest

from repro.chaos import (
    FaultPlan,
    FaultSpec,
    active_plan,
    clear_events,
    fault_events,
)
from repro.errors import FrameError
from repro.frames.frame import Frame
from repro.frames.io import write_csv
from repro.obs import get_metrics, get_tracer
from repro.pipeline import import_csv, run_ixp_study
from repro.pipeline.executor import RetryPolicy

SEED = int(os.environ.get("CHAOS_SEED", "7"))

RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


@pytest.fixture(autouse=True)
def _clean_fault_log():
    clear_events()
    yield
    clear_events()


@pytest.fixture(scope="module")
def baseline(small_frame, small_scenario):
    """The fault-free study every chaos run must reproduce."""
    return run_ixp_study(small_frame, small_scenario.ixp_name)


def _study(small_frame, small_scenario, **kwargs):
    return run_ixp_study(small_frame, small_scenario.ixp_name, **kwargs)


class TestFaultsDoNotChangeTheTable:
    def test_transient_unit_faults_with_retries(
        self, small_frame, small_scenario, baseline
    ):
        plan = FaultPlan(SEED, (FaultSpec(site="fits.unit", kind="error"),))
        with active_plan(plan):
            result = _study(small_frame, small_scenario, retry=RETRY)
        assert result.rows == baseline.rows
        assert result.skipped == baseline.skipped
        # rate=1.0: every fanned-out unit failed its first attempt.
        assert len(fault_events()) >= len(baseline.rows)

    def test_placebo_refit_faults_with_retries(
        self, small_frame, small_scenario, baseline
    ):
        # A fault inside one placebo refit fails the whole unit's task;
        # the retry reruns the unit at attempt 1, where the plan stands
        # down — recovery crosses the unit/placebo layer boundary.
        plan = FaultPlan(SEED, (FaultSpec(site="placebo.refit", kind="error"),))
        with active_plan(plan):
            result = _study(small_frame, small_scenario, retry=RETRY)
        assert result.rows == baseline.rows
        assert any(e.site == "placebo.refit" for e in fault_events())


class TestReproducibility:
    def test_identical_fault_logs_on_consecutive_study_runs(
        self, small_frame, small_scenario
    ):
        """The acceptance criterion at study scale."""
        plan = FaultPlan(
            SEED,
            (
                FaultSpec(site="fits.unit", kind="error", rate=0.6),
                FaultSpec(site="placebo.refit", kind="error", rate=0.1),
            ),
        )

        def run():
            clear_events()
            with active_plan(plan):
                result = _study(small_frame, small_scenario, retry=RETRY)
            return result, fault_events()

        first_result, first_log = run()
        second_result, second_log = run()
        assert first_log == second_log
        assert first_result.rows == second_result.rows

    def test_panel_corruption_is_deterministic(
        self, small_frame, small_scenario
    ):
        # A poisoned panel cell may legitimately change the numbers; the
        # study must still complete, and two poisoned runs must agree.
        plan = FaultPlan(
            SEED,
            (FaultSpec(site="study.panel", kind="corrupt", corruption="nan_cell"),),
        )
        with active_plan(plan):
            first = _study(small_frame, small_scenario)
            first_log = fault_events()
            clear_events()
            second = _study(small_frame, small_scenario)
            second_log = fault_events()
        assert first.format_table() == second.format_table()
        assert first.rows == second.rows
        assert [e.kind for e in first_log] == ["corrupt"]
        assert first_log == second_log


def _measurement_csv(path) -> Frame:
    """A tiny hand-built measurement file (rtt_ms last, for garbling)."""
    n = 48
    frame = Frame.from_dict(
        {
            "asn": [100 + i % 3 for i in range(n)],
            "city": ["jnb" if i % 2 else "cpt" for i in range(n)],
            "time_hour": [float(i) for i in range(n)],
            "rtt_ms": [40.0 + (i % 7) * 1.5 for i in range(n)],
        }
    )
    write_csv(frame, path)
    return frame


class TestImportCorruption:
    def test_truncated_read_is_deterministic_and_survivable(self, tmp_path):
        path = tmp_path / "measurements.csv"
        _measurement_csv(path)
        clean = import_csv(path)
        plan = FaultPlan(
            SEED,
            (
                FaultSpec(
                    site="import.read", kind="corrupt", corruption="truncate_text"
                ),
            ),
        )
        with active_plan(plan):
            first = import_csv(path)
            second = import_csv(path)
        assert first == second
        assert 0 < first.num_rows < clean.num_rows
        # Only whole rows survive: the torn final line was dropped, not
        # half-parsed (the satellite's truncated-write hardening).
        assert set(first["unit"]) <= set(clean["unit"])

    def test_garbled_row_fails_loudly_and_identically(self, tmp_path):
        # A mangled cell inside the file is corruption, not truncation:
        # the import must refuse it with the same error every time, not
        # quietly analyse a poisoned panel.
        path = tmp_path / "measurements.csv"
        _measurement_csv(path)
        plan = FaultPlan(
            SEED,
            (FaultSpec(site="import.read", kind="corrupt", corruption="garble_row"),),
        )
        with active_plan(plan):
            with pytest.raises(FrameError) as first:
                import_csv(path)
            with pytest.raises(FrameError) as second:
                import_csv(path)
        assert str(first.value) == str(second.value)


class TestChaosObservability:
    def test_faults_show_up_in_metrics_and_trace(
        self, small_frame, small_scenario, baseline
    ):
        metrics = get_metrics()
        injected = metrics.counter("faults_injected_total").value
        retries = metrics.counter("task_retries_total").value
        n_spans = len(get_tracer().records)
        plan = FaultPlan(SEED, (FaultSpec(site="fits.unit", kind="error"),))
        with active_plan(plan):
            result = _study(small_frame, small_scenario, retry=RETRY)
        assert result.rows == baseline.rows
        n_faults = len(fault_events())
        assert n_faults > 0
        assert metrics.counter("faults_injected_total").value == injected + n_faults
        assert metrics.counter("task_retries_total").value >= retries + n_faults
        fault_spans = [
            r for r in get_tracer().records[n_spans:] if r.name == "fault"
        ]
        assert len(fault_spans) == n_faults
        assert {r.attrs["site"] for r in fault_spans} == {"fits.unit"}
