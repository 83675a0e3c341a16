"""Tests for the benchmark's own statistics, tracing and failure counting."""

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import layers
import measure
import run
import workloads

import repro.mplatform
import repro.pipeline.study as study_module
import repro.stream.state as state_module
import repro.synthcontrol.donor as donor_module
from repro.mplatform import measurements_frame
from repro.netsim import build_table1_scenario
from repro.pipeline import run_ixp_study
from repro.pipeline.shm import SharedFrameArena

HERE = Path(__file__).resolve().parent


class TestPercentile:
    def test_reports_the_nearest_rank_value(self):
        samples = list(range(100, 0, -1))  # unsorted on purpose
        assert measure.percentile(samples, 90) == 90
        assert measure.percentile(samples, 50) == 50

    def test_needs_ten_samples_beyond(self):
        # p90 of 100 samples has exactly 10 beyond it; of 99, only 9.
        assert measure.percentile(list(range(99)), 90) is None
        assert measure.percentile(list(range(20)), 50) == 9
        assert measure.percentile(list(range(19)), 50) is None
        assert measure.percentile([], 50) is None

    def test_rejects_out_of_range_percentiles(self):
        for q in (0, 100, -5, 150):
            with pytest.raises(ValueError):
                measure.percentile([1.0] * 50, q)

    def test_median_needs_samples(self):
        assert measure.median([3.0, 1.0, 2.0]) == 2.0
        with pytest.raises(ValueError):
            measure.median([])


class TestPostJoinSelection:
    @staticmethod
    def _batches(ends):
        return [SimpleNamespace(end_hour=float(e)) for e in ends]

    def test_cut_follows_the_first_join_hour(self):
        batches = self._batches([5, 11, 17, 23, 29])
        latencies = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert measure.post_join_latencies(batches, latencies, {64701: 17.0, 64702: 25.0}) == [3.0, 4.0, 5.0]
        assert measure.post_join_latencies(batches, latencies, {64701: 17.5}) == [4.0, 5.0]
        assert measure.post_join_latencies(batches, latencies, {64701: 0.0}) == latencies

    def test_rejects_mismatched_or_joinless_input(self):
        with pytest.raises(ValueError):
            measure.post_join_latencies(self._batches([1, 2]), [1.0], {1: 0.0})
        with pytest.raises(ValueError):
            measure.post_join_latencies(self._batches([1]), [1.0], {})

    def test_selection_on_a_real_feed_ignores_what_the_program_did(self):
        from repro.stream import StreamStudy, slice_frame

        scenario = build_table1_scenario(n_donor_ases=8, duration_days=16, join_day=8, seed=0)
        batches = slice_frame(measurements_frame(scenario, rng=0), batch_hours=6.0)
        first_join = min(scenario.join_hours.values())
        expected = [b.index for b in batches if b.end_hour >= first_join]
        assert 0 < len(expected) < len(batches)
        for live in (True, False):
            stream = StreamStudy(scenario.ixp_name, live_refits=live)
            reports = [stream.ingest(b) for b in batches]
            picked = measure.post_join_latencies(batches, [r.index for r in reports], scenario.join_hours)
            assert picked == expected


class TestLayerTracer:
    def test_records_nested_spans_and_restores_the_program(self):
        originals = (
            study_module.execute_unit_plan,
            donor_module.select_donors,
            state_module.PanelAccumulator.__dict__["apply"],
        )
        scenario = build_table1_scenario(n_donor_ases=8, duration_days=16, join_day=8, seed=0)
        tracer = layers.LayerTracer()
        tracer.begin(7)
        assert study_module.execute_unit_plan is not originals[0]
        # Called through the package, as the workloads do: the tracer
        # patches references held by ``repro`` modules only.
        frame = repro.mplatform.measurements_frame(scenario, rng=0)
        result = run_ixp_study(frame, scenario.ixp_name)
        op = tracer.end()

        assert (
            study_module.execute_unit_plan,
            donor_module.select_donors,
            state_module.PanelAccumulator.__dict__["apply"],
        ) == originals
        busy, own = op.busy_s(), op.self_s()
        for stem in ("mplatform.generate", "pipeline.crossing.assign", "pipeline.aggregate.panel",
                     "pipeline.study.fits", "pipeline.prefactor.svd", "synthcontrol.donors"):
            assert busy[stem] > 0
            assert 0 <= own[stem] <= busy[stem]
        # Donor selection runs inside the fit stage, so it is carved out
        # of the fit stage's self time.
        assert own["pipeline.study.fits"] < busy["pipeline.study.fits"]
        assert op.counts["mplatform.rows"] == frame.num_rows
        assert op.counts["pipeline.study.units_fitted"] == len(result.rows)
        assert op.counts["pipeline.study.units_skipped"] == len(result.skipped)
        assert op.calls("synthcontrol.donors") >= len(result.rows)
        by_id = {sp.span_id: sp for sp in op.spans}
        for sp in op.spans:
            if sp.name == "synthcontrol.donors":
                assert by_id[sp.parent_id].name in ("pipeline.study.fits", "pipeline.prefactor.svd")

    def test_rows_are_identical_traced_and_untraced(self):
        scenario = build_table1_scenario(n_donor_ases=8, duration_days=16, join_day=8, seed=1)
        frame = measurements_frame(scenario, rng=1)
        plain = workloads.table_text(run_ixp_study(frame, scenario.ixp_name))
        tracer = layers.LayerTracer()
        tracer.begin(0)
        try:
            traced = workloads.table_text(run_ixp_study(frame, scenario.ixp_name))
        finally:
            tracer.end()
        assert traced == plain


class _Workload:
    def __init__(self, fail_on=(), leak_on=()):
        self.fail_on = set(fail_on)
        self.leak_on = set(leak_on)
        self.arenas = []

    def operation(self, index):
        if index in self.fail_on:
            raise RuntimeError(f"operation {index} fails")
        if index in self.leak_on:
            arena = SharedFrameArena(tag="leak")
            arena.allocate("column", (8,))
            self.arenas.append(arena)
        return workloads.OpOutput(table=str(index))


class TestRunner:
    def test_failed_operations_are_counted_not_timed(self):
        runner = run.Runner(_Workload(fail_on={2}), layers.LayerTracer())
        for index in (1, 2, 3):
            runner.run(index)
        assert (runner.attempted, runner.failed) == (3, 1)
        assert sorted(runner.seconds) == [1, 3]

    def test_a_shared_memory_leak_fails_the_operation(self):
        workload = _Workload(leak_on={2})
        runner = run.Runner(workload, layers.LayerTracer())
        try:
            runner.run(1)
            runner.run(2)
        finally:
            for arena in workload.arenas:
                arena.close()
        runner.run(3)
        assert (runner.attempted, runner.failed) == (3, 1)
        assert sorted(runner.seconds) == [1, 3]

    def test_operation_seeds_are_derived_from_the_workload_seed(self):
        assert workloads.op_seed(3, 1) == workloads.op_seed(3, 1)
        assert len({workloads.op_seed(s, i) for s in range(4) for i in range(4)}) == 16


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-10x", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
