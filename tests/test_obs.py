"""Tests for the observability subsystem (``repro.obs``).

Covers the tracer (nesting, attributes, JSONL round-trip), the metrics
registry (bucket edges, merge semantics, exposition text), the
cross-process capture path (order-stable span merge, worker traceback
chaining), and the CLI surface (``--trace``/``--metrics``/
``--log-level``) — plus the acceptance-critical parity checks: a
parallel study must produce the same trace shape, the same metrics, and
the same :class:`StudyResult` as the serial run.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.cli import main
from repro.errors import PipelineError, ReproError
from repro.obs import (
    Histogram,
    MetricsRegistry,
    SpanRecord,
    WorkerTraceback,
    export_jsonl,
    get_metrics,
    get_tracer,
    load_jsonl,
    render_trace,
    set_metrics,
    set_tracing,
    span,
    span_counts,
    traced,
    tracing_disabled,
)
from repro.pipeline import (
    ProcessPoolBackend,
    run_ixp_study,
)
from repro.pipeline.crossing import assign_treatment
from repro.pipeline.study import StudyRow, parse_unit_label

#: A two-scenario fleet for serial-vs-pooled campaign parity: the pool
#: builds scenarios, the fits stay serial.
def _fleet():
    from repro.campaign import ScenarioSpec

    return (
        ScenarioSpec(
            name="alpha", kind="baseline", seed=1, measurement_seed=5,
            n_donor_ases=8, duration_days=10,
        ),
        ScenarioSpec(
            name="bravo", kind="congestion-shock", seed=2, measurement_seed=6,
            n_donor_ases=8, duration_days=10,
        ),
    )


@pytest.fixture(autouse=True)
def fresh_obs():
    """Isolate every test from the process-wide tracer/registry state."""
    get_tracer().reset()
    set_tracing(True)
    saved = set_metrics(MetricsRegistry())
    yield
    set_metrics(saved)
    get_tracer().reset()
    set_tracing(True)


# -- tracing ------------------------------------------------------------------


class TestSpans:
    def test_nesting_and_attributes(self):
        with span("outer", label="a") as outer:
            with span("inner") as inner:
                inner.set(found=3)
        records = get_tracer().records
        assert [r.name for r in records] == ["inner", "outer"]  # post-order
        by_name = {r.name: r for r in records}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        assert by_name["outer"].attrs == {"label": "a"}
        assert by_name["inner"].attrs == {"found": 3}
        assert outer.record is by_name["outer"]
        assert by_name["outer"].duration_s >= by_name["inner"].duration_s

    def test_exception_marks_span(self):
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("nope")
        (record,) = get_tracer().records
        assert record.attrs["error"] == "ValueError"

    def test_disabled_records_nothing(self):
        with tracing_disabled():
            with span("invisible") as sp:
                sp.set(ignored=True)
        assert get_tracer().records == []
        assert sp.record is None

    def test_traced_decorator_checks_enabled_per_call(self):
        @traced("worker.step", kind="unit")
        def step():
            return 42

        with tracing_disabled():
            assert step() == 42
        assert get_tracer().records == []
        assert step() == 42
        (record,) = get_tracer().records
        assert record.name == "worker.step"
        assert record.attrs == {"kind": "unit"}

    def test_jsonl_round_trip(self, tmp_path):
        with span("a", unit="AS1/x"):
            with span("b", n=2):
                pass
        path = tmp_path / "trace.jsonl"
        n = export_jsonl(path)
        assert n == 2
        loaded = load_jsonl(path)
        assert loaded == get_tracer().records
        for line in path.read_text().splitlines():
            json.loads(line)  # every line is valid JSON

    def test_jsonl_stringifies_unserialisable_attrs(self, tmp_path):
        with span("odd", payload=object()):
            pass
        path = tmp_path / "trace.jsonl"
        export_jsonl(path)
        (loaded,) = load_jsonl(path)
        assert isinstance(loaded.attrs["payload"], str)


class TestRenderTrace:
    def test_tree_layout_and_counts(self):
        with span("study"):
            with span("fits"):
                with span("fits.unit", unit="AS1/x"):
                    pass
                with span("fits.unit", unit="AS2/y"):
                    pass
        text = render_trace(get_tracer().records)
        lines = text.splitlines()
        assert lines[0].startswith("study")
        assert lines[1].startswith("  fits")
        assert lines[2].startswith("    fits.unit")
        assert "unit=AS1/x" in lines[2]
        assert span_counts(get_tracer().records) == {
            "study": 1,
            "fits": 1,
            "fits.unit": 2,
        }

    def test_elision_is_announced(self):
        for _ in range(5):
            with span("s"):
                pass
        text = render_trace(get_tracer().records, max_spans=2)
        assert "3 more spans elided" in text

    def test_empty_trace(self):
        assert render_trace([]) == "(empty trace)"


# -- metrics ------------------------------------------------------------------


class TestMetrics:
    def test_counter_monotone(self):
        c = get_metrics().counter("things_total", "things")
        c.inc()
        c.inc(2)
        assert c.value == 3
        with pytest.raises(ReproError, match="cannot decrease"):
            c.inc(-1)

    def test_histogram_bucket_edges_inclusive(self):
        h = Histogram("h", (1.0, 2.0, 5.0))
        for v in (1.0, 1.5, 5.0, 6.0):
            h.observe(v)
        # le-bounds are inclusive: 1.0 -> le=1, 5.0 -> le=5, 6.0 -> +Inf.
        assert h.counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(13.5)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ReproError, match="ascending"):
            Histogram("h", (2.0, 1.0))
        get_metrics().histogram("fixed", (1.0, 2.0))
        with pytest.raises(ReproError, match="different buckets"):
            get_metrics().histogram("fixed", (1.0, 3.0))

    def test_name_cannot_change_type(self):
        get_metrics().counter("taken")
        with pytest.raises(ReproError, match="another type"):
            get_metrics().series("taken")

    def test_merge_adds_counters_and_histograms(self):
        worker = MetricsRegistry()
        worker.counter("n_total", "n").inc(3)
        worker.histogram("h", (1.0, 2.0)).observe(1.5)
        get_metrics().counter("n_total", "n").inc(1)
        get_metrics().merge(worker.snapshot())
        get_metrics().merge(worker.snapshot())
        assert get_metrics().counter("n_total").value == 7
        h = get_metrics().histogram("h", (1.0, 2.0))
        assert h.count == 2

    def test_render_exposition_format(self):
        get_metrics().counter("jobs_total", "jobs run").inc(2)
        get_metrics().series("depth").record(1.5)
        get_metrics().histogram("h", (1.0, 2.0), "hist").observe(1.0)
        text = get_metrics().render()
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 2" in text  # integers render without .0
        assert "depth 1.5" in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text  # cumulative
        assert "h_count 1" in text


# -- span -> histogram bridge -------------------------------------------------


def _span_histograms(snapshot: dict) -> dict[str, tuple]:
    """name -> (buckets, observation count) for every bridge histogram.

    Wall-clock durations land in whatever bucket the scheduler dictates,
    so parity is over the deterministic part: which histograms exist,
    their bucket layout, and how many spans each observed.
    """
    return {
        name: (buckets, count)
        for name, (_help, buckets, _counts, _sum, count) in snapshot[
            "histograms"
        ].items()
        if name.startswith("span_seconds_")
    }


class TestSpanHistogramBridge:
    def test_span_close_feeds_latency_histogram(self):
        with span("fits.unit"):
            pass
        with span("fits.unit"):
            pass
        h = get_metrics().histogram("span_seconds_fits_unit")
        assert h.count == 2
        assert h.sum >= 0

    def test_names_are_sanitized(self):
        with span("a.b-c"):
            pass
        assert get_metrics().histogram("span_seconds_a_b_c").count == 1

    def test_bridge_rides_the_tracing_kill_switch(self):
        with tracing_disabled():
            with span("invisible"):
                pass
        assert _span_histograms(get_metrics().snapshot()) == {}

    def test_serial_and_pooled_buckets_identical(self):
        from repro.campaign import run_campaign

        def bridge_counts(n_jobs):
            set_metrics(MetricsRegistry())
            get_tracer().reset()
            run_campaign(_fleet(), budget=16, n_jobs=n_jobs)
            return _span_histograms(get_metrics().snapshot())

        serial = bridge_counts(1)
        pooled = bridge_counts(2)
        assert "span_seconds_generate" in serial  # stage A's spans fed it
        assert serial == pooled  # same names, buckets, and counts


# -- cross-process capture ----------------------------------------------------


def _traced_square(x: int) -> int:
    with span("work", x=x):
        get_metrics().counter("work_total").inc()
        return x * x


def _always_boom(x: int) -> int:
    raise ValueError(f"boom on {x}")


class TestWorkerCapture:
    def test_parallel_map_merges_spans_in_task_order(self):
        with span("driver"):
            with ProcessPoolBackend(n_jobs=2) as pool:
                results = pool.map(_traced_square, [1, 2, 3, 4])
        assert results == [1, 4, 9, 16]
        records = get_tracer().records
        work = [r for r in records if r.name == "work"]
        assert [r.attrs["x"] for r in work] == [1, 2, 3, 4]  # input order
        driver = next(r for r in records if r.name == "driver")
        assert all(r.parent_id == driver.span_id for r in work)
        assert get_metrics().counter("work_total").value == 4

    def test_worker_traceback_chains_onto_reraise(self):
        with ProcessPoolBackend(n_jobs=2) as pool:
            with pytest.raises(ValueError, match="boom on") as excinfo:
                pool.map(_always_boom, [1, 2])
        cause = excinfo.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "worker-side traceback:" in str(cause)
        assert "_always_boom" in str(cause)  # the worker-side frame


# -- pipeline parity ----------------------------------------------------------


def _campaign_observations(n_jobs):
    from repro.campaign import run_campaign

    get_tracer().reset()
    saved = set_metrics(MetricsRegistry())
    try:
        result = run_campaign(_fleet(), budget=16, n_jobs=n_jobs)
        records = list(get_tracer().records)
        counters = {
            name: value
            for name, (_, value) in get_metrics().snapshot()["counters"].items()
        }
    finally:
        set_metrics(saved)
        get_tracer().reset()
    return result, records, counters


class TestStudyTraceParity:
    def test_parallel_trace_matches_serial(self):
        # A pooled campaign builds its scenarios in worker processes;
        # their spans and metrics ship home in task order.
        serial, serial_records, serial_counters = _campaign_observations(1)
        pooled, pooled_records, pooled_counters = _campaign_observations(2)

        # Same table, same metrics, same trace shape *and order*.
        assert serial.format_campaign_table() == pooled.format_campaign_table()
        assert serial_counters == pooled_counters
        assert [r.name for r in serial_records] == [r.name for r in pooled_records]
        assert span_counts(serial_records) == span_counts(pooled_records)

        # One campaign.scenario span per scenario, holding its
        # generation, and one ok fits.unit span per fitted unit.
        n_fits = sum(
            len(study.rows) + len(study.skipped) for study in serial.studies.values()
        )
        for records in (serial_records, pooled_records):
            by_id = {r.span_id: r for r in records}
            scenarios = [r for r in records if r.name == "campaign.scenario"]
            assert [r.attrs["scenario"] for r in scenarios] == ["alpha", "bravo"]
            for r in records:
                if r.name == "generate":
                    assert by_id[r.parent_id].name == "campaign.scenario"
            units = [r for r in records if r.name == "fits.unit"]
            ok_units = [r for r in units if r.attrs.get("status") == "ok"]
            assert 0 < len(ok_units) <= n_fits

    def test_one_span_per_unit_and_surviving_placebo(
        self, small_frame, small_scenario
    ):
        result = run_ixp_study(small_frame, small_scenario.ixp_name)
        records = get_tracer().records
        # Exactly one ok fits.unit span per analysed treated unit, and
        # one surviving placebo span per placebo in the p denominator.
        units = [r for r in records if r.name == "fits.unit"]
        ok_units = [r for r in units if r.attrs.get("status") == "ok"]
        assert len(ok_units) == len(result.rows)
        survivors = [r for r in records if r.name == "placebo" and r.attrs.get("ok")]
        assert len(survivors) == sum(r.n_placebos for r in result.rows)

    def test_result_identical_with_tracing_off(self, small_frame, small_scenario):
        ixp = small_scenario.ixp_name
        traced_result = run_ixp_study(small_frame, ixp)
        with tracing_disabled():
            untraced_result = run_ixp_study(small_frame, ixp)
        assert traced_result.rows == untraced_result.rows
        assert traced_result.skipped == untraced_result.skipped
        # Timings are perf-counter segments either way.
        assert untraced_result.timings is not None
        assert untraced_result.timings.total_s >= 0

    def test_timings_cover_their_stage_spans(self, small_frame, small_scenario):
        """Each timing is a perf-counter segment around its stage's span."""
        result = run_ixp_study(small_frame, small_scenario.ixp_name)
        records = get_tracer().records
        study = next(r for r in records if r.name == "study")
        stages = {
            r.name: r.duration_s
            for r in records
            if r.parent_id == study.span_id
        }
        timings = result.timings
        for name, seconds in (
            ("assignment", timings.assignment_s),
            ("panel", timings.panel_s),
            ("fits", timings.fits_s),
        ):
            assert stages[name] <= seconds < stages[name] + 0.5, name


# -- unit-label validation (bugfix) -------------------------------------------


class TestUnitLabels:
    @pytest.mark.parametrize(
        "label", ["garbage", "AS123", "123/City", "AS/City", "ASx/City", "AS1/"]
    )
    def test_malformed_labels_raise_pipeline_error(self, label):
        with pytest.raises(PipelineError, match=repr(label)):
            parse_unit_label(label)

    def test_valid_label_round_trips(self):
        assert parse_unit_label("AS64700/Cape Town") == (64700, "Cape Town")
        row_kwargs = dict(
            rtt_delta_ms=0.0,
            rmse_ratio=1.0,
            p_value=0.5,
            pre_periods=7,
            post_periods=3,
            n_donors=5,
        )
        row = StudyRow(unit="AS9/x", **row_kwargs)
        assert (row.asn, row.city) == (9, "x")
        bad = StudyRow(unit="nolabel", **row_kwargs)
        with pytest.raises(PipelineError, match="nolabel"):
            bad.asn

    def test_run_ixp_study_rejects_malformed_unit(
        self, small_frame, small_scenario
    ):
        assignment = assign_treatment(small_frame, small_scenario.ixp_name)
        victim = assignment.treated_units[0]
        mangled = small_frame.derive(
            "unit", lambda r: "badunit" if r["unit"] == victim else r["unit"]
        )
        with pytest.raises(PipelineError, match="'badunit'"):
            run_ixp_study(mangled, small_scenario.ixp_name)


# -- CLI ----------------------------------------------------------------------


class TestCliObservability:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        metrics_path = tmp_path / "run.prom"
        code = main(
            [
                "table1",
                "--days",
                "16",
                "--donors",
                "6",
                "--seed",
                "0",
                "--trace",
                str(trace_path),
                "--metrics",
                str(metrics_path),
            ]
        )
        assert code == 0
        records = load_jsonl(trace_path)
        counts = span_counts(records)
        assert counts["experiment.table1"] == 1
        assert counts["generate"] == 1
        assert counts["generate.plan"] == 1
        assert counts["generate.emit"] == 1
        assert counts["study"] == 1
        assert counts["fits.unit"] >= 1
        metrics_text = metrics_path.read_text()
        assert "units_analysed_total" in metrics_text
        assert "fit_seconds_count" in metrics_text
        # The table itself is untouched by observability flags.
        assert "RTT Δ (ms)" in capsys.readouterr().out

    def test_serial_and_pooled_campaign_traces_match(self, tmp_path, capsys):
        traces = {}
        for jobs in ("1", "2"):
            path = tmp_path / f"jobs{jobs}.jsonl"
            get_tracer().reset()
            argv = ["campaign", "--scenarios", "2", "--days", "10", "--donors",
                    "6", "--budget", "8", "--jobs", jobs, "--trace", str(path)]
            assert main(argv) == 0
            traces[jobs] = load_jsonl(path)
        out = capsys.readouterr().out
        serial, pooled = traces["1"], traces["2"]
        assert [r.name for r in serial] == [r.name for r in pooled]
        # Every span carries the same attributes, save the campaign
        # root's worker count.
        for a, b in zip(serial, pooled):
            if a.name == "campaign":
                assert (a.attrs["n_jobs"], b.attrs["n_jobs"]) == (1, 2)
                continue
            assert a.attrs == b.attrs, a.name
        emits = [r for r in serial if r.name == "generate.emit"]
        plans = [r for r in serial if r.name == "generate.plan"]
        assert len(emits) == len(plans) == 2
        for emit, plan in zip(emits, plans):
            assert 0 < emit.attrs["pools"] <= plan.attrs["cells"]
        assert "budget:" in out

    def test_simulate_trace_flag(self, tmp_path):
        trace_path = tmp_path / "sim.jsonl"
        code = main(
            [
                "simulate",
                "--days",
                "10",
                "--donors",
                "3",
                "--out",
                str(tmp_path / "sim.csv"),
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        counts = span_counts(load_jsonl(trace_path))
        assert counts["generate"] == 1
        assert counts["generate.plan"] == 1
        assert counts["generate.emit"] == 1

    def test_log_level_flag_configures_repro_logger(self, capsys):
        logger = logging.getLogger("repro")
        saved_level = logger.level
        try:
            code = main(
                ["--log-level", "info", "table1", "--days", "16", "--donors",
                 "3", "--seed", "0"]
            )
            assert code == 0
            err = capsys.readouterr().err
            assert "repro.pipeline.study" in err
            assert "running IXP study" in err
            # Idempotent: a second configure call must not stack handlers.
            n_before = len(logger.handlers)
            main(["--log-level", "info", "table1", "--days", "16", "--donors",
                  "3", "--seed", "0"])
            assert len(logger.handlers) == n_before
        finally:
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_cli_handler", False):
                    logger.removeHandler(handler)
            logger.setLevel(saved_level)
