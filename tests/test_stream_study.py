"""Streaming-equivalence tests: the engine's bit-parity contract.

Whatever the batch split — one batch, per-hour slices, random seeded
widths — and whether finalize runs serial or over a process pool, the
streamed study's final ``to_frame()`` CSV must be byte-identical to the
batch ``run_ixp_study``'s on the same measurements.  The same holds for
a stream killed mid-feed and resumed from its checkpoint, including a
journal truncated mid-record by the kill.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec, active_plan
from repro.errors import CheckpointError, ExecutionError, InjectedFault, PipelineError
from repro.frames.io import to_csv_text
from repro.pipeline import run_ixp_study
from repro.stream import MeasurementBatch, StreamStudy, random_batches, slice_frame
from repro.synthcontrol.robust import denoise_from_factorization, factor_donor_matrix


@pytest.fixture(scope="module")
def reference(small_frame, small_scenario):
    """The batch study every streamed run must reproduce."""
    return run_ixp_study(small_frame, small_scenario.ixp_name)


@pytest.fixture(scope="module")
def reference_csv(reference):
    return to_csv_text(reference.to_frame())


def _assert_parity(result, reference, reference_csv):
    assert to_csv_text(result.to_frame()) == reference_csv
    assert result.skipped == reference.skipped
    assert result.assignment == reference.assignment


class TestStreamingEquivalence:
    def test_single_batch(self, small_frame, small_scenario, reference, reference_csv):
        study = StreamStudy(small_scenario.ixp_name)
        out = study.run(slice_frame(small_frame, n_batches=1))
        _assert_parity(out.result, reference, reference_csv)

    def test_equal_width_batches_with_live_refits(
        self, small_frame, small_scenario, reference, reference_csv
    ):
        study = StreamStudy(small_scenario.ixp_name)
        out = study.run(slice_frame(small_frame, n_batches=4))
        _assert_parity(out.result, reference, reference_csv)
        assert len(out.reports) == 4

    def test_per_hour_batches(
        self, small_frame, small_scenario, reference, reference_csv
    ):
        study = StreamStudy(small_scenario.ixp_name, live_refits=False)
        batches = slice_frame(small_frame, batch_hours=1.0)
        assert len(batches) > 100  # genuinely fine-grained
        out = study.run(batches)
        _assert_parity(out.result, reference, reference_csv)

    @pytest.mark.parametrize("seed", [13, 47, 101])
    def test_random_batch_sizes(
        self, small_frame, small_scenario, reference, reference_csv, seed
    ):
        study = StreamStudy(small_scenario.ixp_name, live_refits=False)
        out = study.run(random_batches(small_frame, n_batches=6, seed=seed))
        _assert_parity(out.result, reference, reference_csv)

    def test_feed_cut_batches_equal_standalone_frame_batches(
        self, small_frame, small_scenario, reference, reference_csv
    ):
        # The same rows, once as row selections of the feed and once as
        # their own frames, give the same reports, live rows and table.
        cut = slice_frame(small_frame, batch_hours=6.0)
        standalone = [
            MeasurementBatch(
                index=b.index,
                start_hour=b.start_hour,
                end_hour=b.end_hour,
                feed=b.frame,
            )
            for b in cut
        ]
        outcomes = []
        for batches in (cut, standalone):
            study = StreamStudy(small_scenario.ixp_name)
            trace = []
            for batch in batches:
                report = dataclasses.replace(study.ingest(batch), seconds=0.0)
                live = study.live_result()
                trace.append(repr((report, live.rows, live.skipped)))
            outcomes.append((trace, study.finalize()))
        (cut_trace, cut_result), (own_trace, own_result) = outcomes
        assert cut_trace == own_trace
        _assert_parity(cut_result, reference, reference_csv)
        _assert_parity(own_result, reference, reference_csv)

    def test_worker_count_is_refused(self, small_scenario):
        assert StreamStudy(small_scenario.ixp_name, n_jobs=1).reports == []
        with pytest.raises(ExecutionError, match="run_campaign"):
            StreamStudy(small_scenario.ixp_name, n_jobs=4)

    def test_finalize_without_batches_rejected(self, small_scenario):
        with pytest.raises(PipelineError, match="no ingested batches"):
            StreamStudy(small_scenario.ixp_name).finalize()


class TestLiveResult:
    def test_live_rows_converge_to_final_units(self, small_frame, small_scenario):
        study = StreamStudy(small_scenario.ixp_name)
        batches = slice_frame(small_frame, n_batches=4)
        for batch in batches:
            study.ingest(batch)
        live = study.live_result()
        final = study.finalize()
        # After the last batch the live view covers the same treated
        # units; its rows are advisory (warm-path numerics), so compare
        # membership, not floats.
        assert {r.unit for r in live.rows} | {u for u, _ in live.skipped} == {
            r.unit for r in final.rows
        } | {u for u, _ in final.skipped}

    def test_reports_count_refits(self, small_frame, small_scenario):
        study = StreamStudy(small_scenario.ixp_name)
        out = study.run(slice_frame(small_frame, batch_hours=24.0))
        total_warm = sum(r.warm_refits for r in out.reports)
        total_cold = sum(r.cold_refits for r in out.reports)
        assert total_warm > 0  # day-aligned growth exercises the warm path
        assert total_cold > 0  # first fit of each unit is necessarily cold

    def test_placebo_inference_is_amortized(self, small_frame, small_scenario):
        study = StreamStudy(small_scenario.ixp_name)  # live_placebo_every=4
        out = study.run(slice_frame(small_frame, batch_hours=24.0))
        refits = sum(r.n_refits for r in out.reports)
        refreshes = sum(r.placebo_refreshes for r in out.reports)
        assert 0 < refreshes < refits  # ensembles rebuilt, but not per batch
        # Between rebuilds the cached ensemble still yields a p-value.
        live = study.live_result()
        assert all(0.0 <= row.p_value <= 1.0 for row in live.rows)

    def test_placebo_every_one_rebuilds_each_refit(
        self, small_frame, small_scenario
    ):
        study = StreamStudy(small_scenario.ixp_name, live_placebo_every=1)
        out = study.run(slice_frame(small_frame, batch_hours=24.0))
        refits = sum(r.n_refits for r in out.reports)
        refreshes = sum(r.placebo_refreshes for r in out.reports)
        assert refits > 0
        # Every refit that reached the factorization (warm or cold)
        # rebuilds its ensemble when amortization is off.
        assert refreshes == sum(r.warm_refits + r.cold_refits for r in out.reports)

    @pytest.mark.xfail(
        strict=True,
        reason="a warm refit reuses a donor pool screened before later "
        "units were treated; ROADMAP item 3",
    )
    def test_live_donor_pools_exclude_treated_units(self, small_frame, small_scenario):
        """``UnitScreen.donors`` promises never-treated donors, live too."""
        study = StreamStudy(small_scenario.ixp_name)
        for batch in slice_frame(small_frame, batch_hours=6.0):
            study.ingest(batch)
        treated = set(study.assignment().treated_units)
        pools = {
            unit: set(state.donors)
            for unit in treated
            if (state := study._refitter.state(unit)) is not None and state.donors
        }
        assert pools
        leaks = {u: sorted(p & treated) for u, p in pools.items() if p & treated}
        assert leaks == {}


def _batch_units(batch):
    return {str(u) for u in batch.frame.column("unit").factorize()[1]}


class TestIntraDayWarmStart:
    def test_warm_factorization_matches_cold_at_mid_day(
        self, small_frame, small_scenario
    ):
        # Six-hour batches rewrite the open newest day three times out of
        # four; the sealed-row cache must still yield the exact
        # full-matrix factorization after every one of them.
        study = StreamStudy(small_scenario.ixp_name)
        checked = 0
        for batch in slice_frame(small_frame, batch_hours=6.0):
            study.ingest(batch)
            panel = study.panel
            treated = set(study.assignment().treated_units)
            for unit in sorted(treated & _batch_units(batch)):
                state = study._refitter.state(unit)
                if state is None or state.full is None:
                    continue
                matrix = np.column_stack([panel.series(d) for d in state.donors])
                warm, warm_rank = denoise_from_factorization(state.full)
                cold, cold_rank = denoise_from_factorization(
                    factor_donor_matrix(matrix)
                )
                assert warm_rank == cold_rank
                np.testing.assert_allclose(warm, cold, rtol=1e-9)
                checked += 1
        assert checked > 0
        warm_refits = sum(r.warm_refits for r in study.reports)
        cold_refits = sum(r.cold_refits for r in study.reports)
        assert warm_refits > cold_refits

    @staticmethod
    def _ingest_late(study, n_batches, frame):
        late = MeasurementBatch(
            index=n_batches,
            start_hour=float(frame.numeric("time_hour").min()),
            end_hour=float(frame.numeric("time_hour").max()),
            feed=frame,
        )
        return study.ingest(late)

    @staticmethod
    def _assert_warm_equals_cold(study, unit):
        state = study._refitter.state(unit)
        panel = study.panel
        matrix = np.column_stack([panel.series(d) for d in state.donors])
        warm, warm_rank = denoise_from_factorization(state.full)
        cold, cold_rank = denoise_from_factorization(factor_donor_matrix(matrix))
        assert warm_rank == cold_rank
        np.testing.assert_allclose(warm, cold, rtol=1e-9)

    def _day_fed_study(self, small_frame, small_scenario):
        study = StreamStudy(small_scenario.ixp_name)
        batches = slice_frame(small_frame, batch_hours=24.0)
        for batch in batches:
            study.ingest(batch)
        # Late rows for a day well before the newest one: a sealed day.
        late = batches[-4]
        assert int(late.end_hour // 24) < study.panel.times[-1]
        return study, len(batches), late.frame

    def test_late_edit_to_sealed_day_goes_cold(self, small_frame, small_scenario):
        study, n_batches, late = self._day_fed_study(small_frame, small_scenario)
        # The late rows move the sealed day's medians, so no cached
        # sealed factorization may be reused.
        shifted = late.with_column("rtt_ms", late.numeric("rtt_ms") + 5.0)
        report = self._ingest_late(study, n_batches, shifted)
        assert report.cold_refits > 0
        assert report.warm_refits == 0

    def test_unchanged_late_rows_stay_warm_and_exact(
        self, small_frame, small_scenario
    ):
        # Re-sent rows double each cell's multiset, which leaves every
        # median, and so the sealed donor block, bit-identical.
        study, n_batches, late = self._day_fed_study(small_frame, small_scenario)
        report = self._ingest_late(study, n_batches, late)
        assert report.warm_refits > 0
        assert report.cold_refits == 0
        treated = set(study.assignment().treated_units)
        late_units = {str(u) for u in late.column("unit").factorize()[1]}
        assert treated & late_units
        for unit in sorted(treated & late_units):
            self._assert_warm_equals_cold(study, unit)

    def test_late_edit_outside_donor_pool_stays_warm(
        self, small_frame, small_scenario
    ):
        study, n_batches, late = self._day_fed_study(small_frame, small_scenario)
        units = np.array([str(u) for u in late.column("unit").values])
        states = [study._refitter.state(u) for u in study.assignment().treated_units]
        state = next(
            st for st in states
            if st is not None and st.fact is not None and st.unit in units
        )
        unit = state.unit
        cached = state.fact
        before = study.panel.series(unit).copy()
        # Shift only the rows of units outside the unit's donor pool:
        # the unit itself and every non-donor.
        edited = late.take(np.flatnonzero(~np.isin(units, state.donors)))
        edited = edited.with_column("rtt_ms", edited.numeric("rtt_ms") + 5.0)
        self._ingest_late(study, n_batches, edited)
        after = study._refitter.state(unit)
        assert not np.array_equal(study.panel.series(unit), before, equal_nan=True)
        assert after.fact is cached  # the sealed factorization was reused
        self._assert_warm_equals_cold(study, unit)


class TestResume:
    def test_resume_after_partial_ingest(
        self, tmp_path, small_frame, small_scenario, reference, reference_csv
    ):
        path = tmp_path / "stream.jsonl"
        batches = slice_frame(small_frame, n_batches=5)
        first = StreamStudy(
            small_scenario.ixp_name, checkpoint=path, live_refits=False
        )
        for batch in batches[:3]:
            first.ingest(batch)
        first.close()  # simulates the process dying between batches

        second = StreamStudy(
            small_scenario.ixp_name, checkpoint=path, resume=True, live_refits=False
        )
        reports = [second.ingest(b) for b in batches]
        assert [r.replayed for r in reports] == [True, True, True, False, False]
        _assert_parity(second.finalize(), reference, reference_csv)

    def test_resume_after_byte_truncation(
        self, tmp_path, small_frame, small_scenario, reference, reference_csv
    ):
        # kill -9 mid-append: chop the journal mid-record and resume.
        path = tmp_path / "stream.jsonl"
        batches = slice_frame(small_frame, n_batches=5)
        first = StreamStudy(
            small_scenario.ixp_name, checkpoint=path, live_refits=False
        )
        for batch in batches:
            first.ingest(batch)
        first.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size // 2)

        second = StreamStudy(
            small_scenario.ixp_name, checkpoint=path, resume=True, live_refits=False
        )
        for batch in batches:
            second.ingest(batch)
        _assert_parity(second.finalize(), reference, reference_csv)

    def test_mismatched_feed_detected(self, tmp_path, small_frame, small_scenario):
        path = tmp_path / "stream.jsonl"
        batches = slice_frame(small_frame, n_batches=5)
        first = StreamStudy(
            small_scenario.ixp_name, checkpoint=path, live_refits=False
        )
        for batch in batches:
            first.ingest(batch)
        first.close()
        with StreamStudy(
            small_scenario.ixp_name, checkpoint=path, resume=True, live_refits=False
        ) as second:
            with pytest.raises(CheckpointError, match="does not match"):
                for batch in slice_frame(small_frame, n_batches=7):
                    second.ingest(batch)

    def test_chaos_kill_mid_stream_then_resume(
        self, tmp_path, small_frame, small_scenario, reference, reference_csv
    ):
        # An injected fault kills ingestion at batch 2; the journal holds
        # batches 0-1 only.  Resuming replays them and ingests the rest,
        # and the finalized rows are byte-identical to the batch study's.
        path = tmp_path / "stream.jsonl"
        batches = slice_frame(small_frame, n_batches=5)
        plan = FaultPlan(
            7, (FaultSpec(site="stream.batch", kind="error", match="2"),)
        )
        first = StreamStudy(
            small_scenario.ixp_name, checkpoint=path, live_refits=False
        )
        with active_plan(plan):
            with pytest.raises(InjectedFault):
                for batch in batches:
                    first.ingest(batch)
        first.close()
        assert [r.index for r in first.reports] == [0, 1]

        second = StreamStudy(
            small_scenario.ixp_name, checkpoint=path, resume=True, live_refits=False
        )
        reports = [second.ingest(b) for b in batches]
        assert [r.replayed for r in reports] == [True, True, False, False, False]
        _assert_parity(second.finalize(), reference, reference_csv)
