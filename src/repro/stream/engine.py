"""The streaming study driver: ingest batches, refit live, finalize.

:class:`StreamStudy` wires the stream's three lower layers into the
existing service stack:

- each :meth:`~StreamStudy.ingest` call feeds one
  :class:`~repro.stream.batches.MeasurementBatch` through the
  :class:`~repro.stream.state.PanelAccumulator` and
  :class:`~repro.stream.state.AssignmentAccumulator`, then live-refits
  the dirty treated units through the
  :class:`~repro.stream.refit.LiveRefitter` — all under ``repro.obs``
  spans and metrics, with a ``stream.batch`` chaos fault point;
- a :class:`~repro.pipeline.checkpoint.StudyCheckpoint` journals each
  fully ingested batch, so a stream killed at any point resumes with
  ``resume=True``: journaled batches replay into the state layer
  (skipping live refits — their rows are already absorbed) and only the
  unjournaled suffix ingests fresh;
- :meth:`~StreamStudy.finalize` hands the accumulated panel and
  assignment to the **batch study's own**
  :func:`~repro.pipeline.study.prepare_unit_plan` /
  :func:`~repro.pipeline.study.execute_unit_plan`, with the same retry
  policy and checkpoint journal as ``run_ixp_study`` — which is why the
  final rows are bit-identical to the batch path's, for any batch
  split.  Its :class:`~repro.pipeline.study.UnitLedger` journals the
  fits and placebo refits after the batch records, so a stream killed
  during finalize resumes mid-unit too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.runtime import fault_point
from repro.errors import CheckpointError, PipelineError
from repro.obs import COUNT_BUCKETS, SECONDS_BUCKETS, get_metrics, span
from repro.pipeline.checkpoint import StudyCheckpoint
from repro.pipeline.executor import RetryPolicy
from repro.pipeline.study import (
    StudyResult,
    StudyRow,
    check_serial_fits,
    execute_unit_plan,
    prepare_unit_plan,
)
from repro.stream.batches import MeasurementBatch
from repro.stream.refit import LiveRefitter
from repro.stream.state import AssignmentAccumulator, PanelAccumulator


@dataclass(frozen=True)
class BatchReport:
    """What one ingested batch did, for progress display and benchmarks."""

    index: int
    n_rows: int
    n_dirty_units: int
    n_dirty_cells: int
    n_refits: int
    warm_refits: int
    cold_refits: int
    seconds: float
    replayed: bool = False
    placebo_refreshes: int = 0


@dataclass(frozen=True)
class StreamOutcome:
    """A finished stream: the finalized study plus per-batch reports."""

    result: StudyResult
    reports: tuple[BatchReport, ...] = field(repr=False)


class StreamStudy:
    """Incremental IXP study over a feed of measurement batches.

    Mirrors :func:`~repro.pipeline.study.run_ixp_study`'s keyword
    surface where the stages overlap; ``live_refits=False`` skips the
    advisory per-batch refits (state accumulation and the finalized
    table are unaffected) for feeds where only the final table matters.
    ``live_placebo_every`` sets the live layer's placebo-amortization
    period (see :mod:`repro.stream.refit`); ``1`` means full placebo
    inference on every refit.  ``n_jobs`` must be ``1``: every fit runs
    in this process, as in ``run_ixp_study``.
    """

    def __init__(
        self,
        ixp_name: str,
        *,
        method: str = "robust",
        min_pre_periods: int = 7,
        min_post_periods: int = 3,
        max_donor_missing: float = 0.5,
        max_placebos: int | None = None,
        energy: float = 0.99,
        ridge: float = 1e-2,
        outcome: str = "rtt_ms",
        n_jobs: int | None = 1,
        retry: RetryPolicy | None = None,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        live_refits: bool = True,
        live_placebo_every: int = 4,
        telemetry: object | None = None,
    ) -> None:
        check_serial_fits(n_jobs, "StreamStudy")
        self.ixp_name = ixp_name
        self._plan_params = dict(
            min_pre_periods=min_pre_periods,
            min_post_periods=min_post_periods,
            max_donor_missing=max_donor_missing,
            method=method,
            max_placebos=max_placebos,
            energy=energy,
            ridge=ridge,
        )
        self._retry = retry
        self._live = live_refits and method == "robust"
        self._panel_acc = PanelAccumulator(outcome=outcome)
        self._assign_acc = AssignmentAccumulator(ixp_name)
        self._refitter = LiveRefitter(
            energy=energy,
            ridge=ridge,
            max_placebos=max_placebos,
            min_pre_periods=min_pre_periods,
            min_post_periods=min_post_periods,
            max_donor_missing=max_donor_missing,
            placebo_every=live_placebo_every,
        )
        self.reports: list[BatchReport] = []
        #: Telemetry sink, duck-typed to
        #: :class:`repro.obs.serve.TelemetryPublisher` (``publish_batch``
        #: / ``publish_final``).  Publication is observation only — it
        #: runs after the batch's state and journal writes, so rows are
        #: identical with telemetry on or off.
        self._telemetry = telemetry
        self._ckpt: StudyCheckpoint | None = None
        if checkpoint is not None:
            self._ckpt = StudyCheckpoint(
                checkpoint, ixp_name, resume, outcome=outcome, **self._plan_params
            )

    @property
    def panel(self):
        """The panel accumulated so far."""
        return self._panel_acc.panel

    def assignment(self):
        """The treatment assignment over everything ingested so far."""
        return self._assign_acc.assignment()

    def ingest(self, batch: MeasurementBatch) -> BatchReport:
        """Absorb one measurement batch; returns what it changed."""
        t0 = time.perf_counter()
        replayed = False
        if self._ckpt is not None:
            journaled = self._ckpt.completed_batches.get(batch.index)
            if journaled is not None:
                if journaled != batch.n_rows:
                    raise CheckpointError(
                        f"checkpoint journaled batch {batch.index} with "
                        f"{journaled} rows but the replayed batch has "
                        f"{batch.n_rows}; the feed does not match the "
                        f"checkpoint — pass a fresh checkpoint path"
                    )
                replayed = True
        metrics = get_metrics()
        with span("ingest", batch=batch.index, rows=batch.n_rows) as sp:
            fault_point("stream.batch", key=str(batch.index))
            frame = batch.frame  # gathered from the feed, once per ingest
            with span("panel.apply"):
                delta = self._panel_acc.apply(frame)
            with span("assignment.apply"):
                self._assign_acc.apply(frame)
            refits = 0
            warm0, cold0 = self._refitter.warm_refits, self._refitter.cold_refits
            placebo0 = self._refitter.placebo_refreshes
            if self._live and not replayed:
                assignment = self._assign_acc.assignment()
                treated = set(assignment.treated_units)
                for unit in delta.dirty_units:
                    if unit not in treated:
                        continue
                    with span("refit.unit", unit=unit):
                        self._refitter.refresh(self._panel_acc.panel, assignment, unit)
                    refits += 1
            seconds = time.perf_counter() - t0
            sp.set(
                n_dirty_units=len(delta.dirty_units),
                n_refits=refits,
                replayed=replayed,
            )
        metrics.counter("stream_batches_total", "measurement batches ingested").inc()
        metrics.counter(
            "stream_rows_total", "measurement rows ingested via the stream"
        ).inc(batch.n_rows)
        metrics.histogram(
            "stream_dirty_units", COUNT_BUCKETS, "dirty units per ingested batch"
        ).observe(len(delta.dirty_units))
        metrics.histogram(
            "stream_batch_seconds", SECONDS_BUCKETS, "wall seconds per ingested batch"
        ).observe(seconds)
        if self._ckpt is not None and not replayed:
            self._ckpt.append_batch(batch.index, batch.n_rows)
        report = BatchReport(
            index=batch.index,
            n_rows=batch.n_rows,
            n_dirty_units=len(delta.dirty_units),
            n_dirty_cells=delta.n_dirty_cells,
            n_refits=refits,
            warm_refits=self._refitter.warm_refits - warm0,
            cold_refits=self._refitter.cold_refits - cold0,
            seconds=seconds,
            replayed=replayed,
            placebo_refreshes=self._refitter.placebo_refreshes - placebo0,
        )
        self.reports.append(report)
        if self._telemetry is not None:
            from repro.obs.serve import _result_summary

            live = self.live_result() if self._live else None
            self._telemetry.publish_batch(
                report,
                live_summary=None if live is None else _result_summary(live),
            )
        return report

    def live_result(self) -> StudyResult:
        """The advisory study as of the last live refit.

        Rows come from the refitter's cached per-unit states, in
        treatment order; units it has not fitted (or could not) land in
        ``skipped``.  Use :meth:`finalize` for the shipped table.
        """
        assignment = self._assign_acc.assignment()
        rows: list[StudyRow] = []
        skipped: list[tuple[str, str]] = []
        for unit in assignment.treated_units:
            state = self._refitter.state(unit)
            if state is None:
                skipped.append((unit, "no live refit yet"))
            elif state.row is not None:
                rows.append(state.row)
            else:
                skipped.append((unit, state.skip_reason or "refit failed"))
        return StudyResult(
            rows=tuple(rows), assignment=assignment, skipped=tuple(skipped)
        )

    def finalize(self) -> StudyResult:
        """Run the batch study's fit stage over the accumulated state.

        This is the exact code path ``run_ixp_study`` uses after its
        panel/assignment stages — including the fit and refit journal,
        resume, and retries — so the returned rows are bit-identical
        to the batch study's on the same measurements, independent of
        how they were batched.
        """
        if self._panel_acc.n_rows == 0:
            raise PipelineError("cannot finalize a stream with no ingested batches")
        assignment = self._assign_acc.assignment()
        try:
            with span("finalize", ixp=self.ixp_name):
                plan = prepare_unit_plan(
                    self._panel_acc.panel, assignment, **self._plan_params
                )
                rows, skipped = execute_unit_plan(
                    plan, retry=self._retry, checkpoint=self._ckpt
                )
        finally:
            self.close()
        result = StudyResult(
            rows=tuple(rows), assignment=assignment, skipped=tuple(skipped)
        )
        if self._telemetry is not None:
            self._telemetry.publish_final(result)
        return result

    def run(self, batches) -> StreamOutcome:
        """Ingest a whole feed, finalize, and return both views."""
        for batch in batches:
            self.ingest(batch)
        result = self.finalize()
        return StreamOutcome(result=result, reports=tuple(self.reports))

    def close(self) -> None:
        """Close the checkpoint journal, if any (idempotent)."""
        if self._ckpt is not None:
            self._ckpt.close()

    def __enter__(self) -> "StreamStudy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
