"""Experiment P7 — streaming ingestion vs repeated full refits.

The claim: keeping a study current as measurements arrive must not cost
a full re-run per batch.  The stream replays a Table-1 scenario (at
10x the paper's user population at bench scale — ~1.7M rows) in
day-sized batches and, for each batch, times

- the **incremental** path: one ``StreamStudy.ingest`` (panel scatter,
  assignment merge, live refits of the dirty units only), against
- the **full** path: ``run_ixp_study`` recomputed from scratch over
  every measurement seen so far — what a study-keeping service without
  the stream engine would have to do.

The speedup has two sources.  Data side: a full recompute re-pivots
and re-scans the entire prefix (up to 1.7M rows by the last batch)
while an ingest touches only the batch's rows, with crossing decisions
cached once they are provably immutable.  Fit side: warm-started SVDs
make a touched unit's effect refresh sub-millisecond, and the placebo
ensembles rebuild on a staggered ``live_placebo_every`` cadence
(engine default) instead of per batch — ``finalize()`` still computes
exact inference through the batch study's own code path.  At smoke
scale (220k rows) the vectorized batch pipeline finishes a full study
in ~0.2s, so there is genuinely nothing to save — the >= 5x bar
therefore arms at bench scale only; smoke keeps the bit-parity
assertions and records the same latency fields for CI history.

Parity is asserted at every scale: the streamed ``finalize()`` rows
must be bit-identical to the batch study's on the full frame.  The
results JSON records per-batch wall-times (``batch_seconds``,
summarised to ``batch_p50_s``/``batch_p99_s`` by the report helper),
the matching full-refit times, and the per-batch speedups.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _report import write_report

from repro.frames.io import to_csv_text
from repro.mplatform import measurements_frame
from repro.netsim import build_table1_scenario
from repro.pipeline import run_ixp_study
from repro.stream import StreamStudy, slice_frame

SMOKE = os.environ.get("ANALYSIS_BENCH_SMOKE") == "1"


def _scenario():
    if SMOKE:
        return build_table1_scenario(
            n_donor_ases=40, duration_days=60, join_day=30, seed=2
        )
    return build_table1_scenario(
        n_donor_ases=30, duration_days=60, join_day=30, seed=2, user_scale=10.0
    )


def _median(series):
    ordered = sorted(series)
    return ordered[len(ordered) // 2]


def test_streaming_study(benchmark):
    scenario = _scenario()
    frame = measurements_frame(scenario, rng=3)
    batches = slice_frame(frame, batch_hours=24.0)

    study = StreamStudy(scenario.ixp_name)

    def _ingest_all():
        for batch in batches:
            study.ingest(batch)
        return study.finalize()

    streamed = benchmark.pedantic(_ingest_all, rounds=1, iterations=1)
    batch_seconds = [r.seconds for r in study.reports]
    warm = sum(r.warm_refits for r in study.reports)
    cold = sum(r.cold_refits for r in study.reports)

    # The comparator: recompute the whole study over each prefix, as a
    # naive always-current service would.  The prefix is accumulated
    # with plain concat, so the comparator gets a fresh, unmemoized
    # frame each round, like any true from-scratch recompute.
    full_seconds = []
    prefix = None
    reference = None
    for batch in batches:
        prefix = batch.frame if prefix is None else prefix.concat(batch.frame)
        t0 = time.perf_counter()
        reference = run_ixp_study(prefix, scenario.ixp_name)
        full_seconds.append(time.perf_counter() - t0)

    # --- bit-identical final rows ----------------------------------------
    assert reference is not None
    assert to_csv_text(streamed.to_frame()) == to_csv_text(reference.to_frame())
    assert streamed.skipped == reference.skipped
    # ... and against the batch study on the original (unsliced) frame.
    original = run_ixp_study(frame, scenario.ixp_name)
    assert streamed.rows == original.rows
    assert streamed.skipped == original.skipped

    speedups = [
        full / inc if inc > 0 else float("inf")
        for full, inc in zip(full_seconds, batch_seconds)
    ]
    last_speedup = speedups[-1]
    # State-layer regime: batches where neither side fit any unit
    # (batch 0 excluded — there the prefix *is* the batch).
    state_only = [
        s
        for s, r in zip(speedups, study.reports)
        if r.n_refits == 0 and r.index > 0
    ]

    lines = [
        f"scale:                    {'smoke' if SMOKE else 'bench (10x paper)'}",
        f"measurement rows:         {frame.num_rows}",
        f"batches (day-sized):      {len(batches)}",
        f"stream total:             {sum(batch_seconds):.3f} s",
        f"full-recompute total:     {sum(full_seconds):.3f} s",
        f"live refits:              {warm} warm / {cold} cold",
        f"median speedup:           {_median(speedups):.1f}x",
        f"state-layer speedup:      {_median(state_only):.1f}x median "
        f"({len(state_only)} refit-free batches)",
        f"final-batch speedup:      {last_speedup:.1f}x",
        "",
        f"{'batch':>5}  {'rows':>9}  {'refits':>6}  {'ingest s':>9}  "
        f"{'full s':>9}  {'speedup':>8}",
    ]
    for report, full, speedup in zip(study.reports, full_seconds, speedups):
        lines.append(
            f"{report.index:>5}  {report.n_rows:>9}  {report.n_refits:>6}  "
            f"{report.seconds:>9.3f}  {full:>9.3f}  {speedup:>7.1f}x"
        )
    lines += [
        "",
        "streamed rows bit-identical to the batch study on the full frame",
    ]
    write_report(
        "P7_streaming_study",
        "P7: streaming ingestion — incremental vs full per-batch refits",
        "\n".join(lines),
        data={
            "wall_seconds": sum(batch_seconds),
            "speedup": _median(speedups),
            "rows": frame.num_rows,
            "n_batches": len(batches),
            "batch_seconds": batch_seconds,
            "full_batch_seconds": full_seconds,
            "per_batch_speedup": speedups,
            "last_batch_speedup": last_speedup,
            "state_layer_speedup": _median(state_only),
            "warm_refits": warm,
            "cold_refits": cold,
            "smoke": SMOKE,
        },
    )

    assert len(state_only) >= 5, "scenario must include refit-free batches"
    if not SMOKE:
        # The bar: on the 10x-paper stream, the largest-prefix batch —
        # where a full recompute pays for the whole history — must lose
        # to one incremental ingest by >= 5x.
        assert last_speedup >= 5.0, (
            f"final batch: incremental {batch_seconds[-1]:.3f}s vs full "
            f"{full_seconds[-1]:.3f}s ({last_speedup:.1f}x)"
        )
        assert _median(speedups) >= 2.0, (
            f"median per-batch speedup {_median(speedups):.1f}x < 2x"
        )
