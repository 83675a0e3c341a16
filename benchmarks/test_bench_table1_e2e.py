"""Experiment P8 — the Table-1 fit engine, end to end.

Times the **whole** Table-1 reproduction at 10x-paper scale (30 donor
ASes, 60 days, user populations scaled 10x, >1M speed tests): generate
the measurement stream, assign treatment, build the panel, and fit
every treated unit, each on the one factorization its unit ledger
holds.  The
baseline is the seed's end-to-end path, staged the way the repo
originally ran it — scalar per-object generation
(``reference_measurements`` in ``tests/reference_generation.py``),
row-wise assignment and panel pivot, and one full de-noising SVD per
donor per unit with no reuse — and the fast path must beat it by at
least 10x wall-clock.

There is one fit path, so no second one to compare rows with (its
rows are pinned on small worlds by ``tests/test_pinned_outputs.py``);
here the table must hold at least four units and the scalar generator
must plan the same cells.  (Scalar and columnar *generation* consume
noise streams in different orders, so the generation halves are
compared by wall-clock only.)

Smoke mode (``ANALYSIS_BENCH_SMOKE=1``, used by CI's scaling job) runs
a reduced scenario and checks those assertions, not the wall-clock
ratio.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# The checkout root, for the row-wise reference oracles under tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from _report import write_report

from repro.mplatform import (
    SpeedTestGenerator,
    measurements_frame,
    measurements_to_frame,
)
from repro.netsim import build_table1_scenario
from repro.pipeline import run_ixp_study
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import assign_treatment
from repro.synthcontrol import robust_synthetic_control, select_donors
from tests import rowwise_pipeline as rowwise
from tests.reference_generation import reference_measurements

MIN_SPEEDUP = 10.0
SMOKE = os.environ.get("ANALYSIS_BENCH_SMOKE") == "1"


def _scenario():
    if SMOKE:
        return build_table1_scenario(
            n_donor_ases=10, duration_days=14, join_day=7, seed=2
        )
    return build_table1_scenario(
        n_donor_ases=30, duration_days=60, join_day=30, seed=2, user_scale=10.0
    )


def _seed_style_fits(panel, result):
    """The seed's fit loop: per unit, one full de-noising SVD per donor."""
    excluded = [r.unit for r in result.rows] + [u for u, _ in result.skipped]
    for row in result.rows:
        donors = select_donors(
            panel, row.unit, excluded=excluded, pre_periods=row.pre_periods
        )
        matrix = np.column_stack([panel.series(d) for d in donors])
        treated = panel.series(row.unit)
        robust_synthetic_control(
            treated, matrix, row.pre_periods, donor_names=donors
        )
        for col in range(matrix.shape[1]):
            rest = np.delete(matrix, col, axis=1)
            rest_names = [n for i, n in enumerate(donors) if i != col]
            robust_synthetic_control(
                matrix[:, col], rest, row.pre_periods, donor_names=rest_names
            )


def test_table1_end_to_end(benchmark):
    scenario = _scenario()

    # --- fast path: columnar generation + ledger fits, one timed pass -----
    def fast_e2e():
        frame = measurements_frame(scenario, rng=3)
        return frame, run_ixp_study(frame, scenario.ixp_name)

    t0 = time.perf_counter()
    frame, fast = benchmark.pedantic(fast_e2e, rounds=1, iterations=1)
    fast_s = time.perf_counter() - t0

    assert len(fast.rows) >= 4, "need a multi-unit table"

    # --- seed-style baseline, staged --------------------------------------
    t0 = time.perf_counter()
    scalar_frame = measurements_to_frame(
        reference_measurements(SpeedTestGenerator(scenario), rng=3)
    )
    scalar_gen_s = time.perf_counter() - t0
    assert scalar_frame.num_rows == frame.num_rows, "modes plan identical cells"

    t0 = time.perf_counter()
    rowwise.assign_treatment(frame, scenario.ixp_name)
    rowwise.build_panel(frame, unit="unit", time="day", outcome="rtt_ms")
    rowwise_s = time.perf_counter() - t0

    assignment = assign_treatment(frame, scenario.ixp_name)
    panel = rtt_panel(frame, period="day")
    del assignment
    t0 = time.perf_counter()
    _seed_style_fits(panel, fast)
    naive_fit_s = time.perf_counter() - t0

    baseline_s = scalar_gen_s + rowwise_s + naive_fit_s
    speedup = baseline_s / fast_s if fast_s > 0 else float("inf")
    cores = os.cpu_count() or 1

    if not SMOKE:
        assert frame.num_rows > 1_000_000, "10x scale should exceed a million tests"
        assert speedup >= MIN_SPEEDUP, (
            f"end-to-end fast path only {speedup:.1f}x faster "
            f"({fast_s:.2f}s vs seed-style {baseline_s:.2f}s)"
        )

    lines = [
        f"runner cores:                    {cores}",
        f"scale:                           {'smoke' if SMOKE else 'bench'}",
        f"rows generated and analysed:     {frame.num_rows:,}",
        f"fast path end-to-end:            {fast_s:.2f} s",
        f"  (generation + assignment + panel + fits)",
        f"seed-style baseline, staged:",
        f"  scalar generation:             {scalar_gen_s:.2f} s",
        f"  row-wise assignment + panel:   {rowwise_s:.2f} s",
        f"  per-donor full-SVD fits:       {naive_fit_s:.2f} s",
        f"  total:                         {baseline_s:.2f} s  ({speedup:.1f}x)",
        "",
        f"units analysed: {len(fast.rows)};",
        f"threshold: >= {MIN_SPEEDUP:.0f}x end-to-end"
        + (" (smoke mode: no timing gate)." if SMOKE else "."),
    ]
    write_report(
        "P8_table1_e2e",
        "P8: the fit engine — end-to-end Table 1 vs the seed path",
        "\n".join(lines),
        data={
            "wall_seconds": fast_s,
            "speedup": speedup,
            "rows": frame.num_rows,
            "n_cores": cores,
            "baseline_seconds": baseline_s,
            "scalar_generation_seconds": scalar_gen_s,
            "rowwise_analysis_seconds": rowwise_s,
            "naive_fit_seconds": naive_fit_s,
            "smoke": SMOKE,
        },
    )
