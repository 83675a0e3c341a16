"""Experiment P3 — the vectorized analysis engine.

Runs the pre-fit analysis stages (treatment assignment from traceroute
evidence, daily median-RTT panel construction) over the 10x-paper-scale
measurement stream from P2 (30 donor ASes, 60 days, >1M tests) through
both the factorized kernels and the historical row-wise reference, and
asserts the vectorized path is at least 10x faster with *identical*
outputs — the same ``TreatmentAssignment`` and the same ``Panel`` to
the last bit.  The CSV round-trip (column-wise parse/format vs the
per-cell reference semantics) is timed alongside for the record.

Smoke mode (``ANALYSIS_BENCH_SMOKE=1``, used by CI) runs a reduced
scale and checks only the parity assertions, not the wall-clock ratio.
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

from repro.frames import read_csv_text, to_csv_text
from repro.mplatform import measurements_frame
from repro.netsim import build_table1_scenario
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import assign_treatment
from tests import rowwise_pipeline as rowwise

MIN_SPEEDUP = 10.0
SMOKE = os.environ.get("ANALYSIS_BENCH_SMOKE") == "1"


def _scenario_frame():
    if SMOKE:
        scenario = build_table1_scenario(
            n_donor_ases=8, duration_days=12, join_day=6, seed=2
        )
    else:
        scenario = build_table1_scenario(
            n_donor_ases=30, duration_days=60, join_day=30, seed=2, user_scale=10.0
        )
    return scenario, measurements_frame(scenario, rng=3)


def test_analysis_fast_path(benchmark):
    scenario, frame = _scenario_frame()

    # Row-wise reference: per-unit mask rebuild + wide-frame pivot.
    t0 = time.perf_counter()
    slow_assignment = rowwise.assign_treatment(frame, scenario.ixp_name)
    slow_assign_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow_panel = rowwise.build_panel(
        frame, unit="unit", time="day", outcome="rtt_ms"
    )
    slow_panel_s = time.perf_counter() - t0

    # Vectorized path, as the study pipeline runs it.
    def fast_stages():
        assignment = assign_treatment(frame, scenario.ixp_name)
        panel = rtt_panel(frame)
        return assignment, panel

    t0 = time.perf_counter()
    fast_assignment, fast_panel = benchmark.pedantic(
        fast_stages, rounds=1, iterations=1
    )
    fast_s = time.perf_counter() - t0

    # Bit-for-bit parity before any timing claim.
    assert fast_assignment == slow_assignment
    assert list(fast_assignment.first_crossing_hour) == list(
        slow_assignment.first_crossing_hour
    )
    assert fast_panel.times == slow_panel.times
    assert fast_panel.units == slow_panel.units
    np.testing.assert_array_equal(fast_panel.matrix, slow_panel.matrix)

    # CSV round-trip through the column-wise codecs, for the record.
    t0 = time.perf_counter()
    text = to_csv_text(frame)
    write_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parsed = read_csv_text(text)
    read_s = time.perf_counter() - t0
    assert parsed.num_rows == frame.num_rows
    assert to_csv_text(parsed) == text, "round-trip must be byte-stable"

    slow_s = slow_assign_s + slow_panel_s
    speedup = slow_s / fast_s if fast_s > 0 else float("inf")
    if not SMOKE:
        assert frame.num_rows > 1_000_000, "10x scale should exceed a million tests"
        assert speedup >= MIN_SPEEDUP, (
            f"vectorized analysis only {speedup:.1f}x faster "
            f"({fast_s:.2f}s vs {slow_s:.2f}s)"
        )

    lines = [
        f"rows analysed:                 {frame.num_rows:,}",
        f"treated+donor units:           {fast_panel.n_units}",
        f"row-wise assignment:           {slow_assign_s:.2f} s",
        f"row-wise panel build:          {slow_panel_s:.2f} s",
        f"vectorized assignment+panel:   {fast_s:.2f} s  ({speedup:.1f}x)",
        "",
        f"CSV format (column-wise):      {write_s:.2f} s",
        f"CSV parse (column-wise):       {read_s:.2f} s",
        "",
        "assignment and panel identical across paths (bit-for-bit);",
        f"threshold: >= {MIN_SPEEDUP:.0f}x on assignment+panel"
        + (" (smoke mode: parity only)." if SMOKE else "."),
    ]
    write_report(
        "P3_analysis_fast_path",
        "P3: vectorized analysis engine — factorized kernels vs row-wise loops",
        "\n".join(lines),
        data={
            "wall_seconds": fast_s,
            "speedup": speedup,
            "rows": frame.num_rows,
        },
    )
