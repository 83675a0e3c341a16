"""Experiment P2 — the columnar fast path for measurement generation.

Generates the 10x-paper-scale speed-test stream (30 donor ASes, 60
days, user populations scaled 10x, >1M tests) through the batched
columnar generator and through the scalar object emitter it replaced
(``reference_measurements`` in ``tests/reference_generation.py``), and
asserts the batched path is at least 5x faster end-to-end.

Both share one plan phase (the Poisson cell counts come off a
dedicated rate-RNG stream), so the row counts agree *exactly* — the
speedup is measured on identically sized outputs, and the equality is
asserted alongside the wall-times.

Smoke mode (``ANALYSIS_BENCH_SMOKE=1``, used by CI) generates a small
world and checks parity only: identical batched and scalar cell counts,
and a batched frame byte-identical to the per-cell reference generator
in ``tests/reference_generation.py``.  No wall-clock ratio is asserted.
"""

import collections
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# The checkout root, for the reference generator under tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from _report import write_report

from repro.mplatform import SpeedTestGenerator, measurements_to_frame
from repro.mplatform.speedtest import _split_rng
from repro.netsim import build_table1_scenario
from tests.reference_generation import (
    assert_frames_identical,
    reference_frame,
    reference_measurements,
)

MIN_SPEEDUP = 5.0
SMOKE = os.environ.get("ANALYSIS_BENCH_SMOKE") == "1"


def _cell_counts(frame):
    hours = np.floor(frame["time_hour"]).astype(np.int64)
    return collections.Counter(zip(frame["unit"].tolist(), hours.tolist()))


def test_generation_fast_path(benchmark):
    if SMOKE:
        scenario = build_table1_scenario(
            n_donor_ases=8, duration_days=12, join_day=6, seed=2
        )
    else:
        scenario = build_table1_scenario(
            n_donor_ases=30, duration_days=60, join_day=30, seed=2, user_scale=10.0
        )

    t0 = time.perf_counter()
    scalar = measurements_to_frame(
        reference_measurements(SpeedTestGenerator(scenario), rng=3)
    )
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = benchmark.pedantic(
        lambda: SpeedTestGenerator(scenario).generate_frame(rng=3),
        rounds=1,
        iterations=1,
    )
    batched_s = time.perf_counter() - t0

    assert batched.num_rows == scalar.num_rows, "modes must plan identical cells"
    if SMOKE:
        assert _cell_counts(batched) == _cell_counts(scalar)
        rate_rng, noise_rng = _split_rng(3)
        expected = reference_frame(SpeedTestGenerator(scenario), rate_rng, noise_rng)
        assert_frames_identical(batched, expected)
        return
    assert batched.num_rows > 1_000_000, "10x scale should exceed a million tests"
    assert batched.column_names == scalar.column_names

    # Same world, same cells: summary statistics must agree closely even
    # though the per-test noise streams are consumed in different orders.
    for column in ("rtt_ms", "download_mbps"):
        a = float(np.mean(batched[column]))
        b = float(np.mean(scalar[column]))
        assert abs(a - b) < 0.05 * abs(b), column

    speedup = scalar_s / batched_s if batched_s > 0 else float("inf")
    assert speedup >= MIN_SPEEDUP, (
        f"batched path only {speedup:.1f}x faster "
        f"({batched_s:.2f}s vs {scalar_s:.2f}s)"
    )

    lines = [
        f"rows generated:            {batched.num_rows:,}",
        f"scalar object path:        {scalar_s:.2f} s",
        f"batched columnar path:     {batched_s:.2f} s  ({speedup:.1f}x)",
        "",
        f"row counts identical across modes; per-column means within 5%.",
        f"threshold: >= {MIN_SPEEDUP:.0f}x end-to-end.",
    ]
    write_report(
        "P2_generation_fast_path",
        "P2: columnar measurement generation — batched vs scalar wall-times",
        "\n".join(lines),
        data={
            "wall_seconds": batched_s,
            "speedup": speedup,
            "rows": batched.num_rows,
        },
    )
