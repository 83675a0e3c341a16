"""Experiment P4 — tracing overhead on the instrumented hot path.

The observability layer (``repro.obs``) instruments every pipeline
stage, but deliberately records no per-row spans, so its cost must be
invisible at scale.  This benchmark runs the pre-fit analysis stages
(treatment assignment + panel build) over the 10x-paper-scale stream
from P2/P3 with tracing enabled and disabled — best-of-3 each, to keep
the comparison jitter-proof — and asserts the enabled run is within 5%
of the disabled one (plus a small absolute epsilon for sub-second
stages on fast machines).

A small fully traced study runs afterwards and its span tree goes into
the report via :func:`repro.obs.render_trace`, so the results file
shows what the instrumentation actually captures.

Smoke mode (``ANALYSIS_BENCH_SMOKE=1``, used by CI) runs a reduced
scale and skips the wall-clock ratio assertion.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _report import write_report

from repro.mplatform import measurements_frame
from repro.netsim import build_table1_scenario
from repro.obs import get_tracer, render_trace, set_tracing, tracing_disabled
from repro.pipeline import run_ixp_study
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import assign_treatment

MAX_OVERHEAD = 0.05  # enabled may cost at most 5% over disabled
ABS_EPSILON_S = 0.05  # absolute slack for sub-second stage times
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


def _best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_tracing_overhead():
    scenario, frame = _scenario_frame()

    def stages():
        assign_treatment(frame, scenario.ixp_name)
        rtt_panel(frame)

    # Disabled first, then enabled, interleaving warm caches fairly.
    with tracing_disabled():
        disabled_s = _best_of(3, stages)
    previous = set_tracing(True)
    try:
        get_tracer().reset()
        enabled_s = _best_of(3, stages)
        n_spans = len(get_tracer().records)

        # A small fully traced study, rendered into the report.
        get_tracer().reset()
        small_scenario = build_table1_scenario(
            n_donor_ases=4, duration_days=12, join_day=6, seed=2
        )
        small_frame = measurements_frame(small_scenario, rng=3)
        run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=1)
        tree = render_trace(get_tracer().records, max_spans=40)
        get_tracer().reset()
    finally:
        set_tracing(previous)

    overhead = (enabled_s - disabled_s) / disabled_s if disabled_s > 0 else 0.0
    if not SMOKE:
        assert frame.num_rows > 1_000_000, "10x scale should exceed a million tests"
        assert enabled_s <= disabled_s * (1.0 + MAX_OVERHEAD) + ABS_EPSILON_S, (
            f"tracing overhead {overhead * 100:.1f}% "
            f"({enabled_s:.3f}s traced vs {disabled_s:.3f}s untraced) "
            f"exceeds {MAX_OVERHEAD * 100:.0f}%"
        )

    lines = [
        f"rows analysed:              {frame.num_rows:,}",
        f"untraced assignment+panel:  {disabled_s:.3f} s (best of 3)",
        f"traced assignment+panel:    {enabled_s:.3f} s (best of 3)",
        f"overhead:                   {overhead * 100:+.1f}%"
        f"  (threshold {MAX_OVERHEAD * 100:.0f}%"
        + (", smoke mode: not asserted)" if SMOKE else ")"),
        f"spans recorded per pass:    {n_spans // 3 if n_spans else 0}",
        "",
        "span tree of a small traced study:",
        "",
        tree,
    ]
    write_report(
        "P4_obs_overhead",
        "P4: tracing overhead — instrumented vs uninstrumented hot path",
        "\n".join(lines),
        data={
            "wall_seconds": enabled_s,
            "speedup": disabled_s / enabled_s if enabled_s > 0 else None,
            "rows": frame.num_rows,
            "overhead_pct": overhead * 100,
        },
    )
