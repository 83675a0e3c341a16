"""Experiment P1 — the process pool where the seconds are, and SVD reuse.

Three claims:

1. **Transport**: a campaign's pool task builds one whole scenario —
   world, measurements, assignment, panel — and ships home only the
   truth, the assignment and the panel (a few KB), never the frame.
   Unit fits run in the parent, so nothing else crosses a process
   boundary.  The pooled campaign must never lose to the serial one
   where parallelism is physically possible.
2. **Reuse**: the placebo loop's per-donor de-noising shares one SVD
   per unit (a batched leave-one-out sweep) instead of refitting from
   scratch, which is faster on any core count;
3. **Fan-out**: ``run_campaign(n_jobs=4)`` spreads scenarios over a
   process pool with a *byte-identical* verdict table — asserted on
   the rendered table.

The fleet is sized so stage A (scenario generation) dominates, as it
does in every campaign the CLI runs.  The >= 2x fan-out speedup is only
asserted at bench scale on >= 4 cores; the >= 1.0x floor arms at >= 2
cores in smoke and bench mode, and the equality checks run everywhere.
Smoke mode (``ANALYSIS_BENCH_SMOKE=1``, used by CI's scaling job) runs
a smaller fleet with the same assertions.

The results JSON records ``n_cores`` and ``n_jobs`` so a regression in
CI history is attributable to the machine that produced it.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from _report import write_report

from repro.campaign import default_fleet, run_campaign
from repro.mplatform import measurements_frame
from repro.netsim import build_table1_scenario
from repro.pipeline import run_ixp_study
from repro.synthcontrol import robust_synthetic_control
from repro.synthcontrol.placebo import placebo_rmse_ratios

SMOKE = os.environ.get("ANALYSIS_BENCH_SMOKE") == "1"
N_JOBS = 4
BUDGET = 200


def _fleet():
    # Eight scenarios keep all four workers busy for two rounds; each
    # scenario's generation outweighs the pool's fixed fork cost many
    # times over, and the fits and refits (serial, in the parent) stay
    # a small share of the run.
    if SMOKE:
        return default_fleet(8, seed=0, duration_days=40, n_donor_ases=24)
    return default_fleet(8, seed=0, duration_days=60, n_donor_ases=30)


def _scenario():
    # The reuse claim's world: 8 treated units with >= 20 donors each.
    if SMOKE:
        return build_table1_scenario(
            n_donor_ases=40, duration_days=60, join_day=30, seed=2
        )
    return build_table1_scenario(
        n_donor_ases=60, duration_days=90, join_day=45, seed=2
    )


def _naive_placebo_ratios(donors, pre_periods, donor_names):
    """The pre-reuse algorithm: one full de-noising SVD per donor."""
    out = []
    for col in range(donors.shape[1]):
        rest = np.delete(donors, col, axis=1)
        rest_names = [n for i, n in enumerate(donor_names) if i != col]
        fit = robust_synthetic_control(
            donors[:, col], rest, pre_periods, donor_names=rest_names
        )
        if fit.pre_rmse >= 1e-9 and np.isfinite(fit.rmse_ratio):
            out.append((donor_names[col], float(fit.rmse_ratio)))
    return out


def _timed_campaign(fleet, n_jobs):
    t0 = time.perf_counter()
    result = run_campaign(fleet, budget=BUDGET, n_jobs=n_jobs)
    return time.perf_counter() - t0, result


def test_parallel_study(benchmark):
    fleet = _fleet()

    # Best-of-2 on both backends, alternating: the floor assertion
    # below compares two wall-times, so one scheduler hiccup must not
    # fail the build.
    serial_s = pooled_s = float("inf")
    serial = pooled = None
    for _ in range(2):
        seconds, serial = _timed_campaign(fleet, 1)
        serial_s = min(serial_s, seconds)
        seconds, pooled = _timed_campaign(fleet, N_JOBS)
        pooled_s = min(pooled_s, seconds)
    t0 = time.perf_counter()
    benchmark.pedantic(
        lambda: run_campaign(fleet, budget=BUDGET, n_jobs=N_JOBS),
        rounds=1,
        iterations=1,
    )
    pooled_s = min(pooled_s, time.perf_counter() - t0)

    # --- identical verdict table between backends ---------------------------
    table = serial.format_campaign_table()
    assert pooled.format_campaign_table() == table
    assert sum(v.n_units for v in serial.verdicts) >= 4 * len(fleet)

    # --- SVD reuse inside the placebo loop (core-count independent) -------
    from repro.pipeline import rtt_panel
    from repro.synthcontrol import select_donors

    scenario = _scenario()
    frame = measurements_frame(scenario, rng=3)
    study = run_ixp_study(frame, scenario.ixp_name)
    assert len(study.rows) >= 4, "need a multi-unit scenario"
    min_donors = 20
    for row in study.rows:
        assert row.n_donors >= min_donors
    panel = rtt_panel(frame)
    unit = study.rows[0].unit
    donors = select_donors(
        panel,
        unit,
        excluded=[r.unit for r in study.rows] + [u for u, _ in study.skipped],
        pre_periods=study.rows[0].pre_periods,
    )
    matrix = np.column_stack([panel.series(d) for d in donors])
    pre = study.rows[0].pre_periods

    naive_s, reused_s = float("inf"), float("inf")
    for _ in range(3):  # best-of-3 to keep the comparison jitter-proof
        t0 = time.perf_counter()
        naive = _naive_placebo_ratios(matrix, pre, donors)
        naive_s = min(naive_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        reused = placebo_rmse_ratios(matrix, pre, donors)
        reused_s = min(reused_s, time.perf_counter() - t0)

    assert len(reused) == len(naive)
    for (name_a, ratio_a), (name_b, ratio_b) in zip(naive, reused):
        assert name_a == name_b
        assert abs(ratio_a - ratio_b) < 1e-6 * max(1.0, abs(ratio_a))

    cores = os.cpu_count() or 1
    fanout = serial_s / pooled_s if pooled_s > 0 else float("inf")
    reuse = naive_s / reused_s if reused_s > 0 else float("inf")
    spec = fleet[0]
    lines = [
        f"runner cores:                  {cores}",
        f"scale:                         {'smoke' if SMOKE else 'bench'}",
        f"fleet:                         {len(fleet)} scenarios, "
        f"{spec.duration_days} days, {spec.n_donor_ases} donors, "
        f"budget {BUDGET}",
        f"serial campaign wall-time:     {serial_s:.2f} s",
        f"n_jobs={N_JOBS} campaign wall-time:   {pooled_s:.2f} s  ({fanout:.2f}x)",
        f"naive placebo loop (1 unit):   {naive_s * 1e3:.1f} ms",
        f"reused-SVD placebo loop:       {reused_s * 1e3:.1f} ms  ({reuse:.2f}x)",
        "",
        f"units analysed: {sum(v.n_units for v in serial.verdicts)} across the fleet;",
        "serial and pooled verdict tables byte-identical",
        "(a pool task returns one scenario's truth, assignment and panel;",
        "the frame stays in the worker and every fit runs in the parent).",
        f"reuse study: {len(study.rows)} units, donors per unit >= {min_donors}.",
    ]
    write_report(
        "P1_parallel_study",
        "P1: scenario-parallel campaign and SVD-reuse wall-times",
        "\n".join(lines),
        data={
            "wall_seconds": pooled_s,
            "speedup": fanout,
            "rows": sum(v.n_units for v in serial.verdicts),
            "n_cores": cores,
            "n_jobs": N_JOBS,
            "serial_seconds": serial_s,
            "smoke": SMOKE,
        },
    )

    # Reuse must never lose to the naive loop.
    assert reused_s < naive_s
    # The pool's floor: it must never run sub-serial wherever
    # parallelism is physically possible.  On a single core a pool is
    # serial work plus a fixed fork cost, so the wall-clock floor arms
    # at two cores and up; single-core runners record the numbers
    # unasserted (the table-parity and reuse checks above ran
    # regardless).
    if cores >= 2:
        assert fanout >= 1.0, (
            f"pooled campaign ran sub-serial on {cores} cores: {fanout:.2f}x "
            f"(serial {serial_s:.2f}s vs n_jobs={N_JOBS} {pooled_s:.2f}s)"
        )
    # The full 2x bar needs both the cores and the bench-scale fleet.
    if cores >= 4 and not SMOKE:
        assert fanout >= 2.0, (
            f"expected >= 2x speedup on {cores} cores, got {fanout:.2f}x"
        )
