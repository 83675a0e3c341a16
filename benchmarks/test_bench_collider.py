"""Experiment E2 — the speed-test collider (§3 selection bias).

Regenerates the collider demonstration: with a true route-change ->
latency effect of exactly zero, the association computed on collected
tests is materially non-zero, while the full population shows none.
Also reports the §4.2 tag-based decomposition on simulated platform
data.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _report import write_report

from repro.mplatform import measurements_frame
from repro.netsim import build_table1_scenario
from repro.studies import run_collider_experiment, tag_based_correction


def _run():
    scm_out = run_collider_experiment(n_samples=80_000, seed=0)
    scenario = build_table1_scenario(
        n_donor_ases=15, duration_days=24, join_day=12, seed=0
    )
    frame = measurements_frame(scenario, rng=1)
    contrasts = tag_based_correction(frame, scenario.ixp_name)
    return scm_out, contrasts


def test_collider_box(benchmark):
    scm_out, contrasts = benchmark.pedantic(_run, rounds=1, iterations=1)
    body = "\n".join(
        [
            scm_out.format_report(),
            "",
            "platform data, crossing-vs-not RTT contrast by intent tag:",
            f"  pooled (collider-conditioned): {contrasts['pooled']:+8.2f} ms",
            f"  baseline-triggered only:       {contrasts['baseline_only']:+8.2f} ms",
            f"  reaction-triggered only:       {contrasts['reactive_only']:+8.2f} ms",
        ]
    )
    write_report("E2_collider", "E2: the speed-test collider", body)
    assert scm_out.true_effect == 0.0
    assert abs(scm_out.full_population_assoc) < 0.08
    assert abs(scm_out.collected_tests_assoc) > 0.2
    # Reaction-triggered tests over-represent bad moments by construction.
    assert abs(contrasts["reactive_only"]) > abs(contrasts["baseline_only"])
