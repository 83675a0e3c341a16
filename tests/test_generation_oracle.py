"""The columnar generator against the per-cell reference generator.

The whole-window plan, the single Poisson call, the pool grouping and
the shared link loads change how generation is computed, not what it
computes: under the same seed the frame must be byte-identical to
``tests/reference_generation.py`` and both RNG streams must end in the
same state.
"""

import tracemalloc

import pytest

from repro.campaign.spec import (
    _CONTENT_CDN,
    _REGIONAL_JNB,
    ScenarioSpec,
    build_scenario,
    scenario_kinds,
)
from repro.frames.column import KIND_OBJECT
from repro.mplatform import SpeedTestConfig, SpeedTestGenerator
from repro.mplatform.speedtest import _split_rng, measurements_frame
from repro.netsim import build_table1_scenario, build_trombone_scenario
from repro.netsim.events import MaintenanceWindowEvent
from tests.reference_generation import assert_frames_identical, reference_frame

SMALL = dict(n_donor_ases=6, duration_days=12, join_day=6)


def assert_matches_reference(scenario, seed, endogenous=True):
    config = SpeedTestConfig(endogenous=endogenous)
    rate_rng, noise_rng = _split_rng(seed)
    gen = SpeedTestGenerator(scenario, config)
    plan = gen._plan(rate_rng)
    frame = gen._emit_frame(plan, noise_rng)

    ref_rate, ref_noise = _split_rng(seed)
    expected = reference_frame(SpeedTestGenerator(scenario, config), ref_rate, ref_noise)

    assert frame.num_rows > 0
    assert_frames_identical(frame, expected)
    assert rate_rng.bit_generator.state == ref_rate.bit_generator.state
    assert noise_rng.bit_generator.state == ref_noise.bit_generator.state
    # The public entry point runs the same plan and emission.
    assert_frames_identical(gen.generate_frame(rng=seed), expected)
    return plan


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", scenario_kinds())
def test_every_campaign_kind_matches_reference(kind, seed):
    spec = ScenarioSpec(name=f"{kind}-{seed}", kind=kind, seed=seed, **SMALL)
    assert_matches_reference(build_scenario(spec), seed)


def test_exogenous_platform_matches_reference():
    scenario = build_table1_scenario(seed=1, **SMALL)
    assert_matches_reference(scenario, 3, endogenous=False)


def test_trombone_world_matches_reference():
    scenario = build_trombone_scenario(n_access=4, duration_days=10, join_day=5)
    assert_matches_reference(scenario, 1)


@pytest.mark.parametrize(
    "start, duration, states_seen",
    [(197.0, 7.5, 2), (197.3, 0.4, 1), (197.5, 36.0, 2)],
)
def test_mid_window_link_failure_matches_reference(start, duration, states_seen):
    """Failures that start or end between the hourly grid points.

    The 0.4-hour window falls between two grid hours, so no cell sees it.
    """
    scenario = build_table1_scenario(seed=2, **SMALL)
    scenario.timeline.add_event(
        MaintenanceWindowEvent(
            time_hour=start,
            a_asn=_CONTENT_CDN,
            b_asn=_REGIONAL_JNB,
            duration_hours=duration,
        )
    )
    plan = assert_matches_reference(scenario, 4)
    dead = {scenario.timeline.state_at(float(h)).dead_links for h in plan.hour}
    assert len(dead) == states_seen


def test_object_columns_share_one_object_per_pool():
    """Constant strings are stored by reference, not copied per row."""
    scenario = build_table1_scenario(seed=1, **SMALL)
    gen = SpeedTestGenerator(scenario)
    n_pools = len(gen._plan(_split_rng(3)[0]).pools())
    frame = gen.generate_frame(rng=3)
    assert frame.num_rows > 10 * n_pools
    for name in frame.column_names:
        if frame.column(name).kind == KIND_OBJECT:
            distinct = {id(v) for v in frame[name]}
            assert len(distinct) <= n_pools, name


def test_generation_peak_memory_stays_near_the_frame_size(
    small_scenario, small_frame
):
    """Each column is allocated once, at full length, and written in place.

    Accumulating per-pool chunks and concatenating them at the end held
    every column twice (a traced peak of about 2.4x the frame); writing
    into preallocated columns keeps the peak at about 1.4x.  The frame
    is measured as stored (``Column.nbytes``: label columns as their
    codes plus category tables), since decoding a label column would
    inflate the yardstick with an 8-byte pointer per row.

    ``small_frame`` was generated from the same scenario, so the
    scenario's routing-state caches (BGP routes, topology copies: about
    0.2 MB, paid once per scenario whatever its row count) are already
    built and the traced peak is generation's own.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        frame = measurements_frame(small_scenario, rng=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    frame_bytes = sum(frame.column(name).nbytes for name in frame.column_names)
    assert frame.num_rows > 0
    assert peak <= 1.5 * frame_bytes, (peak, frame_bytes)
