"""Unit tests for the measurement-platform package."""

import numpy as np
import pytest

from repro.errors import PlatformError
from repro.frames import Frame
from repro.mplatform import (
    BurstPlan,
    ConditionalTrigger,
    Measurement,
    ProbePlatform,
    ProbeSchedule,
    RouteToggle,
    Trigger,
    default_world,
    SpeedTestGenerator,
    generate_tests,
    measurements_frame,
    site_contrast,
)
from repro.mplatform.speedtest import _split_rng
from tests.reference_generation import assert_frames_identical


class TestRecords:
    def test_measurement_day(self):
        m = Measurement(
            asn=1,
            city="X",
            time_hour=49.5,
            rtt_ms=10.0,
            as_path=(1, 2),
            ixps_crossed=("NAP",),
            trigger=Trigger.BASELINE,
        )
        assert m.day == 2
        assert m.unit_label == "AS1/X"
        assert m.crosses("NAP") and not m.crosses("Other")

    def test_frame_columns(self, small_frame):
        expected = {
            "asn",
            "city",
            "unit",
            "time_hour",
            "day",
            "rtt_ms",
            "as_path",
            "crosses_ixp",
            "ixps",
            "trigger",
            "server_site",
            "download_mbps",
        }
        assert set(small_frame.column_names) == expected

    def test_frame_row_count(self, small_scenario, small_frame):
        # One row per planned test: the plan's cell counts sum to the frame.
        plan = SpeedTestGenerator(small_scenario)._plan(_split_rng(3)[0])
        assert small_frame.num_rows == int(plan.n_tests.sum())


def _crosses(frame: Frame, ixp: str) -> np.ndarray:
    """Per-row "crosses *ixp*" mask, read off the ``ixps`` codes."""
    codes, uniques = frame.column("ixps").factorize()
    return np.array([ixp in u.split(",") for u in uniques], dtype=bool)[codes]


def _triggers(frame: Frame) -> set[str]:
    return set(frame.column("trigger").factorize()[1])


class TestSpeedTests:
    def test_measurements_generated(self, small_frame):
        assert small_frame.num_rows > 1000

    def test_deterministic_by_seed(self, small_scenario):
        a = measurements_frame(small_scenario, rng=42)
        b = measurements_frame(small_scenario, rng=42)
        assert_frames_identical(a, b)

    def test_crossings_appear_only_after_join(self, small_scenario, small_frame):
        sc = small_scenario
        crosses = _crosses(small_frame, sc.ixp_name)
        assert crosses.any()
        join = np.array([sc.join_hours[a] for a in small_frame["asn"][crosses]])
        assert (small_frame["time_hour"][crosses] >= join - 1.0).all()

    def test_treated_units_eventually_cross(self, small_scenario, small_frame):
        sc = small_scenario
        crosses = _crosses(small_frame, sc.ixp_name)
        city_codes, cities = small_frame.column("city").factorize()
        crossed_units = {
            (int(asn), cities[code])
            for asn, code in zip(small_frame["asn"][crosses], city_codes[crosses])
        }
        assert set(sc.treated_units) <= crossed_units

    def test_donors_never_cross(self, small_scenario, small_frame):
        sc = small_scenario
        donors = ~np.isin(small_frame["asn"], list(sc.join_hours))
        assert donors.any()
        assert not _crosses(small_frame, sc.ixp_name)[donors].any()

    def test_intent_tags_present(self, small_frame):
        tags = _triggers(small_frame)
        assert Trigger.BASELINE.value in tags
        assert Trigger.PERFORMANCE.value in tags or Trigger.ROUTE_CHANGE.value in tags

    def test_exogenous_mode_only_baseline(self, small_scenario):
        frame = measurements_frame(small_scenario, rng=3, endogenous=False)
        assert _triggers(frame) == {Trigger.BASELINE.value}

    def test_endogenous_volume_higher(self, small_scenario, small_frame):
        exo = measurements_frame(small_scenario, rng=3, endogenous=False)
        assert small_frame.num_rows > exo.num_rows

    def test_rtt_positive(self, small_frame):
        assert (small_frame["rtt_ms"] > 0).all()


class TestProbes:
    def test_schedule_times(self):
        schedule = ProbeSchedule(interval_hours=6.0, offset_hours=1.0)
        assert schedule.firing_times(24.0) == [1.0, 7.0, 13.0, 19.0]

    def test_bad_schedule(self):
        with pytest.raises(PlatformError):
            ProbeSchedule(interval_hours=0.0)

    def test_probe_volume_deterministic(self, small_scenario):
        platform = ProbePlatform(small_scenario, vantages=[(3741, "East London")])
        ms = platform.run(ProbeSchedule(interval_hours=24.0), rng=0)
        assert len(ms) == int(small_scenario.duration_hours // 24)

    def test_probe_tags_baseline(self, small_scenario):
        platform = ProbePlatform(small_scenario, vantages=[(3741, "East London")])
        ms = platform.run(ProbeSchedule(interval_hours=48.0), rng=0)
        assert {m.trigger for m in ms} == {Trigger.BASELINE}

    def test_unknown_vantage_rejected(self, small_scenario):
        with pytest.raises(Exception):
            ProbePlatform(small_scenario, vantages=[(999, "Nowhere")])


class TestConditionalTriggers:
    def test_matching_events(self, small_scenario):
        trigger = ConditionalTrigger(small_scenario, signal="ixp_join")
        events = trigger.matching_events()
        assert len(events) == len(small_scenario.join_hours)

    def test_burst_times_bracket_event(self):
        plan = BurstPlan(lead_hours=2.0, trail_hours=4.0, interval_hours=1.0)
        times = plan.times_around(10.0, duration_hours=100.0)
        assert times[0] == 8.0
        assert times[-1] < 14.0

    def test_burst_clipped_to_window(self):
        plan = BurstPlan(lead_hours=5.0, trail_hours=5.0, interval_hours=1.0)
        times = plan.times_around(2.0, duration_hours=4.0)
        assert times[0] == 0.0 and times[-1] < 4.0

    def test_run_tags_conditional(self, small_scenario):
        trigger = ConditionalTrigger(
            small_scenario,
            signal="ixp_join",
            plan=BurstPlan(lead_hours=1.0, trail_hours=2.0, interval_hours=1.0),
            vantages=[(3741, "East London")],
        )
        ms = trigger.run(rng=0)
        assert ms, "bursts should have produced measurements"
        assert {m.trigger for m in ms} == {Trigger.CONDITIONAL}

    def test_unknown_signal(self, small_scenario):
        with pytest.raises(PlatformError):
            ConditionalTrigger(small_scenario, signal="solar_flare")


class TestLoadBalancer:
    def test_randomized_recovers_truth(self):
        world = default_world()
        tests = generate_tests(world, 40_000, policy="randomized", rng=0)
        assert site_contrast(tests) == pytest.approx(world.true_site_effect, abs=0.3)

    def test_self_selection_is_biased(self):
        world = default_world()
        tests = generate_tests(world, 40_000, policy="self_selected", rng=0)
        assert abs(site_contrast(tests) - world.true_site_effect) > 1.0

    def test_bad_policy(self):
        with pytest.raises(PlatformError):
            generate_tests(default_world(), 10, policy="alphabetical")

    def test_bad_n(self):
        with pytest.raises(PlatformError):
            generate_tests(default_world(), 0)

    def test_contrast_needs_both_sites(self):
        frame = Frame.from_dict({"site": [0, 0], "rtt_ms": [1.0, 2.0]})
        with pytest.raises(PlatformError):
            site_contrast(frame)


class TestRouteToggle:
    def test_arms_differ(self, small_scenario):
        sc = small_scenario
        asn = 3741
        hour = sc.join_hours[asn] + 2.0
        toggle = RouteToggle(sc, asn, (asn, sc.content_asn), hour=hour)
        assert toggle.arm_a.route.path != toggle.arm_b.route.path
        assert "toggle" in toggle.describe()

    def test_experiment_frame(self, small_scenario):
        sc = small_scenario
        asn = 3741
        hour = sc.join_hours[asn] + 2.0
        toggle = RouteToggle(sc, asn, (asn, sc.content_asn), hour=hour)
        frame = toggle.run_experiment(500, rng=0)
        assert set(np.unique(frame["z"])) == {0, 1}
        assert frame.num_rows == 500

    def test_vacuous_toggle_rejected(self, small_scenario):
        sc = small_scenario
        # Disabling a link the client does not use leaves the route unchanged.
        with pytest.raises(PlatformError):
            RouteToggle(sc, 3741, (64611, 64601), hour=0.0)

    def test_missing_link_rejected(self, small_scenario):
        with pytest.raises(PlatformError):
            RouteToggle(small_scenario, 3741, (3741, 37053), hour=0.0)
