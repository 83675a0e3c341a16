"""Unit tests for the NDT-style throughput model."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.netsim import ThroughputModel, build_table1_scenario, build_trombone_scenario


@pytest.fixture(scope="module")
def world():
    sc = build_table1_scenario(
        n_donor_ases=6, duration_days=4, join_day=2, seed=0, churn_probability=0.0
    )
    return sc, ThroughputModel(sc.latency)


class TestWindowLimit:
    def test_inverse_in_rtt(self, world):
        _, model = world
        assert model.window_limit_mbps(20.0) > model.window_limit_mbps(200.0)

    def test_scale_sane(self, world):
        # 2 MB window at 100 ms RTT -> ~160 Mbit/s.
        _, model = world
        assert model.window_limit_mbps(100.0) == pytest.approx(160.0, rel=0.05)


class TestBottleneck:
    def test_bounded_by_access_capacity(self, world):
        sc, model = world
        route = sc.timeline.routes_at(0.0, sc.content_asn)[3741]
        assert model.bottleneck_mbps(route, 3.0) <= model.access_capacity_mbps

    def test_congestion_lowers_bottleneck(self, world):
        sc, model = world
        route = sc.timeline.routes_at(0.0, sc.content_asn)[3741]
        calm = model.bottleneck_mbps(route, 6.0)    # ZA off-peak
        peak = model.bottleneck_mbps(route, 18.0)   # ZA evening peak
        assert peak <= calm

    def test_validation(self, world):
        sc, _ = world
        with pytest.raises(SimulationError):
            ThroughputModel(sc.latency, access_capacity_mbps=0.0)


class TestSampling:
    def test_sample_near_expected(self, world):
        sc, model = world
        route = sc.timeline.routes_at(0.0, sc.content_asn)[3741]
        rng = np.random.default_rng(0)
        expected = model.expected(route, 30.0, 3.0)
        draws = [
            model.sample(route, 30.0, 3.0, rng).download_mbps for _ in range(400)
        ]
        assert np.median(draws) == pytest.approx(expected, rel=0.1)

    def test_limiting_factor_flag(self, world):
        sc, model = world
        route = sc.timeline.routes_at(0.0, sc.content_asn)[3741]
        rng = np.random.default_rng(1)
        slow_path = model.sample(route, 400.0, 3.0, rng)
        assert slow_path.latency_limited
        fast_path = model.sample(route, 5.0, 3.0, rng)
        assert not fast_path.latency_limited


class TestEndToEnd:
    def test_measurements_carry_download(self, small_frame):
        rates = small_frame["download_mbps"]
        assert (np.isfinite(rates) & (rates > 0)).all()

    def test_trombone_paths_are_slower(self):
        """Intercontinental RTT caps single-flow throughput."""
        from repro.mplatform import measurements_frame

        sc = build_trombone_scenario(n_access=4, duration_days=4, join_day=2)
        frame = measurements_frame(sc, rng=0)
        joined_asn = min(sc.join_hours)
        join = sc.join_hours[joined_asn]
        joined = frame["asn"] == joined_asn
        hours = frame["time_hour"]
        pre = frame["download_mbps"][joined & (hours < join)]
        post = frame["download_mbps"][joined & (hours >= join + 1)]
        # Post-join rate is access-capacity-capped; pre-join is RTT-capped.
        assert np.median(post) > 1.5 * np.median(pre)
