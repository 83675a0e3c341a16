"""Batched netsim samplers agree with their scalar counterparts.

The columnar fast path draws congestion, latency, and throughput for a
whole array of hours in one call.  Noise-free curves must match the
scalar code *exactly* (same arithmetic, vectorised); sampled values use
different RNG call shapes, so they are compared distributionally
(two-sample Kolmogorov-Smirnov under fixed seeds).
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.netsim import (
    AsKind,
    AutonomousSystem,
    CongestionModel,
    DiurnalProfile,
    LatencyModel,
    Prefix,
    RegionalShock,
    Topology,
    default_catalog,
    route_between,
)
from repro.netsim.throughput import ThroughputModel
from tests import reference_generation as reference


@pytest.fixture(scope="module")
def noisy_world():
    """A three-AS chain with congestion noise and measurement noise on."""
    cities = default_catalog()
    topo = Topology()
    for asn, city in [(1, "East London"), (2, "Johannesburg"), (3, "London")]:
        topo.add_as(
            AutonomousSystem(
                asn=asn,
                name=f"AS{asn}",
                kind=AsKind.ACCESS,
                city=city,
                router_prefix=Prefix((10 << 24) | (asn << 8), 24),
            )
        )
    topo.add_c2p(1, 2)
    topo.add_c2p(2, 3)
    congestion = CongestionModel(noise_std=0.05)
    congestion.add_shock(RegionalShock("ZA", 10.0, 20.0, 0.2))
    latency = LatencyModel(topo, cities, congestion, last_mile_ms=8.0, noise_std_ms=2.0)
    route = route_between(topo, 1, 3)
    return topo, latency, route


class TestCongestionBatch:
    def test_utilization_batch_matches_scalar_noise_free(self):
        model = CongestionModel(noise_std=0.0)
        model.add_shock(RegionalShock("ZA", 10.0, 20.0, 0.3))
        hours = np.linspace(0.0, 48.0, 97)
        batch = model.utilization_batch("ZA", hours, None, bias=0.1)
        scalar = np.array([model.utilization("ZA", h, None, 0.1) for h in hours])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    def test_profile_batch_matches_scalar(self):
        profile = DiurnalProfile(base=0.5, amplitude=0.3, peak_hour=20.0)
        hours = np.linspace(0.0, 24.0, 49)
        batch = profile.utilization_batch(hours)
        scalar = np.array([profile.utilization(h) for h in hours])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    def test_queueing_batch_matches_scalar_noise_free(self):
        model = CongestionModel(noise_std=0.0)
        hours = np.linspace(0.0, 24.0, 49)
        batch = model.queueing_delay_ms_batch("ZA", hours, None)
        scalar = np.array([model.queueing_delay_ms("ZA", h, None) for h in hours])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    def test_noise_draw_distribution(self):
        model = CongestionModel(noise_std=0.05)
        hours = np.full(4000, 12.0)
        batch = model.utilization_batch("ZA", hours, np.random.default_rng(0))
        scalar = np.array(
            [model.utilization("ZA", 12.0, np.random.default_rng(i)) for i in range(400)]
        )
        assert ks_2samp(batch, scalar).pvalue > 0.01


class TestLatencyBatch:
    def test_expected_batch_matches_scalar(self, noisy_world):
        _, latency, route = noisy_world
        hours = np.linspace(0.0, 72.0, 145)
        batch = latency.expected_rtt_batch(route, hours)
        scalar = np.array([latency.expected_rtt(route, h) for h in hours])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    def test_sample_batch_distribution_matches_scalar(self, noisy_world):
        _, latency, route = noisy_world
        n = 4000
        hours = np.full(n, 12.0)
        batch = latency.sample_rtt_batch(
            route, hours, np.random.default_rng(1)
        ).total_ms
        rng = np.random.default_rng(2)
        scalar = np.array(
            [latency.sample_rtt(route, 12.0, rng).total_ms for _ in range(n)]
        )
        assert ks_2samp(batch, scalar).pvalue > 0.01

    def test_batch_never_beats_light(self, noisy_world):
        _, latency, route = noisy_world
        hours = np.random.default_rng(3).uniform(0.0, 72.0, size=2000)
        batch = latency.sample_rtt_batch(route, hours, np.random.default_rng(4))
        assert np.all(batch.total_ms >= batch.propagation_ms - 1e-9)

    def test_batch_components_align(self, noisy_world):
        _, latency, route = noisy_world
        hours = np.linspace(0.0, 24.0, 100)
        batch = latency.sample_rtt_batch(route, hours, np.random.default_rng(5))
        assert len(batch) == 100
        np.testing.assert_allclose(
            batch.total_ms,
            batch.propagation_ms
            + batch.queueing_ms
            + batch.last_mile_ms
            + batch.noise_ms,
        )


class TestThroughputBatch:
    def test_window_limit_batch_matches_scalar(self, noisy_world):
        _, latency, _ = noisy_world
        model = ThroughputModel(latency)
        rtts = np.array([0.5, 1.0, 20.0, 250.0])
        batch = model.window_limit_mbps_batch(rtts)
        scalar = np.array([model.window_limit_mbps(r) for r in rtts])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    def test_bottleneck_batch_matches_scalar(self, noisy_world):
        _, latency, route = noisy_world
        model = ThroughputModel(latency)
        hours = np.linspace(0.0, 48.0, 97)
        batch = model.bottleneck_mbps_batch(route, hours)
        scalar = np.array([model.bottleneck_mbps(route, h) for h in hours])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    def test_sample_batch_distribution_matches_scalar(self, noisy_world):
        _, latency, route = noisy_world
        model = ThroughputModel(latency)
        n = 4000
        hours = np.full(n, 12.0)
        rtts = np.full(n, 80.0)
        batch = model.sample_batch(
            route, rtts, hours, np.random.default_rng(6)
        ).download_mbps
        rng = np.random.default_rng(7)
        scalar = np.array(
            [model.sample(route, 80.0, 12.0, rng).download_mbps for _ in range(n)]
        )
        assert ks_2samp(batch, scalar).pvalue > 0.01

    def test_latency_limited_mask(self, noisy_world):
        _, latency, route = noisy_world
        model = ThroughputModel(latency)
        hours = np.full(2, 3.0)
        rtts = np.array([1.0, 2000.0])  # fast path vs pathological RTT
        batch = model.sample_batch(route, rtts, hours, np.random.default_rng(8))
        assert not batch.latency_limited[0]
        assert batch.latency_limited[1]


@pytest.fixture(scope="module")
def two_region_world():
    """A ZA-ZA-GB route under distinct regional profiles and shocks."""
    cities = default_catalog()
    topo = Topology()
    cities_by_asn = [
        (1, "East London"), (2, "Johannesburg"), (3, "London"), (4, "Frankfurt")
    ]
    for asn, city in cities_by_asn:
        topo.add_as(
            AutonomousSystem(
                asn=asn,
                name=f"AS{asn}",
                kind=AsKind.ACCESS,
                city=city,
                router_prefix=Prefix((10 << 24) | (asn << 8), 24),
            )
        )
    topo.add_c2p(1, 2)
    topo.add_c2p(2, 3)
    topo.add_p2p(3, 4, congestion_bias=0.1)
    congestion = CongestionModel(
        profiles={
            "ZA": DiurnalProfile(base=0.5, amplitude=0.3, timezone_offset=2.0),
            "GB": DiurnalProfile(base=0.4, amplitude=0.2, peak_hour=19.0),
        },
        noise_std=0.05,
    )
    congestion.add_shock(RegionalShock("ZA", 10.0, 20.0, 0.2))
    congestion.add_shock(RegionalShock("GB", 15.0, 30.0, 0.35))
    latency = LatencyModel(topo, cities, congestion)
    latency.load_bias[(1, 2)] = 0.05
    return latency, route_between(topo, 1, 4)


class TestSharedLoadParity:
    """Per-pool link loads reproduce the per-link utilization paths exactly."""

    def _hours(self):
        return np.random.default_rng(10).uniform(0.0, 48.0, size=600)

    def test_route_spans_two_regions_under_active_shocks(self, two_region_world):
        latency, route = two_region_world
        regions = [latency.link_region(l) for l in latency._links_on(route)]
        assert regions == ["ZA", "ZA", "GB"]
        hours = self._hours()
        for shock in latency.congestion.shocks:
            assert np.any((hours >= shock.start_hour) & (hours < shock.end_hour))

    @pytest.mark.parametrize("precomputed", [False, True])
    def test_rtt_and_throughput_match_per_link_bit_for_bit(
        self, two_region_world, precomputed
    ):
        latency, route = two_region_world
        model = ThroughputModel(latency)
        hours = self._hours()
        loads = latency.link_loads(route, hours) if precomputed else None
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)

        got = latency.sample_rtt_batch(route, hours, rng, loads=loads)
        want = reference.sample_rtt_batch(latency, route, hours, ref_rng)
        assert got.propagation_ms == want.propagation_ms
        for field in ("queueing_ms", "last_mile_ms", "noise_ms"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

        rtt = got.total_ms
        got_t = model.sample_batch(route, rtt, hours, rng, loads=loads)
        want_t = reference.sample_throughput_batch(model, route, rtt, hours, ref_rng)
        for field in ("download_mbps", "bottleneck_mbps", "window_limit_mbps"):
            assert getattr(got_t, field).tobytes() == getattr(want_t, field).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_expected_rtt_and_utilization_match_per_link(self, two_region_world):
        latency, route = two_region_world
        hours = self._hours()
        assert (
            latency.expected_rtt_batch(route, hours).tobytes()
            == reference.expected_rtt_batch(latency, route, hours).tobytes()
        )
        rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
        for region, bias in (("ZA", 0.05), ("GB", 0.1), ("KE", 0.0)):
            got = latency.congestion.utilization_batch(region, hours, rng, bias)
            want = reference.utilization_batch(
                latency.congestion, region, hours, ref_rng, bias
            )
            assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
