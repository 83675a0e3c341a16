"""The batched columnar generator against the scalar reference emitter.

:func:`tests.reference_generation.reference_measurements` shares the
generator's plan phase (same rate-RNG stream, same Poisson draw order),
so under the same seed their ⟨group, hour⟩ cell counts must match
*exactly*; per-test samples come off the noise stream in different
orders, so RTT and throughput are compared per unit with two-sample
Kolmogorov-Smirnov tests.
"""

import collections

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.mplatform import (
    MEASUREMENT_COLUMNS,
    SpeedTestConfig,
    SpeedTestGenerator,
    measurements_frame,
    measurements_to_frame,
)
from repro.netsim import build_trombone_scenario
from tests.reference_generation import reference_measurements

SEED = 1


@pytest.fixture(scope="module")
def world():
    return build_trombone_scenario(n_access=4, duration_days=10, join_day=5)


@pytest.fixture(scope="module")
def scalar_frame(world):
    return measurements_to_frame(
        reference_measurements(SpeedTestGenerator(world), rng=SEED)
    )


@pytest.fixture(scope="module")
def batch_frame(world):
    return SpeedTestGenerator(world).generate_frame(rng=SEED)


class TestCountParity:
    def test_total_rows_match_exactly(self, scalar_frame, batch_frame):
        assert batch_frame.num_rows == scalar_frame.num_rows

    def test_per_unit_counts_match_exactly(self, scalar_frame, batch_frame):
        scalar_counts = collections.Counter(scalar_frame["unit"].tolist())
        batch_counts = collections.Counter(batch_frame["unit"].tolist())
        assert batch_counts == scalar_counts

    def test_per_cell_counts_match_exactly(self, scalar_frame, batch_frame):
        def cells(frame):
            hours = np.floor(frame["time_hour"]).astype(np.int64)
            return collections.Counter(zip(frame["unit"].tolist(), hours.tolist()))

        assert cells(batch_frame) == cells(scalar_frame)

    def test_schema_matches(self, scalar_frame, batch_frame):
        assert batch_frame.column_names == list(MEASUREMENT_COLUMNS)
        assert batch_frame.column_names == scalar_frame.column_names
        for name in MEASUREMENT_COLUMNS:
            assert batch_frame.column(name).kind == scalar_frame.column(name).kind


class TestDistributionalEquivalence:
    @pytest.mark.parametrize("column", ["rtt_ms", "download_mbps"])
    def test_per_unit_ks(self, scalar_frame, batch_frame, column):
        for unit in sorted(set(scalar_frame["unit"].tolist())):
            a = batch_frame[column][batch_frame["unit"] == unit]
            b = scalar_frame[column][scalar_frame["unit"] == unit]
            assert ks_2samp(a, b).pvalue > 0.01, unit

    def test_trigger_shares_close(self, scalar_frame, batch_frame):
        n = scalar_frame.num_rows
        scalar_shares = {
            k: v / n
            for k, v in collections.Counter(scalar_frame["trigger"].tolist()).items()
        }
        batch_shares = {
            k: v / n
            for k, v in collections.Counter(batch_frame["trigger"].tolist()).items()
        }
        for tag in set(scalar_shares) | set(batch_shares):
            assert batch_shares.get(tag, 0.0) == pytest.approx(
                scalar_shares.get(tag, 0.0), abs=0.02
            )

    def test_route_metadata_identical(self, scalar_frame, batch_frame):
        for column in ("as_path", "crosses_ixp", "ixps"):
            scalar_by_cell = {}
            for unit, hour, value in zip(
                scalar_frame["unit"],
                np.floor(scalar_frame["time_hour"]).astype(np.int64),
                scalar_frame[column],
            ):
                scalar_by_cell[(unit, int(hour))] = value
            for unit, hour, value in zip(
                batch_frame["unit"],
                np.floor(batch_frame["time_hour"]).astype(np.int64),
                batch_frame[column],
            ):
                assert scalar_by_cell[(unit, int(hour))] == value


class TestTimeHourRecordsSamplingTime:
    def test_time_hour_is_the_rtt_sample_hour(self, world, monkeypatch):
        """Regression: the recorded timestamp must be the hour the RTT was
        sampled at, not a second independent uniform draw."""
        sampled_hours = []
        original = world.latency.sample_rtt_batch

        def spy(route, hours, rng, **kwargs):
            sampled_hours.append(np.array(hours))
            return original(route, hours, rng, **kwargs)

        monkeypatch.setattr(world.latency, "sample_rtt_batch", spy)
        frame = measurements_frame(world, rng=7)
        np.testing.assert_array_equal(
            frame["time_hour"], np.concatenate(sampled_hours)
        )

    def test_batch_day_consistent_with_time_hour(self, batch_frame):
        expected = (batch_frame["time_hour"] // 24.0).astype(np.int64)
        np.testing.assert_array_equal(batch_frame["day"], expected)


class TestModes:
    def test_convenience_wrapper(self, world):
        frame = measurements_frame(world, rng=SEED)
        assert frame.num_rows > 0
        assert frame.column_names == list(MEASUREMENT_COLUMNS)

    def test_exogenous_platform_is_all_baseline(self, world):
        generator = SpeedTestGenerator(world, SpeedTestConfig(endogenous=False))
        frame = generator.generate_frame(rng=2)
        assert set(frame["trigger"].tolist()) == {"baseline"}
