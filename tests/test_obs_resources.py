"""Tests for the resource sampler (``repro.obs.resources``).

They cover the sample fields, the gauge-series plumbing, the executor
hooks, checkpoint-size tracking, and the thread lifecycle.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import GaugeSeries, MetricsRegistry, get_metrics, set_metrics
from repro.obs.resources import (
    SERIES,
    ResourceSampler,
    read_rss_bytes,
    take_resource_sample,
)
from repro.pipeline.checkpoint import StudyCheckpoint, live_checkpoint_bytes
from repro.pipeline.executor import ProcessPoolBackend, live_executor_stats


@pytest.fixture(autouse=True)
def fresh_registry():
    saved = set_metrics(MetricsRegistry())
    yield
    set_metrics(saved)


class TestPrimitives:
    def test_rss_positive(self):
        assert read_rss_bytes() > 1024 * 1024  # a python process is > 1 MiB

    def test_sample_fields_sane(self):
        sample = take_resource_sample(unix_time=123.0)
        assert sample.unix_time == 123.0
        assert sample.rss_bytes > 0
        assert sample.checkpoint_bytes == 0
        assert sample.queue_depth == 0 and sample.workers_alive == 0
        assert sample.gc_objects >= 0
        assert sample.gc_collections >= 0


class TestGaugeSeries:
    def test_series_recorded_into_registry(self):
        sampler = ResourceSampler(interval_s=60)
        sampler.sample_once()
        sampler.sample_once()
        registry = get_metrics()
        for name, _help, _attr in SERIES:
            series = registry.series(name)
            assert isinstance(series, GaugeSeries)
            assert len(series.points()) == 2
        text = registry.render()
        assert "process_rss_bytes" in text
        assert "checkpoint_journal_bytes 0" in text

    def test_zero_samples_leave_registry_untouched(self):
        before = get_metrics().render()
        ResourceSampler(interval_s=60)  # constructed, never sampled
        assert get_metrics().render() == before


class TestCheckpointAccounting:
    def test_journal_bytes_live_then_zero(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert live_checkpoint_bytes() == 0
        ckpt = StudyCheckpoint(path, ixp_name="X", method="robust", outcome="rtt_ms")
        try:
            assert live_checkpoint_bytes() == path.stat().st_size > 0
            ckpt.append_batch(0, 100)
            assert live_checkpoint_bytes() == path.stat().st_size
            assert take_resource_sample().checkpoint_bytes == path.stat().st_size
        finally:
            ckpt.close()
        assert live_checkpoint_bytes() == 0


def _double(x: int) -> int:
    return 2 * x


class TestExecutorStats:
    def test_zero_without_backends(self):
        assert live_executor_stats() == {"queue_depth": 0, "workers_alive": 0}

    def test_pool_reports_workers_then_drains(self):
        with ProcessPoolBackend(n_jobs=2) as pool:
            assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
            stats = live_executor_stats()
            assert stats["workers_alive"] >= 1  # spawned by the map
            assert stats["queue_depth"] == 0  # everything settled
        assert live_executor_stats() == {"queue_depth": 0, "workers_alive": 0}


class TestSamplerLifecycle:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="positive"):
            ResourceSampler(interval_s=0)

    def test_thread_samples_on_interval(self):
        seen = []
        with ResourceSampler(interval_s=0.01, on_sample=seen.append) as sampler:
            deadline = time.monotonic() + 5.0
            while len(sampler.samples) < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
        # stop() adds one final sample on top of the interval ticks.
        assert len(sampler.samples) >= 4
        assert seen == sampler.samples
        assert all(s.rss_bytes > 0 for s in sampler.samples)

    def test_start_stop_idempotent(self):
        sampler = ResourceSampler(interval_s=5)
        sampler.start()
        sampler.start()
        sampler.stop()
        n = len(sampler.samples)
        sampler.stop()  # no second final sample
        assert len(sampler.samples) == n == 1

    def test_explicit_registry_respected(self):
        private = MetricsRegistry()
        sampler = ResourceSampler(interval_s=60, registry=private)
        sampler.sample_once()
        assert private.series("process_rss_bytes").touched
        assert not get_metrics().series("process_rss_bytes").touched
