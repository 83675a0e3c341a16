"""Tests for the execution backends.

The contract under test: every backend is a drop-in replacement for the
serial loop — same results, same order — so ``n_jobs`` is purely a
wall-clock knob.  Campaign stage A is the pool's only caller; a study
refuses a worker count.
"""

import pytest

from repro.errors import ExecutionError
from repro.pipeline import run_ixp_study
from repro.pipeline.executor import (
    ProcessPoolBackend,
    SerialExecutor,
    get_executor,
    resolve_n_jobs,
)


def _square(x: int) -> int:
    """Module-level so process-pool workers can unpickle it."""
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom on {x}")


class TestResolveNJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1

    def test_minus_one_is_cpu_count(self):
        import os

        assert resolve_n_jobs(-1) == (os.cpu_count() or 1)

    def test_explicit_count_passes_through(self):
        assert resolve_n_jobs(3) == 3

    @pytest.mark.parametrize("bad", [0, -2, -17])
    def test_bad_counts_rejected(self, bad):
        with pytest.raises(ExecutionError):
            resolve_n_jobs(bad)


class TestSerialExecutor:
    def test_map_preserves_order(self):
        with SerialExecutor() as ex:
            assert ex.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_input(self):
        assert SerialExecutor().map(_square, []) == []

    def test_get_executor_serial_for_one(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(None), SerialExecutor)


class TestProcessPoolBackend:
    def test_map_matches_serial(self):
        items = list(range(20))
        with get_executor(2) as ex:
            assert isinstance(ex, ProcessPoolBackend)
            assert ex.map(_square, items) == [_square(i) for i in items]

    def test_empty_input(self):
        with get_executor(2) as ex:
            assert ex.map(_square, []) == []

    def test_worker_exception_propagates(self):
        with get_executor(2) as ex:
            with pytest.raises(ValueError, match="boom"):
                ex.map(_boom, [1, 2, 3])

    def test_needs_two_workers(self):
        with pytest.raises(ExecutionError):
            ProcessPoolBackend(1)


class TestSerialStudy:
    """A study fits in-process; only a campaign fans scenarios out."""

    @pytest.mark.parametrize("n_jobs", [2, -1])
    def test_worker_count_is_refused(self, small_scenario, small_frame, n_jobs):
        with pytest.raises(ExecutionError, match="run_campaign"):
            run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=n_jobs)
