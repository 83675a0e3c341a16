"""The shared-memory panel transport (the parallel study's data plane).

What these tests pin down:

- a :class:`SharedPanelRef` round-trips the full panel zero-copy and
  pickles to a few dozen bytes, so a pool task no longer ships the
  matrix (the bug that made ``n_jobs=4`` run *slower* than serial);
- the study drains every block it creates — after a normal run, after a
  ``BrokenProcessPool`` rebuild, and after a mid-study exception — so
  repeated studies cannot leak ``/dev/shm`` segments;
- serial and pooled runs stay row-for-row identical on the new path,
  including under chaos panel corruption (the corrupted copy is
  re-published to the block before any worker reads it);
- the batched leave-one-out SVD used by serial placebo loops is
  bit-identical to the per-column downdate the workers use.
"""

import os
import pickle

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec, active_plan, clear_events, fault_events
from repro.errors import InjectedFault, PipelineError
from repro.pipeline.executor import RetryPolicy
from repro.pipeline.shm import (
    NAME_PREFIX,
    SharedPanelOwner,
    SharedPanelRef,
    live_panel_blocks,
)
from repro.pipeline.study import _UnitTask, run_ixp_study
from repro.synthcontrol.donor import Panel
from repro.synthcontrol.robust import (
    denoise_leave_one_out,
    denoise_without_column,
    factor_donor_matrix,
)

SEED = int(os.environ.get("CHAOS_SEED", "7"))
RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


def _shm_entries() -> list[str]:
    """Our blocks as the OS sees them (Linux tmpfs), if visible at all."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-tmpfs host
        return []
    return [p for p in os.listdir("/dev/shm") if p.startswith(NAME_PREFIX)]


def _make_panel() -> Panel:
    rng = np.random.default_rng(0)
    matrix = rng.normal(50.0, 5.0, size=(20, 6))
    matrix[3, 2] = np.nan
    return Panel(
        times=tuple(float(t) for t in range(20)),
        units=tuple(f"AS{100 + j}/cpt" for j in range(6)),
        matrix=matrix,
    )


class TestSharedPanelBlock:
    def test_roundtrip_preserves_the_panel_exactly(self):
        panel = _make_panel()
        with SharedPanelOwner.from_panel(panel) as owner:
            loaded = owner.ref.load()
            assert loaded.times == panel.times
            assert loaded.units == panel.units
            np.testing.assert_array_equal(loaded.matrix, panel.matrix)

    def test_ref_pickles_small_while_the_panel_does_not(self):
        panel = _make_panel()
        with SharedPanelOwner.from_panel(panel) as owner:
            ref_bytes = pickle.dumps(owner.ref)
            panel_bytes = pickle.dumps(panel)
            assert len(ref_bytes) < 200
            assert len(ref_bytes) < len(panel_bytes) / 5
            assert pickle.loads(ref_bytes) == owner.ref

    def test_load_is_memoised_per_process(self):
        with SharedPanelOwner.from_panel(_make_panel()) as owner:
            assert owner.ref.load() is owner.ref.load()

    def test_matrix_is_the_blocks_storage_not_a_copy(self):
        panel = _make_panel()
        with SharedPanelOwner.from_panel(panel) as owner:
            owner.matrix[0, 0] = 123.0
            assert owner.ref.load().matrix[0, 0] == 123.0

    def test_attach_after_unlink_raises(self):
        owner = SharedPanelOwner.from_panel(_make_panel())
        ref = owner.ref
        owner.close()
        with pytest.raises(PipelineError, match="does not exist"):
            ref.load()

    def test_close_is_idempotent_and_drains_live_set(self):
        owner = SharedPanelOwner.from_panel(_make_panel())
        name = owner.name
        assert name in live_panel_blocks()
        owner.close()
        owner.close()
        assert name not in live_panel_blocks()
        with pytest.raises(PipelineError, match="closed"):
            owner.matrix

    def test_label_shape_mismatch_rejected(self):
        with pytest.raises(PipelineError, match="do not match"):
            SharedPanelOwner.allocate((3, 2), times=(0.0, 1.0), units=("a", "b"))
        with pytest.raises(PipelineError, match="non-empty"):
            SharedPanelOwner.allocate((0, 2), times=(), units=("a", "b"))

    def test_corrupt_header_is_refused(self):
        panel = _make_panel()
        with SharedPanelOwner.from_panel(panel) as owner:
            # Scribble an absurd metadata length over the header.
            from multiprocessing import shared_memory

            raw = shared_memory.SharedMemory(name=owner.name)
            try:
                raw.buf[:8] = (2**62).to_bytes(8, "little")
                with pytest.raises(PipelineError, match="corrupt header"):
                    SharedPanelRef(name=owner.name).load()
            finally:
                raw.close()

    def test_object_time_keys_survive_the_meta_pickle(self):
        panel = Panel(
            times=("mon", "tue", "wed"),
            units=("AS1/x", "AS2/x"),
            matrix=np.arange(6, dtype=float).reshape(3, 2),
        )
        with SharedPanelOwner.from_panel(panel) as owner:
            assert owner.ref.load().times == ("mon", "tue", "wed")


class TestUnitTaskPayload:
    def _task(self, panel) -> _UnitTask:
        return _UnitTask(
            unit="AS100/cpt",
            pre_periods=10,
            post_periods=10,
            panel=panel,
            donors=tuple(f"AS{100 + j}/cpt" for j in range(1, 6)),
            method="robust",
            max_placebos=None,
            fit_kwargs=(("energy", 0.99), ("ridge", 1e-2)),
        )

    def test_task_with_ref_pickles_in_hundreds_of_bytes(self):
        panel = _make_panel()
        with SharedPanelOwner.from_panel(panel) as owner:
            slim = len(pickle.dumps(self._task(owner.ref)))
            fat = len(pickle.dumps(self._task(panel)))
            assert slim < 1024
            assert slim < fat  # and the gap widens with panel size

    def test_task_is_hashable_now_fit_kwargs_is_frozen(self):
        task = self._task(SharedPanelRef(name="rpr-panel-x"))
        assert hash(task) == hash(self._task(SharedPanelRef(name="rpr-panel-x")))
        assert isinstance(task.fit_kwargs, tuple)


@pytest.fixture(autouse=True)
def _clean_fault_log():
    clear_events()
    yield
    clear_events()


class TestStudyOnTheSharedMemoryPath:
    def test_parallel_rows_match_serial_bit_for_bit(
        self, small_frame, small_scenario
    ):
        serial = run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=1)
        pooled = run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=4)
        assert pooled.rows == serial.rows
        assert pooled.skipped == serial.skipped

    def test_normal_parallel_study_unlinks_its_block(
        self, small_frame, small_scenario
    ):
        before = set(_shm_entries())
        result = run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=2)
        assert result.rows
        assert live_panel_blocks() == ()
        assert set(_shm_entries()) <= before

    def test_block_survives_pool_rebuild_then_unlinks(
        self, small_frame, small_scenario
    ):
        baseline = run_ixp_study(small_frame, small_scenario.ixp_name)
        target = baseline.rows[0].unit
        plan = FaultPlan(
            SEED, (FaultSpec(site="fits.unit", kind="kill", match=target),)
        )
        with active_plan(plan):
            result = run_ixp_study(
                small_frame, small_scenario.ixp_name, n_jobs=2, retry=RETRY
            )
        # The respawned workers re-attached by name (the initializer runs
        # again in the rebuilt pool) and the table is untouched.
        assert result.rows == baseline.rows
        assert live_panel_blocks() == ()

    def test_mid_study_exception_still_unlinks(self, small_frame, small_scenario):
        plan = FaultPlan(SEED, (FaultSpec(site="fits.unit", kind="error"),))
        with active_plan(plan):
            with pytest.raises(InjectedFault):
                run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=2)
        assert live_panel_blocks() == ()

    def test_panel_corruption_parity_serial_vs_parallel(
        self, small_frame, small_scenario
    ):
        # The chaos fault swaps in a corrupted *copy* of the panel; the
        # study must re-publish it to the block, or workers would fit
        # the clean bytes and diverge from serial.
        plan = FaultPlan(
            SEED,
            (FaultSpec(site="study.panel", kind="corrupt", corruption="nan_cell"),),
        )
        with active_plan(plan):
            serial = run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=1)
            serial_log = fault_events()
            clear_events()
            pooled = run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=2)
            pooled_log = fault_events()
        assert serial.rows == pooled.rows
        assert serial.skipped == pooled.skipped
        assert serial_log == pooled_log
        assert live_panel_blocks() == ()

    def test_serial_study_never_creates_a_block(self, small_frame, small_scenario):
        before = set(_shm_entries())
        run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=1)
        assert set(_shm_entries()) <= before
        assert live_panel_blocks() == ()


class TestBatchedLeaveOneOut:
    def _fact(self, with_gaps: bool = True):
        rng = np.random.default_rng(4)
        donors = rng.normal(40.0, 3.0, size=(30, 8))
        if with_gaps:
            donors[rng.random(donors.shape) < 0.1] = np.nan
        return factor_donor_matrix(donors)

    def test_batched_svd_matches_per_column_downdate_exactly(self):
        fact = self._fact()
        batched = denoise_leave_one_out(fact, energy=0.99)
        assert len(batched) == fact.n_donors
        for col, (denoised, rank) in enumerate(batched):
            single, single_rank = denoise_without_column(fact, col, energy=0.99)
            assert rank == single_rank
            np.testing.assert_array_equal(denoised, single)

    def test_limit_truncates_the_batch(self):
        fact = self._fact(with_gaps=False)
        assert len(denoise_leave_one_out(fact, limit=3)) == 3
        assert len(denoise_leave_one_out(fact, limit=0)) == 0

    def test_zero_spectrum_falls_back_like_the_downdate(self):
        fact = factor_donor_matrix(np.zeros((6, 3)))
        batched = denoise_leave_one_out(fact)
        for col, (denoised, rank) in enumerate(batched):
            single, single_rank = denoise_without_column(fact, col)
            assert rank == single_rank == 0
            np.testing.assert_array_equal(denoised, single)

    def test_single_donor_is_rejected(self):
        from repro.errors import DonorPoolError

        fact = factor_donor_matrix(np.ones((5, 1)))
        with pytest.raises(DonorPoolError):
            denoise_leave_one_out(fact)
