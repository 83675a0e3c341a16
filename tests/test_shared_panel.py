"""The shared-memory panel transport (the parallel study's data plane).

What these tests pin down:

- a panel published into a :class:`SharedFrameArena` round-trips
  zero-copy through its :class:`SharedArrayRef`, which pickles to a
  few dozen bytes, so a pool task no longer ships the matrix (the bug
  that made ``n_jobs=4`` run *slower* than serial); views of the panel
  stay readable after the arena closes;
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
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.chaos import FaultPlan, FaultSpec, active_plan, clear_events, fault_events
from repro.errors import InjectedFault, PipelineError
from repro.pipeline.executor import RetryPolicy
from repro.pipeline.shm import (
    PANEL_PREFIX,
    SharedArrayRef,
    SharedFrameArena,
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
    return [p for p in os.listdir("/dev/shm") if p.startswith(PANEL_PREFIX)]


UNITS = tuple(f"AS{100 + j}/cpt" for j in range(6))


def _make_panel() -> Panel:
    rng = np.random.default_rng(0)
    matrix = rng.normal(50.0, 5.0, size=(20, 6))
    matrix[3, 2] = np.nan
    return Panel(times=tuple(float(t) for t in range(20)), units=UNITS, matrix=matrix)


class TestSharedPanelBlock:
    def test_roundtrip_preserves_the_panel_exactly(self):
        panel = _make_panel()
        with SharedFrameArena(tag="t") as arena:
            loaded = arena.publish_panel(panel).panel()
            assert loaded.times == panel.times
            assert loaded.units == panel.units
            np.testing.assert_array_equal(loaded.matrix, panel.matrix)

    def test_ref_pickles_small_while_the_panel_does_not(self):
        panel = _make_panel()
        with SharedFrameArena(tag="t") as arena:
            ref = arena.publish_panel(panel)
            ref_bytes = pickle.dumps(ref)
            panel_bytes = pickle.dumps(panel)
            assert len(ref_bytes) < 200
            assert len(ref_bytes) < len(panel_bytes) / 5
            assert pickle.loads(ref_bytes) == ref

    def test_load_is_memoised_per_process(self):
        with SharedFrameArena(tag="t") as arena:
            ref = arena.publish_panel(_make_panel())
            assert ref.panel() is ref.panel()
            assert ref.panel().matrix is ref.load()

    def test_matrix_is_the_blocks_storage_not_a_copy(self):
        with SharedFrameArena(tag="t") as arena:
            matrix = arena.allocate("panel", (20, 6), (tuple(range(20)), UNITS))
            matrix[:] = 0.0
            matrix[0, 0] = 123.0
            assert arena.ref("panel").panel().matrix[0, 0] == 123.0

    def test_attach_after_unlink_raises(self):
        arena = SharedFrameArena(tag="t")
        ref = arena.publish_panel(_make_panel())
        arena.close()
        with pytest.raises(PipelineError, match="does not exist"):
            ref.panel()

    def test_close_is_idempotent_and_drains_live_set(self):
        arena = SharedFrameArena(tag="t")
        name = arena.publish_panel(_make_panel()).name
        assert name.startswith(PANEL_PREFIX)
        assert name in live_panel_blocks()
        arena.close()
        arena.close()
        assert name not in live_panel_blocks()
        with pytest.raises(PipelineError, match="closed"):
            arena.publish_panel(_make_panel())

    def test_label_shape_mismatch_rejected(self):
        with SharedFrameArena(tag="t") as arena:
            with pytest.raises(PipelineError, match="do not match"):
                arena.allocate("p", (3, 2), ((0.0, 1.0), ("a", "b")))
            with pytest.raises(PipelineError, match="non-empty"):
                arena.allocate("p", (0, 2), ((), ("a", "b")))
            assert arena.names == ()

    def test_corrupt_header_is_refused(self):
        from multiprocessing import shared_memory

        # A fresh attach (what a worker does) reads the header first;
        # scribble an absurd header length over a raw block.
        raw = shared_memory.SharedMemory(create=True, size=4096)
        try:
            raw.buf[:8] = (2**62).to_bytes(8, "little")
            with pytest.raises(PipelineError, match="corrupt header"):
                SharedArrayRef(name=raw.name, shape=(20, 6)).panel()
        finally:
            raw.close()
            raw.unlink()

    def test_plain_array_block_holds_no_panel(self):
        with SharedFrameArena(tag="t") as arena:
            arena.allocate("x", (4,))
            with pytest.raises(PipelineError, match="holds no panel"):
                arena.ref("x").panel()

    def test_object_time_keys_survive_the_meta_pickle(self):
        panel = Panel(
            times=("mon", "tue", "wed"),
            units=("AS1/x", "AS2/x"),
            matrix=np.arange(6, dtype=float).reshape(3, 2),
        )
        with SharedFrameArena(tag="t") as arena:
            assert arena.publish_panel(panel).panel().times == ("mon", "tue", "wed")

    def test_views_survive_close_in_a_fresh_interpreter(self):
        # Closing the arena while both the in-process panel view and a
        # ref.panel() view are alive must leave them readable: an eager
        # unmap would read freed pages and kill the interpreter with
        # SIGSEGV, so the check runs in a child process.
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.pipeline.shm import SharedFrameArena
            from repro.synthcontrol.donor import Panel

            panel = Panel(
                times=tuple(float(t) for t in range(2000)),
                units=tuple(f"u{j}" for j in range(64)),
                matrix=np.ones((2000, 64)),
            )
            arena = SharedFrameArena(tag="t")
            ref = arena.publish_panel(panel)
            view = ref.panel()
            matrix = arena.allocate("raw", (2000, 64), (panel.times, panel.units))
            matrix[:] = 2.0
            arena.close()
            print(float(view.matrix.sum()), float(matrix.sum()))
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert proc.stdout.split() == [str(2000 * 64.0), str(2000 * 64 * 2.0)]


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
        with SharedFrameArena(tag="t") as arena:
            slim = len(pickle.dumps(self._task(arena.publish_panel(panel))))
            fat = len(pickle.dumps(self._task(panel)))
            assert slim < 1024
            assert slim < fat  # and the gap widens with panel size

    def test_task_is_hashable_now_fit_kwargs_is_frozen(self):
        ref = SharedArrayRef(name="rpr-panel-x", shape=(20, 6))
        task = self._task(ref)
        assert hash(task) == hash(self._task(SharedArrayRef("rpr-panel-x", (20, 6))))
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
