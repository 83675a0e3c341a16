"""The shared-memory arena that backs pooled panels and prefactor slabs.

What these tests pin down:

- :class:`SharedFrameArena` lifecycle: named blocks appear while open,
  drain from ``/dev/shm`` on close, close is idempotent, views handed
  out stay valid after close, allocation after close and attaching to
  an unlinked ref both fail loudly;
- the batched study drains **everything** it allocates — panel block
  plus the prefactor arena — after a normal parallel run, after a
  ``BrokenProcessPool`` rebuild, and after a mid-study exception;
- chaos fault logs are identical serial vs pooled on the batched/arena
  path, so the fast path cannot hide or reorder injected faults;
- runs without a process pool — a ``--jobs 1`` campaign, the Table-1
  experiment, the CLI ``simulate`` → ``import`` round trip — open no
  arena at all: measurement frames live in private memory.
"""

import os
import pickle

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec, active_plan, clear_events, fault_events
from repro.errors import InjectedFault, PipelineError
from repro.pipeline.executor import RetryPolicy
from repro.pipeline.shm import (
    ARENA_PREFIX,
    PANEL_PREFIX,
    SharedFrameArena,
    live_arena_blocks,
    live_panel_blocks,
)
from repro.pipeline.study import run_ixp_study

SEED = int(os.environ.get("CHAOS_SEED", "7"))
RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


def _shm_entries() -> list[str]:
    """Our blocks as the OS sees them (Linux tmpfs), if visible at all."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-tmpfs host
        return []
    return [
        p
        for p in os.listdir("/dev/shm")
        if p.startswith(ARENA_PREFIX) or p.startswith(PANEL_PREFIX)
    ]


@pytest.fixture(autouse=True)
def _clean_fault_log():
    clear_events()
    yield
    clear_events()


class TestArenaLifecycle:
    def test_blocks_live_while_open_and_drain_on_close(self):
        before = set(_shm_entries())
        arena = SharedFrameArena(tag="t")
        a = arena.allocate("a", (4, 3))
        b = arena.allocate("b", (7,))
        a[:] = 1.0
        b[:] = 2.0
        assert len(arena.names) == 2
        assert set(live_arena_blocks()) >= set(arena.names)
        assert len(set(_shm_entries()) - before) == 2
        arena.close()
        arena.close()  # idempotent
        assert live_arena_blocks() == ()
        assert set(_shm_entries()) <= before

    def test_views_stay_valid_after_close(self):
        # The defuse design: close() unlinks the name but the mapping
        # lives as long as the numpy views do, so sealed frames survive
        # their arena.  Touching every element after close would
        # segfault, not fail an assert, if this ever regressed.
        arena = SharedFrameArena(tag="t")
        block = arena.allocate("x", (64,))
        block[:] = np.arange(64.0)
        arena.close()
        assert float(block.sum()) == float(np.arange(64.0).sum())

    def test_allocate_after_close_raises(self):
        arena = SharedFrameArena(tag="t")
        arena.close()
        with pytest.raises(PipelineError, match="closed"):
            arena.allocate("x", (3,))

    def test_ref_roundtrip_pickles_small_and_attaches_once(self):
        with SharedFrameArena(tag="t") as arena:
            block = arena.allocate("x", (5, 2))
            block[:] = np.arange(10.0).reshape(5, 2)
            ref = arena.ref("x")
            assert len(pickle.dumps(ref)) < 200
            loaded = pickle.loads(pickle.dumps(ref)).load()
            np.testing.assert_array_equal(loaded, block)
            assert ref.load() is ref.load()  # memoised per process

    def test_attach_after_unlink_raises(self):
        arena = SharedFrameArena(tag="t")
        arena.allocate("x", (3,))
        ref = arena.ref("x")
        arena.close()
        with pytest.raises(PipelineError, match="does not exist"):
            ref.load()

    def test_shape_size_mismatch_is_refused(self):
        from multiprocessing import shared_memory

        from repro.pipeline.shm import SharedArrayRef

        # Cached attach (same process): the shape must match the view.
        with SharedFrameArena(tag="t") as arena:
            arena.allocate("x", (4,))
            bad = SharedArrayRef(name=arena.ref("x").name, shape=(400,))
            with pytest.raises(PipelineError, match="requested as"):
                bad.load()
        # Fresh attach (what a worker does): the block must be big enough.
        raw = shared_memory.SharedMemory(create=True, size=32)
        try:
            with pytest.raises(PipelineError, match="needs"):
                SharedArrayRef(name=raw.name, shape=(400,)).load()
        finally:
            raw.close()
            raw.unlink()

    def test_zero_length_block_roundtrips(self):
        with SharedFrameArena(tag="t") as arena:
            block = arena.allocate("empty", (0,))
            assert block.shape == (0,)
            assert arena.ref("empty").load().shape == (0,)

class TestStudyDrainsItsArena:
    def test_normal_batched_parallel_study_drains_shm(
        self, small_frame, small_scenario
    ):
        before = set(_shm_entries())
        result = run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=2)
        assert result.rows
        assert live_arena_blocks() == ()
        assert live_panel_blocks() == ()
        assert set(_shm_entries()) <= before

    def test_pool_rebuild_reattaches_slabs_then_drains(
        self, small_frame, small_scenario
    ):
        baseline = run_ixp_study(small_frame, small_scenario.ixp_name)
        target = baseline.rows[0].unit
        plan = FaultPlan(
            SEED, (FaultSpec(site="fits.unit", kind="kill", match=target),)
        )
        before = set(_shm_entries())
        with active_plan(plan):
            result = run_ixp_study(
                small_frame, small_scenario.ixp_name, n_jobs=2, retry=RETRY
            )
        # The rebuilt pool re-ran the initializer, re-attaching both the
        # panel block and the prefactor slabs by name; the table and the
        # tmpfs are untouched.
        assert result.rows == baseline.rows
        assert live_arena_blocks() == ()
        assert live_panel_blocks() == ()
        assert set(_shm_entries()) <= before

    def test_mid_study_exception_still_drains(self, small_frame, small_scenario):
        plan = FaultPlan(SEED, (FaultSpec(site="fits.unit", kind="error"),))
        before = set(_shm_entries())
        with active_plan(plan):
            with pytest.raises(InjectedFault):
                run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=2)
        assert live_arena_blocks() == ()
        assert live_panel_blocks() == ()
        assert set(_shm_entries()) <= before


class TestChaosParityOnTheFastPath:
    def test_fault_logs_identical_serial_vs_pooled(
        self, small_frame, small_scenario
    ):
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
        assert serial_log == pooled_log
        assert live_arena_blocks() == ()

    def test_fault_logs_identical_batched_vs_unbatched(
        self, small_frame, small_scenario
    ):
        plan = FaultPlan(
            SEED,
            (FaultSpec(site="study.panel", kind="corrupt", corruption="nan_cell"),),
        )
        with active_plan(plan):
            batched = run_ixp_study(small_frame, small_scenario.ixp_name)
            batched_log = fault_events()
            clear_events()
            plain = run_ixp_study(
                small_frame, small_scenario.ixp_name, batch_fits=False
            )
            plain_log = fault_events()
        assert batched.rows == plain.rows
        assert batched_log == plain_log


@pytest.fixture
def arenas_opened(monkeypatch) -> list[str]:
    """The tag of every :class:`SharedFrameArena` built during the test."""
    tags: list[str] = []
    init = SharedFrameArena.__init__

    def counting_init(self, tag: str = "frame") -> None:
        tags.append(tag)
        init(self, tag)

    monkeypatch.setattr(SharedFrameArena, "__init__", counting_init)
    return tags


class TestSerialRunsCreateNoSharedMemory:
    def test_a_pooled_study_is_counted(
        self, arenas_opened, small_frame, small_scenario
    ):
        # The counter sees the arenas a pool really needs.
        run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=2)
        assert "study" in arenas_opened
        assert live_arena_blocks() == ()

    def test_serial_campaign(self, arenas_opened):
        from repro.campaign import default_fleet, run_campaign

        fleet = default_fleet(2, seed=0, duration_days=10, n_donor_ases=8)
        result = run_campaign(fleet, budget=8, n_jobs=1)
        assert len(result.verdicts) == 2
        assert arenas_opened == []
        assert live_arena_blocks() == ()

    def test_table1_experiment(self, arenas_opened):
        from repro.studies import run_table1_experiment

        output = run_table1_experiment(n_donor_ases=8, duration_days=16, join_day=8)
        assert output.result.rows
        assert arenas_opened == []
        assert live_arena_blocks() == ()

    def test_cli_simulate_then_import(self, arenas_opened, tmp_path, capsys):
        from repro.cli import main

        csv = tmp_path / "sim.csv"
        assert main(["simulate", "--days", "16", "--out", str(csv)]) == 0
        assert main(["import", str(csv), "--ixp", "NAPAfrica-JNB"]) == 0
        assert "imported" in capsys.readouterr().out
        assert arenas_opened == []
        assert live_arena_blocks() == ()
