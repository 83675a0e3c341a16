"""Unit tests for repro.stream.batches (the ingestion layer)."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.errors import FrameError
from repro.frames import Frame
from repro.frames.column import code_dtype
from repro.stream import MeasurementBatch, random_batches, replay_scenario, slice_frame


def _frame(hours, extra=None):
    data = {"time_hour": np.asarray(hours, dtype=float)}
    data["unit"] = extra if extra is not None else [f"u{i}" for i in range(len(hours))]
    return Frame.from_dict(data)


class TestSliceFrame:
    def test_union_of_slices_is_the_frame(self, small_frame):
        batches = slice_frame(small_frame, n_batches=7)
        assert sum(b.n_rows for b in batches) == small_frame.num_rows
        streamed = np.sort(
            np.concatenate([b.frame.numeric("time_hour") for b in batches])
        )
        np.testing.assert_array_equal(
            streamed, np.sort(small_frame.numeric("time_hour"))
        )

    def test_batches_are_time_ordered_and_disjoint(self, small_frame):
        batches = slice_frame(small_frame, n_batches=5)
        for earlier, later in zip(batches, batches[1:]):
            assert earlier.end_hour < later.start_hour or np.isclose(
                earlier.end_hour, later.start_hour
            )
            assert earlier.index + 1 == later.index

    def test_single_batch_is_whole_frame(self, small_frame):
        (batch,) = slice_frame(small_frame, n_batches=1)
        assert batch.n_rows == small_frame.num_rows
        assert batch.index == 0

    def test_rows_keep_original_relative_order(self):
        frame = _frame([5.0, 1.0, 5.5, 1.5], ["a", "b", "c", "d"])
        batches = slice_frame(frame, n_batches=2)
        assert list(batches[0].frame["unit"]) == ["b", "d"]
        assert list(batches[1].frame["unit"]) == ["a", "c"]

    def test_batch_hours_width(self):
        frame = _frame(np.arange(0.0, 100.0))
        batches = slice_frame(frame, batch_hours=24.0)
        assert len(batches) == 5  # 99-hour span, ceil(99/24) slices
        assert batches[0].n_rows == 24  # hour 24 sits on the cut and goes right
        for b in batches:
            assert b.end_hour - b.start_hour <= 24.0

    def test_empty_slices_renumber_contiguously(self):
        # A gap in the middle of the hour range leaves interior slices
        # empty; indices must stay dense for checkpoint bookkeeping.
        frame = _frame([0.0, 1.0, 99.0, 100.0])
        batches = slice_frame(frame, n_batches=10)
        assert [b.index for b in batches] == list(range(len(batches)))
        assert sum(b.n_rows for b in batches) == 4

    def test_argument_validation(self, small_frame):
        with pytest.raises(FrameError, match="exactly one"):
            slice_frame(small_frame, n_batches=2, batch_hours=3.0)
        with pytest.raises(FrameError, match="exactly one"):
            slice_frame(small_frame)
        with pytest.raises(FrameError, match="positive"):
            slice_frame(small_frame, batch_hours=0)
        with pytest.raises(FrameError, match=">= 1"):
            slice_frame(small_frame, n_batches=0)
        with pytest.raises(FrameError, match="empty"):
            slice_frame(
                Frame.from_dict({"time_hour": np.empty(0, dtype=float)}),
                n_batches=2,
            )


class TestFeedSelections:
    """A cut batch is a row selection of its feed, never a column copy."""

    def test_slice_frame_keeps_one_narrow_index_per_row(self, small_frame):
        n = small_frame.num_rows
        feed_bytes = sum(
            small_frame.column(c).nbytes for c in small_frame.column_names
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            batches = slice_frame(small_frame, batch_hours=6.0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One narrow row index in all, plus each batch's small objects;
        # a copy of the batch's columns is 33 bytes per row.
        index_bytes = n * code_dtype(n).itemsize
        assert kept - base <= index_bytes + 512 * len(batches), (kept - base) / n
        assert peak - base < feed_bytes, (peak - base) / n

    def test_batches_share_the_feed_and_one_order(self, small_frame):
        batches = slice_frame(small_frame, n_batches=5)
        order = batches[0].rows.base
        assert order is not None and order.dtype == code_dtype(small_frame.num_rows)
        for batch in batches:
            assert batch.feed is small_frame
            assert batch.rows.base is order

    def test_frame_is_gathered_on_each_read(self, small_frame):
        batch = slice_frame(small_frame, n_batches=3)[1]
        first, second = batch.frame, batch.frame
        assert first is not second  # never cached on the batch
        assert first == small_frame.take(batch.rows)
        assert first.num_rows == batch.n_rows

    def test_standalone_frame_batch_is_its_whole_feed(self, small_frame):
        batch = MeasurementBatch(
            index=0, start_hour=0.0, end_hour=1.0, feed=small_frame
        )
        assert batch.frame is small_frame
        assert batch.n_rows == small_frame.num_rows

    def test_equality_is_identity(self, small_frame):
        (batch,) = slice_frame(small_frame, n_batches=1)
        assert batch == batch
        assert batch != dataclasses.replace(batch)


class TestRandomBatches:
    def test_deterministic_under_seed(self, small_frame):
        a = random_batches(small_frame, n_batches=6, seed=42)
        b = random_batches(small_frame, n_batches=6, seed=42)
        assert [x.n_rows for x in a] == [x.n_rows for x in b]
        assert [x.start_hour for x in a] == [x.start_hour for x in b]

    def test_different_seeds_differ(self, small_frame):
        a = random_batches(small_frame, n_batches=6, seed=1)
        b = random_batches(small_frame, n_batches=6, seed=2)
        assert [x.n_rows for x in a] != [x.n_rows for x in b]

    def test_union_preserved(self, small_frame):
        batches = random_batches(small_frame, n_batches=9, seed=5)
        assert sum(b.n_rows for b in batches) == small_frame.num_rows


class TestReplayScenario:
    def test_replay_matches_measurements_frame(self, small_scenario, small_frame):
        frame, batches = replay_scenario(small_scenario, rng=3, n_batches=4)
        assert frame.num_rows == small_frame.num_rows
        assert sum(b.n_rows for b in batches) == small_frame.num_rows
        np.testing.assert_array_equal(
            frame.numeric("rtt_ms"), small_frame.numeric("rtt_ms")
        )

    def test_batch_repr_hides_frame(self, small_frame):
        (batch,) = slice_frame(small_frame, n_batches=1)
        assert isinstance(batch, MeasurementBatch)
        assert "frame=" not in repr(batch)
