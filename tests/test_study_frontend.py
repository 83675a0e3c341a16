"""The study front end against its reference, and its memory per stage.

Treatment assignment and the panel pivot sort narrow keys and keep one
row-length index live at a time; ``tests/reference_study_frontend.py``
holds the earlier code that made a row-length copy per step.  Under the
same frame both must give the same assignments (insertion order
included) and byte-identical grids — on NaN outcomes (all-NaN cells
too) and NaN day keys, unit labels whose ``str`` collides, empty and
one-row frames, key counts on both sides of the ``uint8``, ``uint16``
and ``uint32`` limits, and chunks of seven rows, so that
:meth:`~repro.frames.groupby._Segments.rows` widens the order in many
blocks.

The memory tests bound each stage's traced peak above its input.  On a
generated frame, whose columns are codes and need no factorize memo,
the bound is per row: the stage's row order is one narrow index built
chunk by chunk (:func:`repro.frames.groupby.group_order`), and the
chunk scratch is fixed-size, so the bound holds from about half a
million rows up.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.frames import groupby
from repro.frames.column import Column, code_dtype, dense_rank, narrow_codes
from repro.frames.frame import Frame
from repro.frames.groupby import _Segments, pivot_grid
from repro.mplatform import measurements_frame
from repro.netsim import build_table1_scenario
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import assign_treatment
from repro.stream.batches import slice_frame
from tests import reference_study_frontend as ref

IXP = "NAPAfrica-JNB"
_IXPS = np.array(["", IXP, "JINX", f"JINX,{IXP}"], dtype=object)


def study_frame(
    seed: int,
    n_rows: int,
    n_units: int,
    n_days: int,
    *,
    nan_share: float = 0.0,
    nan_days: bool = False,
    colliding_labels: bool = False,
) -> Frame:
    """Measurement-shaped rows; units that start crossing at random hours."""
    rng = np.random.default_rng(seed)
    labels = np.empty(n_units, dtype=object)
    labels[:] = [f"AS{100 + u}/jnb" for u in range(n_units)]
    if colliding_labels and n_units >= 4:
        # Distinct values, equal str(): the int 7 and the string "7",
        # the int 8 and the string "8".
        labels[:4] = [7, "7", 8, "8"]
    unit_idx = rng.integers(0, n_units, size=n_rows)
    hours = rng.integers(0, 24 * n_days, size=n_rows).astype(np.float64)
    never = rng.random(n_units) < 0.5
    join = np.where(never, np.inf, rng.uniform(0, 24 * n_days, size=n_units))
    crossing = (hours >= join[unit_idx]) & (rng.random(n_rows) < 0.8)
    crossing_ixps = rng.choice([1, 3], size=n_rows)
    other_ixps = rng.choice([0, 2], size=n_rows)
    ixps = _IXPS[np.where(crossing, crossing_ixps, other_ixps)]
    day = np.floor(hours / 24.0)
    if nan_days:
        day[rng.random(n_rows) < 0.05] = np.nan
    rtt = rng.normal(40.0, 5.0, size=n_rows).round(1)  # rounding makes median ties
    rtt[rng.random(n_rows) < nan_share] = np.nan
    return Frame(
        [
            Column("unit", labels[unit_idx], kind="object"),
            Column("time_hour", hours),
            Column("day", day if nan_days else day.astype(np.int64)),
            Column("ixps", ixps, kind="object"),
            Column("rtt_ms", rtt),
        ]
    )


def _copy(frame: Frame) -> Frame:
    """The same arrays under fresh columns: nothing factorized yet."""
    return Frame(
        [
            Column(name, frame.column(name).values, kind=frame.column(name).kind)
            for name in frame.column_names
        ]
    )


def _keys_equal(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        x == y or (x != x and y != y) for x, y in zip(a, b)
    )


def assert_frontend_matches_reference(frame: Frame) -> None:
    for share, window in ((0.5, 24.0), (0.9, 6.0), (1.0, 1.0)):
        got = assign_treatment(_copy(frame), IXP, share, window)
        want = ref.assign_treatment(_copy(frame), IXP, share, window)
        assert got == want
        assert list(got.first_crossing_hour) == list(want.first_crossing_hour)
    for agg in ref.FAST_AGGS:
        rows, cols, grid = pivot_grid(_copy(frame), "day", "unit", "rtt_ms", agg=agg)
        rows_ref, cols_ref, grid_ref = ref.pivot_grid(
            _copy(frame), "day", "unit", "rtt_ms", agg=agg
        )
        assert _keys_equal(rows, rows_ref)
        assert cols == cols_ref
        assert grid.shape == grid_ref.shape
        assert grid.tobytes() == grid_ref.tobytes(), agg


@pytest.mark.parametrize("seed", range(6))
def test_random_frames_match_reference(seed):
    rng = np.random.default_rng(1000 + seed)
    frame = study_frame(
        seed,
        n_rows=int(rng.integers(50, 3000)),
        n_units=int(rng.integers(1, 40)),
        n_days=int(rng.integers(1, 30)),
        nan_share=(0.0, 0.1, 0.4, 1.0, 0.4, 0.1)[seed],
        nan_days=bool(seed % 2),
        colliding_labels=seed >= 3,
    )
    assert_frontend_matches_reference(frame)


def test_nan_outcome_cells_match_reference():
    """Cells with no valid outcome, with a NaN among valid ones, and with none.

    A cell's NaNs land anywhere in its rows, so each kernel must drop
    them wherever they sit, and a cell whose outcomes are all NaN reads
    NaN.
    """
    frame = study_frame(11, n_rows=2000, n_units=12, n_days=10)
    rtt = frame["rtt_ms"].copy()
    rtt[::7] = np.nan
    day, unit = frame["day"], frame["unit"]
    rtt[(day == 3) & (unit == "AS104/jnb")] = np.nan  # one all-NaN cell
    frame = frame.with_column("rtt_ms", rtt)
    assert_frontend_matches_reference(frame)


@pytest.mark.parametrize("nan_days", [False, True])
def test_rows_widened_in_many_blocks_match_reference(nan_days):
    """Seven-row chunks: group orders and ``rows()`` blocks cross many bounds."""
    frame = study_frame(
        12, n_rows=1500, n_units=9, n_days=12, nan_share=0.2, nan_days=nan_days
    )
    with mock.patch.object(groupby, "_CHUNK_ROWS", 7):
        assert_frontend_matches_reference(frame)


@pytest.mark.parametrize("n_rows", [0, 1])
def test_empty_and_one_row_frames_match_reference(n_rows):
    for nan_days in (False, True):
        assert_frontend_matches_reference(
            study_frame(0, n_rows, n_units=3, n_days=2, nan_days=nan_days)
        )


@pytest.mark.parametrize(
    "n_units,n_days",
    [
        (16, 16),  # 256 cells: the last count whose codes fit uint8
        (17, 16),  # 272 cells: uint16
        (256, 1),  # 256 unit codes: uint8
        (257, 1),  # 257 unit codes: uint16
        (256, 256),  # 65536 cells: the last count that fits uint16
        (257, 256),  # 65792 cells: uint32
    ],
)
def test_key_counts_across_dtype_limits_match_reference(n_units, n_days):
    frame = study_frame(
        n_units + n_days, 3 * n_units * n_days, n_units, n_days, nan_share=0.05
    )
    assert_frontend_matches_reference(frame)


@pytest.mark.parametrize("n", [1, 256, 257, 65536, 65537])
def test_segments_sort_narrow_codes_to_the_wide_permutation(n):
    rng = np.random.default_rng(n)
    codes = np.concatenate([np.arange(n), rng.integers(0, n, size=3 * n)])
    rng.shuffle(codes)
    seg = _Segments(codes, n)
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(n + 1), side="left")
    assert seg.order.dtype == code_dtype(len(codes))
    np.testing.assert_array_equal(seg.order, order)
    np.testing.assert_array_equal(seg.starts, bounds[:-1])
    np.testing.assert_array_equal(seg.ends, bounds[1:])


@pytest.mark.parametrize(
    "n_distinct,dtype",
    [
        (0, np.uint8),
        (256, np.uint8),
        (257, np.uint16),
        (65536, np.uint16),
        (65537, np.uint32),
        (2**32, np.uint32),
        (2**32 + 1, np.int64),
    ],
)
def test_code_dtype_is_the_narrowest_that_holds_the_codes(n_distinct, dtype):
    assert code_dtype(n_distinct) == dtype
    top = np.array([max(n_distinct - 1, 0)], dtype=np.int64)
    assert narrow_codes(top, n_distinct)[0] == top[0]


@pytest.mark.parametrize(
    "span", [1, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**62, 2**64 - 1]
)
def test_dense_rank_int_ranges_across_dtype_limits_match_reference(span):
    rng = np.random.default_rng(span % 1000)
    lo = -(2**63) if span > 2**63 else -7
    ends = np.array([lo, lo + span], dtype=np.int64)
    values = np.concatenate(
        [ends, rng.choice(ends, size=50), lo + rng.integers(0, 200, size=50)]
    )
    rng.shuffle(values)
    got_codes, got_first = dense_rank(values)
    want_codes, want_first = ref.dense_rank(values)
    np.testing.assert_array_equal(got_codes, want_codes)
    np.testing.assert_array_equal(got_first, want_first)


@pytest.mark.parametrize("seed", range(3))
def test_dense_rank_bool_and_float_match_reference(seed):
    rng = np.random.default_rng(seed)
    flags = rng.random(500) < 0.3
    floats = rng.integers(0, 20, size=500).astype(np.float64)
    floats[rng.random(500) < 0.1] = np.nan
    for values, nan_equal in ((flags, False), (floats, True), (floats, False)):
        got = dense_rank(values, nan_equal=nan_equal)
        want = ref.dense_rank(values, nan_equal=nan_equal)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def _traced_bytes_per_row(frame: Frame, stage) -> float:
    """The stage's traced peak above its start, in bytes per frame row."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stage(frame)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / frame.num_rows


def _traced_float_columns(frame: Frame, stage) -> float:
    """The stage's traced peak above its start, in row-length float64 columns."""
    return _traced_bytes_per_row(frame, stage) / 8


def test_assignment_peak_memory(small_frame, small_scenario):
    """Factorize memos, one order and one narrow key: under 2.5 columns.

    Group ids per row, their sorted copy and unit-ordered copies of the
    hours and crossing flags peaked at about 7.3 columns; an int64 order
    with its sort scratch at about 2.4; the narrow order reads 1.9.
    """
    columns = _traced_float_columns(
        _copy(small_frame), lambda f: assign_treatment(f, small_scenario.ixp_name)
    )
    assert columns <= 2.5, columns


def test_panel_peak_memory(small_frame):
    """Factorize memos, one order and one narrow cell code: under 4 columns.

    An int64 cell code per row, its sorted copy, the values gathered
    into cell order and an int64 NaN count peaked at about 9.4 columns;
    this frame is smaller than one sort chunk and reads 3.3.
    """
    columns = _traced_float_columns(_copy(small_frame), rtt_panel)
    assert columns <= 4.0, columns


@pytest.fixture(scope="module")
def generated():
    """A generated 5x-paper world (about 830k rows), its columns coded."""
    scenario = build_table1_scenario(
        n_donor_ases=30, duration_days=60, join_day=30, user_scale=5.0, seed=0
    )
    return scenario, measurements_frame(scenario, rng=0)


def test_assignment_scratch_on_a_generated_frame(generated):
    """The unit order (4 bytes a row), the crossing flags and one unit's
    hour-sorted rows: under 8 bytes a row.  A whole-frame int64 order
    with its sort buffer and the unsorted per-unit copies read 17.
    """
    scenario, frame = generated
    per_row = _traced_bytes_per_row(
        frame, lambda f: assign_treatment(f, scenario.ixp_name)
    )
    assert per_row <= 8.0, per_row


def test_panel_scratch_on_a_generated_frame(generated):
    """A narrow cell code and the cell order: under 8 bytes a row.  An
    int64 order beside the intp copy of the row remap's indices read 12.
    """
    _, frame = generated
    per_row = _traced_bytes_per_row(frame, rtt_panel)
    assert per_row <= 8.0, per_row


def test_slice_scratch_on_a_generated_frame(generated):
    """Narrow slice ids and the order the batches keep: under 8 bytes a
    row.  int64 slice ids, an int64 order and its narrow copy read 20.
    """
    _, frame = generated
    per_row = _traced_bytes_per_row(frame, lambda f: slice_frame(f, batch_hours=6.0))
    assert per_row <= 8.0, per_row
