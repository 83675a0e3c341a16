"""``group_order`` against numpy's stable argsort.

:func:`repro.frames.groupby.group_order` builds the permutation of
``np.argsort(codes, kind="stable")`` chunk by chunk, so its scratch is
chunk-sized.  Group-bys, the panel pivot, treatment assignment and
batch slicing all take their row order from it and promise
byte-identical outputs, so it must be that permutation value for value,
stored as ``code_dtype(len(codes))``, with bounds that delimit every
group.  The cases sit on the edges of the construction: empty input,
one group, lengths at one chunk and one chunk either side, groups split
across chunk boundaries, chunks of long and of single-row runs, group
counts across the ``uint8``/``uint16``/``uint32`` code limits, and
codes handed in as ``uint8``, ``uint16`` and ``int64``.  The per-group
``intp`` rows of :meth:`_Segments.rows` and the chunked slice ids of
:func:`cut_codes` are checked against their whole-array forms.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frames import groupby
from repro.frames.column import code_dtype
from repro.frames.groupby import _CHUNK_ROWS, _Segments, cut_codes, group_order

CODE_DTYPES = [np.uint8, np.uint16, np.int64]


def assert_matches_numpy(codes: np.ndarray, n_groups: int) -> None:
    order, bounds = group_order(codes, n_groups)
    assert order.dtype == code_dtype(len(codes))
    np.testing.assert_array_equal(order, np.argsort(codes, kind="stable"))
    sizes = np.bincount(codes.astype(np.int64), minlength=n_groups)
    assert bounds.dtype == np.int64
    np.testing.assert_array_equal(bounds, np.concatenate(([0], np.cumsum(sizes))))


@pytest.mark.parametrize("dtype", CODE_DTYPES)
@pytest.mark.parametrize("n_groups", [0, 1, 7])
def test_empty_codes(dtype, n_groups):
    assert_matches_numpy(np.array([], dtype=dtype), n_groups)


@pytest.mark.parametrize("n", [1, _CHUNK_ROWS, 3 * _CHUNK_ROWS + 1])
def test_single_group(n):
    assert_matches_numpy(np.zeros(n, dtype=np.uint8), 1)


@pytest.mark.parametrize("dtype", CODE_DTYPES)
@pytest.mark.parametrize("n", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
def test_one_chunk_and_one_either_side(n, dtype):
    rng = np.random.default_rng(n)
    assert_matches_numpy(rng.integers(0, 200, size=n).astype(dtype), 200)


@pytest.mark.parametrize("dtype", CODE_DTYPES)
def test_groups_split_across_chunk_boundaries(dtype):
    # Long runs whose edges straddle every chunk boundary, then the same
    # groups again interleaved: each group has rows in several chunks.
    rng = np.random.default_rng(11)
    lens = rng.integers(_CHUNK_ROWS // 3, _CHUNK_ROWS, size=9)
    runs = np.repeat(np.arange(9), lens)
    mixed = rng.integers(0, 9, size=2 * _CHUNK_ROWS + 5)
    codes = np.concatenate([runs, mixed, runs[::-1]]).astype(dtype)
    assert len(codes) > 4 * _CHUNK_ROWS
    assert_matches_numpy(codes, 9)


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("n_held", [4, 256, 257])
def test_chunks_of_long_and_of_single_row_runs(n_held, shuffled):
    # Every chunk holds exactly n_held groups, as long runs or shuffled
    # into runs of about one row; consecutive chunks share groups, so
    # each group's rows span chunks.
    n_groups = 2 * n_held
    edges = np.linspace(0, _CHUNK_ROWS, n_held + 1).astype(np.int64)
    rng = np.random.default_rng(n_held)
    chunks = []
    for c in range(3):
        groups = (np.arange(n_held) * 2 + c) % n_groups
        chunk = np.repeat(groups, np.diff(edges))
        if shuffled:
            rng.shuffle(chunk)
        chunks.append(chunk)
    codes = np.concatenate(chunks)
    assert_matches_numpy(codes, n_groups)


@pytest.mark.parametrize("dtype", [None, np.int64])
@pytest.mark.parametrize("n_groups", [1, 256, 257, 65536, 65537])
def test_group_counts_across_code_dtype_limits(n_groups, dtype):
    rng = np.random.default_rng(n_groups)
    codes = np.concatenate(
        [np.arange(n_groups), rng.integers(0, n_groups, size=2 * _CHUNK_ROWS + 3)]
    )
    rng.shuffle(codes)
    assert_matches_numpy(codes.astype(dtype or code_dtype(n_groups)), n_groups)


@given(
    st.lists(st.integers(0, 9), max_size=120),
    st.integers(1, 9),
)
@settings(max_examples=200, deadline=None)
def test_any_codes_under_small_chunks(values, chunk_rows):
    # Tiny chunks put many boundaries and long and short runs inside a
    # short array.
    codes = np.array(values, dtype=np.int64)
    with mock.patch.object(groupby, "_CHUNK_ROWS", chunk_rows):
        assert_matches_numpy(codes, 10)


@given(
    st.lists(st.integers(0, 9), max_size=120),
    st.integers(1, 9),
)
@settings(max_examples=200, deadline=None)
def test_segment_rows_are_the_order_slices_as_intp(values, chunk_rows):
    # Blocks of consecutive groups are widened at a time; tiny chunks
    # make groups both share a block and outgrow one.
    codes = np.array(values, dtype=np.int64)
    with mock.patch.object(groupby, "_CHUNK_ROWS", chunk_rows):
        seg = _Segments(codes, 10)
        rows = list(seg.rows())
    assert len(rows) == 10
    for g, idx in enumerate(rows):
        assert idx.dtype == np.intp
        np.testing.assert_array_equal(idx, np.flatnonzero(codes == g))


@pytest.mark.parametrize("n_cuts", [0, 1, 254, 255, 256])
def test_cut_codes_match_searchsorted(n_cuts):
    rng = np.random.default_rng(n_cuts)
    cuts = np.sort(rng.uniform(0.0, 100.0, n_cuts))
    values = np.concatenate(
        [rng.uniform(-1.0, 101.0, 2 * _CHUNK_ROWS + 7), cuts]  # some exactly on a cut
    )
    codes = cut_codes(values, cuts)
    assert codes.dtype == code_dtype(n_cuts + 1)
    np.testing.assert_array_equal(codes, np.searchsorted(cuts, values, side="right"))
