"""Vectorized kernels vs the row-wise reference implementations.

Every factorized fast path (grouping, aggregation, pivot, the crossing
scan, and the panel builder) must reproduce the historical
per-row Python loops exactly — same keys, same order, same floats to
the last bit.  The references live in ``tests/rowwise_frames.py`` and
``tests/rowwise_pipeline.py``; frames here are randomized with duplicate
keys and missing values to exercise the edge paths.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.frames import groupby
from repro.frames.column import Column
from repro.frames.frame import Frame
from repro.frames.groupby import group_by, pivot_grid
from repro.pipeline.crossing import assign_treatment, crossing_mask
from repro.synthcontrol.donor import build_panel
from tests import rowwise_frames as frw
from tests import rowwise_pipeline as prw

AGGS = ["count", "sum", "mean", "median", "min", "max", "std", "first", "nunique"]


def random_frame(seed: int, n: int = 200) -> Frame:
    """Keys with heavy duplication, values with NaN, an object key with None."""
    rng = np.random.default_rng(seed)
    cities = np.array(["jnb", "cpt", "dur", "pta"], dtype=object)
    city = [cities[i] if i < len(cities) else None for i in rng.integers(0, 5, size=n)]
    value = rng.normal(size=n)
    value[rng.random(n) < 0.15] = np.nan
    return Frame(
        [
            Column("asn", rng.integers(100, 105, size=n).astype(np.int64)),
            Column("city", city),
            Column("value", value),
            Column("weight", rng.integers(0, 3, size=n).astype(np.int64)),
        ]
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_group_indices_matches_rowwise(seed):
    """group_by's key tuples and ``_Segments.rows()`` are the row-wise groups."""
    frame = random_frame(seed)
    fast = dict(group_by(frame, ["asn", "city"])._group_items())
    ref = frw.group_indices(frame, ["asn", "city"])
    assert list(fast.keys()) == list(ref.keys())
    for key in ref:
        np.testing.assert_array_equal(fast[key], ref[key])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("agg", AGGS)
def test_aggregate_matches_rowwise(seed, agg):
    frame = random_frame(seed)
    fast = group_by(frame, ["asn", "city"]).aggregate(out=("value", agg))
    ref = frw.aggregate(frame, ["asn", "city"], out=("value", agg))
    assert fast.column_names == ref.column_names
    for name in ref.column_names:
        a, b = fast.column(name), ref.column(name)
        assert a.kind == b.kind, name
        if a.kind == "float":
            np.testing.assert_array_equal(a.values, b.values)
        else:
            assert a.to_list() == b.to_list()


def _same_value(got, want) -> bool:
    """Equal, or both missing; a float equal to the bit."""
    if want is None or (isinstance(want, float) and np.isnan(want)):
        return got is None or (isinstance(got, float) and np.isnan(got))
    if isinstance(want, float):
        return np.float64(got).tobytes() == np.float64(want).tobytes()
    return got == want


#: Every builtin, per source column kind.  Object columns take the
#: builtins defined on arbitrary values; ``min``/``max`` need a column
#: without None.
BUILTINS_BY_COLUMN = {
    "value": sorted(frw.ROWWISE_BUILTINS),
    "weight": sorted(frw.ROWWISE_BUILTINS),
    "flag": sorted(frw.ROWWISE_BUILTINS),
    "city": ["count", "first", "last", "nunique"],
    "tag": ["count", "first", "last", "max", "min", "nunique"],
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("column", sorted(BUILTINS_BY_COLUMN))
def test_every_builtin_matches_rowwise_over_many_row_blocks(seed, column):
    """Float with NaN, int, bool and object columns, in seven-row chunks.

    Every group is read through ``_Segments.rows()``, which then widens
    the order a few rows at a time.  A fast kernel returns floats where
    the row-wise builtin returned numpy ints or bools, so values are
    compared, not column kinds.
    """
    rng = np.random.default_rng(seed + 20)
    frame = random_frame(seed, n=400)
    tags = np.array(["a", "b", "c"], dtype=object)
    frame = frame.with_column("flag", rng.random(400) < 0.3).with_column(
        "tag", Column("tag", tags[rng.integers(0, 3, size=400)], kind="object")
    )
    with mock.patch.object(groupby, "_CHUNK_ROWS", 7):
        for agg in BUILTINS_BY_COLUMN[column]:
            fast = group_by(frame, ["asn", "city"]).aggregate(out=(column, agg))
            ref = frw.aggregate(frame, ["asn", "city"], out=(column, agg))
            assert fast.column("asn") == ref.column("asn")
            got, want = fast["out"].tolist(), ref["out"].tolist()
            assert len(got) == len(want)
            assert all(_same_value(g, w) for g, w in zip(got, want)), agg


def test_aggregate_callable_matches_rowwise():
    frame = random_frame(3)
    span = lambda v: float(np.nanmax(v) - np.nanmin(v)) if len(v) else None
    fast = group_by(frame, "asn").aggregate(out=("value", span))
    ref = frw.aggregate(frame, "asn", out=("value", span))
    assert fast == ref


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("agg", ["median", "mean", "count"])
def test_pivot_matches_rowwise(seed, agg):
    """pivot_grid is the row-wise wide pivot with its rows sorted by key."""
    frame = random_frame(seed).drop_missing(["city"])
    rows, cols, grid = pivot_grid(
        frame, index="asn", columns="city", values="value", agg=agg
    )
    ref, ref_keys = frw.pivot(frame, index="asn", columns="city", values="value", agg=agg)
    ref = ref.sort_by("asn")
    assert cols == ref_keys
    assert rows == ref["asn"].tolist()
    for j, key in enumerate(ref_keys):
        np.testing.assert_array_equal(grid[:, j], ref[str(key)])


def measurement_like(seed: int, n: int = 400) -> Frame:
    """Minimal frame with the columns the crossing scan reads."""
    rng = np.random.default_rng(seed)
    units = [f"AS{100 + a}/jnb" for a in rng.integers(0, 6, size=n)]
    hours = rng.integers(0, 120, size=n).astype(float)
    ixp_pool = np.array(["", "NAPAfrica-JNB", "Other-IX", "NAPAfrica-JNB,Other-IX"], dtype=object)
    ixps = list(ixp_pool[rng.integers(0, 4, size=n)])
    return Frame(
        [
            Column("unit", units),
            Column("time_hour", hours),
            Column("ixps", ixps),
        ]
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_crossing_mask_matches_rowwise(seed):
    frame = measurement_like(seed)
    np.testing.assert_array_equal(
        crossing_mask(frame, "NAPAfrica-JNB"),
        prw.crossing_mask(frame, "NAPAfrica-JNB"),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("share,window", [(0.5, 24.0), (0.9, 6.0), (1.0, 1.0)])
def test_assign_treatment_matches_rowwise(seed, share, window):
    frame = measurement_like(seed)
    fast = assign_treatment(
        frame, "NAPAfrica-JNB", min_crossing_share=share, window_hours=window
    )
    ref = prw.assign_treatment(
        frame, "NAPAfrica-JNB", min_crossing_share=share, window_hours=window
    )
    assert fast == ref
    assert list(fast.first_crossing_hour) == list(ref.first_crossing_hour)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_panel_matches_rowwise(seed):
    rng = np.random.default_rng(seed)
    n = 300
    units = [f"AS{100 + a}/jnb" for a in rng.integers(0, 8, size=n)]
    days = rng.integers(0, 15, size=n).astype(np.int64)
    rtt = rng.normal(40, 5, size=n)
    rtt[rng.random(n) < 0.1] = np.nan
    frame = Frame(
        [Column("unit", units), Column("day", days), Column("rtt_ms", rtt)]
    )
    fast = build_panel(frame, unit="unit", time="day", outcome="rtt_ms")
    ref = prw.build_panel(frame, unit="unit", time="day", outcome="rtt_ms")
    assert fast.times == ref.times
    assert fast.units == ref.units
    np.testing.assert_array_equal(fast.matrix, ref.matrix)
