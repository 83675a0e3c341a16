"""Vectorized kernels vs the row-wise reference implementations.

Every factorized fast path (grouping, aggregation, pivot, join, the
crossing scan, and the panel builder) must reproduce the historical
per-row Python loops exactly — same keys, same order, same floats to
the last bit.  The references live in ``tests/rowwise_frames.py`` and
``tests/rowwise_pipeline.py``; frames here are randomized with duplicate
keys and missing values to exercise the edge paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.frames.column import Column
from repro.frames.frame import Frame
from repro.frames.groupby import group_by, pivot
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
    frame = random_frame(seed)
    fast = frame.group_indices(["asn", "city"])
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


def test_aggregate_callable_matches_rowwise():
    frame = random_frame(3)
    span = lambda v: float(np.nanmax(v) - np.nanmin(v)) if len(v) else None
    fast = group_by(frame, "asn").aggregate(out=("value", span))
    ref = frw.aggregate(frame, "asn", out=("value", span))
    assert fast == ref


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("agg", ["median", "mean", "count"])
def test_pivot_matches_rowwise(seed, agg):
    frame = random_frame(seed).drop_missing(["city"])
    fast, fast_keys = pivot(frame, index="asn", columns="city", values="value", agg=agg)
    ref, ref_keys = frw.pivot(frame, index="asn", columns="city", values="value", agg=agg)
    assert fast_keys == ref_keys
    assert fast == ref


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("how", ["inner", "left"])
def test_join_matches_rowwise(seed, how):
    rng = np.random.default_rng(seed + 10)
    left = random_frame(seed)
    # Right side keyed on a subset of (asn, city), with duplicates, plus a
    # colliding column name to exercise the suffix path.
    n = 12
    cities = np.array(["jnb", "cpt", "dur", "xxx"], dtype=object)
    right = Frame(
        [
            Column("asn", rng.integers(100, 106, size=n).astype(np.int64)),
            Column("city", list(cities[rng.integers(0, 4, size=n)])),
            Column("pop", rng.integers(1, 9, size=n).astype(np.int64)),
            Column("value", rng.normal(size=n)),
        ]
    )
    fast = left.join(right, on=["asn", "city"], how=how)
    ref = frw.join(left, right, on=["asn", "city"], how=how)
    assert fast.column_names == ref.column_names
    for name in ref.column_names:
        a, b = fast.column(name), ref.column(name)
        assert a.kind == b.kind, name
        assert a == b, name


def test_join_single_key_and_empty_right():
    left = random_frame(4)
    empty = Frame([Column("asn", np.empty(0, dtype=np.int64)), Column("pop", [])])
    for how in ("inner", "left"):
        fast = left.join(empty, on="asn", how=how)
        ref = frw.join(left, empty, on="asn", how=how)
        assert fast.column_names == ref.column_names
        for name in ref.column_names:
            assert fast.column(name) == ref.column(name), name


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
