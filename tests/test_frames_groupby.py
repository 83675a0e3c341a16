"""Unit tests for repro.frames.groupby."""

import numpy as np
import pytest

from repro.errors import FrameError
from repro.frames import Frame, group_by, pivot_grid


@pytest.fixture
def frame() -> Frame:
    return Frame.from_dict(
        {
            "unit": ["a", "a", "b", "b", "b"],
            "day": [0, 1, 0, 0, 1],
            "rtt": [10.0, 20.0, 5.0, 7.0, None],
        }
    )


class TestGroupBy:
    def test_group_count(self, frame):
        assert len(group_by(frame, "unit")) == 2

    def test_aggregate_mean_skips_nan(self, frame):
        out = group_by(frame, "unit").aggregate(m=("rtt", "mean"))
        by_unit = {r["unit"]: r["m"] for r in out.iter_rows()}
        assert by_unit["a"] == 15.0
        assert by_unit["b"] == 6.0

    def test_aggregate_median(self, frame):
        out = group_by(frame, "unit").aggregate(med=("rtt", "median"))
        by_unit = {r["unit"]: r["med"] for r in out.iter_rows()}
        assert by_unit["b"] == 6.0

    def test_aggregate_count_includes_nan_rows(self, frame):
        out = group_by(frame, "unit").aggregate(n=("rtt", "count"))
        by_unit = {r["unit"]: r["n"] for r in out.iter_rows()}
        assert by_unit["b"] == 3

    def test_multi_key(self, frame):
        out = group_by(frame, ["unit", "day"]).aggregate(n=("rtt", "count"))
        assert out.num_rows == 4

    def test_callable_aggregation(self, frame):
        out = group_by(frame, "unit").aggregate(
            spread=("rtt", lambda v: float(np.nanmax(v) - np.nanmin(v)))
        )
        by_unit = {r["unit"]: r["spread"] for r in out.iter_rows()}
        assert by_unit["a"] == 10.0

    def test_unknown_aggregation(self, frame):
        with pytest.raises(FrameError, match="unknown aggregation"):
            group_by(frame, "unit").aggregate(x=("rtt", "mode"))

    def test_unknown_source_column(self, frame):
        with pytest.raises(FrameError):
            group_by(frame, "unit").aggregate(x=("nope", "mean"))

    def test_empty_spec_rejected(self, frame):
        with pytest.raises(FrameError):
            group_by(frame, "unit").aggregate()

    def test_unknown_key(self, frame):
        with pytest.raises(FrameError):
            group_by(frame, "nope")

    def test_apply(self, frame):
        out = group_by(frame, "unit").apply(
            lambda key, g: {"unit": key[0], "rows": g.num_rows}
        )
        assert set(out["rows"]) == {2, 3}

    def test_std_none_for_single_row(self):
        f = Frame.from_dict({"g": ["x"], "v": [1.0]})
        out = group_by(f, "g").aggregate(s=("v", "std"))
        assert out.row(0)["s"] is None or np.isnan(out.row(0)["s"])

    def test_nunique(self, frame):
        out = group_by(frame, "unit").aggregate(d=("day", "nunique"))
        by_unit = {r["unit"]: r["d"] for r in out.iter_rows()}
        assert by_unit == {"a": 2, "b": 2}


class TestPivot:
    def test_shape(self, frame):
        days, units, grid = pivot_grid(frame, index="day", columns="unit", values="rtt")
        assert grid.shape == (2, 2)
        assert days == [0, 1]
        assert units == ["a", "b"]

    def test_missing_cell_is_nan(self, frame):
        days, units, grid = pivot_grid(frame, index="day", columns="unit", values="rtt")
        # only a NaN measurement that day
        assert np.isnan(grid[days.index(1), units.index("b")])

    def test_aggregates_multiple_cells(self, frame):
        days, units, grid = pivot_grid(
            frame, index="day", columns="unit", values="rtt", agg="mean"
        )
        assert grid[days.index(0), units.index("b")] == 6.0

    def test_unknown_agg(self, frame):
        with pytest.raises(FrameError):
            pivot_grid(frame, index="day", columns="unit", values="rtt", agg="nope")


class TestBuiltinDtypes:
    """Every numeric builtin returns plain Python numbers, consistently."""

    def test_min_max_builtins_return_plain_floats(self):
        # The historical builtins leaked numpy scalars from min/max while
        # every other aggregation returned plain Python numbers.
        from repro.frames.groupby import _BUILTINS

        values = np.array([3.0, 1.0, np.nan])
        for name in ("sum", "mean", "median", "min", "max"):
            result = _BUILTINS[name](values)
            assert type(result) is float, name
        assert type(_BUILTINS["count"](values)) is int

    def test_numeric_builtins_agree_on_kind(self, frame):
        out = group_by(frame, "unit").aggregate(
            s=("rtt", "sum"),
            m=("rtt", "mean"),
            md=("rtt", "median"),
            lo=("rtt", "min"),
            hi=("rtt", "max"),
        )
        for name in ("s", "m", "md", "lo", "hi"):
            assert out.column(name).kind == "float", name

    def test_count_stays_int(self, frame):
        out = group_by(frame, "unit").aggregate(n=("rtt", "count"))
        assert out.column("n").kind == "int"
        assert all(type(v) in (int, np.int64) for v in out["n"])

    def test_int_column_min_max_float_like_before(self):
        f = Frame.from_dict({"k": ["a", "a", "b"], "v": [3, 1, 7]})
        out = group_by(f, "k").aggregate(lo=("v", "min"), hi=("v", "max"))
        by_k = {r["k"]: r for r in out.iter_rows()}
        assert by_k["a"]["lo"] == 1.0 and by_k["b"]["hi"] == 7.0
        assert out.column("lo").kind == "float"
