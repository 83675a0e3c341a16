"""Unit tests for repro.frames.frame."""

import numpy as np
import pytest

from repro.errors import ColumnMismatchError, FrameError
from repro.frames import Column, Frame


@pytest.fixture
def frame() -> Frame:
    return Frame.from_dict(
        {
            "asn": [100, 100, 200, 200, 300],
            "rtt": [10.0, 12.0, 30.0, None, 20.0],
            "city": ["jnb", "cpt", "jnb", "jnb", "dbn"],
        }
    )


class TestConstruction:
    def test_shape(self, frame):
        assert frame.num_rows == 5
        assert frame.num_columns == 3
        assert frame.column_names == ["asn", "rtt", "city"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(FrameError):
            Frame([Column("x", [1]), Column("x", [2])])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ColumnMismatchError):
            Frame([Column("x", [1]), Column("y", [1, 2])])

    def test_from_records(self):
        f = Frame.from_records([{"a": 1, "b": 2}, {"a": 3}])
        assert f.num_rows == 2
        assert f.row(1)["b"] is None or np.isnan(f.row(1)["b"])

    def test_from_records_empty(self):
        assert Frame.from_records([]).num_rows == 0

    def test_from_records_column_order(self):
        f = Frame.from_records([{"a": 1}], columns=["b", "a"])
        assert f.column_names == ["b", "a"]


class TestAccess:
    def test_getitem_returns_values(self, frame):
        assert list(frame["asn"]) == [100, 100, 200, 200, 300]

    def test_unknown_column(self, frame):
        with pytest.raises(FrameError, match="no column"):
            frame.column("nope")

    def test_row_negative_index(self, frame):
        assert frame.row(-1)["city"] == "dbn"

    def test_row_out_of_range(self, frame):
        with pytest.raises(FrameError):
            frame.row(5)

    def test_contains(self, frame):
        assert "rtt" in frame
        assert "nope" not in frame

    def test_numeric_rejects_object(self, frame):
        with pytest.raises(FrameError):
            frame.numeric("city")

    def test_numeric_float_column_is_a_read_only_view(self, frame):
        values = frame.numeric("rtt")
        assert values.dtype == np.float64
        assert np.shares_memory(values, frame.column("rtt").values)
        with pytest.raises(ValueError):
            values[0] = 99.0
        assert frame["rtt"][0] == 10.0
        # The column itself stays writable until something factorizes it.
        assert frame.column("rtt").values.flags.writeable

    @pytest.mark.parametrize(
        "values", [np.array([3, 1, 2], dtype=np.int64), np.array([True, False, True])]
    )
    def test_numeric_int_and_bool_columns_convert_to_a_fresh_array(self, values):
        frame = Frame([Column("x", values)])
        out = frame.numeric("x")
        assert out.dtype == np.float64
        assert out.flags.writeable
        assert not np.shares_memory(out, frame.column("x").values)
        np.testing.assert_array_equal(out, values.astype(np.float64))


class TestColumnTransforms:
    def test_select_order(self, frame):
        assert frame.select(["city", "asn"]).column_names == ["city", "asn"]

    def test_drop(self, frame):
        assert frame.drop("rtt").column_names == ["asn", "city"]

    def test_drop_unknown(self, frame):
        with pytest.raises(FrameError):
            frame.drop("nope")

    def test_rename(self, frame):
        out = frame.rename({"rtt": "rtt_ms"})
        assert "rtt_ms" in out and "rtt" not in out

    def test_with_column_replaces(self, frame):
        out = frame.with_column("asn", [1, 2, 3, 4, 5])
        assert list(out["asn"]) == [1, 2, 3, 4, 5]
        assert out.column_names[-1] == "asn"  # replaced columns move last

    def test_with_column_length_check(self, frame):
        with pytest.raises(ColumnMismatchError):
            frame.with_column("z", [1])

    def test_derive(self, frame):
        out = frame.derive("asn2", lambda r: r["asn"] * 2)
        assert list(out["asn2"]) == [200, 200, 400, 400, 600]


class TestRowTransforms:
    def test_filter_mask(self, frame):
        out = frame.filter(np.array([True, False, True, False, False]))
        assert out.num_rows == 2

    def test_filter_predicate(self, frame):
        out = frame.filter(lambda r: r["city"] == "jnb")
        assert out.num_rows == 3

    def test_drop_missing(self, frame):
        assert frame.drop_missing(["rtt"]).num_rows == 4

    def test_sort_by_single(self, frame):
        out = frame.sort_by("asn", descending=True)
        assert out.row(0)["asn"] == 300

    def test_sort_by_multi_stable(self, frame):
        out = frame.sort_by(["asn", "city"])
        assert [r["city"] for r in out.iter_rows()][:2] == ["cpt", "jnb"]

    def test_sort_by_descending_stable_on_duplicate_keys(self):
        # Rows sharing a key must keep their original relative order even
        # when descending (reversing the ascending output would flip them).
        f = Frame.from_dict(
            {"key": [2, 1, 2, 1, 2], "row": [0, 1, 2, 3, 4]}
        )
        out = f.sort_by("key", descending=True)
        assert [r["row"] for r in out.iter_rows()] == [0, 2, 4, 1, 3]

    def test_sort_by_descending_stable_object_and_float_keys(self):
        f = Frame.from_dict(
            {
                "name": ["b", "a", "b", "a"],
                "x": [1.0, 2.0, 1.0, 2.0],
                "row": [0, 1, 2, 3],
            }
        )
        by_name = f.sort_by("name", descending=True)
        assert [r["row"] for r in by_name.iter_rows()] == [0, 2, 1, 3]
        by_x = f.sort_by("x", descending=True)
        assert [r["row"] for r in by_x.iter_rows()] == [1, 3, 0, 2]

    def test_sort_by_descending_nan_last(self):
        f = Frame.from_dict({"x": [1.0, None, 3.0]})
        out = f.sort_by("x", descending=True)
        vals = list(out["x"])
        assert vals[0] == 3.0 and vals[1] == 1.0 and np.isnan(vals[2])

    def test_take(self, frame):
        assert frame.take([4, 0]).row(0)["asn"] == 300

    def test_head(self, frame):
        assert frame.head(2).num_rows == 2

    def test_concat(self, frame):
        out = frame.concat(frame)
        assert out.num_rows == 10

    def test_concat_column_mismatch(self, frame):
        with pytest.raises(ColumnMismatchError):
            frame.concat(frame.drop("rtt"))


class TestRendering:
    def test_to_text_contains_data(self, frame):
        text = frame.to_text()
        assert "jnb" in text and "asn" in text

    def test_to_text_truncates(self, frame):
        text = frame.to_text(max_rows=2)
        assert "more rows" in text

    def test_empty_frame_text(self):
        assert Frame().to_text() == "(empty frame)"

    def test_repr(self, frame):
        assert "5 rows" in repr(frame)


class TestEquality:
    def test_round_trip_dict(self, frame):
        again = Frame.from_dict(frame.to_dict())
        assert again == frame

    def test_not_hashable(self, frame):
        with pytest.raises(TypeError):
            hash(frame)
