"""The generator's label and key columns are codes, and the hot path keeps them so.

The measurement generator writes ``city``, ``unit``, ``as_path``,
``ixps``, ``trigger`` and ``server_site`` — and the integer keys ``asn``
and ``day`` — as narrow codes with their categories in first-appearance
order (for ``day`` that is also ascending order), so ``factorize`` hands
the codes back without renumbering.  The batch study and the live
stream work on those codes end to end: neither decodes a label column
into an object array nor a key column into an ``int64`` array, and the
frame stays near 33 bytes per row.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import repro.frames.column as column_module
from repro.design.checklist import selection_bias_checklist
from repro.frames import Column
from repro.frames.io import read_csv_text, to_csv_text
from repro.mplatform import SpeedTestGenerator, measurements_frame
from repro.mplatform.records import Trigger
from repro.pipeline import rtt_panel, run_ixp_study
from repro.stream import StreamStudy, slice_frame
from repro.studies.collider_speedtest import tag_based_correction

LABELS = ("city", "unit", "as_path", "ixps", "trigger", "server_site")
KEYS = ("asn", "day")
TRIGGERS = [Trigger.BASELINE.value, Trigger.PERFORMANCE.value, Trigger.ROUTE_CHANGE.value]


def stored_bytes_per_row(frame):
    return sum(frame.column(n).nbytes for n in frame.column_names) / frame.num_rows


def forbid(monkeypatch, owner, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(owner, name, refuse)


@pytest.fixture
def fresh_frame(small_scenario):
    """A frame nothing has decoded or factorized yet."""
    return measurements_frame(small_scenario, rng=3)


def test_generated_frame_stores_at_most_50_bytes_per_row(fresh_frame):
    assert stored_bytes_per_row(fresh_frame) <= 50


def test_generated_frame_stores_at_most_34_bytes_per_row(fresh_frame):
    # Three float columns of 8 bytes, one bool, six 1-byte label codes
    # and two 1-byte key codes, plus the small category tables.
    assert stored_bytes_per_row(fresh_frame) <= 34
    for name in KEYS:
        col = fresh_frame.column(name)
        assert col.kind == "int" and col._codes.dtype == np.uint8, name


def test_label_columns_factorize_without_renumbering(fresh_frame, monkeypatch):
    """The label columns and the asn and day keys."""
    plain = {}
    for name in LABELS + KEYS:
        col = fresh_frame.column(name)
        plain[name] = Column(name, col.values.copy(), kind=col.kind).factorize()
    forbid(monkeypatch, column_module, "dense_rank")
    for name in LABELS + KEYS:
        codes, uniques = fresh_frame.column(name).factorize()
        assert codes.dtype == np.uint8, name
        plain_codes, plain_uniques = plain[name]
        np.testing.assert_array_equal(codes, plain_codes)
        assert uniques == plain_uniques, name
        assert [type(u) for u in uniques] == [type(u) for u in plain_uniques], name
    days = fresh_frame.column("day").factorize()[1]
    assert days == sorted(days)


def test_day_uniques_and_panel_times_stay_numpy_ints(fresh_frame, monkeypatch):
    forbid(monkeypatch, column_module, "dense_rank")
    _, days = fresh_frame.column("day").factorize()
    assert all(type(d) is np.int64 for d in days)
    panel = rtt_panel(fresh_frame)
    assert list(panel.times) == days
    assert all(type(t) is np.int64 for t in panel.times)


def test_trigger_codes_follow_first_occurrence(small_scenario, monkeypatch):
    """A trigger column whose first row is not ``baseline``.

    Rotating the classifier's output keeps every draw and makes the
    first row a route change; the trigger table must still list labels
    in the order they first occur.
    """
    natural = measurements_frame(small_scenario, rng=5).column("trigger").to_list()
    classify = SpeedTestGenerator._classify_triggers_batch

    def rotated(self, *args):
        return (classify(self, *args) + 2) % 3

    monkeypatch.setattr(SpeedTestGenerator, "_classify_triggers_batch", rotated)
    frame = measurements_frame(small_scenario, rng=5)
    col = frame.column("trigger")
    want = [TRIGGERS[(TRIGGERS.index(v) + 2) % 3] for v in natural]
    assert col[0] != Trigger.BASELINE.value
    assert col.to_list() == want
    forbid(monkeypatch, column_module, "dense_rank")
    _, uniques = col.factorize()
    assert uniques == list(dict.fromkeys(want))


def test_study_and_stream_never_decode_a_label_column(
    small_scenario, fresh_frame, monkeypatch
):
    forbid(monkeypatch, Column, "_decode")
    before = stored_bytes_per_row(fresh_frame)
    result = run_ixp_study(fresh_frame, small_scenario.ixp_name, n_jobs=1)
    # The key columns' codes are their own factorization: no memo added.
    assert stored_bytes_per_row(fresh_frame) == before
    batches = slice_frame(fresh_frame, batch_hours=6.0)
    streamed = StreamStudy(small_scenario.ixp_name).run(batches)
    assert [r.unit for r in streamed.result.rows] == [r.unit for r in result.rows]
    for batch in batches:
        for name in LABELS + KEYS:
            assert batch.frame.column(name)._values is None
            assert batch.frame.column(name)._codes is not None


def test_trigger_helpers_read_codes_not_labels(
    small_scenario, fresh_frame, monkeypatch
):
    """The §4.2 tag helpers classify each distinct tag once, by code.

    On a generated frame they must not decode the trigger column, and
    they must return what they return on the same rows read from CSV,
    where the column is a plain object array.
    """
    ixp = small_scenario.ixp_name
    plain = read_csv_text(to_csv_text(measurements_frame(small_scenario, rng=3)))
    assert plain.column("trigger")._codes is None
    expected = tag_based_correction(plain, ixp)
    expected_checks = selection_bias_checklist(plain)

    forbid(monkeypatch, Column, "_decode")
    got = tag_based_correction(fresh_frame, ixp)
    assert list(got) == list(expected)
    np.testing.assert_array_equal(list(got.values()), list(expected.values()))
    assert selection_bias_checklist(fresh_frame) == expected_checks
    assert fresh_frame.column("trigger")._values is None


def test_a_label_table_past_256_entries_widens_its_codes(small_scenario, monkeypatch):
    """One distinct ``ixps`` label per pool: past 256 pools the codes widen."""
    natural = measurements_frame(small_scenario, rng=3)
    calls = itertools.count()
    monkeypatch.setattr(
        SpeedTestGenerator, "_crossings", lambda self, asn, hour: (f"X{next(calls)}",)
    )
    frame = measurements_frame(small_scenario, rng=3)
    n_pools = next(calls)
    assert n_pools > 256
    forbid(monkeypatch, column_module, "dense_rank")
    codes, uniques = frame.column("ixps").factorize()
    assert codes.dtype == np.uint16
    assert uniques == [f"X{i}" for i in range(n_pools)]
    assert (np.diff(codes.astype(np.int64)) >= 0).all()  # one run per pool
    for name in ("unit", "as_path", "trigger", "rtt_ms"):
        assert frame.column(name) == natural.column(name)


def test_a_day_without_tests_has_no_category(small_scenario, monkeypatch):
    """Days are the ones that hold a test: a gap is renumbered, not kept."""
    plan_cells = SpeedTestGenerator._plan_cells

    def without_day_3(self, rate_rng):
        plan = plan_cells(self, rate_rng)
        keep = plan.hour // 24 != 3
        return dataclasses.replace(
            plan,
            **{
                name: getattr(plan, name)[keep]
                for name in ("hour", "group", "n_tests", "ambient", "recent", "state")
            },
        )

    monkeypatch.setattr(SpeedTestGenerator, "_plan_cells", without_day_3)
    frame = measurements_frame(small_scenario, rng=3)
    day = frame.column("day")
    want = (frame["time_hour"] // 24.0).astype(np.int64)
    np.testing.assert_array_equal(day.values, want)
    codes, uniques = day.factorize()
    assert 3 not in uniques and uniques == sorted(set(want.tolist()))
    assert codes.dtype == np.uint8 and int(codes.max()) == len(uniques) - 1

