"""The generator's label columns are codes, and the hot path keeps them so.

The measurement generator writes ``city``, ``unit``, ``as_path``,
``ixps``, ``trigger`` and ``server_site`` as narrow codes with their
categories in first-appearance order, so ``factorize`` hands the codes
back without renumbering.  The batch study and the live stream work on
those codes end to end: neither decodes a label column into an object
array, and the frame stays near 47 bytes per row.
"""

import itertools

import numpy as np
import pytest

import repro.frames.column as column_module
from repro.design.checklist import selection_bias_checklist
from repro.frames import Column
from repro.frames.io import read_csv_text, to_csv_text
from repro.mplatform import SpeedTestGenerator, measurements_frame
from repro.mplatform.records import Trigger
from repro.pipeline import run_ixp_study
from repro.stream import StreamStudy, slice_frame
from repro.studies.collider_speedtest import tag_based_correction

LABELS = ("city", "unit", "as_path", "ixps", "trigger", "server_site")
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
    # Six float/int columns of 8 bytes, one bool, six 1-byte label codes.
    assert stored_bytes_per_row(fresh_frame) <= 50


def test_label_columns_factorize_without_renumbering(fresh_frame, monkeypatch):
    forbid(monkeypatch, column_module, "dense_rank")
    for name in LABELS:
        col = fresh_frame.column(name)
        codes, uniques = col.factorize()
        assert codes.dtype == np.uint8, name
        plain = Column(name, col.values.copy(), kind="object")
        plain_codes, plain_uniques = plain.factorize()
        np.testing.assert_array_equal(codes, plain_codes)
        assert uniques == plain_uniques, name


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
    # Only the day key gains a memo, one uint8 code per row.
    assert stored_bytes_per_row(fresh_frame) <= before + 1
    batches = slice_frame(fresh_frame, batch_hours=6.0)
    streamed = StreamStudy(small_scenario.ixp_name).run(batches)
    assert [r.unit for r in streamed.result.rows] == [r.unit for r in result.rows]
    for batch in batches:
        for name in LABELS:
            assert batch.frame.column(name)._values is None


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
