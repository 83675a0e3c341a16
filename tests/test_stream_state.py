"""Parity tests for the incremental state layer against the batch stages.

Every prefix of the stream must reproduce the batch pipeline's output
on the same rows: the accumulated panel equals ``rtt_panel`` and the
accumulated assignment equals ``assign_treatment``, computed from
scratch over the union of the batches ingested so far.
"""

import numpy as np
import pytest

from repro.frames import Frame
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import assign_treatment
from repro.stream import (
    AssignmentAccumulator,
    PanelAccumulator,
    random_batches,
    slice_frame,
)


def _prefix_frame(batches, n):
    merged = batches[0].frame
    for b in batches[1:n]:
        merged = merged.concat(b.frame)
    return merged


def _assert_panels_equal(got, want):
    assert tuple(got.times) == tuple(want.times)
    assert sorted(got.units) == sorted(want.units)
    for unit in want.units:
        np.testing.assert_array_equal(
            got.series(unit), want.series(unit), err_msg=unit
        )


class TestPanelAccumulator:
    @pytest.mark.parametrize("n_batches", [1, 4, 9])
    def test_every_prefix_matches_rtt_panel(self, small_frame, n_batches):
        batches = slice_frame(small_frame, n_batches=n_batches)
        acc = PanelAccumulator()
        for i, batch in enumerate(batches, start=1):
            delta = acc.apply(batch.frame)
            assert delta.n_dirty_cells >= len(delta.dirty_units)
            _assert_panels_equal(acc.panel, rtt_panel(_prefix_frame(batches, i)))

    def test_random_split_matches(self, small_frame):
        batches = random_batches(small_frame, n_batches=6, seed=11)
        acc = PanelAccumulator()
        for batch in batches:
            acc.apply(batch.frame)
        _assert_panels_equal(acc.panel, rtt_panel(small_frame))

    def test_empty_frame_is_noop(self, small_frame):
        acc = PanelAccumulator()
        acc.apply(small_frame)
        before = acc.panel
        delta = acc.apply(Frame())
        assert delta.dirty_units == ()
        assert acc.panel is before

    def test_row_count_tracks_ingested(self, small_frame):
        batches = slice_frame(small_frame, n_batches=3)
        acc = PanelAccumulator()
        for batch in batches:
            acc.apply(batch.frame)
        assert acc.n_rows == small_frame.num_rows


class TestAssignmentAccumulator:
    @pytest.mark.parametrize("n_batches", [1, 4, 9])
    def test_every_prefix_matches_assign_treatment(
        self, small_scenario, small_frame, n_batches
    ):
        ixp = small_scenario.ixp_name
        batches = slice_frame(small_frame, n_batches=n_batches)
        acc = AssignmentAccumulator(ixp)
        for i, batch in enumerate(batches, start=1):
            acc.apply(batch.frame)
            want = assign_treatment(_prefix_frame(batches, i), ixp)
            got = acc.assignment()
            assert got.first_crossing_hour == want.first_crossing_hour
            assert got.never_crossed == want.never_crossed
            assert got.treated_units == want.treated_units

    def test_random_split_matches(self, small_scenario, small_frame):
        ixp = small_scenario.ixp_name
        acc = AssignmentAccumulator(ixp)
        for batch in random_batches(small_frame, n_batches=7, seed=23):
            acc.apply(batch.frame)
        want = assign_treatment(small_frame, ixp)
        got = acc.assignment()
        assert got == want

    def test_dirty_units_cover_batch_units(self, small_scenario, small_frame):
        (batch,) = slice_frame(small_frame, n_batches=1)
        acc = AssignmentAccumulator(small_scenario.ixp_name)
        touched = acc.apply(batch.frame)
        assert set(touched) == set(str(u) for u in set(small_frame["unit"]))


class TestAssignmentBuffers:
    """Hours are kept as chunks, crossing flags only once a unit crossed;
    whatever the batch order, every prefix matches the batch stage."""

    IXP = "IX-TEST"

    @staticmethod
    def _crosses(unit, hour):
        # Unit "a" crosses from hour 6; "b" crosses every other hour, so
        # its windows stay contested; "c" crosses only from hour 40.
        if unit == "a":
            return hour >= 6
        if unit == "b":
            return int(hour) % 2 == 0
        return hour >= 40

    def _batch(self, unit_hours):
        units, hours, ixps = [], [], []
        for unit, unit_hours_ in unit_hours.items():
            for hour in unit_hours_:
                units.append(unit)
                hours.append(float(hour))
                ixps.append(self.IXP if self._crosses(unit, hour) else "")
        return Frame.from_dict({"unit": units, "time_hour": hours, "ixps": ixps})

    def test_append_grow_insert_append_matches_oracle(self):
        feed = [
            {"a": [0, 1, 2, 3], "b": [0, 1], "c": [0, 1]},  # no crossing yet
            {"a": [4, 5, 6], "b": [2, 3, 4], "c": [2, 3]},  # "a" first crosses
            {"a": [7, 8, 9, 10, 11, 12], "b": [5]},
            {"a": [13], "b": [6]},
            {"a": [2.5, 5.5], "b": [0.5, 4.5], "c": [30, 31]},  # reaches back
            {"a": [30, 31, 32, 33, 34, 35], "b": [40, 41], "c": [4, 5]},
            {"a": [36], "b": [42]},
            # "c" first crosses late, in a batch out of hour order that
            # also reaches back before its latest hours.
            {"c": [45, 3.5, 41, 40, 2.5], "a": [37]},
        ]
        acc = AssignmentAccumulator(self.IXP)
        seen = {"a": [], "b": [], "c": []}
        merged = None
        for batch in feed:
            frame = self._batch(batch)
            assert set(acc.apply(frame)) == set(batch)
            merged = frame if merged is None else merged.concat(frame)
            for unit, hours in batch.items():
                seen[unit].extend(float(h) for h in hours)
            for unit, unit_seen in seen.items():
                # Every absorbed hour is kept, once.
                got = np.sort(np.concatenate(acc._hours[unit]))
                np.testing.assert_array_equal(got, np.sort(np.asarray(unit_seen)))
                flags = acc._cross.get(unit)
                if not any(self._crosses(unit, h) for h in unit_seen):
                    # A unit that never crossed holds no crossing flags.
                    assert flags is None
                    continue
                # Flags stay aligned with the hours they describe.
                hours_now = np.concatenate(acc._hours[unit])
                np.testing.assert_array_equal(
                    np.concatenate(flags),
                    [self._crosses(unit, h) for h in hours_now],
                )
            assert acc.assignment() == assign_treatment(merged, self.IXP)
        assert acc.assignment().first_crossing_hour["c"] == 40.0
