"""Full-precision pins of the stream's live (advisory) rows.

``STREAM_LIVE_TABLE`` in ``test_pinned_outputs`` hashes a rendered table:
two decimals, rows only, last batch only.  It cannot see a last-bit
drift in a live effect, RMSE ratio or p-value, nor a changed skip
reason.  The digest here covers ``repr((rows, skipped))`` of
``live_result()`` after every batch of the 6-hour stream, plus each
batch's warm, cold and placebo-refresh counts.  ``repr`` of a float
round-trips, so any change to any bit of any live number changes it.
"""

from __future__ import annotations

import hashlib

from repro.stream import StreamStudy, slice_frame

LIVE_ROWS_DIGEST = "288eeaecf0fdfde94ab63a3e4126ad81b14c9a3348911f24bb16f47411af0018"


def _live_trace(study: StreamStudy, frame) -> str:
    lines = []
    for batch in slice_frame(frame, batch_hours=6.0):
        report = study.ingest(batch)
        live = study.live_result()
        counts = (report.warm_refits, report.cold_refits, report.placebo_refreshes)
        lines.append(repr((live.rows, live.skipped, counts)))
    return "\n".join(lines)


def test_six_hour_stream_live_rows_every_batch(small_frame, small_scenario):
    study = StreamStudy(small_scenario.ixp_name)
    trace = _live_trace(study, small_frame)
    study.close()
    assert hashlib.sha256(trace.encode()).hexdigest() == LIVE_ROWS_DIGEST


def test_live_skip_reasons_match_finalize(small_frame, small_scenario):
    """With no placebos allowed, live and final skip units for one reason."""
    study = StreamStudy(small_scenario.ixp_name, max_placebos=0)
    for batch in slice_frame(small_frame, batch_hours=6.0):
        study.ingest(batch)
    live = study.live_result()
    final = dict(study.finalize().skipped)
    assert live.rows == ()
    assert live.skipped
    for unit, reason in live.skipped:
        assert reason == final[unit]
        assert "donor pool too small" in reason
